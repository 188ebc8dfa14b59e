"""Simulation layer: the update rule, the drift estimator, trajectories."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collapse_lab import mc
from collapse_lab.analytic import _ndtr as ndtr
from collapse_lab.analytic import drift_prediction
from collapse_lab.dists import Normal, PointMass, Uniform
from collapse_lab.errors import ConfigError, DivergenceError, DomainError, SingularityError
from collapse_lab.mc import (
    CHUNK_SIZE,
    EnsembleSpec,
    UpdateConfig,
    decay_trajectory,
    noise_for,
    one_step_drift,
    resolve_threads,
    usable_cores,
    sgd_trajectory,
    standard_grid,
    _BLOCK,
    _drift_chunk,
    _fires,
)
from collapse_lab.net.train import sgd_step
from collapse_lab.sparsity import COLLAPSE_THRESHOLD

FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def cfg_with(**kw) -> UpdateConfig:
    base = dict(eta=0.1, c=1.0)
    base.update(kw)
    return UpdateConfig(**base)


def step(gamma, beta, x_hat, grad, cfg):
    """One sgd_trajectory step on the (gamma, beta) store: gradients g*H and x_hat*g*H, H from _fires, then sgd_step."""
    state = np.stack([gamma, beta])
    d_beta = grad * _fires(gamma, beta, x_hat, cfg.alpha)
    sgd_step(state, np.zeros_like(state), np.stack([x_hat * d_beta, d_beta]), cfg.eta, 0.0, cfg.weight_decay)
    return state[0], state[1]


class TestUpdateStep:
    def test_active_unit(self):
        # pre-activations 1*0.5 + 0.1 = 0.6 and 2*0.25 + 0 = 0.5 are > 0, so both fire
        gamma, beta, x_hat, grad = (
            np.array([1.0, 2.0]), np.array([0.1, 0.0]), np.array([0.5, 0.25]), np.array([2.0, -1.0]),
        )
        assert _fires(gamma, beta, x_hat, 0.0).tolist() == [True, True]
        g2, b2 = step(gamma, beta, x_hat, grad, cfg_with(eta=0.1))
        assert b2.tolist() == [0.1 - 0.1 * 2.0, 0.1]
        assert g2.tolist() == [1.0 - 0.1 * (0.5 * 2.0), 2.0 + 0.1 * 0.25]

    def test_dead_unit(self):
        # dead units get no gradient: at lambda = 0 their state keeps every bit
        gamma, beta, x_hat, grad = (
            np.array([1.0, 0.5]), np.array([-2.0, 0.1]), np.array([0.5, -1.0]), np.array([2.0, 3.0]),
        )
        assert _fires(gamma, beta, x_hat, 0.0).tolist() == [False, False]
        g2, b2 = step(gamma, beta, x_hat, grad, cfg_with(eta=0.1))
        assert g2.tobytes() == gamma.tobytes() and b2.tobytes() == beta.tobytes()

    def test_exactly_zero_pre_activation(self):
        # 1*0.5 - 0.5 = 0 and H(0) = 0, so no update; the active neighbour still moves
        gamma, beta, x_hat, grad = (
            np.array([1.0, 1.0]), np.array([-0.5, 0.5]), np.array([0.5, 0.5]), np.array([7.0, 7.0]),
        )
        assert _fires(gamma, beta, x_hat, 0.0).tolist() == [False, True]
        g2, b2 = step(gamma, beta, x_hat, grad, cfg_with(eta=0.1))
        assert (g2[0], b2[0]) == (1.0, -0.5)
        assert b2[1] == pytest.approx(0.5 - 0.7) and g2[1] == pytest.approx(1.0 - 0.35)

    def test_shift_enters_heaviside(self):
        # dead without the shift, active with it
        args = (np.array([1.0]), np.array([-0.1]), np.array([0.0]))
        assert _fires(*args, 0.0).tolist() == [False]
        assert _fires(*args, 0.2).tolist() == [True]
        g2, b2 = step(*args, np.array([3.0]), cfg_with(eta=0.1, alpha=0.2))
        assert b2[0] == pytest.approx(-0.4) and g2[0] == 1.0

    @given(cols=st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE), min_size=1, max_size=8),
           alpha=st.floats(min_value=0.0, max_value=1.0))
    def test_coupling_identity(self, cols, alpha):
        """gamma's gradient is x_hat times beta's: one step from zero velocity moves beta by eta*g and gamma by
        eta*(x_hat*g), bit for bit, where the gate holds, and neither elsewhere."""
        gamma, beta, x_hat, grad = (np.array(c) for c in zip(*cols))
        g2, b2 = step(gamma, beta, x_hat, grad, cfg_with(eta=0.05, alpha=alpha))
        active = gamma * x_hat + beta + alpha > 0
        assert np.array_equal(g2[~active], gamma[~active]) and np.array_equal(b2[~active], beta[~active])
        assert np.array_equal(b2[active], beta[active] - 0.05 * grad[active])
        assert np.array_equal(g2[active], gamma[active] - 0.05 * (x_hat[active] * grad[active]))

    @given(cols=st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE), min_size=1, max_size=8))
    def test_zero_eta_never_moves(self, cols):
        gamma, beta, x_hat, grad = (np.array(c) for c in zip(*cols))
        g2, b2 = step(gamma, beta, x_hat, grad, cfg_with(eta=0.0))
        assert np.array_equal(g2, gamma) and np.array_equal(b2, beta)


class TestConfigs:
    def test_noise_default_matches_c(self):
        cfg = UpdateConfig(eta=0.01, c=2.0)
        assert cfg.noise_dist == Normal(0.0, 2.0)
        assert UpdateConfig(eta=0.01, c=0.0).noise_dist == PointMass(0.0)

    def test_noise_for_uniform_has_matching_sd(self):
        d = noise_for("uniform", 1.5)
        assert math.isclose((d.hi - d.lo) / math.sqrt(12.0), 1.5, rel_tol=1e-12)
        assert d.is_even

    def test_noise_for_rejects_unknown(self):
        with pytest.raises(ConfigError):
            noise_for("cauchy", 1.0)

    def test_noise_for_checks_kind_before_zero_scale(self):
        with pytest.raises(ConfigError):
            noise_for("cauchy", 0.0)

    def test_noise_kind_sets_noise_dist(self):
        assert UpdateConfig(eta=0.01, c=1.5, noise="uniform").noise_dist == noise_for("uniform", 1.5)
        assert UpdateConfig(eta=0.01, c=0.0, noise="uniform").noise_dist == PointMass(0.0)
        with pytest.raises(ConfigError, match="unknown noise kind"):
            UpdateConfig(eta=0.01, c=1.0, noise="cauchy")

    @pytest.mark.parametrize(
        "kw",
        [
            dict(eta=-0.1, c=1.0),
            dict(eta=0.1, c=-1.0),
            dict(eta=0.1, c=1.0, weight_decay=-1e-3),
            dict(eta=0.1, c=1.0, alpha=1.5),
            dict(eta=0.1, c=1.0, alpha=-0.1),
            dict(eta=0.1, c=1.0, seed=-1),
            dict(eta=0.1, c=1.0, seed=2**64),
        ],
    )
    def test_update_config_rejects(self, kw):
        with pytest.raises(ConfigError):
            UpdateConfig(**kw)

    def test_ensemble_spec_rejects(self):
        with pytest.raises(ConfigError):
            EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1, 1), count=0)
        with pytest.raises(SingularityError):
            EnsembleSpec(Uniform(-0.5, 1.5), Uniform(-1, 1), count=10_000)

    def test_resolve_threads_env(self, monkeypatch):
        cores = usable_cores()
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "2")
        assert resolve_threads(8) == min(2, cores)
        assert resolve_threads(1) == 1
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "zero")
        with pytest.raises(ConfigError):
            resolve_threads(8)
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "0")
        with pytest.raises(ConfigError):
            resolve_threads(8)
        monkeypatch.delenv("COLLAPSE_LAB_THREADS")
        assert resolve_threads(3) == min(3, cores)
        assert resolve_threads(10**6) == cores
        assert resolve_threads(0) == 1

    def test_usable_cores_follows_affinity(self, monkeypatch):
        # a process pinned to one CPU of many (taskset -c 0) gets one worker
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.delenv("COLLAPSE_LAB_THREADS", raising=False)
        assert usable_cores() == 1
        assert resolve_threads(8) == 1
        # where the platform has no affinity set, os.cpu_count() counts, and an unknown count is 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert usable_cores() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cores() == 1


SPEC_UU = EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1, 1), count=200_000)


class TestOneStepDrift:
    def test_zero_eta_is_exactly_zero(self):
        (est,) = one_step_drift(SPEC_UU, [cfg_with(eta=0.0, c=1.0, seed=5)])
        assert est.empirical_mean == 0.0
        assert est.agree

    def test_agrees_with_prediction(self):
        (est,) = one_step_drift(SPEC_UU, [cfg_with(eta=0.005, seed=0)])
        assert est.empirical_mean < 0
        assert est.agree
        assert abs(est.empirical_mean - est.predicted) <= 3 * est.std_error
        assert est.gamma_crossings == 0

    def test_point_point_cell(self):
        # n chosen so the 3-sigma band sits ~10x tighter than the check needs
        spec = EnsembleSpec(PointMass(1.0), PointMass(0.0), count=1_000_000)
        (est,) = one_step_drift(spec, [cfg_with(eta=0.005, seed=0)])
        want = 0.5 * 0.005**2 * (-1.0 / math.pi)
        assert abs(est.empirical_mean - want) <= 3 * est.std_error
        assert math.isclose(est.predicted, want, rel_tol=1e-10)

    def test_deterministic_across_threads(self, monkeypatch):
        # two chunks, so a cap above 1 runs them on two threads where there are two cores
        spec = EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1, 1), count=CHUNK_SIZE + 50_000)
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "1")
        (a,) = one_step_drift(spec, [cfg_with(eta=0.01, seed=3)])
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "4")
        (b,) = one_step_drift(spec, [cfg_with(eta=0.01, seed=3)])
        assert a.empirical_mean == b.empirical_mean
        assert a.std_error == b.std_error

    def test_chunk_working_memory(self, monkeypatch):
        # one chunk of the six-cell grid holds a few L2-sized blocks and no chunk-long array (about 1.5 MiB)
        cfgs = standard_grid(0)
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "1")
        one_step_drift(SPEC_UU, cfgs)  # SciPy and the thread pool's imports, outside the trace
        spec = EnsembleSpec(SPEC_UU.gamma_dist, SPEC_UU.beta_dist, count=CHUNK_SIZE)
        tracemalloc.start()
        try:
            one_step_drift(spec, cfgs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_stacked_rows_equal_each_config_alone(self, monkeypatch, threads):
        # two etas stacked on one normal draw, of which only eta 0.3 crosses, a uniform row and a c = 0 row,
        # over a partial last chunk and block: each row is the estimate of its config run alone
        spec = EnsembleSpec(Uniform(0.2, 0.4), Uniform(-1, 1), CHUNK_SIZE + 20_123)
        cfgs = [
            UpdateConfig(eta=0.01, c=1.0, noise="normal", alpha=0.1, seed=5),
            UpdateConfig(eta=0.3, c=1.0, noise="normal", alpha=0.1, seed=5),
            UpdateConfig(eta=0.01, c=1.0, noise="uniform", alpha=0.1, seed=5),
            UpdateConfig(eta=0.01, c=0.0, alpha=0.1, seed=5),
        ]
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", threads)
        ests = one_step_drift(spec, cfgs)
        assert [e.gamma_crossings for e in ests] == [0, 121_041, 0, 0]
        for cfg, est in zip(cfgs, ests):
            (alone,) = one_step_drift(spec, [cfg])
            assert (est.empirical_mean, est.std_error, est.gamma_crossings) == (
                alone.empirical_mean, alone.std_error, alone.gamma_crossings)

    def test_one_phi_call_per_noise_kind_and_twin(self, monkeypatch):
        # per block: the baseline, then each twin of each noise kind over all of that kind's configs at once
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return ndtr(*args, **kwargs)

        cfgs = standard_grid(0)
        spec = EnsembleSpec(SPEC_UU.gamma_dist, SPEC_UU.beta_dist, count=CHUNK_SIZE)
        monkeypatch.setattr("collapse_lab.mc.ndtr", counted)
        _drift_chunk(spec, cfgs, 0, CHUNK_SIZE)
        blocks = -(-CHUNK_SIZE // _BLOCK)
        assert (blocks, len(calls)) == (62, 5 * 62)

    def test_respects_thread_env(self, monkeypatch):
        (baseline,) = one_step_drift(SPEC_UU, [cfg_with(eta=0.01, seed=3)])
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "1")
        (capped,) = one_step_drift(SPEC_UU, [cfg_with(eta=0.01, seed=3)])
        assert capped.empirical_mean == baseline.empirical_mean

    def test_count_floor(self):
        with pytest.raises(ConfigError, match="count must be >= 10\\^4"):
            EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1, 1), count=9_999)
        EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1, 1), count=10_000)

    @pytest.mark.parametrize("count", [1e5, "100000", True])
    def test_count_must_be_an_integer(self, count):
        # a float, a string and a bool each fail when the spec is made, naming the count, not in a chunk
        with pytest.raises(ConfigError, match="count must be an integer"):
            EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1, 1), count=count)

    def test_integral_count_is_stored_as_int(self):
        assert type(EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1, 1), count=np.int64(10_000)).count) is int

    @pytest.mark.parametrize("count", [10**11 + 1, 10**30])
    def test_count_ceiling(self, count):
        # rejected when the spec is made, before one_step_drift plans a chunk
        with pytest.raises(ConfigError, match="count must be <= 10\\^11"):
            EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1, 1), count=count)

    @pytest.mark.parametrize("alpha", [0.1, 0.3])
    def test_shifted_rule_agrees(self, alpha):
        """Post-shift: Phi((beta+alpha)/gamma) drifts as the unshifted closed
        form with beta shifted by alpha, and not as the unshifted form itself."""
        spec = EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1, 1), count=4_000_000)
        (est,) = one_step_drift(spec, [cfg_with(eta=0.01, alpha=alpha, seed=0)])
        assert est.agree, (est.empirical_mean, est.predicted, est.std_error)
        unshifted = drift_prediction(0.01, 1.0, spec.gamma_dist, spec.beta_dist)
        assert abs(unshifted - est.predicted) > 10 * est.std_error

    def test_rejects_gamma_near_zero(self):
        with pytest.raises(SingularityError):
            EnsembleSpec(Uniform(0.01, 1.0), Uniform(-1, 1), count=20_000)

    @pytest.mark.parametrize("other", [{"seed": 1}, {"alpha": 0.1}])
    def test_group_must_share_seed_and_alpha(self, other):
        with pytest.raises(ConfigError, match="share seed and alpha"):
            one_step_drift(SPEC_UU, [cfg_with(eta=0.01), cfg_with(eta=0.005, **other)])

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigError):
            one_step_drift(SPEC_UU, [])

    @pytest.mark.parametrize("kw", [dict(eta=1e200), dict(c=1e300), dict(eta=1e160, c=1e160)])
    def test_overflowing_prediction_rejected_before_any_chunk(self, monkeypatch, kw):
        def no_chunk(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr("collapse_lab.mc._drift_chunk", no_chunk)
        with pytest.raises(ConfigError, match="the predicted drift overflows"):
            one_step_drift(SPEC_UU, [cfg_with(eta=0.01), cfg_with(**kw)])


def both_noise_kinds(eta, seed, alpha=0.0):
    return [UpdateConfig(eta=eta, c=1.0, noise=kind, alpha=alpha, seed=seed)
            for kind in ("normal", "uniform")]


def chunk_streams(seed, index):
    """A drift chunk's generators of gamma, beta and x_hat, and the SeedSequence of its noise stream."""
    *children, noise = np.random.SeedSequence([seed, index]).spawn(4)
    return (*(np.random.Generator(np.random.PCG64(s)) for s in children), noise)


# (gamma_dist, beta_dist, count, alpha, eta, seed, want): specs with gamma crossings, alpha > 0, a
# partial chunk, and gamma and beta of each law kind, and for each, as float.hex (empirical_mean, std_error)
# plus gamma_crossings, the normal then the uniform noise config
FROZEN = [
    (Uniform(0.5, 1.5), Uniform(-1.0, 1.0), 200_000, 0.0, 0.01, 7, [
        ("-0x1.894d396b7d91dp-17", "0x1.064e44c596d7fp-23", 0),
        ("-0x1.8bba46919ae0dp-17", "0x1.a26bbc1f89a9bp-24", 0)]),
    (Uniform(0.5, 1.5), Uniform(-1.0, 1.0), 200_000, 0.1, 0.01, 7, [
        ("-0x1.99e4a5f236a34p-17", "0x1.095e3cda31141p-23", 0),
        ("-0x1.9b74b75d1b632p-17", "0x1.9f327117ffae9p-24", 0)]),
    # steps large enough that gammas cross 0
    (Uniform(0.2, 0.4), Uniform(-1.0, 1.0), 200_000, 0.0, 0.3, 3, [
        ("-0x1.4145c65a2052dp-5", "0x1.8de2ff00f8231p-12", 21747),
        ("-0x1.7d2e047f76827p-5", "0x1.ac35ee996a7fbp-12", 25408)]),
    (Uniform(0.8, 1.6), Normal(0.1, 0.5), 200_000, 0.1, 0.02, 5, [
        ("-0x1.272aeaceaf69dp-15", "0x1.3cd3cb11279f3p-22", 0),
        ("-0x1.2789ed60d4f39p-15", "0x1.d9c42dc0792e3p-23", 0)]),
    # a partial last chunk whose length is not a whole number of blocks
    (Uniform(0.5, 1.5), Uniform(-1.0, 1.0), CHUNK_SIZE + 20_123, 0.0, 0.005, 11, [
        ("-0x1.8a56902c3bf15p-19", "0x1.dd039f152f283p-27", 0),
        ("-0x1.89ac51bacf7abp-19", "0x1.70930c162809bp-27", 0)]),
    # a point-mass gamma, whose stream is never read, and a normal beta, over a partial last block and a
    # partial last chunk
    (PointMass(1.0), Normal(0.1, 0.5), CHUNK_SIZE + 20_123, 0.2, 0.02, 13, [
        ("-0x1.5801fdb709393p-15", "0x1.3385bf027aff1p-23", 0),
        ("-0x1.5920a90191e33p-15", "0x1.d0cc30693b537p-24", 0)]),
]


class TestFrozenDrift:
    """Estimates pinned bit for bit, and checked against an exact sum of the pair terms."""

    @pytest.mark.parametrize("gamma_dist, beta_dist, count, alpha, eta, seed, want", FROZEN)
    def test_estimates_are_pinned(self, gamma_dist, beta_dist, count, alpha, eta, seed, want):
        ests = one_step_drift(EnsembleSpec(gamma_dist, beta_dist, count), both_noise_kinds(eta, seed, alpha))
        assert [(e.empirical_mean.hex(), e.std_error.hex(), e.gamma_crossings) for e in ests] == want

    @pytest.mark.parametrize("gamma_dist, beta_dist, count, alpha, eta, seed, want", FROZEN)
    def test_estimate_is_the_mean_of_the_pair_terms(self, gamma_dist, beta_dist, count, alpha, eta, seed, want):
        # every neuron's pair term, recomputed over each whole chunk from its replayed draws, then summed exactly;
        # each child stream is drawn whole here, where the chunk reads it block by block
        cfgs = both_noise_kinds(eta, seed, alpha)
        terms = {cfg.noise: [] for cfg in cfgs}
        for index, lo in enumerate(range(0, count, CHUNK_SIZE)):
            size = min(CHUNK_SIZE, count - lo)
            gammas, betas, xs, noise = chunk_streams(seed, index)
            gamma, beta, x_hat = gamma_dist.sample(gammas, size), beta_dist.sample(betas, size), xs.standard_normal(size)
            fires = _fires(gamma, beta, x_hat, alpha)
            p0 = ndtr((beta + alpha) / gamma)
            for cfg in cfgs:
                # every noise kind reads the noise stream from its start
                grad = cfg.noise_dist.sample(np.random.Generator(np.random.PCG64(noise)), size)
                # the gated one-step rule, written out here as the reference
                d_beta = np.where(fires, -cfg.eta * grad, 0.0)
                d_gamma = x_hat * d_beta
                twins = []
                for sign in (1.0, -1.0):
                    with np.errstate(divide="ignore", invalid="ignore"):
                        ratio = (beta + sign * d_beta + alpha) / (gamma + sign * d_gamma)
                    ratio[np.isnan(ratio)] = 0.0  # 0/0, as the estimator reads it
                    twins.append(ndtr(ratio) - p0)
                terms[cfg.noise].append(0.5 * (twins[0] + twins[1]))
        for cfg, est in zip(cfgs, one_step_drift(EnsembleSpec(gamma_dist, beta_dist, count), cfgs)):
            d = np.concatenate(terms[cfg.noise])
            s1, s2 = math.fsum(d), math.fsum(d * d)
            se = math.sqrt(max(s2 - s1 * s1 / count, 0.0) / (count - 1) / count)
            assert est.empirical_mean == pytest.approx(s1 / count, rel=1e-13, abs=0)
            assert est.std_error == pytest.approx(se, rel=1e-13, abs=0)

    def test_no_neuron_fires(self):
        # gamma*x_hat + beta > 0 needs x_hat > 26
        spec = EnsembleSpec(Uniform(0.5, 1.5), Uniform(-50.0, -40.0), 20_000)
        for est in one_step_drift(spec, both_noise_kinds(0.3, 2)):
            assert (est.empirical_mean, est.std_error, est.gamma_crossings) == (0.0, 0.0, 0)
            # a positive drift far below the rounding of a pair term: the zero estimate agrees with it
            assert 0.0 < est.predicted < 1e-300
            assert est.agree

    def test_every_neuron_fires(self):
        spec = EnsembleSpec(Uniform(0.5, 1.0), Uniform(5.0, 6.0), 20_000)
        # replay the one chunk's (gamma, beta, x_hat) draws: each pre-activation is positive
        gammas, betas, xs, _ = chunk_streams(2, 0)
        gamma, beta = spec.gamma_dist.sample(gammas, spec.count), spec.beta_dist.sample(betas, spec.count)
        assert np.all(gamma * xs.standard_normal(spec.count) + beta > 0)
        ests = one_step_drift(spec, both_noise_kinds(0.3, 2))
        assert [(e.empirical_mean.hex(), e.std_error.hex(), e.gamma_crossings) for e in ests] == [
            ("-0x1.60f2f61766948p-6", "0x1.78cef606419efp-11", 859),
            ("-0x1.44e12cd221bf9p-6", "0x1.69d975249d08cp-11", 792),
        ]


def scalar_loop(gamma0, beta0, steps, cfg):
    """The rule one neuron at a time in plain floats, reading the draws in
    the order sgd_trajectory does: blocks of 8192 // N steps, x then g;
    gamma moves by eta * (x * g), as sgd_step forms it."""
    gamma, beta = list(gamma0), list(beta0)
    n, shrink = len(gamma), 1.0 - cfg.eta * cfg.weight_decay
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed])))
    done = 0
    while done < steps:
        block = min(8192 // n, steps - done)
        xs = rng.standard_normal((block, n)).tolist()
        gs = cfg.noise_dist.sample(rng, (block, n)).tolist()
        for x_row, g_row in zip(xs, gs):
            for i in range(n):
                if gamma[i] * x_row[i] + beta[i] + cfg.alpha > 0:
                    gamma[i] -= cfg.eta * (x_row[i] * g_row[i])
                    beta[i] -= cfg.eta * g_row[i]
                gamma[i] *= shrink
                beta[i] *= shrink
        done += block
    return gamma, beta


class TestSgdTrajectory:
    def test_frozen_when_nothing_acts(self):
        _, gamma, beta = sgd_trajectory([1.0, 2.0], [0.3, -0.4], 100, cfg_with(eta=0.0, weight_decay=0.0, seed=2))
        assert np.all(gamma == [1.0, 2.0]) and np.all(beta == [0.3, -0.4])

    def test_zero_c_only_decays(self):
        # c = 0 means every gradient is 0; the state shrinks but the ratio holds
        _, gamma, beta = sgd_trajectory(1.0, 0.3, 50, cfg_with(eta=0.1, c=0.0, weight_decay=0.01, seed=2))
        assert gamma[-1, 0] == pytest.approx((1 - 0.001) ** 50)
        assert beta[-1, 0] / gamma[-1, 0] == pytest.approx(0.3, rel=1e-12)

    def test_record_stride(self):
        steps, gamma, beta = sgd_trajectory(np.ones(3), np.zeros(3), 100, cfg_with(seed=0), stride=10)
        assert steps.tolist() == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert gamma.shape == beta.shape == (11, 3)

    def test_final_step_always_recorded(self):
        steps, _, _ = sgd_trajectory(1.0, 0.0, 95, cfg_with(seed=0), stride=10)
        assert steps[-1] == 95

    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_scalar_loop(self, n):
        """Every neuron of the ensemble follows the rule bit for bit, active
        and dead ones alike, across noise blocks (9000 > 8192 and
        3000 > 8192 // 3 steps)."""
        cfg = cfg_with(eta=0.05, c=1.0, weight_decay=0.01, alpha=0.1, seed=4)
        gamma0, beta0 = [1.0, 0.5, 2.0][:n], [0.2, -3.0, 0.0][:n]
        steps = 9000 if n == 1 else 3000
        _, gamma, beta = sgd_trajectory(gamma0, beta0, steps, cfg, stride=steps)
        assert (gamma[-1].tolist(), beta[-1].tolist()) == scalar_loop(gamma0, beta0, steps, cfg)

    def test_one_sgd_step_per_step(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[3:])
            return sgd_step(*args)

        monkeypatch.setattr(mc, "sgd_step", counted)
        cfg = cfg_with(eta=0.05, weight_decay=0.01, seed=3)
        sgd_trajectory([1.0, 0.5], [0.1, -0.1], 25, cfg, stride=10)
        assert calls == [(0.05, 0.0, 0.01)] * 25

    def test_dead_zone_ratio_invariance(self):
        """A unit far below the activation edge only feels decay: beta/gamma
        stays put to 1e-12 relative over 1e5 steps."""
        cfg = cfg_with(eta=0.1, c=1.0, weight_decay=0.01, seed=9)
        _, gamma, beta = sgd_trajectory(1.0, -10.0, 100_000, cfg, stride=1000)
        ratio = beta[:, 0] / gamma[:, 0]
        worst = np.max(np.abs(ratio - ratio[0]) / abs(ratio[0]))
        assert worst < 1e-12
        assert abs(gamma[-1, 0]) < COLLAPSE_THRESHOLD  # decay alone took gamma below the threshold

    def test_determinism(self):
        a = sgd_trajectory([1.0, 0.5], [0.1, -0.1], 500, cfg_with(seed=21))
        b = sgd_trajectory([1.0, 0.5], [0.1, -0.1], 500, cfg_with(seed=21))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_divergence_carries_partial_records(self):
        cfg = cfg_with(eta=1e300, c=1e10, seed=0)
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
            sgd_trajectory([1.0, 1.0], [0.5, 0.5], 1000, cfg)
        steps, gamma, beta = err.value.partial
        assert steps.size and gamma.shape == beta.shape == (steps.size, 2)
        assert np.isfinite(gamma).all() and np.isfinite(beta).all()

    def test_shrink_must_stay_positive(self):
        with pytest.raises(ConfigError):
            sgd_trajectory(1.0, 0.0, 10, cfg_with(eta=1.0, weight_decay=1.0))

    def test_validation(self):
        with pytest.raises(DomainError):
            sgd_trajectory(1.0, 0.0, 0, cfg_with())
        with pytest.raises(DomainError):
            sgd_trajectory(1.0, 0.0, 10, cfg_with(), stride=0)
        with pytest.raises(DomainError):
            sgd_trajectory([1.0, 1.0], [0.0, 0.0, 0.0], 10, cfg_with())

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            sgd_trajectory([1.0, float("nan")], [0.0, 0.0], 10, cfg_with())
        with pytest.raises(DomainError):
            sgd_trajectory(1.0, float("inf"), 10, cfg_with())

    def test_two_arm_collapse_fractions(self):
        """Larger learning rate, more collapsed endpoints (1000 neurons per arm).

        Arms follow the active-start recipe: eta 0.5 vs 0.05, c = 5,
        lambda = 5e-4, 1e4 steps. The collapse cut uses 0.1 rather than the
        reporting default of 1e-3: over 1e4 steps the accumulated decay
        shrink is e^-2.5 ~ 0.082 for the hot arm versus e^-0.25 ~ 0.78 for
        the cool one, so 0.1 separates the regimes this horizon can reach.
        """
        def fraction(eta: float) -> float:
            cfg = UpdateConfig(eta=eta, c=5.0, weight_decay=5e-4, seed=0)
            _, gamma, _ = sgd_trajectory(np.ones(1000), np.zeros(1000), 10_000, cfg, stride=10_000)
            return float(np.mean(np.abs(gamma[-1]) < 0.1))

        hot, cool = fraction(0.5), fraction(0.05)
        assert hot > cool


class TestDecayTrajectory:
    CFG = UpdateConfig(eta=0.1, c=0.0, weight_decay=0.01, alpha=0.1, seed=0)

    def test_bit_equal_to_sgd_trajectory_at_zero_noise(self):
        """At c = 0 every gradient is 0, so the ensemble route's step is the decay alone: on the README's
        decay example both routes record the same gamma and beta, bit for bit, up to reactivation."""
        result = decay_trajectory((1.0, -1.1), self.CFG, steps=20_000)
        assert result.reactivation_step == 2397
        steps, gamma, beta = sgd_trajectory(1.0, -1.1, result.reactivation_step, self.CFG)
        assert steps.tolist() == [r.step for r in result.records]
        assert gamma[:, 0].tobytes() == np.array([r.gamma for r in result.records]).tobytes()
        assert beta[:, 0].tobytes() == np.array([r.beta for r in result.records]).tobytes()

    def test_first_increment(self):
        # (eta*lambda / (1 - eta*lambda)) * alpha / gamma0 with gamma0 = 1
        result = decay_trajectory((1.0, -1.1), self.CFG, steps=10)
        c0 = (result.records[0].beta + 0.1) / abs(result.records[0].gamma)
        c1 = (result.records[1].beta + 0.1) / abs(result.records[1].gamma)
        assert c0 == -1.0
        assert abs((c1 - c0) - (0.001 / 0.999) * 0.1) < 1e-12

    def test_record_carries_its_margin(self):
        result = decay_trajectory((1.0, -1.1), self.CFG, steps=50, stride=7)
        for r in result.records:
            assert r.c_margin == (r.beta + 0.1) / abs(r.gamma)
            assert r.activation_prob == ndtr(r.c_margin)

    def test_recurrence_every_step(self):
        """Each recorded increment matches the closed form to 1e-12."""
        result = decay_trajectory((1.0, -1.1), self.CFG, steps=3000)
        rate = 0.001 / 0.999
        for prev, cur in zip(result.records, result.records[1:]):
            c_prev = (prev.beta + 0.1) / abs(prev.gamma)
            c_cur = (cur.beta + 0.1) / abs(cur.gamma)
            assert abs((c_cur - c_prev) - rate * 0.1 / abs(prev.gamma)) < 1e-12

    def test_reactivation_matches_scalar_oracle(self):
        """Iterating the C recurrence alone predicts the same stopping step."""
        cfg = UpdateConfig(eta=0.1, c=0.0, weight_decay=5e-4, alpha=0.1, seed=0)
        result = decay_trajectory((0.5, -0.6), cfg, steps=200_000, stride=1000)
        shrink = 1.0 - 0.1 * 5e-4
        c, gamma, step = (-0.6 + 0.1) / 0.5, 0.5, 0
        while c < 0:
            c += (0.1 * 5e-4 / shrink) * 0.1 / abs(gamma)
            gamma *= shrink
            step += 1
        assert result.reactivation_step == step
        assert result.records[-1].step == step

    def test_margin_recovers_and_stops(self):
        result = decay_trajectory((1.0, -1.1), self.CFG, steps=10_000)
        assert result.reactivation_step is not None
        last = result.records[-1]
        assert (last.beta + 0.1) / abs(last.gamma) >= 0
        assert last.activation_prob >= 0.5  # Phi of the shifted margin
        assert last.step == result.reactivation_step

    def test_not_reached_when_horizon_short(self):
        result = decay_trajectory((1.0, -1.1), self.CFG, steps=5)
        assert result.reactivation_step is None

    def test_alpha_zero_rejected(self):
        cfg = UpdateConfig(eta=0.1, c=0.0, weight_decay=0.01, alpha=0.0)
        with pytest.raises(DomainError):
            decay_trajectory((1.0, -1.1), cfg, steps=10)

    def test_active_start_rejected(self):
        with pytest.raises(DomainError):
            decay_trajectory((1.0, 0.5), self.CFG, steps=10)

    def test_zero_gamma_rejected(self):
        with pytest.raises(DomainError):
            decay_trajectory((0.0, -1.1), self.CFG, steps=10)

    @pytest.mark.parametrize(
        "initial, steps, reason",
        [((1e-320, -1e300), 100, "gamma underflows to 0"), ((1e-300, -1e10), 2000, "margin .* overflows")],
    )
    def test_non_finite_trace_rejected(self, initial, steps, reason):
        cfg = UpdateConfig(eta=0.5, c=0.0, weight_decay=1.0, alpha=0.1)
        with pytest.raises(DomainError, match=reason):
            decay_trajectory(initial, cfg, steps=steps)


class TestVerifyTheorem:
    """The verification rows ``one_step_drift`` returns: one per config, with ratios paired within a run."""

    def test_standard_grid_shape(self):
        cfgs = standard_grid(3)
        assert len(cfgs) == 6
        assert {c.noise for c in cfgs} == {"normal", "uniform"}
        assert {c.eta for c in cfgs} == {0.002, 0.005, 0.01}
        assert {(c.c, c.seed) for c in cfgs} == {(1.0, 3)}

    def test_small_grid_agreement_and_ratio(self):
        rows = one_step_drift(SPEC_UU, [cfg_with(eta=0.004), cfg_with(eta=0.002)])
        assert all(r.agree for r in rows)
        assert all(r.empirical_mean < 0 for r in rows)
        double = next(r for r in rows if r.eta == 0.004)
        assert double.ratio_to_half_eta is not None
        assert abs(double.ratio_to_half_eta - 4.0) < 0.6
        half = next(r for r in rows if r.eta == 0.002)
        assert half.ratio_to_half_eta is None

    def test_ratio_only_within_one_noise_kind_and_c(self):
        spec = EnsembleSpec(SPEC_UU.gamma_dist, SPEC_UU.beta_dist, count=20_000)
        cfgs = [cfg_with(eta=0.01), cfg_with(eta=0.005, noise="uniform"), cfg_with(eta=0.005, c=2.0)]
        assert [r.ratio_to_half_eta for r in one_step_drift(spec, cfgs)] == [None, None, None]

    def test_zero_eta_row(self):
        spec = EnsembleSpec(SPEC_UU.gamma_dist, SPEC_UU.beta_dist, count=20_000)
        rows = one_step_drift(spec, [cfg_with(eta=0.0)])
        assert rows[0].empirical_mean == 0.0
        assert rows[0].predicted == 0.0
        assert rows[0].agree

    def test_grouped_equals_per_cell(self, monkeypatch):
        """One call over interleaved noise kinds and etas gives rows in input
        order, each bit-equal to its config estimated alone, over two chunks
        of which the last is partial."""
        spec = EnsembleSpec(Uniform(0.8, 1.6), Normal(0.1, 0.5), count=CHUNK_SIZE + 20_000)
        cfgs = [
            UpdateConfig(eta=eta, c=1.0, noise=noise, seed=11)
            for eta, noise in [(0.01, "uniform"), (0.005, "normal"), (0.01, "normal"), (0.005, "uniform")]
        ]
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "1")
        rows = one_step_drift(spec, cfgs)
        assert [(r.eta, r.noise, r.gamma_dist, r.beta_dist, r.n) for r in rows] == [
            (c.eta, c.noise, "uniform:0.8:1.6", "normal:0.1:0.5", spec.count) for c in cfgs
        ]
        for cfg, row in zip(cfgs, rows):
            (alone,) = one_step_drift(spec, [cfg])
            assert row.empirical_mean == alone.empirical_mean
            assert row.std_error == alone.std_error
            assert row.predicted == alone.predicted
            assert row.gamma_crossings == alone.gamma_crossings == 0
        # each eta 0.01 row pairs with the eta 0.005 row of its own noise kind, wherever that row stands
        assert [r.ratio_to_half_eta is None for r in rows] == [False, True, False, True]
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "4")
        assert one_step_drift(spec, cfgs) == rows

    def test_deterministic(self):
        spec = EnsembleSpec(SPEC_UU.gamma_dist, SPEC_UU.beta_dist, count=50_000)
        a = one_step_drift(spec, [cfg_with(eta=0.005, seed=7)])
        b = one_step_drift(spec, [cfg_with(eta=0.005, seed=7)])
        assert a == b
