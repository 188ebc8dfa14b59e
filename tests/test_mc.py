"""Simulation layer: the update rule, the drift estimator, trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collapse_lab.analytic import drift_prediction
from collapse_lab.dists import Normal, PointMass, Uniform
from collapse_lab.errors import ConfigError, DivergenceError, DomainError, SingularityError
from collapse_lab.mc import (
    EnsembleSpec,
    UpdateConfig,
    VerifyCell,
    decay_trajectory,
    noise_for,
    one_step_drift,
    resolve_threads,
    sgd_trajectory,
    standard_grid,
    update_step,
    verify_theorem,
)
from collapse_lab.sparsity import COLLAPSE_THRESHOLD

FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def cfg_with(**kw) -> UpdateConfig:
    base = dict(eta=0.1, c=1.0)
    base.update(kw)
    return UpdateConfig(**base)


class TestUpdateStep:
    def test_active_unit(self):
        # pre-activations 1*0.5 + 0.1 = 0.6 and 2*0.25 + 0 = 0.5 are > 0, so both fire
        dg, db = update_step(
            np.array([1.0, 2.0]), np.array([0.1, 0.0]), np.array([0.5, 0.25]), np.array([2.0, -1.0]),
            cfg_with(eta=0.1),
        )
        assert db.tolist() == [-0.2, 0.1]
        assert dg.tolist() == [-0.1, 0.025]

    def test_dead_unit(self):
        dg, db = update_step(
            np.array([1.0, 0.5]), np.array([-2.0, 0.1]), np.array([0.5, -1.0]), np.array([2.0, 3.0]),
            cfg_with(eta=0.1),
        )
        assert db.tolist() == [0.0, 0.0] and dg.tolist() == [0.0, 0.0]

    def test_exactly_zero_pre_activation(self):
        # 1*0.5 - 0.5 = 0 and H(0) = 0, so no update; the active neighbour still moves
        dg, db = update_step(
            np.array([1.0, 1.0]), np.array([-0.5, 0.5]), np.array([0.5, 0.5]), np.array([7.0, 7.0]),
            cfg_with(eta=0.1),
        )
        assert (dg[0], db[0]) == (0.0, 0.0)
        assert db[1] == pytest.approx(-0.7) and dg[1] == 0.5 * db[1]

    def test_shift_enters_heaviside(self):
        # dead without the shift, active with it
        args = (np.array([1.0]), np.array([-0.1]), np.array([0.0]), np.array([3.0]))
        dg, db = update_step(*args, cfg_with(eta=0.1, alpha=0.0))
        assert (dg[0], db[0]) == (0.0, 0.0)
        dg, db = update_step(*args, cfg_with(eta=0.1, alpha=0.2))
        assert db[0] == pytest.approx(-0.3) and dg[0] == 0.0

    @given(cols=st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE), min_size=1, max_size=8),
           alpha=st.floats(min_value=0.0, max_value=1.0))
    def test_coupling_identity(self, cols, alpha):
        """delta_gamma = x_hat * delta_beta, exactly, active or not."""
        gamma, beta, x_hat, grad = (np.array(c) for c in zip(*cols))
        dg, db = update_step(gamma, beta, x_hat, grad, cfg_with(eta=0.05, alpha=alpha))
        active = gamma * x_hat + beta + alpha > 0
        assert np.all(dg[~active] == 0.0) and np.all(db[~active] == 0.0)
        assert np.array_equal(db[active], -0.05 * grad[active])
        assert np.array_equal(dg, x_hat * db)

    @given(cols=st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE), min_size=1, max_size=8))
    def test_zero_eta_never_moves(self, cols):
        gamma, beta, x_hat, grad = (np.array(c) for c in zip(*cols))
        dg, db = update_step(gamma, beta, x_hat, grad, cfg_with(eta=0.0))
        assert np.all(dg == 0.0) and np.all(db == 0.0)


class TestConfigs:
    def test_noise_default_matches_c(self):
        cfg = UpdateConfig(eta=0.01, c=2.0)
        assert cfg.noise_dist == Normal(0.0, 2.0)
        assert UpdateConfig(eta=0.01, c=0.0).noise_dist == PointMass(0.0)

    def test_noise_for_uniform_has_matching_sd(self):
        d = noise_for("uniform", 1.5)
        assert math.isclose(d.sd(), 1.5, rel_tol=1e-12)
        assert d.is_even

    def test_noise_for_rejects_unknown(self):
        with pytest.raises(ConfigError):
            noise_for("cauchy", 1.0)

    def test_noise_mean_must_be_zero(self):
        with pytest.raises(ConfigError):
            UpdateConfig(eta=0.01, c=1.0, noise_dist=Normal(0.5, 1.0))

    def test_noise_sd_must_match_c(self):
        with pytest.raises(ConfigError):
            UpdateConfig(eta=0.01, c=1.0, noise_dist=Normal(0.0, 2.0))

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
        with pytest.raises(ConfigError):
            EnsembleSpec(Uniform(-0.5, 1.5), Uniform(-1, 1), count=100)

    def test_resolve_threads_env(self, monkeypatch):
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "2")
        assert resolve_threads(8) == 2
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "zero")
        with pytest.raises(ConfigError):
            resolve_threads(8)
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "0")
        with pytest.raises(ConfigError):
            resolve_threads(8)
        monkeypatch.delenv("COLLAPSE_LAB_THREADS")
        assert resolve_threads(3) == 3


SPEC_UU = EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1, 1), count=200_000)


class TestOneStepDrift:
    def test_zero_eta_is_exactly_zero(self):
        est = one_step_drift(SPEC_UU, cfg_with(eta=0.0, c=1.0, seed=5))
        assert est.empirical_mean == 0.0
        assert est.agree

    def test_agrees_with_prediction(self):
        est = one_step_drift(SPEC_UU, cfg_with(eta=0.005, seed=0))
        assert est.empirical_mean < 0
        assert est.agree
        assert abs(est.empirical_mean - est.predicted) <= 3 * est.std_error
        assert est.n == SPEC_UU.count
        assert est.gamma_crossings == 0

    def test_point_point_cell(self):
        # n chosen so the 3-sigma band sits ~10x tighter than the check needs
        spec = EnsembleSpec(PointMass(1.0), PointMass(0.0), count=1_000_000)
        est = one_step_drift(spec, cfg_with(eta=0.005, seed=0))
        want = 0.5 * 0.005**2 * (-1.0 / math.pi)
        assert abs(est.empirical_mean - want) <= 3 * est.std_error
        assert math.isclose(est.predicted, want, rel_tol=1e-10)

    def test_deterministic_across_threads(self):
        a = one_step_drift(SPEC_UU, cfg_with(eta=0.01, seed=3), threads=1)
        b = one_step_drift(SPEC_UU, cfg_with(eta=0.01, seed=3), threads=4)
        assert a.empirical_mean == b.empirical_mean
        assert a.std_error == b.std_error

    def test_respects_thread_env(self, monkeypatch):
        baseline = one_step_drift(SPEC_UU, cfg_with(eta=0.01, seed=3))
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "1")
        capped = one_step_drift(SPEC_UU, cfg_with(eta=0.01, seed=3))
        assert capped.empirical_mean == baseline.empirical_mean

    def test_count_floor(self):
        small = EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1, 1), count=100)
        with pytest.raises(DomainError):
            one_step_drift(small, cfg_with(eta=0.01))

    @pytest.mark.parametrize("alpha", [0.1, 0.3])
    def test_shifted_rule_agrees(self, alpha):
        """Post-shift: Phi((beta+alpha)/gamma) drifts as the unshifted closed
        form with beta shifted by alpha, and not as the unshifted form itself."""
        spec = EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1, 1), count=4_000_000)
        est = one_step_drift(spec, cfg_with(eta=0.01, alpha=alpha, seed=0))
        assert est.agree, (est.empirical_mean, est.predicted, est.std_error)
        unshifted = drift_prediction(0.01, 1.0, spec.gamma_dist, spec.beta_dist).value
        assert abs(unshifted - est.predicted) > 10 * est.std_error

    def test_rejects_gamma_near_zero(self):
        spec = EnsembleSpec(Uniform(0.01, 1.0), Uniform(-1, 1), count=20_000)
        with pytest.raises(SingularityError):
            one_step_drift(spec, cfg_with(eta=0.01))


def scalar_loop(gamma0, beta0, steps, cfg):
    """The rule one neuron at a time in plain floats, reading the draws in
    the order sgd_trajectory does: blocks of 8192 // N steps, x then g."""
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
                    d_beta = -cfg.eta * g_row[i]
                    gamma[i] += x_row[i] * d_beta
                    beta[i] += d_beta
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

    def test_first_increment(self):
        # (eta*lambda / (1 - eta*lambda)) * alpha / gamma0 with gamma0 = 1
        result = decay_trajectory((1.0, -1.1), self.CFG, steps=10)
        c0 = (result.records[0].beta + 0.1) / abs(result.records[0].gamma)
        c1 = (result.records[1].beta + 0.1) / abs(result.records[1].gamma)
        assert c0 == -1.0
        assert abs((c1 - c0) - (0.001 / 0.999) * 0.1) < 1e-12

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


class TestVerifyTheorem:
    def test_standard_grid_shape(self):
        cells = standard_grid()
        assert len(cells) == 6
        assert {c.noise for c in cells} == {"normal", "uniform"}
        assert {c.eta for c in cells} == {0.002, 0.005, 0.01}

    def test_small_grid_agreement_and_ratio(self):
        cells = [VerifyCell(eta=0.004), VerifyCell(eta=0.002)]
        rows = verify_theorem(cells, count=200_000, seed=0)
        assert all(r.agree for r in rows)
        assert all(r.empirical_mean < 0 for r in rows)
        double = next(r for r in rows if r.eta == 0.004)
        assert double.ratio_to_half_eta is not None
        assert abs(double.ratio_to_half_eta - 4.0) < 0.6
        half = next(r for r in rows if r.eta == 0.002)
        assert half.ratio_to_half_eta is None

    def test_zero_eta_row(self):
        rows = verify_theorem([VerifyCell(eta=0.0)], count=20_000, seed=0)
        assert rows[0].empirical_mean == 0.0
        assert rows[0].predicted == 0.0
        assert rows[0].agree

    def test_deterministic(self):
        cells = [VerifyCell(eta=0.005)]
        a = verify_theorem(cells, count=50_000, seed=7)
        b = verify_theorem(cells, count=50_000, seed=7)
        assert a == b
