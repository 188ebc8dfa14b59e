"""Monte Carlo dynamics of BN scale/bias pairs under noisy SGD.

One neuron is the state (gamma, beta). Per step, with x_hat ~ N(0,1) and
gradient noise g of mean 0 and standard deviation c:

    delta_beta  = -eta * g * H(gamma*x_hat + beta + alpha)
    delta_gamma = x_hat * delta_beta
    then coupled decay: gamma *= (1 - eta*lambda), beta *= (1 - eta*lambda)

H is the Heaviside step with H(0) = 0, so an exactly-zero pre-activation
gives no update (the ReLU-derivative-at-0 convention; a fixed choice is
needed for determinism). alpha > 0 is the post-shift variant: it enters
only through the Heaviside argument, since a constant output shift changes
no gradient.

``_fires`` is the gate's only copy, and the trainer's ``net.train.sgd_step``
the step's: ``sgd_trajectory`` writes each step's gated gradients into one
(gamma, beta) store and calls it, with no momentum. The drift estimator
keeps its own one-step kernel, as its +g and -g twins start from one base,
which an in-place step would copy twice per block. ``one_step_drift``
estimates the one-step change in
E[Phi((beta+alpha)/gamma)] over a fresh ensemble against the closed
form, evaluating each neuron at +g and -g and averaging the pair. Every admissible noise distribution here is
symmetric (mean-0 uniform and normal, and the point mass at 0), so the
pair average has the same expectation as a single draw while cancelling
the first-order term of the Taylor expansion exactly; what remains is the
second-order signal plus O(eta^4) spread. Without the pairing, the
first-order term dominates the variance by a factor of about 1/eta^2 and
the drift sign is unresolvable at any practical sample count for eta
below about 0.01.

Parallel runs are deterministic: work is cut into fixed chunks of 10^6
neurons, chunk i draws from PCG64 streams spawned by
SeedSequence([seed, i]), and each chunk's per-block partial sums are
combined in block order, and the chunks' in chunk order, with
compensated summation. A block's sums are NumPy pairwise reductions,
never BLAS calls: OpenBLAS splits a long dot product over its own
threads, so its bits depend on OPENBLAS_NUM_THREADS, and its spinning
threads would share the cores with the chunk threads.
The result is a function of (seed, n) and ``_BLOCK`` only, never of the
worker or the BLAS thread count.

``one_step_drift`` estimates a group of configs at once (common random
numbers): a chunk's SeedSequence spawns four child streams, one each for
gamma, beta and x_hat, and one for the noise, which every noise
distribution reads from its start, every draw through its ``dists``
sampler. The draws are made once for the group, and each noise kind's
once for the configs that use it, so every config sees the exact streams
a chunk of its own would draw, and grouping changes no bit of any
estimate. No stream starts where another's draws end (on one stream, a
normal draw reads a varying number of words, so x_hat would have to be
drawn whole before the noise could start), so a chunk reads every stream
in blocks of ``_BLOCK`` neurons and holds no chunk-long array: a block's
inputs and temporaries stay in a core's L2 cache. The gate
depends on neither eta nor g, so each block is gated once, its baseline
Phi((beta+alpha)/gamma) taken for its firing neurons, and every config
moves only those, with no gate left to apply to them. The configs that
share a noise kind move as one stacked (configs, firing) array, a row
per config, so each step of a twin is one NumPy call per noise kind,
not one per config; every element sees the operations a config of its
own would apply, and each row is summed by its own pairwise reduction,
so stacking changes no bit. The two noise kinds stay separate stacks,
each small enough for L2. A gated-off neuron keeps its ratio (x +- 0.0
== x up to a zero's sign, and ndtr(+0.0) == ndtr(-0.0)), so its pair
term is 0 and it contributes nothing to either sum: the sums run over
the firing neurons' terms only, and n counts every neuron. Each twin builds its term in place in its own fresh beta' buffer:
+ alpha (skipped at alpha = 0, which can only change a zero's sign),
/ gamma', Phi, - the baseline; gamma crossings are counted per row only
in a stack whose smallest gamma' is <= 0. A row's sums are of the twins'
sum, and the chunk halves the first and quarters the second: scaling by
a power of two is exact, and no firing neuron's pair term is subnormal.
"""

from __future__ import annotations

import math
import numbers
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analytic import _ndtr as ndtr
from .analytic import _special, drift_prediction, require_gamma_support
from .dists import Normal, PointMass, ScalarDist, Uniform
from .errors import ConfigError, DivergenceError, DomainError, require_seed
from .net.train import sgd_step
from .sparsity import collapsed_mask

__all__ = [
    "CHUNK_SIZE",
    "EnsembleSpec",
    "UpdateConfig",
    "TrajectoryRecord",
    "DecayResult",
    "TheoremRow",
    "noise_for",
    "resolve_threads",
    "usable_cores",
    "one_step_drift",
    "sgd_trajectory",
    "decay_trajectory",
    "standard_grid",
]

CHUNK_SIZE = 1_000_000
# the largest ensemble: one_step_drift holds a size and a pool task for each chunk, 10^5 of them here, and
# at a few 10^7 neurons per core-second 10^11 neurons is already an hour of work per core
_MAX_COUNT = 10**11
# a drift chunk draws, gates and moves its neurons in blocks this long, so a block's inputs and temporaries
# stay in a core's L2 cache: about 1 MiB at 16,384 drawn neurons, of which about half fire. On a 2-vCPU Xeon
# (2 MiB L2 per core), median of 12 interleaved, at 8,192 / 16,384 / 32,768 / 65,536: a chunk of the six-cell
# grid took 118.0 / 118.8 / 123.7 / 131.5 ms at one thread, and the 10-chunk grid 718 / 661 / 650 / 716 ms at
# two. The sums depend on it. A six-config chunk's tracemalloc peak is 1.5 MiB at 16,384
_BLOCK = 1 << 14
# the spacing of doubles at 1: a pair term, a difference of two Phi values in [0, 1], is rounded on this
# scale, so a mean of them resolves no finer a drift
_RESOLUTION = float(np.finfo(np.float64).eps)
# the law of x_hat, drawn through its sampler like every other draw of a drift chunk
_STANDARD_NORMAL = Normal(0.0, 1.0)


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the platform has one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_threads(items: int) -> int:
    """Workers for ``items`` parallel work items: min(items, usable_cores(), COLLAPSE_LAB_THREADS), at least 1."""
    n = min(items, usable_cores())
    cap = os.environ.get("COLLAPSE_LAB_THREADS")
    if cap is not None:
        try:
            cap_n = int(cap)
        except ValueError:
            raise ConfigError(f"COLLAPSE_LAB_THREADS must be an integer, got {cap!r}")
        if cap_n < 1:
            raise ConfigError(f"COLLAPSE_LAB_THREADS must be >= 1, got {cap_n}")
        n = min(n, cap_n)
    return max(1, n)


def noise_for(kind: str, c: float) -> ScalarDist:
    """Mean-zero gradient-noise distribution of standard deviation c."""
    if kind not in ("normal", "uniform"):
        raise ConfigError(f"unknown noise kind {kind!r} (expected 'normal' or 'uniform')")
    if c < 0 or not math.isfinite(c):
        raise ConfigError(f"noise scale c must be finite and >= 0, got {c}")
    if c == 0:
        return PointMass(0.0)
    if kind == "normal":
        return Normal(0.0, c)
    half = c * math.sqrt(3.0)
    return Uniform(-half, half)


@dataclass(frozen=True)
class EnsembleSpec:
    """Population the drift estimate samples from."""

    gamma_dist: ScalarDist
    beta_dist: ScalarDist
    count: int

    def __post_init__(self):
        if not isinstance(self.count, numbers.Integral) or isinstance(self.count, bool):
            raise ConfigError(f"count must be an integer, got {self.count!r}")
        object.__setattr__(self, "count", int(self.count))
        if self.count < 10_000:
            raise ConfigError(f"count must be >= 10^4 for a meaningful estimate, got {self.count}")
        if self.count > _MAX_COUNT:
            raise ConfigError(f"count must be <= 10^11 (10^5 chunks of 10^6 neurons), got {self.count}")
        require_gamma_support(self.gamma_dist)


@dataclass(frozen=True)
class UpdateConfig:
    """Step-rule parameters: learning rate, noise kind and sd c, decay, post-shift, seed."""

    eta: float
    c: float
    noise: str = "normal"
    weight_decay: float = 0.0
    alpha: float = 0.0
    seed: int = 0
    noise_dist: ScalarDist = field(init=False)  # noise_for(noise, c)

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ConfigError(f"eta must be finite and >= 0, got {self.eta}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0 <= self.alpha <= 1:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        require_seed("seed", self.seed)
        object.__setattr__(self, "noise_dist", noise_for(self.noise, self.c))


@dataclass(frozen=True)
class TheoremRow:
    """One verification cell: empirical drift against the prediction, a row of mc_verify.csv."""

    run_id: str
    eta: float
    c: float
    noise: str
    gamma_dist: str
    beta_dist: str
    n: int
    empirical_mean: float
    std_error: float
    predicted: float
    agree: bool
    ratio_to_half_eta: float | None
    gamma_crossings: int


class TrajectoryRecord(NamedTuple):
    """One row of a decay trace; ``c_margin`` is C = (beta + alpha) / |gamma|.

    A tuple, so a trace is its own table rows, with no per-row copy.
    """

    step: int
    gamma: float
    beta: float
    activation_prob: float
    collapsed: bool
    c_margin: float


@dataclass(frozen=True)
class DecayResult:
    """Pure-decay trace of a dead post-shifted unit."""

    records: tuple[TrajectoryRecord, ...]
    reactivation_step: int | None


def _fires(gamma, beta, x_hat, alpha):
    """The ReLU gate H(gamma*x_hat + beta + alpha), its one copy; a rounded sum keeps its sign, so > -alpha is exact."""
    pre = gamma * x_hat
    pre += beta
    return pre > -alpha


def _drift_chunk(spec: EnsembleSpec, cfgs: Sequence[UpdateConfig], index: int, size: int):
    """Partial sums for one seeded chunk: one (sum d, sum d^2, gamma crossings) per config.

    The configs share seed and alpha. SeedSequence([seed, index]) spawns
    one child stream each for gamma, beta and x_hat, and one for the
    noise, which every noise kind reads from its start, so every config
    sees the streams a chunk of its own would see. No stream starts where
    another's draws end, so each is read block by block and no chunk-long
    array exists. The configs of one noise kind move as one stack, a row
    each.
    """
    alpha = cfgs[0].alpha
    *children, noise_seq = np.random.SeedSequence([cfgs[0].seed, index]).spawn(4)
    gammas, betas, xs = (np.random.Generator(np.random.PCG64(s)) for s in children)
    rows: dict[ScalarDist, list[int]] = {}
    for k, cfg in enumerate(cfgs):
        rows.setdefault(cfg.noise_dist, []).append(k)
    # per noise kind: its own generator on the noise stream, its configs' rows and their step sizes as a column
    kinds = [(noise, np.random.Generator(np.random.PCG64(noise_seq)), ks, np.array([[cfgs[k].eta] for k in ks]))
             for noise, ks in rows.items()]
    s1, s2 = [[] for _ in cfgs], [[] for _ in cfgs]
    crossings = np.zeros(len(cfgs), dtype=np.int64)

    def change(ks, gamma2, ratio):
        """Phi((beta' + alpha) / gamma') - p0 of the rows ``ks``, built in ``ratio``, which holds beta' on entry."""
        if alpha:  # beta' + 0.0 can only turn -0.0 into +0.0, and ndtr(+-0.0) is one value
            ratio += alpha
        if gamma2.min() <= 0:
            crossings[ks] += np.count_nonzero(gamma2 <= 0, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio /= gamma2
            ratio[np.isnan(ratio)] = 0.0  # 0/0 only when beta' + alpha = gamma' = 0; treat that ratio as 0
        else:
            ratio /= gamma2
        ndtr(ratio, out=ratio)
        ratio -= p0
        return ratio

    for lo in range(0, size, _BLOCK):
        n = min(_BLOCK, size - lo)
        gamma, beta = spec.gamma_dist.sample(gammas, n), spec.beta_dist.sample(betas, n)
        x = _STANDARD_NORMAL.sample(xs, n)
        fires = np.flatnonzero(_fires(gamma, beta, x, alpha))
        # every stream reads its block whether or not a neuron fires, so a block's draws never depend on the gate
        grads = [noise.sample(at, n)[fires] for noise, at, _, _ in kinds]
        if not fires.size:
            continue
        gamma, beta, x = gamma[fires], beta[fires], x[fires]
        p0 = (beta + alpha if alpha else beta) / gamma  # the skip keeps the bits, as in change
        ndtr(p0, out=p0)
        for (_, _, ks, etas), grad in zip(kinds, grads):
            # every neuron here fires, and the gate does not depend on g: the +g twin steps by -(d_gamma, d_beta),
            # the -g twin by exactly +(d_gamma, d_beta), as negation is exact
            d_beta = etas * grad
            d_gamma = x * d_beta
            pair = change(ks, gamma - d_gamma, beta - d_beta)
            # the -g twin reuses the step's own buffers, as the +g twin is done with them
            pair += change(ks, np.add(gamma, d_gamma, out=d_gamma), np.add(beta, d_beta, out=d_beta))
            # each row by its own pairwise NumPy reduction, never BLAS; squared in place, as the terms are done with
            firsts = np.add.reduce(pair, axis=1).tolist()
            pair *= pair
            for k, a, b in zip(ks, firsts, np.add.reduce(pair, axis=1).tolist()):
                s1[k].append(a)
                s2[k].append(b)
    # a pair term is half the twins' sum: halving, and quartering its square, are exact and so commute with
    # every rounding of the sums, as no firing neuron's term is subnormal
    return [(0.5 * math.fsum(a), 0.25 * math.fsum(b), int(c)) for a, b, c in zip(s1, s2, crossings)]


def one_step_drift(spec: EnsembleSpec, cfgs: Sequence[UpdateConfig]) -> list[TheoremRow]:
    """Estimate the one-step change in E[Phi((beta+alpha)/gamma)], one ``TheoremRow`` per config in order.

    Samples spec.count neurons, applies one gradient update to each (no
    decay), and averages the change over each antithetic +/-g pair. The
    configs must share seed and alpha: every config is estimated on the
    same (gamma, beta, x_hat) draws, and configs with one noise
    distribution on the same noise draws, each chunk drawn once for all of
    them; the configs of one noise kind move as one stacked array. A
    config's estimate is the one a call with that config alone returns,
    bit for bit.

    Configs that differ only in eta thus share every draw (common random
    numbers), so their ratio isolates the eta scaling with almost no Monte
    Carlo spread: ratio_to_half_eta is empirical(eta)/empirical(eta/2) for
    each config whose halved eta appears with the same noise and c, and
    the second-order form predicts 4. The sharing also ties the verdicts:
    the estimates of one noise kind are near-proportional (seed-22 ratios
    3.9989 and 3.9994 on the standard grid at 10^7 neurons), so at seed 22
    all three normal cells sit 3.1-3.3 standard errors from the prediction
    and disagree at once; the grid's agreement is close to one test per
    noise kind, not one per cell.

    Since (gamma, beta + alpha) follows the unshifted rule, the prediction
    is the closed form for beta shifted by alpha: computed once at unit eta
    and c and scaled by eta^2 c^2, which is exact. ``agree`` holds when
    the estimate lies within 3 standard errors of the prediction, or within
    2^-52, the rounding scale of a pair term, when 3 standard errors are
    less: an ensemble in which no neuron fires has mean and standard error
    exactly 0 and cannot resolve a smaller predicted drift. Neurons whose
    gamma crosses <= 0 (step too large for the second-order regime) are
    still included via the cdf's own sign convention. gamma_crossings
    counts them: the neurons one of whose twins has gamma' <= 0 (at most
    one can, as gamma > 0). A nonzero count marks a cell outside the
    regime the prediction covers. Both sums, of the firing neurons' pair
    terms and of their squares, are NumPy reductions over each block of
    ``_BLOCK`` drawn neurons, combined with math.fsum in block and then
    chunk order, so they depend on ``_BLOCK`` but never on the worker or
    the BLAS thread count. A chunk draws every stream block by block and
    holds a few blocks, about 1.5 MiB per thread. A prediction that
    overflows is a ConfigError, raised before any chunk.
    The chunks run on resolve_threads(chunks) pool threads, in order at
    one; SciPy, which the package loads on its first Phi evaluation, is
    loaded before they start.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ConfigError("one_step_drift needs at least one UpdateConfig")
    shared = {(cfg.seed, cfg.alpha) for cfg in cfgs}
    if len(shared) > 1:
        raise ConfigError(f"configs of one drift estimate must share seed and alpha, got (seed, alpha) in {sorted(shared)}")
    n = spec.count
    sizes = [CHUNK_SIZE] * (n // CHUNK_SIZE)
    if n % CHUNK_SIZE:
        sizes.append(n % CHUNK_SIZE)
    unit = drift_prediction(1.0, 1.0, spec.gamma_dist, spec.beta_dist.shifted(cfgs[0].alpha))
    predicted = []
    for cfg in cfgs:
        try:
            predicted.append(unit * cfg.eta**2 * cfg.c**2)
        except OverflowError:  # a float ** that overflows raises, where * gives inf
            predicted.append(math.inf)
        if not math.isfinite(predicted[-1]):
            raise ConfigError(f"the predicted drift overflows at eta = {cfg.eta:g}, c = {cfg.c:g}")
    _special()  # SciPy's first import, if no call has made it yet, before the chunk threads could race on it
    # imported here, not with the module: no other command of the CLI starts a thread pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=resolve_threads(len(sizes))) as pool:
        parts = list(pool.map(lambda i: _drift_chunk(spec, cfgs, i, sizes[i]), range(len(sizes))))
    per_config = (zip(*chunks) for chunks in zip(*parts))  # each config's (s1, s2, crossings) of every chunk
    totals = [(math.fsum(s1), math.fsum(s2), sum(crossings)) for s1, s2, crossings in per_config]
    mean_of = {(cfg.noise, cfg.c, cfg.eta): s1 / n for cfg, (s1, _, _) in zip(cfgs, totals)}
    rows = []
    for cfg, pred, (s1, s2, crossings) in zip(cfgs, predicted, totals):
        mean = s1 / n
        se = math.sqrt(max(s2 - s1 * s1 / n, 0.0) / (n - 1) / n)
        half = mean_of.get((cfg.noise, cfg.c, cfg.eta / 2.0))
        rows.append(
            TheoremRow(
                run_id=f"eta{cfg.eta:g}-c{cfg.c:g}-{cfg.noise}",
                eta=cfg.eta,
                c=cfg.c,
                noise=cfg.noise,
                gamma_dist=str(spec.gamma_dist),
                beta_dist=str(spec.beta_dist),
                n=n,
                empirical_mean=mean,
                std_error=se,
                predicted=pred,
                agree=abs(mean - pred) <= max(3.0 * se, _RESOLUTION),
                ratio_to_half_eta=mean / half if half not in (None, 0.0) else None,
                gamma_crossings=crossings,
            )
        )
    return rows


def _shrink(cfg: UpdateConfig, steps: int, stride: int) -> float:
    """The per-step decay factor 1 - eta*lambda of a traced run, once steps, stride and the factor are checked."""
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    shrink = 1.0 - cfg.eta * cfg.weight_decay
    if shrink <= 0:
        raise ConfigError(f"eta * weight_decay must be < 1, got {cfg.eta * cfg.weight_decay}")
    return shrink


def sgd_trajectory(gamma, beta, steps: int, cfg: UpdateConfig, stride: int = 1):
    """Ensemble trace: ``net.train.sgd_step``, without momentum, on the gradients ``_fires`` gates, every step.

    ``gamma`` and ``beta`` hold N neurons' initial state (1-D arrays of one
    shape, or scalars for N = 1). Returns (recorded steps, gamma, beta), the
    last two of shape (records, N): the state at step 0 and every ``stride``
    steps, the final step always included. Raises DivergenceError carrying
    that triple for the rows so far if the state leaves the finite range.
    """
    _shrink(cfg, steps, stride)
    gamma, beta = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (gamma, beta))
    if gamma.ndim != 1 or gamma.shape != beta.shape:
        raise DomainError(f"gamma and beta must be scalars or 1-D arrays of one shape, got {gamma.shape}, {beta.shape}")
    if not (np.isfinite(gamma).all() and np.isfinite(beta).all()):
        raise DomainError("initial gamma and beta must be finite")
    recorded = np.unique(np.append(np.arange(0, steps, stride), steps))
    records = np.empty((2, recorded.size, gamma.size))
    state = np.stack([gamma, beta])  # one store: row 0 gamma, row 1 beta
    records[:, 0] = state
    velocity, grads = np.zeros_like(state), np.empty_like(state)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed])))
    done = row = 0
    while done < steps:
        block = min(max(1, 8192 // gamma.size), steps - done)
        x_block = rng.standard_normal((block, gamma.size))
        g_block = cfg.noise_dist.sample(rng, (block, gamma.size))
        for x_hat, grad in zip(x_block, g_block):
            # d/d(beta) = g*H and d/d(gamma) = x_hat*g*H, then the gradient step and the coupled decay
            np.multiply(grad, _fires(state[0], state[1], x_hat, cfg.alpha), out=grads[1])
            np.multiply(x_hat, grads[1], out=grads[0])
            sgd_step(state, velocity, grads, cfg.eta, 0.0, cfg.weight_decay)
            done += 1
            if done == recorded[row + 1]:
                # inf and nan persist, so checking each record catches any divergence
                if not np.isfinite(state).all():
                    partial = (recorded[: row + 1], records[0, : row + 1], records[1, : row + 1])
                    raise DivergenceError(f"non-finite state by step {done}", partial=partial)
                row += 1
                records[:, row] = state
    return recorded, records[0], records[1]


def decay_trajectory(
    initial: tuple[float, float],
    cfg: UpdateConfig,
    steps: int,
    stride: int = 1,
) -> DecayResult:
    """Pure coupled decay of a dead post-shifted unit, tracked until it can fire.

    The tracked quantity is C = (beta + alpha) / |gamma|, the shifted
    pre-activation margin: the unit can fire for some positive input once
    C >= 0, and its firing probability is Phi(C). Under pure decay C obeys

        C[t+1] = C[t] + (eta*lambda / (1 - eta*lambda)) * alpha / |gamma[t]|

    so for alpha > 0 the margin strictly increases and reactivation is
    reached in finitely many steps; the trace stops there (past that point
    the unit receives task gradient again and pure decay no longer
    applies). alpha = 0 keeps C exactly constant, so it is rejected, and a
    gamma that underflows to 0 or a recorded margin that overflows is too.
    The gradient path is intentionally absent: a dead unit's Heaviside
    factor zeroes every update, leaving decay as the only dynamics.
    """
    if cfg.alpha <= 0:
        raise DomainError("decay_trajectory requires alpha > 0; with alpha = 0 the margin C never moves")
    if cfg.eta * cfg.weight_decay <= 0:
        # both may be > 0 and their product still underflow to 0
        raise DomainError(
            f"decay_trajectory requires eta * weight_decay > 0, got {cfg.eta * cfg.weight_decay:g}"
            f" for eta = {cfg.eta:g}, weight_decay = {cfg.weight_decay:g}"
        )
    shrink = _shrink(cfg, steps, stride)
    gamma, beta = float(initial[0]), float(initial[1])
    if not (math.isfinite(gamma) and math.isfinite(beta)):
        raise DomainError(f"initial gamma and beta must be finite, got ({gamma}, {beta})")
    if gamma == 0:
        raise DomainError("initial gamma must be nonzero")
    margin = (beta + cfg.alpha) / abs(gamma)
    if margin >= 0:
        raise DomainError("initial state must be dead: (beta + alpha) / |gamma| < 0")
    states = [(0, gamma, beta, margin)]
    reactivation = None
    for t in range(1, steps + 1):
        gamma *= shrink
        beta *= shrink
        if gamma == 0:
            raise DomainError(f"gamma underflows to 0 at step {t}, before the margin recovers")
        margin = (beta + cfg.alpha) / abs(gamma)
        if margin >= 0 or t % stride == 0 or t == steps:
            states.append((t, gamma, beta, margin))
        if margin >= 0:
            reactivation = t
            break
    # Phi of every recorded margin, and the collapse test of every recorded gamma, in one call each
    _, gammas, _, margins = zip(*states)
    margins = np.array(margins)
    if not np.isfinite(margins).all():
        raise DomainError("the margin (beta + alpha) / |gamma| overflows: |gamma| is too small against beta + alpha")
    probs = ndtr(margins).tolist()
    collapsed = collapsed_mask(gammas).tolist()
    records = [TrajectoryRecord(t, g, b, p, k, c) for (t, g, b, c), p, k in zip(states, probs, collapsed)]
    return DecayResult(records=tuple(records), reactivation_step=reactivation)


def standard_grid(seed: int) -> list[UpdateConfig]:
    """The headline verification grid: three learning rates, both noise kinds, c = 1."""
    return [
        UpdateConfig(eta=eta, c=1.0, noise=noise, seed=seed)
        for noise in ("normal", "uniform")
        for eta in (0.002, 0.005, 0.01)
    ]
