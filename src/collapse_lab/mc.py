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

``update_step`` is the rule's only copy; the drift estimator and
``sgd_trajectory`` call it on whole ensembles. ``one_step_drift``
estimates the one-step change in E[Phi((beta+alpha)/gamma)] over a fresh
ensemble against the closed form, evaluating each neuron at +g and -g
and averaging the pair. Every admissible noise distribution here is
symmetric (mean-0 uniform and normal, and the point mass at 0), so the
pair average has the same expectation as a single draw while cancelling
the first-order term of the Taylor expansion exactly; what remains is the
second-order signal plus O(eta^4) spread. Without the pairing, the
first-order term dominates the variance by a factor of about 1/eta^2 and
the drift sign is unresolvable at any practical sample count for eta
below about 0.01.

Parallel runs are deterministic: work is cut into fixed chunks of 10^6
neurons, chunk i draws from PCG64 seeded by SeedSequence([seed, i]), and
per-chunk partial sums are combined in chunk order with compensated
summation. The result is a function of (seed, n) only, never of the
thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr

from .analytic import drift_prediction, require_gamma_support, std_normal_cdf
from .dists import Normal, PointMass, ScalarDist, Uniform
from .errors import ConfigError, DivergenceError, DomainError
from .quadrature import QuadratureSpec
from .sparsity import COLLAPSE_THRESHOLD

__all__ = [
    "CHUNK_SIZE",
    "EnsembleSpec",
    "UpdateConfig",
    "DriftEstimate",
    "TrajectoryRecord",
    "DecayResult",
    "TheoremRow",
    "noise_for",
    "resolve_threads",
    "update_step",
    "one_step_drift",
    "sgd_trajectory",
    "decay_trajectory",
    "standard_grid",
    "verify_theorem",
]

CHUNK_SIZE = 1_000_000


def resolve_threads(requested: int | None = None) -> int:
    """Worker count for data-parallel runs, capped by COLLAPSE_LAB_THREADS."""
    n = requested if requested and requested > 0 else (os.cpu_count() or 1)
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
    if c < 0 or not math.isfinite(c):
        raise ConfigError(f"noise scale c must be finite and >= 0, got {c}")
    if c == 0:
        return PointMass(0.0)
    if kind == "normal":
        return Normal(0.0, c)
    if kind == "uniform":
        half = c * math.sqrt(3.0)
        return Uniform(-half, half)
    raise ConfigError(f"unknown noise kind {kind!r} (expected 'normal' or 'uniform')")


@dataclass(frozen=True)
class EnsembleSpec:
    """Population the drift estimate samples from."""

    gamma_dist: ScalarDist
    beta_dist: ScalarDist
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        lo, _ = self.gamma_dist.support()
        if lo <= 0:
            raise ConfigError(
                f"gamma distribution must be supported on positive reals, got {self.gamma_dist}"
            )


@dataclass(frozen=True)
class UpdateConfig:
    """Step-rule parameters: learning rate, noise, decay, post-shift, seed."""

    eta: float
    c: float
    noise_dist: ScalarDist | None = None
    weight_decay: float = 0.0
    alpha: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ConfigError(f"eta must be finite and >= 0, got {self.eta}")
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ConfigError(f"c must be finite and >= 0, got {self.c}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0 <= self.alpha <= 1:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not isinstance(self.seed, int) or self.seed < 0 or self.seed >= 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if self.noise_dist is None:
            object.__setattr__(self, "noise_dist", noise_for("normal", self.c))
        mean, sd = self.noise_dist.mean(), self.noise_dist.sd()
        if abs(mean) > 1e-12 * max(1.0, self.c):
            raise ConfigError(f"noise_dist must have mean 0, got mean {mean} from {self.noise_dist}")
        if abs(sd - self.c) > 1e-9 * max(1.0, self.c):
            raise ConfigError(f"noise_dist sd {sd} does not match c = {self.c}")


@dataclass(frozen=True)
class DriftEstimate:
    """Empirical one-step drift, its standard error, and the prediction."""

    empirical_mean: float
    std_error: float
    n: int
    predicted: float
    agree: bool
    gamma_crossings: int


@dataclass(frozen=True)
class TrajectoryRecord:
    step: int
    gamma: float
    beta: float
    activation_prob: float
    collapsed: bool


@dataclass(frozen=True)
class DecayResult:
    """Pure-decay trace of a dead post-shifted unit."""

    records: tuple[TrajectoryRecord, ...]
    reactivation_step: int | None
    alpha: float


def update_step(gamma, beta, x_hat, grad, cfg: UpdateConfig):
    """One gradient update of an ensemble of (gamma, beta); decay is applied separately.

    Elementwise over arrays (or scalars) of one shape, with no finiteness
    scan (callers validate). Returns (delta_gamma, delta_beta), both 0 where
    gamma*x_hat + beta + alpha <= 0, tested as gamma*x_hat + beta <= -alpha
    (a rounded sum keeps its sign); delta_gamma = x_hat * delta_beta exactly.
    """
    delta_beta = np.where(gamma * x_hat + beta > -cfg.alpha, -cfg.eta * grad, 0.0)
    return x_hat * delta_beta, delta_beta


def _drift_chunk(spec: EnsembleSpec, cfg: UpdateConfig, index: int, size: int):
    """Partial sums for one seeded chunk: (sum d, sum d^2, gamma crossings)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, index])))
    gamma = spec.gamma_dist.sample(rng, size)
    beta = spec.beta_dist.sample(rng, size)
    x_hat = rng.standard_normal(size)
    grad = cfg.noise_dist.sample(rng, size)
    p0 = ndtr((beta + cfg.alpha) / gamma)
    crossings = 0

    def change(gamma2, beta2):
        nonlocal crossings
        crossings += int(np.count_nonzero(gamma2 <= 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (beta2 + cfg.alpha) / gamma2
        # 0/0 only when beta' + alpha = gamma' = 0; treat that ratio as 0
        return ndtr(np.where(np.isnan(ratio), 0.0, ratio)) - p0

    # the gate does not depend on g, so the -g twin moves by exactly -delta
    d_gamma, d_beta = update_step(gamma, beta, x_hat, grad, cfg)
    pair = 0.5 * (change(gamma + d_gamma, beta + d_beta) + change(gamma - d_gamma, beta - d_beta))
    return float(np.sum(pair)), float(np.dot(pair, pair)), crossings


def one_step_drift(
    spec: EnsembleSpec,
    cfg: UpdateConfig,
    quad: QuadratureSpec | None = None,
    threads: int | None = None,
    predicted: float | None = None,
) -> DriftEstimate:
    """Estimate the one-step change in E[Phi((beta+alpha)/gamma)] over an ensemble.

    Samples spec.count neurons, applies one gradient update to each (no
    decay), and averages the change over each antithetic +/-g pair. Since
    (gamma, beta + alpha) follows the unshifted rule, the prediction, with
    its 3-sigma agreement flag, is the closed form for beta shifted by
    alpha. Neurons whose gamma crosses <= 0 (step too large for the
    second-order regime) are counted in gamma_crossings but still included
    via the cdf's own sign convention.

    ``predicted`` short-circuits the quadrature when the caller already
    holds the prediction (grid runs share one quadrature per distribution
    pair and scale it by eta^2 c^2, which is exact).
    """
    if spec.count < 10_000:
        raise DomainError(f"count must be >= 10^4 for a meaningful estimate, got {spec.count}")
    require_gamma_support(spec.gamma_dist)
    n = spec.count
    sizes = [CHUNK_SIZE] * (n // CHUNK_SIZE)
    if n % CHUNK_SIZE:
        sizes.append(n % CHUNK_SIZE)
    workers = min(resolve_threads(threads), len(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda i: _drift_chunk(spec, cfg, i, sizes[i]), range(len(sizes))))
    else:
        parts = [_drift_chunk(spec, cfg, i, sizes[i]) for i in range(len(sizes))]
    s1 = math.fsum(p[0] for p in parts)
    s2 = math.fsum(p[1] for p in parts)
    crossings = sum(p[2] for p in parts)
    mean = s1 / n
    var = max(s2 - s1 * s1 / n, 0.0) / (n - 1) if n > 1 else 0.0
    se = math.sqrt(var / n)
    if predicted is None:
        predicted = drift_prediction(cfg.eta, cfg.c, spec.gamma_dist, spec.beta_dist.shifted(cfg.alpha), quad).value
    return DriftEstimate(
        empirical_mean=mean,
        std_error=se,
        n=n,
        predicted=predicted,
        agree=abs(mean - predicted) <= 3.0 * se,
        gamma_crossings=crossings,
    )


def sgd_trajectory(gamma, beta, steps: int, cfg: UpdateConfig, stride: int = 1):
    """Ensemble trace: gradient update then coupled decay, every step.

    ``gamma`` and ``beta`` hold N neurons' initial state (1-D arrays of one
    shape, or scalars for N = 1). Returns (recorded steps, gamma, beta), the
    last two of shape (records, N): the state at step 0 and every ``stride``
    steps, the final step always included. Raises DivergenceError carrying
    that triple for the rows so far if the state leaves the finite range.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    shrink = 1.0 - cfg.eta * cfg.weight_decay
    if shrink <= 0:
        raise ConfigError(f"eta * weight_decay must be < 1, got {cfg.eta * cfg.weight_decay}")
    gamma, beta = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (gamma, beta))
    if gamma.ndim != 1 or gamma.shape != beta.shape:
        raise DomainError(f"gamma and beta must be scalars or 1-D arrays of one shape, got {gamma.shape}, {beta.shape}")
    if not (np.isfinite(gamma).all() and np.isfinite(beta).all()):
        raise DomainError("initial gamma and beta must be finite")
    recorded = np.unique(np.append(np.arange(0, steps, stride), steps))
    gammas, betas = np.empty((2, recorded.size, gamma.size))
    gammas[0], betas[0] = gamma, beta
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed])))
    done = row = 0
    while done < steps:
        block = min(max(1, 8192 // gamma.size), steps - done)
        x_block = rng.standard_normal((block, gamma.size))
        g_block = cfg.noise_dist.sample(rng, (block, gamma.size))
        for x_hat, grad in zip(x_block, g_block):
            d_gamma, d_beta = update_step(gamma, beta, x_hat, grad, cfg)
            gamma = (gamma + d_gamma) * shrink
            beta = (beta + d_beta) * shrink
            done += 1
            if done == recorded[row + 1]:
                # inf and nan persist, so checking each record catches any divergence
                if not (np.isfinite(gamma).all() and np.isfinite(beta).all()):
                    partial = (recorded[: row + 1], gammas[: row + 1], betas[: row + 1])
                    raise DivergenceError(f"non-finite state by step {done}", partial=partial)
                row += 1
                gammas[row], betas[row] = gamma, beta
    return recorded, gammas, betas


def decay_trajectory(
    initial: tuple[float, float],
    cfg: UpdateConfig,
    steps: int,
    stride: int = 1,
    collapse_threshold: float = COLLAPSE_THRESHOLD,
) -> DecayResult:
    """Pure coupled decay of a dead post-shifted unit, tracked until it can fire.

    The tracked quantity is C = (beta + alpha) / |gamma|, the shifted
    pre-activation margin: the unit can fire for some positive input once
    C >= 0, and its firing probability is Phi(C). Under pure decay C obeys

        C[t+1] = C[t] + (eta*lambda / (1 - eta*lambda)) * alpha / |gamma[t]|

    so for alpha > 0 the margin strictly increases and reactivation is
    reached in finitely many steps; the trace stops there (past that point
    the unit receives task gradient again and pure decay no longer
    applies). alpha = 0 keeps C exactly constant, so it is rejected.
    The gradient path is intentionally absent: a dead unit's Heaviside
    factor zeroes every update, leaving decay as the only dynamics.
    """
    if cfg.alpha <= 0:
        raise DomainError("decay_trajectory requires alpha > 0; with alpha = 0 the margin C never moves")
    if cfg.eta * cfg.weight_decay <= 0:
        raise DomainError("decay_trajectory requires eta > 0 and weight_decay > 0")
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    shrink = 1.0 - cfg.eta * cfg.weight_decay
    if shrink <= 0:
        raise ConfigError(f"eta * weight_decay must be < 1, got {cfg.eta * cfg.weight_decay}")
    gamma, beta = float(initial[0]), float(initial[1])
    if gamma == 0:
        raise DomainError("initial gamma must be nonzero")
    if (beta + cfg.alpha) / abs(gamma) >= 0:
        raise DomainError("initial state must be dead: (beta + alpha) / |gamma| < 0")

    def record(t: int) -> TrajectoryRecord:
        prob = std_normal_cdf((beta + cfg.alpha) / abs(gamma))
        return TrajectoryRecord(t, gamma, beta, prob, abs(gamma) < collapse_threshold)

    records = [record(0)]
    reactivation = None
    for t in range(1, steps + 1):
        gamma *= shrink
        beta *= shrink
        revived = (beta + cfg.alpha) / abs(gamma) >= 0
        if revived or t % stride == 0 or t == steps:
            records.append(record(t))
        if revived:
            reactivation = t
            break
    return DecayResult(records=tuple(records), reactivation_step=reactivation, alpha=cfg.alpha)


@dataclass(frozen=True)
class TheoremRow:
    """One verification cell: empirical drift against the prediction."""

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
    ratio_to_half_eta: float | None = None


@dataclass(frozen=True)
class VerifyCell:
    eta: float
    c: float = 1.0
    noise: str = "normal"
    gamma_dist: ScalarDist = field(default_factory=lambda: Uniform(0.5, 1.5))
    beta_dist: ScalarDist = field(default_factory=lambda: Uniform(-1.0, 1.0))


def standard_grid() -> list[VerifyCell]:
    """The headline verification grid: three learning rates, both noise kinds."""
    return [
        VerifyCell(eta=eta, noise=noise)
        for noise in ("normal", "uniform")
        for eta in (0.002, 0.005, 0.01)
    ]


def verify_theorem(
    cells: list[VerifyCell] | None = None,
    count: int = 10_000_000,
    seed: int = 0,
    threads: int | None = None,
    quad: QuadratureSpec | None = None,
) -> list[TheoremRow]:
    """Run the drift estimate over a grid and tabulate agreement.

    All cells share the same seed, so cells differing only in eta reuse
    the same draws (common random numbers); their empirical ratio then
    isolates the eta scaling with almost no Monte Carlo spread. For each
    cell whose halved eta also appears in the grid (same noise, c, and
    distributions), ratio_to_half_eta reports empirical(eta)/empirical(eta/2),
    which the second-order form predicts to be 4.
    """
    cells = standard_grid() if cells is None else list(cells)
    factors: dict[tuple[str, str], float] = {}
    rows: list[TheoremRow] = []
    for cell in cells:
        key = (str(cell.gamma_dist), str(cell.beta_dist))
        if key not in factors:
            # unit-eta, unit-c prediction; exact eta^2 c^2 scaling gives the rest
            factors[key] = drift_prediction(1.0, 1.0, cell.gamma_dist, cell.beta_dist, quad).value
        spec = EnsembleSpec(gamma_dist=cell.gamma_dist, beta_dist=cell.beta_dist, count=count)
        cfg = UpdateConfig(eta=cell.eta, c=cell.c, noise_dist=noise_for(cell.noise, cell.c), seed=seed)
        predicted = factors[key] * cell.eta**2 * cell.c**2
        est = one_step_drift(spec, cfg, quad=quad, threads=threads, predicted=predicted)
        rows.append(
            TheoremRow(
                run_id=f"eta{cell.eta:g}-c{cell.c:g}-{cell.noise}",
                eta=cell.eta,
                c=cell.c,
                noise=cell.noise,
                gamma_dist=str(cell.gamma_dist),
                beta_dist=str(cell.beta_dist),
                n=count,
                empirical_mean=est.empirical_mean,
                std_error=est.std_error,
                predicted=predicted,
                agree=est.agree,
            )
        )
    # second pass: eta-doubling ratios within matching cells
    by_key = {
        (r.eta, r.c, r.noise, r.gamma_dist, r.beta_dist): r.empirical_mean for r in rows
    }
    out: list[TheoremRow] = []
    for r in rows:
        half = by_key.get((r.eta / 2.0, r.c, r.noise, r.gamma_dist, r.beta_dist))
        ratio = (r.empirical_mean / half) if half not in (None, 0.0) else None
        out.append(replace(r, ratio_to_half_eta=ratio))
    return out
