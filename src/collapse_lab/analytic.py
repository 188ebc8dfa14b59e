"""Closed forms and quadrature for the activation-probability drift.

The central objects, written with phi / Phi for the standard normal pdf
and cdf:

    K(x) = (x^4 - 2) phi(x)^2 + (x - x^3) phi(x) Phi(x)
    J(gamma) = E_beta[ K(beta / gamma) ]
    drift(eta, c) = (eta^2 c^2 / 2) * E_gamma[ gamma^-2 J(gamma) ]

K is the second-order kernel of the one-SGD-step change in
E[Phi(beta/gamma)] under mean-zero gradient noise of standard deviation c
and learning rate eta. For beta symmetric about zero, J(gamma) < 0 for
every gamma, so the drift is strictly negative: units keep losing
activation probability. K itself is positive only on a left tail
x < x0 ~ -1.1533 (found numerically by ``k_sign_change``); its
even-symmetrized part is negative everywhere, which is what the J < 0
statement rests on.

Partial-moment closed forms used in the derivation (the tests check them
against quadrature):

    g(y) = int_{-inf}^{y} x phi(x) dx = -phi(y)
    int_{-y}^{inf} x^2 phi(x) dx = -y phi(y) + Phi(y)

J is exact in closed form, so the drift is one gamma quadrature. For
beta ~ U(lo, hi), J(gamma) = gamma/(hi - lo) [F(hi/gamma) - F(lo/gamma)],
where the antiderivative of K follows from (x - x^3) phi = d/dx[(1 + x^2) phi]
and integration by parts:

    F(x) = -(x^3/2 + x/4) phi(x)^2 + (1 + x^2) phi(x) Phi(x) - 11/(16 sqrt(pi)) erf(x)

The erf difference goes through erfc on the side of zero where the ends
lie, so two ends deep in one tail do not cancel; a narrow interval does:
J's absolute error is about 2e-16 |gamma| / (hi - lo), 2e-11 for a width
of 1e-5 at gamma = 1. For beta ~ N(mu, s), X = beta/gamma is normal, phi^2
is N(0, 1/2)/(2 sqrt(pi)), and a product of normal pdfs is a constant
times a normal pdf, so E[K(X)] reduces to moments E[Y^k] and
E[Y^k Phi(Y)], k <= 3, of some Y ~ N(a, u^2). Stein's identity
E[(Y - a) h(Y)] = u^2 E[h'(Y)] gives those from E[Phi(Y)] = Phi(a/r) and
E[phi(Y)] = phi(a/r)/r, r = sqrt(1 + u^2).

Phi is ``_ndtr``, ``scipy.special.ndtr`` (the Cephes rational erf/erfc
approximation, relative error of a few ulp across the real line), the one
Phi every route calls. The test suite pins it against a quadrature-of-phi
oracle to 1e-12 on [-8, 8] and against an arbitrary-precision oracle to
1e-13 on spot points. SciPy is
imported on the first Phi or erfc evaluation, not with this module, so a
command that never takes one (``train``, and ``report`` of tables without
a K grid) never loads it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dists import PointMass, ScalarDist, Uniform
from .errors import DomainError, SingularityError
from .quadrature import PANELS, panel_nodes

__all__ = [
    "GAMMA_MIN",
    "k_fn",
    "k_sign_change",
    "j_fn",
    "drift_prediction",
    "require_gamma_support",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# F(x) + _ERF_COEF * erf(x), for F the antiderivative of K, vanishes in both tails
_ERF_COEF = 11.0 / (16.0 * math.sqrt(math.pi))

# Smallest admissible lower edge for a gamma distribution's support. The
# drift integrand carries 1/gamma^2, which is not integrable across 0, and
# the symmetry argument behind the kernel assumes gamma > 0.
GAMMA_MIN = 0.05


@functools.cache
def _special():
    """scipy.special, imported on the first call: the one place this package loads SciPy."""
    import scipy.special

    return scipy.special


def _ndtr(x, out=None):
    """Phi(x), elementwise, by scipy.special.ndtr; into ``out`` when given, which may be ``x`` itself."""
    return _special().ndtr(x, out=out)


def _as_finite_array(x):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("x must be finite")
    return arr


def k_fn(x):
    """The drift kernel K(x) = (x^4 - 2) phi^2 + (x - x^3) phi Phi."""
    arr = _as_finite_array(x)
    # powers by multiplication: ``arr**4`` and ``arr**3`` are a libm pow call
    # per element and cost several times the rest of the kernel
    x2 = arr * arr
    p = _INV_SQRT_2PI * np.exp(-0.5 * x2)
    out = (x2 * x2 - 2.0) * p * p + (arr - x2 * arr) * p * _ndtr(arr)
    return float(out) if out.ndim == 0 else out


def k_sign_change() -> float:
    """Locate the single zero crossing of K on the negative axis, to 1e-12.

    K is positive left of the root and negative between it and 0, so
    bisection from [-8, 0] (K(-8) > 0 > K(0) = -1/pi) finds it; the root
    is reported numerically rather than claimed in closed form.
    """
    lo, hi = -8.0, 0.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if k_fn(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def require_gamma_support(gamma_dist: ScalarDist) -> None:
    """Reject gamma distributions whose support dips below GAMMA_MIN."""
    lo, _ = gamma_dist.support()
    if lo < GAMMA_MIN:
        raise SingularityError(
            f"gamma support must lie in [{GAMMA_MIN}, inf); got lower edge {lo} "
            f"for {gamma_dist} (1/gamma^2 is not integrable across 0)"
        )


def _normal_pdf(z, var):
    return np.exp(-0.5 * z * z / var) / np.sqrt(2.0 * math.pi * var)


def _f_smooth(x):
    """F(x) + _ERF_COEF * erf(x): the part of K's antiderivative F that vanishes in both tails."""
    x2 = x * x
    p = _INV_SQRT_2PI * np.exp(-0.5 * x2)
    return (1.0 + x2) * p * _ndtr(x) - (0.5 * x2 + 0.25) * x * p * p


def _j_values(gammas: np.ndarray, beta_dist: ScalarDist) -> np.ndarray:
    """J(gamma) on an array of gammas, in closed form (see the module docstring)."""
    gammas = np.asarray(gammas, dtype=np.float64)
    if isinstance(beta_dist, PointMass):
        return k_fn(beta_dist.value / gammas)
    if isinstance(beta_dist, Uniform):
        a, b = beta_dist.lo / gammas, beta_dist.hi / gammas
        side = np.where(a + b >= 0.0, 1.0, -1.0)
        erfc = _special().erfc
        d_erf = side * (erfc(side * a) - erfc(side * b))  # erf(b) - erf(a)
        return gammas / (beta_dist.hi - beta_dist.lo) * (_f_smooth(b) - _f_smooth(a) - _ERF_COEF * d_erf)
    # Normal: X = beta/gamma ~ N(m, v2)
    m, v2 = beta_dist.loc / gammas, (beta_dist.scale / gammas) ** 2
    # (X^4 - 2) phi(X)^2, with phi^2 = N(0, 1/2) / (2 sqrt(pi)): Y ~ N(a, u2)
    w = v2 + 0.5
    a, u2 = 0.5 * m / w, 0.5 * v2 / w
    even = _normal_pdf(m, w) / (2.0 * math.sqrt(math.pi)) * (a**4 + 6.0 * a * a * u2 + 3.0 * u2 * u2 - 2.0)
    # (X - X^3) phi(X) Phi(X): Y ~ N(a, u2) again, then p_k = E[Y^k phi(Y)]
    # and m_k = E[Y^k Phi(Y)] by Stein's identity
    w = 1.0 + v2
    a, u2 = m / w, v2 / w
    r2 = 1.0 + u2
    p0 = _normal_pdf(a, r2)
    p1 = a * p0 / r2
    p2 = (a * p1 + u2 * p0) / r2
    m0 = _ndtr(a / np.sqrt(r2))
    m1 = a * m0 + u2 * p0
    m2 = a * m1 + u2 * (m0 + p1)
    m3 = a * m2 + u2 * (2.0 * m1 + p2)
    return even + _normal_pdf(m, w) * (m1 - m3)


def j_fn(gamma, beta_dist: ScalarDist):
    """J(gamma) = E_beta[K(beta/gamma)]. Scalar in, scalar out; arrays pass through.

    In closed form (see the module docstring); a PointMass beta is a
    single kernel evaluation, so beta identically 0 gives the constant
    K(0) = -1/pi for every gamma. Whether the negativity guarantee applies
    is a property of the beta distribution: check ``beta_dist.is_even``
    when consuming the value (the J < 0 statement holds only then).
    """
    gammas = np.asarray(gamma, dtype=np.float64)
    if np.any(gammas == 0):
        raise SingularityError("J(gamma) is undefined at gamma = 0")
    if not np.all(np.isfinite(gammas)):
        raise DomainError("gamma must be finite")
    flat = gammas.reshape(-1)
    values = _j_values(flat, beta_dist)
    # mathematically guaranteed for symmetric beta; a violation means the
    # closed form itself is broken, so fail loudly rather than return junk
    if beta_dist.is_even and not np.all(values < 0):
        bad = int(np.argmin(values < 0))
        raise AssertionError(f"J({flat[bad]}) = {values[bad]} >= 0 for even beta {beta_dist}")
    return float(values[0]) if gammas.ndim == 0 else values.reshape(gammas.shape)


def drift_prediction(eta: float, c: float, gamma_dist: ScalarDist, beta_dist: ScalarDist) -> float:
    """(eta^2 c^2 / 2) * E_gamma[gamma^-2 J(gamma)].

    One PANELS-panel quadrature over a uniform gamma of closed-form J
    values, or one J value at a point gamma.
    Scales exactly with eta^2 c^2: the expectation factor is computed once
    from the distributions, so doubling eta multiplies the value by
    exactly 4.
    """
    if eta < 0 or c < 0:
        raise DomainError("eta and c must be nonnegative")
    if not (math.isfinite(eta) and math.isfinite(c)):
        raise DomainError("eta and c must be finite")
    require_gamma_support(gamma_dist)
    if isinstance(gamma_dist, PointMass):
        g0 = gamma_dist.value
        factor = _j_values(np.asarray([g0]), beta_dist)[0] / (g0 * g0)
    else:
        # require_gamma_support rejects every normal gamma, so this one is uniform: its pdf is 1/(hi - lo) at
        # every node, as each lies strictly inside (lo, hi)
        lo, hi = gamma_dist.support()
        nodes, weights = panel_nodes(lo, hi, PANELS)
        jvals = _j_values(nodes, beta_dist)
        # 1,024 nodes, below the length at which OpenBLAS splits a dot product over its threads
        factor = float(np.dot(jvals * (1.0 / (hi - lo)) / (nodes * nodes), weights))
    drift = float(0.5 * eta * eta * c * c * factor)
    if not math.isfinite(drift):
        raise DomainError(f"the drift overflows at eta = {eta:g}, c = {c:g}")
    return drift
