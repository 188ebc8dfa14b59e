"""Closed-form analytics against independent oracles.

Oracle routes, kept strictly separate from the implementation:
  * libm: phi/Phi built from math.exp and math.erfc, nothing shared with
    the scipy route the library uses.
  * quadrature: partial_moment_numeric and numpy trapezoid sums at much
    higher resolution than the library's panel rule.
  * frozen spot values: literals from a 50-digit arbitrary-precision
    evaluation of the same formulas, pasted in as constants.
"""

import math

import numpy as np
import pytest
from helpers import density, g_closed, h_tail_closed, integrate, partial_moment_numeric, phi
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from collapse_lab.analytic import (
    _ERF_COEF,
    GAMMA_MIN,
    _f_smooth,
    _j_values,
    _ndtr,
    _normal_pdf,
    drift_prediction,
    j_fn,
    k_fn,
    k_sign_change,
    require_gamma_support,
)
from collapse_lab.dists import Normal, PointMass, Uniform
from collapse_lab.errors import DomainError, SingularityError


def phi_oracle(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def cdf_oracle(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def k_oracle(x: float) -> float:
    p, c = phi_oracle(x), cdf_oracle(x)
    return (x**4 - 2.0) * p * p + (x - x**3) * p * c


class TestPdf:
    """phi as the normal-beta closed form of J takes it: the pdf of N(0, var) at unit variance."""

    def test_at_zero(self):
        assert math.isclose(_normal_pdf(0.0, 1.0), 0.3989422804014327, rel_tol=1e-15)

    def test_tail(self):
        assert _normal_pdf(8.0, 1.0) < 1e-14

    def test_at_one(self):
        assert math.isclose(_normal_pdf(1.0, 1.0), 0.24197072451914337, rel_tol=1e-14)

    def test_matches_libm_oracle(self):
        xs = np.arange(-8.0, 8.0 + 1e-9, 0.25)
        got = _normal_pdf(xs, 1.0)
        want = np.array([phi_oracle(float(x)) for x in xs])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-16)


class TestCdf:
    """_ndtr, the one Phi every route calls."""

    def test_at_zero(self):
        assert _ndtr(0.0) == 0.5

    def test_tail(self):
        assert _ndtr(-8.0) < 1e-14

    def test_at_one_vs_quadrature(self):
        # numeric integration of the pdf is the stated oracle for this one
        want = integrate(phi, -8.0, 1.0)
        assert math.isclose(_ndtr(1.0), want, abs_tol=1e-12)
        assert math.isclose(_ndtr(1.0), 0.8413447460685429, rel_tol=1e-14)

    def test_monotone(self):
        xs = np.linspace(-8, 8, 1001)
        vals = _ndtr(xs)
        assert np.all(np.diff(vals) >= 0)

    def test_symmetry_grid(self):
        # Phi(x) + Phi(-x) = 1 across [-6, 6] in 0.1 steps
        xs = np.round(np.arange(-6.0, 6.0 + 1e-9, 0.1), 10)
        total = _ndtr(xs) + _ndtr(-xs)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_against_quadrature_oracle_grid(self):
        """The documented accuracy claim: 1e-12 against integrated phi on [-8, 8]."""
        for x in (-6.0, -3.0, -1.0, 0.7, 2.5, 6.0):
            want = integrate(phi, -8.0, x)
            assert abs(_ndtr(x) - want) < 1e-12


class TestPartialMoments:
    def test_g_at_zero(self):
        assert math.isclose(g_closed(0.0), -0.3989422804014327, rel_tol=1e-15)

    def test_h_at_zero(self):
        assert math.isclose(h_tail_closed(0.0), 0.5, rel_tol=1e-15)

    def test_g_matches_quadrature_grid(self):
        for y in np.arange(-4.0, 4.0 + 1e-9, 0.25):
            assert abs(g_closed(float(y)) - partial_moment_numeric(1, float(y))) < 1e-8

    def test_h_matches_quadrature_grid(self):
        # the tail from -y upward is the complement of the lower partial moment
        for y in np.arange(-4.0, 4.0 + 1e-9, 0.25):
            want = 1.0 - partial_moment_numeric(2, float(-y))
            assert abs(h_tail_closed(float(y)) - want) < 1e-8

    def test_numeric_full_moments(self):
        assert abs(partial_moment_numeric(1, 8.0) - 0.0) < 1e-8
        assert abs(partial_moment_numeric(2, 8.0) - 1.0) < 1e-8

    def test_numeric_at_zero(self):
        assert abs(partial_moment_numeric(1, 0.0) + 0.3989422804014327) < 1e-8

    def test_numeric_below_truncation(self):
        assert partial_moment_numeric(1, -9.0) == 0.0

    def test_power_validated(self):
        with pytest.raises(DomainError):
            partial_moment_numeric(3, 0.0)

    @given(y=st.floats(min_value=-8, max_value=8))
    def test_g_negative_h_bounded(self, y):
        assert g_closed(y) < 0
        assert 0.0 <= h_tail_closed(y) <= 1.0 + 1e-15


class TestKernel:
    def test_at_zero_is_minus_inv_pi(self):
        assert abs(k_fn(0.0) + 1.0 / math.pi) < 1e-15

    def test_decay_beyond_eight(self):
        assert abs(k_fn(8.0)) < 1e-10
        assert abs(k_fn(-8.0)) < 1e-10
        xs = np.concatenate([np.linspace(8, 40, 100), np.linspace(-40, -8, 100)])
        assert np.max(np.abs(k_fn(xs))) < 1e-10

    def test_matches_libm_oracle_grid(self):
        xs = np.arange(-8.0, 8.0 + 1e-9, 0.1)
        got = k_fn(xs)
        want = np.array([k_oracle(float(x)) for x in xs])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_matches_erfc_oracle_wide(self):
        # the drift grid evaluates K at beta/gamma up to |x| ~ 40, far past
        # the [-8, 8] grid above; the bound is relative where K is not tiny
        xs = np.linspace(-40.0, 40.0, 160_001)
        got = k_fn(xs)
        want = np.array([k_oracle(float(x)) for x in xs])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-15)

    def test_spot_value(self):
        # frozen from a 50-digit evaluation of the same two-term formula
        assert abs(k_fn(-0.5) - (-0.2808876274964341)) < 1e-13
        assert abs(k_oracle(-0.5) - (-0.2808876274964341)) < 1e-13

    def test_negative_on_nonnegative_axis(self):
        xs = np.arange(0.0, 8.0 + 1e-9, 0.001)
        assert np.all(k_fn(xs) < 0)

    def test_positive_window_is_left_of_root(self):
        assert k_fn(-2.0) > 0
        assert k_fn(-1.2) > 0
        assert k_fn(-1.1) < 0

    def test_sign_change_location(self):
        x0 = k_sign_change()
        # frozen from a 50-digit bisection of the same kernel
        assert abs(x0 - (-1.1532993544921277)) < 1e-9
        assert k_fn(x0 - 1e-6) > 0 > k_fn(x0 + 1e-6)


class TestJ:
    def test_point_mass_beta_is_constant(self):
        # a point mass at 0 turns the expectation into K(0) for every gamma
        for gamma in (0.5, 1.0, 2.0, 5.0):
            assert abs(j_fn(gamma, PointMass(0.0)) - k_fn(0.0)) < 1e-15

    def test_uniform_beta_value(self):
        # frozen from a 50-digit evaluation of the expectation integral
        assert abs(j_fn(1.0, Uniform(-1, 1)) - (-0.20558857159211642)) < 1e-10
        assert abs(j_fn(0.5, Uniform(-1, 1)) - (-0.13517381956545829)) < 1e-10

    def test_normal_beta_value(self):
        assert abs(j_fn(1.0, Normal(0, 0.5)) - (-0.23780752437627121)) < 1e-10

    def test_uniform_beta_vs_trapezoid_oracle(self):
        """Brute-force route: dense trapezoid instead of panel Gauss."""
        betas = np.linspace(-1.0, 1.0, 2_000_001)
        want = float(np.trapezoid(k_fn(betas) * 0.5, betas))
        assert abs(j_fn(1.0, Uniform(-1, 1)) - want) < 1e-10

    def test_negative_for_even_beta(self):
        gammas = [0.1, 0.3, 0.7, 1.0, 2.0, 5.0]
        dists = [Uniform(-a, a) for a in (0.5, 1, 2)] + [Normal(0, s) for s in (0.1, 0.5, 1)]
        for dist in dists:
            for gamma in gammas:
                assert j_fn(gamma, dist) < 0

    def test_gamma_zero_rejected(self):
        with pytest.raises(SingularityError):
            j_fn(0.0, Uniform(-1, 1))

    @pytest.mark.parametrize(
        "dist",
        [Uniform(-1.3, 1.3), Uniform(-1.0, 0.5), Normal(0.0, 0.7), Normal(0.2, 1.1), PointMass(0.0)],
        ids=str,
    )
    def test_array_matches_scalar_bits(self, dist):
        # the gamma grid of `analytic --j` in one call, element for element as the scalar calls
        gammas = np.linspace(0.1, 5.0, 50)
        got = j_fn(gammas, dist)
        assert got.shape == gammas.shape
        assert [v.hex() for v in got.tolist()] == [j_fn(g, dist).hex() for g in gammas.tolist()]
        assert type(j_fn(1.0, dist)) is float

    def test_array_checks_every_gamma(self, monkeypatch):
        with pytest.raises(SingularityError):
            j_fn(np.array([1.0, 0.0, 2.0]), Uniform(-1, 1))
        with pytest.raises(DomainError):
            j_fn(np.array([1.0, math.nan]), Uniform(-1, 1))
        with pytest.raises(DomainError):
            j_fn(np.array([math.inf, 1.0]), Uniform(-1, 1))
        # a broken closed form that gives one nonnegative J for an even beta is caught
        def broken(gammas, dist):
            return np.where(gammas == 2.0, 0.0, _j_values(gammas, dist))

        monkeypatch.setattr("collapse_lab.analytic._j_values", broken)
        with pytest.raises(AssertionError, match="J\\(2.0\\) = 0.0"):
            j_fn(np.array([1.0, 2.0, 3.0]), Uniform(-1, 1))

    def test_non_even_beta_computes(self):
        # no negativity guarantee, but the value exists; consumers check is_even
        dist = Uniform(0.0, 1.0)
        assert not dist.is_even
        value = j_fn(1.0, dist)
        assert math.isfinite(value)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["symmetric", "asymmetric", "shifted", "normal"]),
        u=st.floats(0.1, 2.0),
        v=st.floats(0.05, 1.5),
        gamma=st.floats(GAMMA_MIN, 5.0),
        negative=st.booleans(),
        flip=st.booleans(),
    )
    def test_closed_form_vs_panel_oracle(self, kind, u, v, gamma, negative, flip):
        """J against a high-panel rule on the defining integral of K(beta/gamma) * density."""
        dist = {
            "symmetric": Uniform(-u, u),
            "asymmetric": Uniform(-u, v),
            "shifted": Uniform(-u, u).shifted(v / 1.5),
            "normal": Normal(-v if flip else v, u),
        }[kind]
        g = -gamma if negative else gamma
        if kind == "normal":
            lo, hi = dist.loc - 12 * dist.scale, dist.loc + 12 * dist.scale
        else:
            lo, hi = dist.support()
        want = integrate(lambda b: k_fn(b / g) * density(dist, b), lo, hi, 8192)
        got = j_fn(g, dist)
        assert abs(got - want) <= 1e-13 * abs(want) + 1e-16

    def test_antiderivative_derivative_is_k(self):
        # F' = K by central differences: step 1e-5 leaves an O(h^2) error near 1e-11
        def f(x):
            return _f_smooth(x) - _ERF_COEF * erf(x)

        h = 1e-5
        xs = np.arange(-8.0, 8.0 + 1e-9, 0.01)
        slope = (f(xs + h) - f(xs - h)) / (2 * h)
        np.testing.assert_allclose(slope, k_fn(xs), rtol=0, atol=2e-10)

    def test_wide_normal_at_small_gamma(self):
        # N(0, 1.5) at gamma = 0.1: K(beta/gamma) spans |x| up to 120 inside
        # 8 sd; a 1024-node panel rule on beta was 8.2e-7 off here
        from scipy.integrate import quad as scipy_quad

        def integrand(b):
            return k_oracle(b / 0.1) * phi_oracle(b / 1.5) / 1.5

        want, _err = scipy_quad(integrand, -18.0, 18.0, points=[0.0], epsabs=1e-17, epsrel=1e-13, limit=400)
        assert abs(j_fn(0.1, Normal(0.0, 1.5)) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("lo, hi", [(6.0, 7.0), (8.0, 9.0), (-8.0, -7.0), (-12.0, -10.0)])
    def test_both_ends_deep_in_one_tail(self, lo, hi):
        # J is tiny here, so differencing erf(hi) - erf(lo) near +-1 would lose
        # every digit; the erfc route keeps the relative error near rounding
        want = integrate(k_fn, lo, hi, 1024) / (hi - lo)
        assert abs(j_fn(1.0, Uniform(lo, hi)) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("width", [1e-2, 1e-4, 1e-5, 1e-6])
    def test_narrow_interval_precision_bound(self, width):
        # the documented bound: F(hi/gamma) - F(lo/gamma) cancels to an
        # absolute error of about 2e-16 |gamma| / (hi - lo)
        for gamma in (0.3, 1.0, 5.0):
            for centre in np.linspace(-2.5, 2.5, 11):
                lo, hi = centre - width / 2, centre + width / 2
                want = integrate(lambda b: k_fn(b / gamma), lo, hi, 16) / (hi - lo)
                got = j_fn(gamma, Uniform(lo, hi))
                assert abs(got - want) <= 3e-16 * gamma / (hi - lo) + 1e-15 * abs(want)


class TestDrift:
    def test_zero_eta(self):
        assert drift_prediction(0.0, 1.0, Uniform(0.5, 1.5), Uniform(-1, 1)) == 0.0

    def test_zero_c(self):
        assert drift_prediction(0.01, 0.0, Uniform(0.5, 1.5), Uniform(-1, 1)) == 0.0

    def test_point_point(self):
        # both integrals collapse: (eta^2 c^2 / 2) * K(0) / 1
        pred = drift_prediction(0.01, 1.0, PointMass(1.0), PointMass(0.0))
        assert math.isclose(pred, -1e-4 / (2 * math.pi), rel_tol=1e-13)

    def test_point_beta_closed_form_gamma_expectation(self):
        # E[gamma^-2] for Uniform(0.5, 1.5) is 1/(0.5*1.5) = 4/3
        pred = drift_prediction(0.01, 1.0, Uniform(0.5, 1.5), PointMass(0.0))
        want = 0.5 * 1e-4 * (-1.0 / math.pi) * (4.0 / 3.0)
        assert math.isclose(pred, want, rel_tol=1e-12)

    def test_uniform_uniform_frozen(self):
        pred = drift_prediction(0.01, 1.0, Uniform(0.5, 1.5), Uniform(-1, 1))
        assert math.isclose(pred, -1.1753309255905726e-05, rel_tol=1e-9)

    def test_uniform_uniform_vs_nested_simpson(self):
        """Brute-force 2-D oracle: dense Simpson grid, no Gauss panels."""
        from scipy.integrate import simpson

        gammas = np.linspace(0.5, 1.5, 1001)
        betas = np.linspace(-1.0, 1.0, 2001)
        inner = simpson(k_fn(betas[None, :] / gammas[:, None]) * 0.5, x=betas, axis=1)
        outer = float(simpson(inner / gammas**2, x=gammas))
        want = 0.5 * 0.01**2 * outer
        got = drift_prediction(0.01, 1.0, Uniform(0.5, 1.5), Uniform(-1, 1))
        assert math.isclose(got, want, rel_tol=1e-9)

    def test_panel_quadrupling_stability(self):
        # the same gamma integrand through the reference rule at 4x the 256 panels
        gamma, beta = Uniform(0.5, 1.5), Uniform(-1, 1)
        factor = integrate(lambda g: _j_values(g, beta) * density(gamma, g) / (g * g), 0.5, 1.5, 1024)
        assert abs(drift_prediction(0.01, 1.0, gamma, beta) - 0.5 * 0.01**2 * factor) < 1e-12

    def test_eta_scaling_exact(self):
        lo = drift_prediction(0.005, 1.0, Uniform(0.5, 1.5), Uniform(-1, 1))
        hi = drift_prediction(0.01, 1.0, Uniform(0.5, 1.5), Uniform(-1, 1))
        assert hi / lo == 4.0

    def test_c_scaling_exact(self):
        lo = drift_prediction(0.01, 1.0, Uniform(0.5, 1.5), Uniform(-1, 1))
        hi = drift_prediction(0.01, 2.0, Uniform(0.5, 1.5), Uniform(-1, 1))
        assert hi / lo == 4.0

    def test_negative_for_even_beta(self):
        for beta in (Uniform(-0.5, 0.5), Normal(0, 1), PointMass(0.0)):
            assert drift_prediction(0.01, 1.0, Uniform(0.5, 1.5), beta) < 0

    def test_gamma_support_guards(self):
        with pytest.raises(SingularityError):
            drift_prediction(0.01, 1.0, Uniform(0.01, 1.0), Uniform(-1, 1))
        with pytest.raises(SingularityError):
            drift_prediction(0.01, 1.0, Normal(1.0, 0.1), Uniform(-1, 1))
        with pytest.raises(SingularityError):
            drift_prediction(0.01, 1.0, PointMass(0.04), Uniform(-1, 1))

    def test_gamma_support_boundary(self):
        require_gamma_support(PointMass(GAMMA_MIN))
        with pytest.raises(SingularityError):
            require_gamma_support(PointMass(GAMMA_MIN * 0.99))

    def test_rejects_negative_rates(self):
        with pytest.raises(DomainError):
            drift_prediction(-0.01, 1.0, PointMass(1.0), PointMass(0.0))
        with pytest.raises(DomainError):
            drift_prediction(0.01, -1.0, PointMass(1.0), PointMass(0.0))

    @pytest.mark.parametrize("eta, c", [(1e200, 1.0), (1.0, 1e300), (1e160, 1e160)])
    def test_rejects_an_overflowing_drift(self, eta, c):
        with pytest.raises(DomainError, match="the drift overflows"):
            drift_prediction(eta, c, PointMass(1.0), PointMass(0.0))


class TestPinnedDrift:
    """drift_prediction's bits for a uniform gamma against each beta kind, and for a point gamma.

    The gamma quadrature's dot product over 1,024 nodes stays below the length at which OpenBLAS splits it over
    its threads, so these bits hold at any BLAS thread count.
    """

    PINNED = [
        (Uniform(0.5, 1.5), Uniform(-1.0, 1.0), "-0x1.8a602862288d5p-19"),
        (Uniform(0.5, 1.5), Normal(0.1, 0.5), "-0x1.d4518cf0253e1p-19"),
        (Uniform(0.8, 1.6), PointMass(0.3), "-0x1.3046763575d1ap-19"),
        (PointMass(1.0), Uniform(-1.0, 1.0), "-0x1.58eb9e8016389p-19"),
        (PointMass(0.7), Normal(-0.2, 0.4), "-0x1.7600bfa682934p-18"),
    ]

    @pytest.mark.parametrize("gamma, beta, bits", PINNED, ids=[f"{g}-{b}" for g, b, _ in PINNED])
    def test_bits(self, gamma, beta, bits):
        assert drift_prediction(0.005, 1.0, gamma, beta).hex() == bits
