import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collapse_lab.dists import Normal, PointMass, Uniform, parse_dist
from collapse_lab.errors import ConfigError, DomainError

FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestParse:
    def test_uniform(self):
        assert parse_dist("uniform:-1:1") == Uniform(-1.0, 1.0)

    def test_normal(self):
        assert parse_dist("normal:0:0.5") == Normal(0.0, 0.5)

    def test_point(self):
        assert parse_dist("point:0") == PointMass(0.0)

    def test_str_round_trip(self):
        for d in (Uniform(-2.5, 0.5), Normal(1.0, 0.25), PointMass(-3.0)):
            assert parse_dist(str(d)) == d

    @pytest.mark.parametrize(
        "text",
        [
            "banana:1",
            "uniform:1",
            "uniform:1:2:3",
            "normal:0",
            "point:0:1",
            "uniform:a:b",
            "uniform:2:1",  # lo >= hi
            "normal:0:0",  # sd must be positive
            "normal:0:-1",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_dist(text)


class TestMoments:
    def test_uniform_mean_sd(self):
        d = Uniform(-1.0, 1.0)
        assert d.mean() == 0.0
        assert math.isclose(d.sd(), 2.0 / math.sqrt(12.0), rel_tol=1e-15)

    def test_normal_mean_sd(self):
        d = Normal(0.3, 0.7)
        assert d.mean() == 0.3
        assert d.sd() == 0.7

    def test_point_mass(self):
        d = PointMass(2.0)
        assert d.mean() == 2.0
        assert d.sd() == 0.0
        assert d.support() == (2.0, 2.0)

    def test_evenness(self):
        assert Uniform(-1.0, 1.0).is_even
        assert not Uniform(0.5, 1.5).is_even
        assert Normal(0.0, 2.0).is_even
        assert not Normal(0.1, 2.0).is_even
        assert PointMass(0.0).is_even
        assert not PointMass(1.0).is_even

    @pytest.mark.parametrize("d", [Uniform(-1.0, 1.0), Normal(0.5, 2.0), PointMass(0.25)], ids=str)
    def test_shifted_moves_location_only(self, d):
        moved = d.shifted(0.3)
        assert type(moved) is type(d)
        assert moved.mean() == pytest.approx(d.mean() + 0.3, abs=1e-15)
        assert moved.sd() == pytest.approx(d.sd(), rel=1e-15)
        lo, hi = d.support()
        assert moved.support() == (lo + 0.3, hi + 0.3)
        assert d.shifted(0.0) == d


class TestDensity:
    def test_uniform_density(self):
        d = Uniform(-1.0, 3.0)
        assert d.density(0.0) == 0.25
        assert d.density(-1.0) == 0.25
        assert d.density(3.5) == 0.0
        assert d.density(-2.0) == 0.0

    def test_normal_density_is_phi(self):
        # standard normal at 0 is 1/sqrt(2 pi)
        assert math.isclose(Normal(0, 1).density(0.0), 0.3989422804014327, rel_tol=1e-15)
        # location-scale: density of N(mu, s) at x equals phi((x-mu)/s)/s
        d = Normal(1.0, 2.0)
        u = (0.5 - 1.0) / 2.0
        expected = math.exp(-0.5 * u * u) / (2.0 * math.sqrt(2 * math.pi))
        assert math.isclose(d.density(0.5), expected, rel_tol=1e-14)

    def test_point_mass_has_no_density(self):
        with pytest.raises(DomainError):
            PointMass(0.0).density(0.0)

    def test_array_in_array_out(self):
        z = np.array([-2.0, 0.0, 2.0])
        out = Uniform(-1, 1).density(z)
        assert out.shape == z.shape
        np.testing.assert_array_equal(out, [0.0, 0.5, 0.0])


class TestSampling:
    def test_deterministic_per_seed(self):
        for d in (Uniform(-1, 1), Normal(0, 1), PointMass(0.5)):
            a = d.sample(np.random.default_rng(7), 100)
            b = d.sample(np.random.default_rng(7), 100)
            np.testing.assert_array_equal(a, b)

    def test_samples_inside_support(self):
        d = Uniform(0.5, 1.5)
        x = d.sample(np.random.default_rng(0), 10_000)
        assert x.min() >= 0.5 and x.max() <= 1.5

    def test_sample_moments(self):
        rng = np.random.default_rng(1)
        for d in (Uniform(-2, 2), Normal(0.5, 1.5)):
            x = d.sample(rng, 200_000)
            assert abs(x.mean() - d.mean()) < 5 * d.sd() / math.sqrt(x.size)
            assert abs(x.std() - d.sd()) < 0.01 * d.sd() + 1e-12

    def test_point_mass_samples(self):
        x = PointMass(-1.25).sample(np.random.default_rng(0), 50)
        np.testing.assert_array_equal(x, np.full(50, -1.25))


@given(lo=FINITE, width=st.floats(min_value=1e-6, max_value=1e6))
def test_uniform_density_integrates_to_one(lo, width):
    d = Uniform(lo, lo + width)
    # mass = density * measured width of the stored interval
    assert math.isclose(d.density(d.lo) * (d.hi - d.lo), 1.0, rel_tol=1e-12)


@given(v=FINITE)
def test_point_mass_even_iff_zero(v):
    assert PointMass(v).is_even == (v == 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_constructors_reject_non_finite(bad):
    with pytest.raises(ConfigError):
        Uniform(0.0, bad)
    with pytest.raises(ConfigError):
        Normal(bad, 1.0)
    with pytest.raises(ConfigError):
        PointMass(bad)
