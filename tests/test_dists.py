import math

import numpy as np
import pytest
from helpers import density
from hypothesis import given
from hypothesis import strategies as st

from collapse_lab.dists import Normal, PointMass, Uniform, parse_dist
from collapse_lab.errors import ConfigError

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
    """The first two moments of each law, by the reference density the tests integrate against, are those its
    parameters name."""

    @staticmethod
    def density_moments(d, z):
        """Mean and sd of d's density, by the trapezoid rule on the grid z."""
        mean = np.trapezoid(z * density(d, z), z)
        return mean, math.sqrt(np.trapezoid((z - mean) ** 2 * density(d, z), z))

    def test_uniform_mean_sd(self):
        d = Uniform(-1.0, 3.0)
        mean, sd = self.density_moments(d, np.linspace(d.lo, d.hi, 4001))
        assert mean == pytest.approx(0.5 * (d.lo + d.hi), rel=1e-12)
        assert sd == pytest.approx((d.hi - d.lo) / math.sqrt(12.0), rel=1e-6)

    def test_normal_mean_sd(self):
        d = Normal(0.3, 0.7)
        mean, sd = self.density_moments(d, np.linspace(d.loc - 12 * d.scale, d.loc + 12 * d.scale, 4001))
        assert mean == pytest.approx(d.loc, rel=1e-12)
        assert sd == pytest.approx(d.scale, rel=1e-12)

    def test_point_mass(self):
        d = PointMass(2.0)
        x = d.sample(np.random.default_rng(0), 10)
        assert (x.mean(), x.std()) == (2.0, 0.0)
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
        # the same generator state draws every value 0.3 further along
        x, y = (dist.sample(np.random.default_rng(3), 1000) for dist in (d, moved))
        np.testing.assert_allclose(y, x + 0.3, rtol=0, atol=1e-14)
        lo, hi = d.support()
        assert moved.support() == (lo + 0.3, hi + 0.3)
        assert d.shifted(0.0) == d


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
        for d, mean, sd in ((Uniform(-2, 2), 0.0, 4 / math.sqrt(12.0)), (Normal(0.5, 1.5), 0.5, 1.5)):
            x = d.sample(rng, 200_000)
            assert abs(x.mean() - mean) < 5 * sd / math.sqrt(x.size)
            assert abs(x.std() - sd) < 0.01 * sd

    def test_point_mass_samples(self):
        x = PointMass(-1.25).sample(np.random.default_rng(0), 50)
        np.testing.assert_array_equal(x, np.full(50, -1.25))


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
