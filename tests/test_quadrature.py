import math

import numpy as np
import pytest
from helpers import TRUNCATION_RADIUS, integrate

from collapse_lab.errors import ConfigError
from collapse_lab.quadrature import PANELS, panel_nodes


def phi(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


def test_defaults():
    assert PANELS >= 64


def test_weights_sum_to_interval_length():
    nodes, weights = panel_nodes(-3.0, 5.0, 17)
    assert math.isclose(weights.sum(), 8.0, rel_tol=1e-14)
    assert nodes.min() > -3.0 and nodes.max() < 5.0
    assert nodes.size == weights.size == 17 * 4


def test_empty_interval_rejected():
    with pytest.raises(ConfigError):
        panel_nodes(1.0, 1.0, 4)


@pytest.mark.parametrize("panels", [0, -3])
def test_panel_count_must_be_positive(panels):
    with pytest.raises(ConfigError):
        integrate(phi, -1.0, 1.0, panels)


def test_polynomial_exactness():
    """An order-4 Gauss rule is exact through degree 7 on each panel."""
    lo, hi = 0.3, 2.1
    exact = (hi**8 - lo**8) / 8.0
    got = integrate(lambda x: x**7, lo, hi, panels=3)
    assert math.isclose(got, exact, rel_tol=1e-14)


def test_gaussian_mass():
    total = integrate(phi, -TRUNCATION_RADIUS, TRUNCATION_RADIUS)
    # the clipped tails hold about 1.2e-15 of mass
    assert abs(total - 1.0) < 1e-13


def test_gaussian_second_moment():
    m2 = integrate(lambda x: x * x * phi(x), -8.0, 8.0)
    assert abs(m2 - 1.0) < 1e-12


def test_panel_doubling_stability():
    for fn in (phi, lambda x: x * x * phi(x), lambda x: np.cos(x) * phi(x)):
        a = integrate(fn, -8.0, 8.0)
        b = integrate(fn, -8.0, 8.0, 2 * PANELS)
        assert abs(a - b) < 1e-9


def test_deterministic():
    a = panel_nodes(-1.0, 1.0, 8)
    b = panel_nodes(-1.0, 1.0, 8)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
