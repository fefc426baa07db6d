"""The numpy normal CDF and Beta quantile against ``scipy.special``.

scipy is only a reference here; the package does not import it. The
tolerances are about twice the largest relative differences measured on
these grids (numpy 2.4.6, scipy 1.17.1), which are given beside them.
"""

import numpy as np
import pytest
from scipy.special import betainc, betaincc, betaincinv, ndtr

from liftsim.special import beta_quantile, normal_cdf

SHAPES = (0.1, 0.3, 1.0, 2.0, 5.0, 7.3, 30.0, 120.0, 500.0)
BULK_U = np.concatenate([np.linspace(0.0, 1.0, 1001)[1:-1],
                         np.logspace(-10, -1, 91), 1 - np.logspace(-10, -1, 91)])
TAIL_U = np.array([1e-300, 1e-100, 1e-30, 1 - 1e-16])


def relative_difference(x, reference):
    return np.abs(x - reference) / reference


def test_normal_cdf_matches_ndtr():
    z = np.concatenate([np.linspace(-8.0, 8.0, 160_001),
                        np.random.default_rng(0).standard_normal(100_000)])
    assert relative_difference(normal_cdf(z), ndtr(z)).max() < 6e-15  # 2.7e-15
    # Far in the lower tail erfc(y) is sensitive to the rounding of y:
    # its relative change is about 2 y^2 times that of y.
    z = np.linspace(-37.5, -8.0, 30_001)
    assert relative_difference(normal_cdf(z), ndtr(z)).max() < 1.2e-13  # 5.7e-14


def test_normal_cdf_keeps_the_shape_and_the_ends():
    z = np.array([[-40.0, -1.0, 0.0], [0.3, 1.0, 9.0]])
    got = normal_cdf(z)
    assert got.shape == z.shape
    assert got[0, 0] == 0.0 and got[0, 2] == 0.5 and got[1, 2] == 1.0


@pytest.mark.parametrize("a", SHAPES)
def test_beta_quantile_matches_betaincinv(a):
    for b in SHAPES:
        x, reference = beta_quantile(a, b, BULK_U), betaincinv(a, b, BULK_U)
        # 8.8e-14 at a = 0.1, where the relative error grows as
        # eps * |log u| / a: the Newton residual is a difference of logs.
        assert relative_difference(x, reference).max() < 2e-13, (a, b)


def test_beta_quantile_of_the_default_world():
    u = ndtr(np.random.default_rng(1).standard_normal(100_000))
    x, reference = beta_quantile(2.0, 5.0, u), betaincinv(2.0, 5.0, u)
    assert relative_difference(x, reference).max() < 1e-14  # 3.3e-15


def test_beta_quantile_in_the_far_tails():
    """u = 1e-300 ... 1 - 1e-16, where scipy's answer reproduces u.

    There scipy's betaincinv returns NaN, or 2**-1022, or misses by up to
    5e-11 (checked at 40 digits), so points where its own betainc does
    not give back u are left out: 99 of 324.
    """
    compared = 0
    for a in SHAPES:
        for b in SHAPES:
            x, reference = beta_quantile(a, b, TAIL_U), betaincinv(a, b, TAIL_U)
            with np.errstate(all="ignore"):
                back = np.where(TAIL_U < 0.5, betainc(a, b, reference) / TAIL_U,
                                betaincc(a, b, reference) / (1 - TAIL_U))
            ok = np.abs(back - 1) < 1e-12
            compared += np.count_nonzero(ok)
            assert (relative_difference(x[ok], reference[ok]) < 3e-13).all()  # 1.2e-13
    assert compared == 225


@pytest.mark.parametrize("a, b", [(2.0, 5.0), (0.1, 500.0), (500.0, 0.1)])
def test_beta_quantile_ends_and_order(a, b):
    u = np.array([0.0, 5e-324, 1e-300, 0.25, 0.5, 0.75, 1 - 1e-16, 1.0])
    x = beta_quantile(a, b, u)
    assert x[0] == 0.0 and x[-1] == 1.0
    assert (np.diff(x) >= 0).all() and ((x >= 0) & (x <= 1)).all()
