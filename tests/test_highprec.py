"""High-precision oracle tier: the Hurwitz-zeta route against mpmath at 30
digits, and the certified Euler-Maclaurin shift behind it; the bump's
closed-form mass and the reciprocal gamma of the H kernels."""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest

from lmoll.arith import RealCharacter
from lmoll.cli import _H_POINTS
from lmoll.characters import build_group, product_values
from lmoll.lvalues import (
    _EM_TOL,
    _em_bound,
    _em_shift,
    hurwitz_zeta_vec,
    oracle_product,
)
from lmoll.special import SmoothBump, gamma_complex, gamma_many, rgamma_complex

# 1/129649 = 1/(9973*13), the smallest x of a census at q = 9973, D = 13
XS = (1 / 129649, 1e-5, 0.1, 0.5, 1.0)
SS = (0.5, 0.4, 0.6, 0.3 + 0.2j, 2.0, 0.5 + 30j, 0.5 + 200j)


@pytest.mark.parametrize("s", SS)
def test_hurwitz_matches_mpmath(s):
    got = hurwitz_zeta_vec(s, np.array(XS))
    for x, value in zip(XS, got):
        with mpmath.workdps(30):
            want = complex(mpmath.zeta(s, x))
        assert abs(value - want) <= 1e-13 * abs(want), (s, x)


@pytest.mark.parametrize("s", (0.5, 0.5 + 0j))
def test_central_point_grid_matches_mpmath(s):
    # s = 1/2 takes (k+x)^{-1/2} as 1/sqrt; zeta(1/2, x) changes sign near
    # x = 0.3027, so the error is scaled by max(1, |zeta|) rather than |zeta|
    xs = np.concatenate([np.geomspace(1e-5, 1, 300), np.linspace(0.3, 0.305, 51)])
    got = hurwitz_zeta_vec(s, xs)
    assert np.isrealobj(got) == isinstance(s, float)
    assert np.array_equal(got.real, hurwitz_zeta_vec(0.5, xs))
    for x, value in zip(xs, got):
        with mpmath.workdps(30):
            want = float(mpmath.zeta(0.5, x))
        assert abs(value - want) <= 1e-13 * max(1.0, abs(want)), x


@pytest.mark.parametrize("q,ks", [(13, (2, 4, 6)), (29, (2, 10, 26))])
def test_central_product_matches_mpmath(q, ks):
    psi = RealCharacter(5)
    group = build_group(q)
    for k in ks:
        chi = group.character(k)
        with mpmath.workdps(30):
            first = mpmath.dirichlet(0.5, [complex(v) for v in chi.values()])
            second = mpmath.dirichlet(0.5, [complex(v) for v in product_values(chi, psi)])
            want = complex(first * second)
        assert abs(oracle_product(chi, psi) - want) <= 1e-13 * abs(want), (q, k)


@pytest.mark.parametrize("s", SS + (-10.5, 10.0, 1.5 - 3j))
def test_em_shift_is_minimal(s):
    s = complex(s)
    n = _em_shift(s)
    assert _em_bound(s, n) <= _EM_TOL
    assert n == 1 or _em_bound(s, n - 1) > _EM_TOL


def test_em_shift_values():
    assert [_em_shift(complex(s)) for s in (0.5, 2.0, 0.5 + 200j)] == [13, 14, 478]


def _em_truncation(s, x, n):
    """Euler-Maclaurin through B16 at shift n, in mpmath arithmetic."""
    s, x = mpmath.mpmathify(s), mpmath.mpf(x)
    w = x + n
    total = sum((k + x) ** -s for k in range(n)) + w ** (1 - s) / (s - 1) + w ** -s / 2
    for j in range(1, 9):
        rising = mpmath.rf(s, 2 * j - 1)
        total += mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * rising * w ** (-s - 2 * j + 1)
    return total


@pytest.mark.parametrize("s", (0.5, 2.0, 0.3 + 0.2j, 0.5 + 30j, -10.5))
@pytest.mark.parametrize("n", (2, 4, 8))
def test_em_bound_covers_the_remainder(s, n):
    # at small shifts the remainder is far above roundoff, so the bound is
    # tested on the truncation itself, with both sides at 30 digits
    for x in (1e-5, 0.5, 1.0):
        with mpmath.workdps(30):
            err = abs(_em_truncation(s, x, n) - mpmath.zeta(s, x))
            assert err <= _em_bound(complex(s), n), (s, n, x)


@pytest.mark.parametrize("s,x,match", [
    (0.5, [math.nan], "finite"),
    (0.5, [math.inf], "finite"),
    (0.5, [0.0], "positive"),
    (math.nan, [0.5], "finite"),
    (complex(0.5, math.inf), [0.5], "finite"),
    (-15.0, [0.5], "-15"),
    (-20.0, [0.5], "-15"),
    (0.5 + 5000j, [0.5], "exceeds"),
    (-14.9, [0.5], "exceeds"),
    (1.0, [0.5], "pole"),
])
def test_rejections(s, x, match):
    with pytest.raises(ValueError, match=match):
        hurwitz_zeta_vec(s, np.array(x))


# the bump template's mass per unit width, (1/2) int_{-1}^{1} e^{1 - 1/(1 - v^2)} dv
BUMP_MASS_30 = "0.603450161218938087668118998165"


def _bump_mass_mp():
    return mpmath.quad(lambda v: mpmath.exp(1 - 1 / (1 - v * v)), [-1, 0, 1]) / 2


def test_bump_mass_constant_to_30_digits():
    with mpmath.workdps(30):
        assert abs(_bump_mass_mp() - mpmath.mpf(BUMP_MASS_30)) < mpmath.mpf("1e-29")


@pytest.mark.parametrize("lo,hi", [(50, 4850), (30, 3630), (10, 100), (1, 1.5)])
def test_bump_mass_within_one_ulp(lo, hi):
    with mpmath.workdps(30):
        want = float((mpmath.mpf(hi) - lo) * _bump_mass_mp())
    assert abs(SmoothBump(lo, hi).mass - want) <= math.ulp(want)


def _h_kernel_rgamma_args():
    """Every argument the H kernels hand to the reciprocal gamma, at the
    identity suite's points and on its u + v = 1 line."""
    points = list(_H_POINTS) + [(1.0 - v, v) for v in (0.1, 0.2)]
    args = []
    for u, v in points:
        u, v = complex(u), complex(v)
        args += [0.5 + u, 0.5 + v, 1 - u - v, (1 - u - v) / 2, (0.5 + u) / 2, (0.5 + v) / 2]
    return args


@pytest.mark.parametrize("s", _h_kernel_rgamma_args())
def test_rgamma_matches_mpmath_on_kernel_arguments(s):
    with mpmath.workdps(30):
        want = complex(mpmath.rgamma(s))
    assert abs(rgamma_complex(s) - want) <= 1e-14 * abs(want), s


@pytest.mark.parametrize("s", (0, -1, -2, -3, 0j, -2.0 + 0j))
def test_rgamma_is_exactly_zero_at_poles(s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by zero on the way
        got = rgamma_complex(s)
        assert gamma_many((0.5,), (s, 0.5)) == [gamma_complex(0.5), 0j, rgamma_complex(0.5)]
    assert type(got) is complex and got == 0j
