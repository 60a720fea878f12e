"""High-precision oracle tier: the Hurwitz-zeta route against mpmath at 30
digits, and the certified Euler-Maclaurin shift behind it; the AFE weights
V1 and U against their Bessel integrals and under the closed-form bounds
that certify the AFE tables' cut, and afe_central's derivative
combination against mpmath's derivative of the product; Gamma(1/4, x) of
each factor's AFE; the bump's closed-form mass and the reciprocal gamma of
the H kernels."""

from __future__ import annotations

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest

from lmoll.arith import RealCharacter, one_star_psi_table
from lmoll.cli import _H_POINTS
from lmoll.characters import build_group, product_values
from lmoll.lvalues import (
    _EM_TOL,
    _afe_tables,
    _em_bound,
    _em_shift,
    _factor_length,
    afe_central,
    default_config,
    hurwitz_zeta_vec,
)
from lmoll.special import (
    _UPPER_SPLIT,
    DIGAMMA_QUARTER,
    SmoothBump,
    _upper_gamma_quarter,
    eval_weight,
    gamma_many,
)
from oracles import gamma_complex, oracle_product, rgamma_complex

# 1/129649 = 1/(9973*13), the smallest x of the Hurwitz family route at
# q = 9973, D = 13
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


# every x at which a test reads V1 or U off its Bessel integral
BESSEL_XS = (0.01, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0)


@functools.lru_cache(maxsize=1)
def _bessel_weights() -> dict:
    """(V1(x), U(x)) at each x of BESSEL_XS, as mpf at 30 digits:
    V1(x) = C int_x^inf g and U(x) = int_x^inf V1(y) dy/y = C int_x^inf g(y) log(y/x) dy,
    with g(y) = y^{-1/2} K0(2y) and C = 4/Gamma(1/4)^2 (DLMF 10.43.19
    gives V1(0) = 1), as B(s)/s^2 is B(s)/s divided by s.

    The range splits at the points themselves, so each piece takes
    int g log y and int g once for every x at or below it, and each K0
    value is computed once for both.  Past y = 60 the integrand is below
    e^{-120}, under 1e-26 of g's integral from 30."""
    with mpmath.workdps(30):
        g = functools.lru_cache(maxsize=None)(lambda y: y**-0.5 * mpmath.besselk(0, 2 * y))
        edges = [mpmath.mpf(x) for x in BESSEL_XS] + [60]
        parts = [(mpmath.quad(lambda y: g(y) * mpmath.log(y), [lo, hi]), mpmath.quad(g, [lo, hi]))
                 for lo, hi in zip(edges, edges[1:])]
        c = 4 / mpmath.gamma(0.25) ** 2
        return {x: (c * sum(b for _, b in parts[i:]),
                    c * sum(a - mpmath.log(x) * b for a, b in parts[i:]))
                for i, x in enumerate(BESSEL_XS)}


@pytest.mark.parametrize("x", (0.01, 0.5, 2.0))
def test_v1_matches_bessel_integral(x):
    # an independent route to the Mellin quadrature, on both of its
    # contours (x <= 1 and x > 1); eval_weight_many's accuracy is absolute
    assert abs(eval_weight("V1", x) - float(_bessel_weights()[x][0])) < 1e-10


U_XS = (0.01, 0.5, 2.0, 10.0)


@pytest.mark.parametrize("x", U_XS)
def test_u_matches_bessel_integral(x):
    # both contours again; the same absolute bound as V1's
    assert abs(eval_weight("U", x) - float(_bessel_weights()[x][1])) < 1e-10


@pytest.mark.parametrize("x", (0.5, 1.0, 5.0, 10.0, 20.0, 30.0))
def test_weights_under_their_closed_form_bounds(x):
    # V1(x) <= sqrt(pi) e^{-2x}/(Gamma(1/4)^2 x) and
    # U(x) <= sqrt(pi) e^{-2x}/(2 Gamma(1/4)^2 x^2) for every x > 0, from
    # K0(z) <= sqrt(pi/2z) e^{-z}; lvalues sums them into the certified
    # tail of the AFE tables.  From x = 5 on they are within 1.5 times the
    # weights, so the cut they place is not far out.
    with mpmath.workdps(30):
        v1, u = _bessel_weights()[x]
        base = mpmath.sqrt(mpmath.pi) * mpmath.exp(-2 * mpmath.mpf(x)) / mpmath.gamma(0.25) ** 2
        bounds = (base / x, base / (2 * x * x))
        for weight, bound in zip((v1, u), bounds):
            assert 0 < weight <= bound
            if x >= 5:
                assert bound <= 1.5 * weight


def _mp_L_and_derivative(values) -> tuple:
    """L(1/2, chi) and L'(1/2, chi) for chi mod m given by its table, from
    mpmath's Hurwitz zeta and its s-derivative:
    L(s) = m^{-s} sum_a chi(a) zeta(s, a/m)."""
    m = len(values)
    s = mpmath.mpf(1) / 2
    total = dtotal = mpmath.mpf(0)
    for a in range(1, m):
        if values[a] != 0:
            v = mpmath.mpc(complex(values[a]))
            total += v * mpmath.zeta(s, mpmath.mpf(a) / m)
            dtotal += v * mpmath.zeta(s, mpmath.mpf(a) / m, derivative=1)
    scale = mpmath.power(m, -s)
    return scale * total, scale * (dtotal - mpmath.log(m) * total)


@pytest.mark.parametrize("q,k", [(13, 2), (29, 4)])
def test_combo_matches_mpmath_derivative(q, k):
    # P(s) = L(s, chi) L(s, chi psi); L_combo is the AFE of
    # P(1/2) + P'(1/2)/(2 log Q).  Its error is each side's certified tail
    # ((1 - c/L) t_V1 + t_U/L)/2, plus roundoff: each dot sums n_max terms,
    # at most n_max 2^-53 times the sum of their moduli (recursive
    # summation), and each weight value is within 1e-14 absolute (U and V1
    # sit within 3e-15 of their Bessel integrals above), weighted by
    # sum |c(n)| and the combination's coefficients.  Two sides (|eps| = 1).
    psi = RealCharacter(5)
    chi = build_group(q).character(k)
    cfg = default_config(q, 5)
    L = cfg.logQ
    with mpmath.workdps(30):
        first, dfirst = _mp_L_and_derivative(chi.values())
        second, dsecond = _mp_L_and_derivative(product_values(chi, psi))
        want = complex(first * second + (dfirst * second + first * dsecond) / (2 * L))
    cols = _afe_tables(q, 5, cfg.n_max, cfg.Q)
    a, b = (1 - DIGAMMA_QUARTER / L) / 2, 1 / (2 * L)
    terms = a * np.abs(cols["V"]) + b * np.abs(cols["U"])
    n = np.arange(1, cfg.n_max + 1)
    c_sum = float(np.sum(one_star_psi_table(psi, cfg.n_max)[1:] / np.sqrt(n)))
    roundoff = cfg.n_max * 2.0**-53 * float(np.sum(terms)) + 1e-14 * (a + b) * c_sum
    tol = 2 * (cols["tails"]["L_combo"] + roundoff)
    assert tol < 1e-12
    assert abs(afe_central(chi, psi).L_combo - want) <= tol


# the largest pi n^2/m at which a factor's AFE evaluates Gamma(1/4, x),
# n <= ceil(sqrt(45 m/pi)), over the moduli m >= 5: 54.3 at m = 7
LARGEST_AFE_X = max(math.pi * _factor_length(m) ** 2 / m for m in range(5, 10**4))


def test_upper_gamma_quarter_matches_mpmath():
    # series below the split, continued fraction from it on: points on both
    # sides of it and right at it, and the largest argument the AFE uses
    near_split = _UPPER_SPLIT * (1 + np.array([-1e-3, -1e-12, 0.0, 1e-12, 1e-3]))
    xs = np.concatenate([np.geomspace(1e-8, 60, 241), near_split, [45.0, LARGEST_AFE_X]])
    assert 54 < LARGEST_AFE_X < 60
    got = _upper_gamma_quarter(xs)
    for x, value in zip(xs, got):
        with mpmath.workdps(30):
            want = float(mpmath.gammainc(0.25, x))
        assert abs(value - want) <= 5e-15 * want, x


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
