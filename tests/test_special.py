"""Gamma, its reciprocal and digamma, the Mellin-inversion weights and
their transforms, the Bessel kernels the Voronoi side evaluates, and the
bump template."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lmoll import special
from lmoll.arith import RealCharacter, one_star_psi_table
from lmoll.lvalues import default_config
from lmoll.special import (
    _MID,
    _QUAD_STEP,
    _QUAD_T,
    DIGAMMA_QUARTER,
    GAMMA_QUARTER,
    WEIGHT_KINDS,
    SmoothBump,
    _b_arr,
    _digamma_arr,
    _kernel_arr,
    _line_b,
    _line_kernel,
    digamma_complex,
    eval_weight,
    eval_weight_many,
    gamma_complex,
    gamma_many,
    kernel_abs_moment,
    mellin_principal_part,
    mellin_weight,
    rgamma_complex,
)
from lmoll.voronoi import bessel_k0, bessel_y0

LOGQ = math.log(13 * math.sqrt(5) / math.pi)


def test_gamma_classical_values():
    assert abs(gamma_complex(0.5) - math.sqrt(math.pi)) < 1e-14
    assert abs(gamma_complex(1.0) - 1.0) < 1e-14
    assert abs(gamma_complex(5) - 24.0) < 1e-12
    assert abs(gamma_complex(0.25) - 3.625609908221908) < 1e-12
    assert abs(GAMMA_QUARTER - gamma_complex(0.25).real) < 1e-13


def test_gamma_pole_detection():
    for s in (0, -1, -2.0, -37):
        with pytest.raises(ValueError):
            gamma_complex(s)
        with pytest.raises(ValueError):
            digamma_complex(s)


def test_gamma_matches_reference_on_disk():
    # relative error < 1e-12 throughout |s| <= 50
    rng = np.random.default_rng(7)
    pts = rng.uniform(-50, 50, size=(400, 2))
    for re, im in pts:
        s = complex(re, im)
        if abs(s) > 50 or (im == 0 and re <= 0 and re == round(re)):
            continue
        ref = scipy.special.gamma(s)
        if abs(ref) == 0 or not np.isfinite(abs(ref)):
            continue
        assert abs(gamma_complex(s) - ref) / abs(ref) < 1e-12, s


@settings(max_examples=100, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_gamma_matches_reference_random(re, im):
    # away from the poles, where the reflection sine loses relative accuracy
    assume(abs(complex(re, im)) <= 50 and (re >= 0.5 or abs(im) >= 0.5))
    ref = scipy.special.gamma(complex(re, im))
    assume(0 < abs(ref) < math.inf)
    assert abs(gamma_complex(complex(re, im)) - ref) / abs(ref) < 1e-12


def test_rgamma_matches_scipy_on_grid():
    # the grid crosses the poles 0, -1, ..., -6 on the real line, where both
    # sides are exactly 0
    zeros = 0
    for re in np.arange(-6.0, 6.01, 0.25):
        for im in (0.0, 0.5, -0.5, 2.0, -2.0, 5.0, -5.0):
            s = complex(re, im)
            ref = complex(scipy.special.rgamma(s))
            got = rgamma_complex(s)
            if ref == 0:
                assert got == 0j, s
                zeros += 1
            else:
                assert abs(got - ref) <= 1e-13 * abs(ref), s
    assert zeros == 7


def test_gamma_many_has_the_bits_of_the_scalar_forms():
    rng = np.random.default_rng(3)
    pts = (rng.uniform(-20, 20, 64) + 1j * rng.uniform(-10, 10, 64)).tolist()
    want = [gamma_complex(s) for s in pts] + [rgamma_complex(s) for s in pts + [-4.0]]
    assert gamma_many(pts, pts + [-4.0]) == want
    with pytest.raises(ValueError, match="pole"):
        gamma_many((0.5, -3.0))


def test_digamma_matches_reference():
    assert abs(digamma_complex(0.25) - DIGAMMA_QUARTER) < 1e-12
    rng = np.random.default_rng(11)
    pts = rng.uniform(-30, 30, size=(200, 2))
    for re, im in pts:
        s = complex(re, im)
        if im == 0 and re <= 0 and re == round(re):
            continue
        ref = scipy.special.psi(s)
        assert abs(digamma_complex(s) - ref) <= 1e-11 * max(1.0, abs(ref)), s


def test_mellin_V_closed_values():
    g34 = gamma_complex(0.75)
    assert abs(mellin_weight("V1", LOGQ, 1) - g34**2 / GAMMA_QUARTER**2) < 1e-13
    assert abs(mellin_weight("V1", LOGQ, 0.5) - 2 * math.pi / GAMMA_QUARTER**2) < 1e-13
    # s*transform(s) = B(s) = 1 + digamma(1/4) s + O(s^2), so the limit is 1
    # but the approach is linear in s
    assert abs(1e-9 * mellin_weight("V1", LOGQ, 1e-9) - 1) < 1e-8
    s = 1e-4
    assert abs(s * mellin_weight("V1", LOGQ, s) - 1) < 2 * abs(DIGAMMA_QUARTER) * s
    with pytest.raises(ValueError):
        mellin_weight("V1", LOGQ, 0)


def test_weight_function_validation():
    with pytest.raises(ValueError):
        eval_weight("V3", 1.0, 0.5)
    with pytest.raises(ValueError):
        eval_weight("V1", 0.0, 0.5)
    with pytest.raises(ValueError):
        eval_weight("V1", LOGQ, -1.0)


def test_v_small_x_limit():
    # the sqrt(x) log x error term comes with constant 8/Gamma(1/4)^2; the
    # plain 2 x^0.4 envelope only holds once x^0.1 beats the log
    assert abs(eval_weight("V1", LOGQ, 1e-8) - 1.0) <= 2 * (1e-8) ** 0.4
    euler = 0.5772156649015329
    for x in (1e-6, 1e-8):
        sharp = -8 * math.sqrt(x) * (2 - euler - math.log(x)) / GAMMA_QUARTER**2
        assert abs(eval_weight("V1", LOGQ, x) - 1.0 - sharp) < 1e-12


def test_w_small_x_asymptotes():
    for x in (1e-6, 1e-8):
        env = math.sqrt(x) * math.log(x) ** 2 / (2 * LOGQ)
        w1 = eval_weight("W1", LOGQ, x)
        assert abs(w1 - (0.5 - math.log(x) / (2 * LOGQ))) <= env
        w2 = eval_weight("W2", LOGQ, x)
        want = 0.5 + math.log(x) / (2 * LOGQ) - DIGAMMA_QUARTER / LOGQ
        assert abs(w2 - want) <= env


def test_mellin_inversion_consistency_shifted_line():
    # independent quadrature of the closed-form transform on Re(s) = -0.45,
    # residue 1 added, against the production evaluation
    sigma = -0.45
    for x in (1e-4, 1e-2, 0.5, 1.0, 3.0, 10.0):

        def integrand(t, x=x):
            s = sigma + 1j * t
            return (mellin_weight("V1", LOGQ, s) * x ** (-s)).real / (2 * math.pi)

        val, err = scipy.integrate.quad(
            integrand, -60, 60, limit=400, epsabs=1e-11, epsrel=1e-11
        )
        assert err < 1e-9
        assert abs((val + 1.0) - eval_weight("V1", LOGQ, x)) < 1e-8, x


def test_weight_decay():
    for x in (1.0, 5.0, 20.0, 100.0, 1000.0):
        assert abs(eval_weight("V1", LOGQ, x)) * (1 + x) ** 3 <= 10.0


def test_kernel_abs_moment_bounds_weight():
    for sigma in (2.0, 4.0):
        m = kernel_abs_moment("W1", LOGQ, sigma)
        for x in (2.0, 10.0, 50.0):
            assert abs(eval_weight("W1", LOGQ, x)) <= m * x**-sigma + 1e-15


def test_principal_parts():
    assert mellin_principal_part("V1", LOGQ) == (0, 1)
    c2, c1 = mellin_principal_part("W1", LOGQ)
    assert abs(c2 - 1 / (2 * LOGQ)) < 1e-15 and c1 == 0.5
    # subtracting the principal part leaves a bounded function near s=0
    c2, c1 = mellin_principal_part("W2", LOGQ)
    vals = []
    for s in (1e-3, 1e-4, 1e-5):
        h = mellin_weight("W2", LOGQ, s) - c2 / s**2 - c1 / s
        vals.append(h)
    assert abs(vals[1] - vals[2]) < 1e-2
    assert all(abs(v) < 10 for v in vals)


def _dv_weight(sign: int, x: float) -> float:
    """dV1 (sign +1) or dV2 (sign -1), the weights of the kernels
    (sign digamma(1/4+s/2) - digamma(1/4)) B(s)/s that the W kernels combine
    with V1: eval_weight_many's line quadrature on the full rotation row,
    plus the residue at s = 0 for x <= 1 (0 for dV1, -2 digamma(1/4) for dV2)."""
    sigma = 1.0 if x > 1 else -0.25
    s = sigma + 1j * _QUAD_T
    kern = (sign * _digamma_arr(0.25 + s / 2) - DIGAMMA_QUARTER) * _line_b(sigma) / s
    rot = np.exp(-1j * _QUAD_T * math.log(x))
    val = _QUAD_STEP / (2 * math.pi) * float(np.sum(kern * rot).real) * x**-sigma
    return val + (0.0 if x > 1 or sign == 1 else -2 * DIGAMMA_QUARTER)


def test_w1_transform_closed_form_vs_numerical_mellin():
    # Mellin-transform the compositional W1 numerically and compare with the
    # closed form at two points
    L = LOGQ

    def w1_def(x: float) -> float:
        return (0.5 - math.log(x) / (2 * L)) * eval_weight("V1", L, x) + _dv_weight(
            1, x
        ) / (2 * L)

    for s in (0.8, 1.5):
        lo, elo = scipy.integrate.quad(
            lambda u: w1_def(math.exp(-u)) * math.exp(-s * u),
            0, 60, limit=400, epsabs=1e-13,
        )
        hi, ehi = scipy.integrate.quad(
            lambda x: w1_def(x) * x ** (s - 1), 1, 40, limit=400, epsabs=1e-13
        )
        assert elo + ehi < 1e-8  # conservative quad estimates
        closed = mellin_weight("W1", L, s)
        assert abs((lo + hi) - closed) < 1e-10, s


def test_w2_production_matches_composition():
    L = LOGQ
    for x in (0.01, 0.5, 1.0, 2.0, 30.0):
        composed = (0.5 + math.log(x) / (2 * L)) * eval_weight("V1", L, x) + _dv_weight(
            -1, x
        ) / (2 * L)
        assert abs(eval_weight("W2", L, x) - composed) < 1e-11, x


def test_eval_weight_many_matches_scalar():
    # both contour branches: Re(s) = -1/4 with the residue for x <= 1,
    # Re(s) = 1 beyond
    xs = np.array([1e-6, 0.1, 1.0, 7.0, 300.0])
    many = eval_weight_many(WEIGHT_KINDS, LOGQ, xs)
    assert many.shape == (len(WEIGHT_KINDS), len(xs))
    for kind, row in zip(WEIGHT_KINDS, many):
        for x, v in zip(xs, row):
            assert v == eval_weight(kind, LOGQ, float(x))
    assert eval_weight_many(("W2",), LOGQ, xs.reshape(5, 1)).shape == (1, 5, 1)


# the three AFE rows at q = 101, D = 5, over the x = n/Q where _afe_tables
# evaluates them ((1*psi)(n) != 0): sha256 of each row's bytes, and the
# principal parts (c2, c1) as hex; W1 and W2 reach no payload directly, so
# their bits are frozen here
AFE_ROW_SHA256 = {
    "V1": "aad8e85fb492822d99d93b3b253e35b940e71e7f3598099e3b2987a0efbdf636",
    "W1": "4bb893f66521e30158e71c110dcc622e043f2b9a74b60a89e4a20599a3b96b1c",
    "W2": "40d5afefe33f27125718e9b9ce3b3ff1e010730c2d486916d43c584fedb20f1c",
}
AFE_PRINCIPAL_PARTS = {
    "V1": ("0x0.0p+0", "0x1.0000000000000p+0"),
    "W1": ("0x1.df0d52f812340p-4", "0x1.0000000000000p-1"),
    "W2": ("-0x1.df0d52f812340p-4", "0x1.7d2572d9c032fp+0"),
}


def test_afe_weight_rows_bits_frozen():
    cfg = default_config(101, 5)
    coeff = one_star_psi_table(RealCharacter(5), cfg.n_max)[1:]
    xs = (np.arange(1, cfg.n_max + 1, dtype=np.float64) / cfg.Q)[coeff != 0]
    rows = eval_weight_many(tuple(AFE_ROW_SHA256), cfg.logQ, xs)
    got = {kind: hashlib.sha256(row.tobytes()).hexdigest()
           for kind, row in zip(AFE_ROW_SHA256, rows)}
    assert got == AFE_ROW_SHA256


@pytest.mark.parametrize("kind", sorted(AFE_PRINCIPAL_PARTS))
def test_afe_principal_parts_bits_frozen(kind):
    pp = mellin_principal_part(kind, default_config(101, 5).logQ)
    assert tuple(float(v).hex() for v in pp) == AFE_PRINCIPAL_PARTS[kind]


def test_eval_weight_many_shared_rotation_is_bit_identical():
    # the AFE columns share one rotation row per x; each row must carry the
    # bits of its kind evaluated alone
    xs = np.array([3e-7, 0.02, 0.5, 1.0, 1.5, 13.0, 80.0, 900.0])
    kinds = ("V1", "W1", "W2")
    rows = eval_weight_many(kinds, LOGQ, xs)
    for kind, row in zip(kinds, rows):
        assert row.tobytes() == eval_weight_many((kind,), LOGQ, xs)[0].tobytes()


def test_quad_grid_is_mirror_symmetric():
    # the half rotation row relies on it: t and -t are both nodes, exactly
    assert np.array_equal(_QUAD_T[::-1], -_QUAD_T)
    assert _QUAD_T[_MID] == 0.0 and len(_QUAD_T) == 2 * _MID + 1


def _full_row_weights(kinds, logQ: float, x: float) -> list[float]:
    """eval_weight_many as written before the half rotation row: np.exp over
    the whole t-grid.  The oracle the half row must match bit for bit."""
    sigma = 1.0 if x > 1 else -0.25
    lx = math.log(x)
    rot = np.exp(-1j * _QUAD_T * lx)
    vals = []
    for kind in kinds:
        c2, c1 = mellin_principal_part(kind, logQ)
        kern = _line_kernel(kind, logQ, sigma)
        val = _QUAD_STEP / (2 * math.pi) * float(np.sum(kern * rot).real) * x**-sigma
        if x <= 1:
            val += float((c1 - c2 * lx).real)
        vals.append(val)
    return vals


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-8, 1e3),
       st.sampled_from([LOGQ, math.log(101 * math.sqrt(5) / math.pi)]))
@example(1.0, LOGQ)
@example(math.nextafter(1.0, 0.0), LOGQ)
@example(math.nextafter(1.0, 2.0), LOGQ)
@example(1e-8, LOGQ)
@example(1e3, LOGQ)
def test_half_rotation_row_is_bit_identical_to_full_row(x, logQ):
    got = eval_weight_many(WEIGHT_KINDS, logQ, np.array([x]))[:, 0].tolist()
    want = _full_row_weights(WEIGHT_KINDS, logQ, x)
    assert [v.hex() for v in got] == [v.hex() for v in want], x


def _per_kind_weights(kind: str, logQ: float, xs) -> list[float]:
    """eval_weight_many as written before the stacked kernel matrix: one
    _kernel_arr row computed afresh for the kind and one np.sum(kern * rot)
    per x, over the full-grid rotation row."""
    kerns = {}
    for sigma in (1.0, -0.25):
        s = sigma + 1j * _QUAD_T
        kerns[sigma] = _kernel_arr(kind, logQ, s, _b_arr(s))
    c2, c1 = mellin_principal_part(kind, logQ)
    vals = []
    for x in xs:
        sigma = 1.0 if x > 1 else -0.25
        kern = kerns[sigma]
        lx = math.log(x)
        rot = np.exp(-1j * _QUAD_T * lx)
        val = _QUAD_STEP / (2 * math.pi) * float(np.sum(kern * rot).real) * x**-sigma
        if x <= 1:
            val += float((c1 - c2 * lx).real)
        vals.append(val)
    return vals


@pytest.mark.parametrize("logQ", [LOGQ, math.log(101 * math.sqrt(5) / math.pi)])
def test_stacked_kinds_are_bit_identical_to_per_kind_rows(logQ):
    # 120 x on each contour, the boundary x = 1 among them
    xs = np.concatenate([np.geomspace(1e-8, 1.0, 120), np.geomspace(1.001, 1e3, 120)])
    got = eval_weight_many(WEIGHT_KINDS, logQ, xs)
    for kind, row in zip(WEIGHT_KINDS, got):
        want = _per_kind_weights(kind, logQ, xs.tolist())
        assert [v.hex() for v in row.tolist()] == [v.hex() for v in want], kind


def test_gamma_row_computed_once_per_sigma(monkeypatch):
    calls = []
    gamma_arr = special._gamma_arr

    def counting(s):
        calls.append(len(s))
        return gamma_arr(s)

    monkeypatch.setattr(special, "_gamma_arr", counting)
    special._line_b.cache_clear()
    try:
        xs = np.geomspace(1e-3, 1e3, 40)  # both contours, sigma = 1 and -1/4
        for logQ in (LOGQ, 2 * LOGQ):
            eval_weight_many(WEIGHT_KINDS, logQ, xs)
            for kind in WEIGHT_KINDS:
                for sigma in (4.0, 6.0, 8.0):
                    kernel_abs_moment(kind, logQ, sigma)
    finally:
        special._line_b.cache_clear()
    assert calls == [len(_QUAD_T)] * 5


def _bessel_series(x: float, which: str) -> float:
    # power-series route, reliable to well below 1e-11 for x <= 5
    t = x * x / 4
    j = 1.0
    term = 1.0
    alt = 1.0
    hsum = 0.0
    corr = 0.0
    for k in range(1, 40):
        term *= t / k**2
        alt = -alt
        hsum += 1.0 / k
        j += alt * term if which == "Y0" else term
        corr += (-alt if which == "Y0" else 1.0) * hsum * term
    base = math.log(x / 2) + 0.5772156649015329
    if which == "Y0":
        return 2 / math.pi * (base * j + corr)
    return -base * j + corr


def test_bessel_against_series_oracle():
    for x in (0.3, 1.0, 2.5, 5.0):
        assert abs(bessel_y0(x) - _bessel_series(x, "Y0")) < 1e-11
        assert abs(bessel_k0(x) - _bessel_series(x, "K0")) < 1e-11


def test_k0_integral_representation():
    val, err = scipy.integrate.quad(lambda t: math.exp(-math.cosh(t)), 0, 20)
    assert err < 1e-8
    assert abs(bessel_k0(1.0) - val) < 1e-11
    assert abs(val - 0.421024438240708) < 1e-11


def test_bessel_limits_and_bounds():
    x = 1e-4
    small = 2 / math.pi * (math.log(x / 2) + 0.5772156649015329)
    assert abs(bessel_y0(x) - small) < 1e-6
    for x in (2.0, 5.0, 10.0, 50.0):
        assert bessel_k0(x) < math.exp(-x)


@pytest.mark.parametrize("lo,hi", [(10.0, 100.0), (50.0, 4850.0), (1.0, 2.0), (1.0, 1.5)])
def test_bump_scalar_path_is_bit_identical_to_array(lo, hi):
    b = SmoothBump(lo, hi)
    edges = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf),
             math.nextafter(hi, -math.inf), math.nextafter(hi, math.inf),
             0.5 * lo, 2.0 * hi, -hi, 0.0, 0.5 * (lo + hi), math.inf, math.nan]
    inner = np.random.default_rng(0).uniform(lo, hi, 2000).tolist()
    xs = edges + inner
    arr = b(np.array(xs))
    for x, want in zip(xs, arr.tolist()):
        got = b(x)
        assert type(got) is float
        assert got.hex() == want.hex(), x
        assert b(np.float64(x)).hex() == want.hex()


def _masked_bump(b: SmoothBump, x) -> np.ndarray:
    # the array path as it was before the in-place fast path: every point
    # through the support mask, into a fresh array
    y = 1.0 + (np.asarray(x, dtype=np.float64) - b.lo) / (b.hi - b.lo)
    out = np.zeros_like(y)
    inside = (y > 1.0) & (y < 2.0)
    out[inside] = np.exp(1.0 + 1.0 / ((2.0 * y[inside] - 3.0) ** 2 - 1.0))
    return out


def _hexes(a) -> list[str]:
    return [float(v).hex() for v in np.ravel(a)]


@pytest.mark.parametrize("lo,hi", [(10.0, 100.0), (50.0, 4850.0), (1.0, 2.0), (0.3, 7.9)])
def test_bump_out_is_bit_identical_to_masked_path(lo, hi):
    b = SmoothBump(lo, hi)
    inner = np.random.default_rng(1).uniform(lo, hi, 997)
    inner = inner[(inner > lo) & (inner < hi)]
    # all inside (the in-place path), then one point on each edge or outside
    # the support (the masked path), flat and as a 2-d block
    cases = [inner] + [np.append(inner, x) for x in
                       (lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, math.inf),
                        0.5 * lo, 2.0 * hi, math.nan)]
    cases.append(inner[:990].reshape(99, 10))
    for x in cases:
        want = _hexes(_masked_bump(b, x))
        assert _hexes(b(x)) == want
        out = np.full_like(x, np.nan)
        assert b(x, out=out) is out and _hexes(out) == want
        alias = x.copy()
        assert b(alias, out=alias) is alias and _hexes(alias) == want
    for v in (0.5 * (lo + hi), float(inner[0]), lo, hi, 2.0 * hi):
        want = _hexes(_masked_bump(b, v))
        out = np.full((), np.nan)
        assert b(v, out=out) is out and _hexes(out) == want
        assert b(np.array(v), out=out) is out and _hexes(out) == want
        alias = np.array(v)
        assert b(alias, out=alias) is alias and _hexes(alias) == want
        assert _hexes(b(np.array(v))) == want and _hexes(b(v)) == want


def test_bump_shape():
    b = SmoothBump(10.0, 100.0)
    assert b(10.0) == 0.0 and b(100.0) == 0.0 and b(5.0) == 0.0 and b(200.0) == 0.0
    assert abs(b(55.0) - 1.0) < 1e-15  # peak at midpoint
    xs = np.linspace(10, 100, 1001)
    vals = b(xs)
    assert np.all(vals >= 0) and np.all(vals <= 1.0)
    assert vals[1] < 1e-40  # flat to all orders at the edge
    with pytest.raises(ValueError):
        SmoothBump(3.0, 2.0)
