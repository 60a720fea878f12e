"""Exact sums: exact_sum is math.fsum's double, and fsum_complex is the
correctly rounded sum of each part."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmoll.arith import RealCharacter
from lmoll.offdiag import _series_coeff, _series_terms
from lmoll.reduction import _CUTOFF, _certified_sum, exact_sum, fsum_complex

FINITE = st.floats(-1e200, 1e200)

# lengths on both sides of the cutoff between math.fsum and the vector path
LENGTHS = st.one_of(st.integers(0, 5000),
                    st.sampled_from([_CUTOFF - 1, _CUTOFF, _CUTOFF + 1, 2 * _CUTOFF]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(complex, FINITE, FINITE), max_size=40))
def test_fsum_complex_is_exact_sum_rounded(values):
    got = fsum_complex(values)
    assert got.real == float(sum(Fraction(v.real) for v in values))
    assert got.imag == float(sum(Fraction(v.imag) for v in values))
    assert fsum_complex(np.array(values, dtype=np.complex128)) == got


def _check(values: np.ndarray) -> None:
    """exact_sum and the certified path against math.fsum and the exact
    rational sum, bit for bit; the input must come back untouched."""
    before = values.copy()
    want = math.fsum(values)
    assert want == float(sum(map(Fraction, values.tolist()), Fraction(0)))
    assert exact_sum(values).hex() == want.hex()
    assert exact_sum(values.tolist()).hex() == want.hex()
    # the caller's scratch, wider than needed and holding garbage
    scratch = np.full((2, values.size + 3), np.nan)
    assert exact_sum(values, scratch).hex() == want.hex()
    assert np.array_equal(values, before)
    if values.size:
        certified = _certified_sum(values.copy(), np.empty_like(values))
        assert certified is None or certified.hex() == want.hex()


def _shuffled(rng, parts) -> np.ndarray:
    values = np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])
    rng.shuffle(values)
    return values


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), LENGTHS, st.integers(-1074, 960), st.integers(0, 1100))
def test_wide_exponent_spread(seed, n, lo, spread):
    rng = np.random.default_rng(seed)
    exps = rng.integers(lo, min(lo + spread, 960) + 1, size=n)
    mant = rng.uniform(-1.0, 1.0, size=n)
    _check(np.ldexp(mant, exps))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), LENGTHS, st.integers(-60, 0))
def test_heavy_cancellation(seed, n, residue_exp):
    # pairs x, -x(1 + tiny) cancel to far below max|x|, and the leftover
    # small terms decide the result
    rng = np.random.default_rng(seed)
    half = n // 2
    x = rng.standard_normal(half) * 2.0 ** rng.integers(-30, 30, size=half)
    near = -x * (1 + rng.integers(-4, 5, size=half) * 2.0**-52)
    small = rng.standard_normal(n - 2 * half) * 2.0**residue_exp
    _check(_shuffled(rng, (x, near, small)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), LENGTHS, st.integers(-1000, 1000), st.integers(0, 2**20))
def test_exact_ties(seed, n, scale, odd):
    # the exact sum is (1 + (2 odd + 1) 2^-53) 2^scale, a midpoint between
    # two doubles, hidden among pairs that cancel exactly
    rng = np.random.default_rng(seed)
    half = max(n - 2, 0) // 2
    x = np.ldexp(rng.uniform(-1.0, 1.0, size=half), rng.integers(-20, 20, size=half) + scale)
    tie = np.ldexp([1.0, (2 * odd + 1) * 2.0**-53], scale)
    _check(_shuffled(rng, (x, -x, tie)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), LENGTHS, st.integers(-800, 900), st.integers(0, 2**20),
       st.booleans(), st.sampled_from([-1.0, 1.0]))
def test_near_ties_under_inexact_residual(seed, n, scale, odd, below, side):
    # the exact sum is a midpoint of the doubles near 2^scale, just above it
    # or (below) just under it, where odd = 0 puts the midpoint next to the
    # binade boundary with its unequal gaps, plus or minus 2^(scale-180).
    # Pairs x, -x at 2^(scale+60) cancel exactly but set the extraction
    # grids, so the tie's low bits and pairs at 2^(scale-30) are left in
    # the residual, whose floating sum errs by far more than 2^(scale-180):
    # only the certificate keeps the wrong neighbour out
    rng = np.random.default_rng(seed)
    big = np.ldexp(rng.uniform(-1.0, 1.0, size=min(n // 2, 4)), scale + 60)
    half = max(n - 2 * big.size - 3, 0) // 2
    x = np.ldexp(rng.uniform(-1.0, 1.0, size=half), scale - 30)
    low = -(2 * odd + 1) * 2.0**-54 if below else (2 * odd + 1) * 2.0**-53
    tie = np.ldexp([1.0, low, side * 2.0**-180], scale)
    _check(_shuffled(rng, (big, -big, x, -x, tie)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), LENGTHS, st.booleans())
def test_subnormals_and_signed_zeros(seed, n, with_normal):
    rng = np.random.default_rng(seed)
    values = rng.integers(-2**40, 2**40, size=n) * math.ulp(0.0)
    values[rng.random(n) < 0.3] = 0.0
    values[rng.random(n) < 0.3] = -0.0
    if with_normal and n:
        values[0] = 2.0**-1000
    _check(values)


@pytest.mark.parametrize("n", [1, _CUTOFF - 1, _CUTOFF, 3000])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_all_zeros_keep_fsum_sign(n, zero):
    values = np.full(n, zero)
    assert exact_sum(values).hex() == math.fsum(values).hex()


def _outcome(fn, values):
    try:
        out = fn(values)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return "nan" if math.isnan(out) else out


@pytest.mark.parametrize("n", [3, _CUTOFF, 2000])
@pytest.mark.parametrize("specials", [
    [math.inf], [-math.inf], [math.nan], [math.inf, -math.inf],
    [math.inf, math.nan], [1e308, 1e308], [-1e308, -1e308, 1e308],
    [math.ldexp(1.0, 1023), math.ldexp(1.0, 1023), -1e308],
])
def test_non_finite_and_overflow_as_fsum(n, specials):
    values = np.zeros(n)
    values[:len(specials)] = specials
    np.random.default_rng(n).shuffle(values)
    values[values == 0.0] = np.random.default_rng(1).standard_normal(int(np.sum(values == 0.0)))
    want = _outcome(math.fsum, values)
    assert _outcome(exact_sum, values) == want
    assert _outcome(exact_sum, values.tolist()) == want


@pytest.mark.parametrize("n", [_CUTOFF, 3000])
def test_scratch_fallback_sums_the_original_terms(n):
    # an exact tie the certificate cannot settle: math.fsum must see the
    # caller's values, not the scratch the certified path worked on
    rng = np.random.default_rng(n)
    half = (n - 2) // 2
    x = np.ldexp(rng.uniform(-1.0, 1.0, size=half), rng.integers(-20, 20, size=half))
    values = _shuffled(rng, (x, -x, [1.0, 3 * 2.0**-53]))
    assert _certified_sum(values.copy(), np.empty_like(values)) is None
    before = values.copy()
    scratch = np.empty((2, n))
    assert exact_sum(values, scratch).hex() == math.fsum(before).hex()
    assert np.array_equal(values, before)
    assert not np.array_equal(scratch[0], before)


@pytest.mark.parametrize("r", range(1, 51))
def test_certified_path_takes_main_term_series(r):
    # the shift series that main_term sums (D = 5, its default L_max) are
    # settled by the certificate, not by the math.fsum fallback
    coeff, denom = _series_coeff(1, 1, RealCharacter(5), 100000)
    terms = _series_terms(coeff, denom, r)
    got = _certified_sum(terms.copy(), np.empty_like(terms))
    assert got is not None
    assert got.hex() == math.fsum(terms).hex()
