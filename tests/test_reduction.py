"""Exact sums: fsum_complex is the correctly rounded sum of each part."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lmoll.reduction import fsum_complex

FINITE = st.floats(-1e200, 1e200)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(complex, FINITE, FINITE), max_size=40))
def test_fsum_complex_is_exact_sum_rounded(values):
    got = fsum_complex(values)
    assert got.real == float(sum(Fraction(v.real) for v in values))
    assert got.imag == float(sum(Fraction(v.imag) for v in values))
    assert fsum_complex(np.array(values, dtype=np.complex128)) == got
