"""Exact sums.

All reductions in this package must be reproducible bit-for-bit across runs,
so floating sums are exactly rounded, which also makes them independent of
the order of their terms.  exact_sum is the one real sum: it returns the
same double as math.fsum.  On long arrays it hands math.fsum not the terms
but their exact_parts, a few doubles with the same exact sum, taken by
vectorised error-free extraction (Rump, Ogita & Oishi, "Accurate
floating-point summation, Part I", SIAM J. Sci. Comput. 31(1), 2008); the
exact sum is the same, so the rounding is too.  Complex sums go through
fsum_complex.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Shorter inputs go straight to math.fsum: below a few hundred terms the
# fixed cost of the array passes exceeds fsum's per-term cost.
_CUTOFF = 512
# Rounds of _extract before exact_parts hands over what is left: each round
# reaches 53 - log2(n + 2) binary orders further below the largest term, so
# six cover every sum in this package, the shift series at L_max = 10^7
# (about 100 orders, four rounds) included.
_ROUNDS = 6
_EMIN = -1022  # exponent of the smallest normal double


def exact_sum(values: Sequence[float] | np.ndarray) -> float:
    """The exactly rounded sum of values: math.fsum's double, bit for bit.

    Long inputs are summed as math.fsum(exact_parts(values)); a zero total
    goes back to math.fsum(values), which decides its sign.  Non-finite
    inputs reach math.fsum unchanged, so its results and the errors it
    raises stay the same.  values is not modified.
    """
    if len(values) < _CUTOFF:
        return math.fsum(values)
    total = math.fsum(exact_parts(values))
    return math.fsum(values) if total == 0.0 else total


def exact_parts(values: Sequence[float] | np.ndarray) -> tuple[float, ...]:
    """A few doubles whose exact sum is the exact sum of values.

    Each round of _extract splits off the sum of what is left on a finer
    grid, until nothing is left.  Where the rounds run out (_ROUNDS), or the
    grid would leave the range of normal doubles, the nonzero entries of
    what is left are parts themselves, so the split is always exact.
    Non-finite values are handed over whole, in order, so math.fsum of the
    parts returns or raises as math.fsum of values.  values is not modified.
    """
    p = np.array(values, dtype=np.float64)
    q = np.empty_like(p)
    parts: list[float] = []
    big = float(np.abs(p, out=q).max()) if p.size else 0.0
    if big < math.inf:
        bits = (p.size + 1).bit_length()  # 2^bits >= n + 2
        k = max(math.frexp(big)[1] + bits, _EMIN)
        while k <= 1023 and len(parts) < _ROUNDS and p.any():
            parts.append(_extract(p, q, math.ldexp(1.0, k)))
            # what is left is at most 2^(k - 53); at k = _EMIN it is zero
            k = max(k + bits - 53, _EMIN)
    return (*parts, *p[p != 0.0].tolist())


def _extract(p: np.ndarray, q: np.ndarray, sigma: float) -> float:
    """Split p = q + p' in place, q on the grid 2^-53 sigma, and return the
    sum of q.  For sigma = 2^k >= (n+2) max|p| every step is error-free:
    fl(sigma + p) - sigma is exact (Sterbenz), p - q is the rounding error
    of that addition, and every partial sum of q is a multiple of
    2^-53 sigma below sigma in magnitude, so np.sum(q) is exact in any
    order.  Afterwards |p'| <= 2^-53 sigma."""
    np.add(p, sigma, out=q)
    q -= sigma
    p -= q
    return float(q.sum())


def fsum_complex(values: Sequence[complex] | np.ndarray) -> complex:
    """Exactly rounded sum of complex values, real and imaginary parts apart."""
    z = np.asarray(values, dtype=np.complex128)
    return complex(exact_sum(z.real), exact_sum(z.imag))
