"""Exact sums.

All reductions in this package must be reproducible bit-for-bit across runs,
so floating sums are exactly rounded, which also makes them independent of
the order of their terms.  exact_sum is the one real sum: it returns the
same double as math.fsum, and on long arrays it gets there by vectorised
error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
summation, Part I", SIAM J. Sci. Comput. 31(1), 2008), certified against the
gaps around the rounded result, with math.fsum as the fallback whenever the
certificate fails.  Complex sums go through fsum_complex.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Shorter inputs go straight to math.fsum: below a few hundred terms the
# fixed cost of the array passes exceeds fsum's per-term cost.  Inputs of
# 2^26 terms or more would break the exactness of the extracted sums (which
# needs n(n+2) < 2^54), so they go to math.fsum as well.
_CUTOFF = 512
_MAX_LEN = 2 ** 26
_WIDE = 2.0 ** -51  # 4u, u = 2^-53 the unit roundoff


def exact_sum(values: Sequence[float] | np.ndarray, scratch: np.ndarray | None = None) -> float:
    """The exactly rounded sum of values: math.fsum's double, bit for bit.

    Non-finite inputs, and every input the certificate of _certified_sum
    cannot settle, go to math.fsum itself, so its results and the errors it
    raises stay the same.  values is not modified.  scratch, float64 of shape
    (2, >= len(values)), holds the certified path's two working rows.
    """
    if not _CUTOFF <= len(values) < _MAX_LEN:
        return math.fsum(values)
    p, q = np.empty((2, len(values))) if scratch is None else scratch[:, :len(values)]
    np.copyto(p, np.asarray(values, dtype=np.float64))
    total = _certified_sum(p, q)
    return math.fsum(values) if total is None else total


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


def _certified_sum(p: np.ndarray, q: np.ndarray) -> float | None:
    """The exactly rounded sum of p, or None where it is not certified.

    Two rounds of _extract take the sum exactly into tau1 + tau2 plus a
    residual p'' of size about u^2 n^2 max|p|.  approx = np.sum(p'') errs by
    at most gamma_{n-1} sum|p''| <= err, inflated for the rounding in the
    sum of |p''| and in err itself (the smallest subnormal covers its
    underflow).  F is the double nearest tau1 + tau2 + approx and rho the
    rounded remainder of that sum, so the exact sum lies within
    |rho|(1 + 4u) + err of F; when that is below half
    the smaller gap from F to its neighbours, F is the nearest double to
    the exact sum and no tie, which is what math.fsum returns.  None for
    non-finite values, F = 0 (whose sign fsum decides), and sigma too large
    or too small for the grids to be exact.  p is overwritten, and q (p's
    shape) takes |p| and the extraction grids.
    """
    n = p.size
    np.abs(p, out=q)
    big = float(q.max())
    if not big < math.inf:
        return None
    bits = (n + 1).bit_length()  # 2^bits >= n + 2
    k = math.frexp(big)[1] + bits
    # sigma2 = 2^(k + bits - 53) covers the residual |p'| <= 2^-53 sigma1
    if not (k <= 1023 and k + bits - 53 >= -1021):
        return None
    tau1 = _extract(p, q, math.ldexp(1.0, k))
    tau2 = _extract(p, q, math.ldexp(1.0, k + bits - 53))
    approx = float(p.sum())
    err = float(np.abs(p, out=q).sum()) * (n * _WIDE) + math.ulp(0.0)
    total = math.fsum((tau1, tau2, approx))
    if total == 0.0:
        return None
    rho = math.fsum((tau1, tau2, approx, -total))
    gap = min(total - math.nextafter(total, -math.inf),
              math.nextafter(total, math.inf) - total)
    if abs(rho) * (1 + _WIDE) + err < gap / 2:
        return total
    return None


def fsum_complex(values: Sequence[complex] | np.ndarray) -> complex:
    """Exactly rounded sum of complex values, real and imaginary parts apart."""
    z = np.asarray(values, dtype=np.complex128)
    return complex(exact_sum(z.real), exact_sum(z.imag))
