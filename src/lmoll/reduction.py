"""Exact sums.

All reductions in this package must be reproducible bit-for-bit across runs,
so floating sums are exactly rounded by math.fsum, which also makes them
independent of the order of their terms.  Real sums call math.fsum
directly; complex ones go through fsum_complex.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def fsum_complex(values: Sequence[complex] | np.ndarray) -> complex:
    """Exactly rounded sum of complex values, real and imaginary parts apart."""
    z = np.asarray(values, dtype=np.complex128)
    return complex(math.fsum(z.real), math.fsum(z.imag))
