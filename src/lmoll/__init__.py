"""Numerical toolkit for central values of Dirichlet L-functions twisted by a
real quadratic character: multiplicative sums, character groups, approximate
functional equations, mollified moments, shifted convolutions, and twisted
Voronoi summation.  Every identity the library computes has an independent
brute-force or oracle route, run by the commands' cross-checks or by the
test suite.  Reference forms that only the tests use (the Kronecker symbol,
the mollifier coefficient rho one integer at a time, Ramanujan and
Kloosterman sums, scalar gamma and digamma) live beside the tests, in
tests/oracles.py."""

__version__ = "1.0.0"

from .arith import RealCharacter, factor
from .characters import build_group, enumerate_even_primitive
from .lvalues import afe_central, oracle_L
from .moments import census, mollified_moments
from .offdiag import (
    ShiftedConvParams,
    brute_shifted_conv,
    dirichlet_series_G,
    H_kernel,
    main_term,
    singular_series,
)
from .special import SmoothBump
from .voronoi import factor_character, voronoi_lhs, voronoi_rhs

__all__ = [
    "__version__",
    "RealCharacter",
    "factor",
    "build_group",
    "enumerate_even_primitive",
    "afe_central",
    "oracle_L",
    "census",
    "mollified_moments",
    "ShiftedConvParams",
    "brute_shifted_conv",
    "dirichlet_series_G",
    "H_kernel",
    "main_term",
    "singular_series",
    "SmoothBump",
    "factor_character",
    "voronoi_lhs",
    "voronoi_rhs",
]
