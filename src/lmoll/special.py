"""Special functions for the central-value machinery.

Gamma and digamma by a fixed Lanczos approximation with reflection, one
array implementation each; the reciprocal gamma is 1/Gamma, set to exactly
0 at the poles, and gamma_many takes a kernel's Gamma and 1/Gamma values
from one array call.  The two smooth weights of the approximate functional
equation, V1 and U, are inverse Mellin transforms

    weight(x) = (1/2 pi i) int K(s) x^{-s} ds

of kernels in B(s) = Gamma(1/4+s/2)^2/Gamma(1/4)^2, neither depending on
the conductor:

    V1:       B(s)/s
    U:        B(s)/s^2

V1 serves both sides of the functional equation; the derivative
combination's weights are W1, W2 = ((1 - c/L)/2) V1 +- U/(2L), with
c = digamma(1/4) and L = log Q, assembled where lvalues forms L_combo.
Quadrature runs on a vertical line: Re(s) = 1 for x > 1, and Re(s) = -1/4
plus the residue at s = 0 for x <= 1, which keeps the line integral
O(x^{1/4}) and leaves the constant term to the exactly-known residue.
Kernels decay like e^{-pi|t|/4}, so |t| <= 60 at step 1/64 is far below
double precision.  B on a line is computed once per contour, for every
kind: two rows of 7681 points in all.  Both weights decay like e^{-2x}
(they are Bessel integrals, DLMF 10.43.19), so past x of about 20 the
quadrature returns only its roundoff floor; lvalues bounds what lies
beyond in closed form and evaluates no weight there.
One routine, eval_weight_many, evaluates any set of kinds: per x
it computes the rotation row x^{-it} on the t-grid once, the remaining
per-point cost, and takes one product with the kinds' stacked kernel rows.
The t-grid is symmetric about 0, so only the t <= 0 half of the row is
computed, as cos and sin of its angles; the t > 0 half is its mirror image
conjugated, exactly (below).

Also here: a C-infinity bump template, with its mass in closed form.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_integer(s: complex) -> bool:
    s = complex(s)
    return s.imag == 0.0 and s.real <= 0.0 and s.real == round(s.real)


def gamma_many(gam, rgam=()) -> list[complex]:
    """Gamma at each point of gam, then 1/Gamma at each point of rgam, from
    one _gamma_arr call: each value has the bits of a one-point call, and the
    whole call costs about as much as one.  A pole in gam raises; 1/Gamma is
    exactly 0 at the poles s = 0, -1, -2, ...  A point where Gamma or 1/Gamma is not a
    finite double (Re s beyond about 171.6, or below about -170.6 off the
    poles, or Gamma underflowing at large |Im s|) raises ValueError."""
    for s in gam:
        if _is_nonpositive_integer(s):
            raise ValueError(f"gamma pole at s={s}")
    poles = [_is_nonpositive_integer(s) for s in rgam]
    # Gamma is not evaluated at a pole (its reflection would divide by 0)
    points = [*gam, *(1.0 if pole else s for s, pole in zip(rgam, poles))]
    with np.errstate(all="ignore"):  # an overflow is reported below
        vals = _gamma_arr(np.array(points, dtype=np.complex128)).tolist()
    for s, g in zip(points, vals):
        if not (cmath.isfinite(g) and g != 0 and cmath.isfinite(1 / g)):
            raise ValueError(f"Gamma({s}) or its reciprocal leaves the double range")
    return vals[:len(gam)] + [0j if pole else 1 / g for pole, g in zip(poles, vals[len(gam):])]


def _gamma_arr(s: np.ndarray) -> np.ndarray:
    """Vectorized gamma on complex arrays, no pole checking."""
    s = np.asarray(s, dtype=np.complex128)
    refl = s.real < 0.5
    zs = np.where(refl, 1 - s, s) - 1
    a = np.full(s.shape, _LANCZOS_C[0], dtype=np.complex128)
    for k in range(1, 9):
        a += _LANCZOS_C[k] / (zs + k)
    t = zs + _LANCZOS_G + 0.5
    g = math.sqrt(2 * math.pi) * np.exp((zs + 0.5) * np.log(t) - t) * a
    out = np.where(refl, np.pi / (np.sin(np.pi * s) * g), g)
    return out


def _digamma_arr(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=np.complex128)
    refl = s.real < 0.5
    zs = np.where(refl, 1 - s, s) - 1
    a = np.full(s.shape, _LANCZOS_C[0], dtype=np.complex128)
    da = np.zeros(s.shape, dtype=np.complex128)
    for k in range(1, 9):
        a += _LANCZOS_C[k] / (zs + k)
        da -= _LANCZOS_C[k] / (zs + k) ** 2
    t = zs + _LANCZOS_G + 0.5
    psi = np.log(t) + (zs + 0.5) / t - 1 + da / a
    return np.where(refl, psi - np.pi / np.tan(np.pi * s), psi)


GAMMA_QUARTER = 3.6256099082219083  # Gamma(1/4)
DIGAMMA_QUARTER = -4.227453533376265  # digamma(1/4) = Gamma'(1/4)/Gamma(1/4)

# Gamma(1/4, x): the series below the split, the continued fraction above it,
# each at a fixed length that reaches double precision on its side
_UPPER_SPLIT = 0.8
_UPPER_SERIES_TERMS = 20
_UPPER_CF_DEPTH = 120


def _upper_gamma_quarter(x: np.ndarray) -> np.ndarray:
    """Gamma(1/4, x) for an array of finite x > 0, within 5e-15 relative
    of mpmath on [1e-8, 60] (3.6e-15 the worst seen).

    For x < 0.8, Gamma(1/4) - gamma(1/4, x) with the positive series
    gamma(a, x) = x^a e^{-x} sum_k x^k / (a (a+1) ... (a+k)) (DLMF 8.7.3):
    past 20 terms the rest is below e^x x^20/20! < 2e-20 of the sum, and
    the subtraction costs at most Gamma(1/4)/Gamma(1/4, 0.8), about 11, in
    relative accuracy.  For x >= 0.8, Legendre's continued fraction (DLMF
    8.9.2, in its even contraction)
    x^a e^{-x} / (x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...))),
    evaluated from depth 120 upward; at x = 0.8 depth 100 already agrees
    with mpmath within 3.2e-15, and the convergence is faster for larger x."""
    a = 0.25
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x > 0) & (x < np.inf)):
        raise ValueError("x must be finite and positive")
    scale = np.exp(a * np.log(x) - x)  # x^a e^{-x}
    out = np.empty_like(x)
    lo = x < _UPPER_SPLIT
    xs = x[lo]
    term = np.full(xs.shape, 1 / a)
    total = term.copy()
    for k in range(1, _UPPER_SERIES_TERMS):
        term *= xs / (a + k)
        total += term
    out[lo] = GAMMA_QUARTER - scale[lo] * total
    xc = x[~lo]
    depth = _UPPER_CF_DEPTH
    t = xc + (2 * depth + 1 - a)
    for j in range(depth, 0, -1):
        t = xc + (2 * j - 1 - a) - j * (j - a) / t
    out[~lo] = scale[~lo] / t
    return out


WEIGHT_KINDS = ("V1", "U")


def _b_arr(s: np.ndarray) -> np.ndarray:
    """B(s) = Gamma(1/4 + s/2)^2 / Gamma(1/4)^2."""
    return (_gamma_arr(0.25 + s / 2) / GAMMA_QUARTER) ** 2


def _kernel_arr(kind: str, s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The kernel K(s) of one weight, from b = B(s)."""
    if kind == "V1":
        return b / s
    if kind == "U":
        return b / (s * s)
    raise ValueError(kind)


def mellin_principal_part(kind: str) -> tuple[float, float]:
    """(c2, c1): the coefficients of 1/s^2 and 1/s at s=0 of a weight's
    Mellin transform.  B(s) = 1 + digamma(1/4) s + O(s^2), so U's residue
    against x^{-s} is digamma(1/4) - log x."""
    if kind not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {kind!r}")
    return (0, 1) if kind == "V1" else (1, DIGAMMA_QUARTER)


_QUAD_T_MAX = 60.0
_QUAD_STEP = 1.0 / 64.0
_QUAD_T = np.arange(-_QUAD_T_MAX, _QUAD_T_MAX + _QUAD_STEP / 2, _QUAD_STEP)
# the grid is exactly symmetric (every node a multiple of 2^-6), _QUAD_T[_MID] = 0
_MID = len(_QUAD_T) // 2


@lru_cache(maxsize=16)  # 123 kB per sigma
def _line_b(sigma: float) -> np.ndarray:
    """B(sigma + it) on the fixed t-grid _QUAD_T, for every kind."""
    b = _b_arr(sigma + 1j * _QUAD_T)
    b.flags.writeable = False
    return b


def _line_kernel(kind: str, sigma: float) -> np.ndarray:
    """Kernel samples K(sigma + it) on the fixed t-grid _QUAD_T."""
    return _kernel_arr(kind, sigma + 1j * _QUAD_T, _line_b(sigma))


def eval_weight_many(kinds: tuple[str, ...], xs: np.ndarray) -> np.ndarray:
    """weight(x) for each kind at each x, one row per kind, on [1e-8, 1e3].

    The error is absolute, not relative: a roundoff floor of about 1e-19
    (1.3e-19 the most seen for x >= 12, a few 1e-20 past x = 25).  Past
    x of about 20, where both weights are below it (V1(30) is 3.9e-29),
    the value is that roundoff alone and either kind can come out
    negative: V1(30) computes as 7.5e-21 and U(30) as -1.4e-20.

    For x <= 1 the contour sits at Re(s) = -1/4 (staying right of the
    Gamma^2 poles at s = -1/2) and the s=0 residue is added exactly.  Per
    x, one product of the rotation row x^{-it} with the kinds' kernel rows,
    stacked per contour, and one row-wise sum give every kind; numpy sums a
    contiguous row pairwise, as it sums a 1-D array, so each kind keeps the
    bits it has alone.  Only the row's t <= 0 half is computed, the floor
    of the cost: 3841 angles theta = -t log x, whose cos and sin go straight
    into the row's real and imaginary parts; each t > 0 entry is the
    conjugate of the entry at -t.  Both steps are exact.  The library's
    complex exp of i*theta (real part 0) is exp(0) (cos(theta) +
    i sin(theta)) with exp(0) = 1, so cos and sin give np.exp's bits
    without its complex product and temporary; only the zero sin(theta) at
    t = 0 may differ in sign, which changes no real part.  Every node is a
    multiple of 2^-6, so -t is exactly on the grid and its angle is exactly
    the negated one, and the library cos and sin are even and odd to the
    bit.  The weights are therefore those of np.exp over the whole grid,
    bit for bit (test_special checks them against that formula).
    """
    pps = [mellin_principal_part(kind) for kind in kinds]  # checks kinds
    xs = np.asarray(xs, dtype=np.float64)
    if not np.all(xs > 0):
        raise ValueError("x must be positive")
    out = np.empty((len(kinds),) + xs.shape, dtype=np.float64)
    rows = out.reshape(len(kinds), -1)
    neg_t_half = -_QUAD_T[: _MID + 1]
    theta = np.empty_like(neg_t_half)
    rot = np.empty(len(_QUAD_T), dtype=np.complex128)
    kerns = {}  # contour sigma -> kinds x t-grid
    for i, x in enumerate(xs.ravel().tolist()):
        sigma = 1.0 if x > 1 else -0.25
        if sigma not in kerns:
            kerns[sigma] = np.array([_line_kernel(kind, sigma) for kind in kinds])
        lx = math.log(x)
        np.multiply(neg_t_half, lx, out=theta)
        np.cos(theta, out=rot.real[: _MID + 1])
        np.sin(theta, out=rot.imag[: _MID + 1])
        np.conj(rot[_MID - 1 :: -1], out=rot[_MID + 1 :])
        sums = (kerns[sigma] * rot).sum(axis=1).real.tolist()
        for row, (c2, c1), total in zip(rows, pps, sums):
            val = _QUAD_STEP / (2 * math.pi) * total * x**-sigma
            if x <= 1:
                val += c1 - c2 * lx
            row[i] = val
    return out


def eval_weight(kind: str, x: float) -> float:
    """weight(x) of one weight at one point: eval_weight_many on one element."""
    return float(eval_weight_many((kind,), [x])[0, 0])


# (1/2) int_{-1}^{1} exp(1 - 1/(1 - v^2)) dv, the template's mass per unit
# width of support (mpmath, 40 digits: 0.6034501612189380876681189981652416974166)
_BUMP_MASS = 0.60345016121893808766811899816524


class SmoothBump:
    """C-infinity bump supported on [lo, hi], sup-normalized to peak 1.

    Template exp(1 + 1/((2y-3)^2 - 1)) on 1 < y < 2, zero outside, with
    y the affine map of [lo, hi] onto [1, 2].  A scalar x gives a float,
    an array x an array, into out when given (x's shape; x itself will
    do).  The template runs in place on out when every point is strictly
    inside the support, else on a copy of the inside points: the same
    operations (v**2 is v*v), so the same bits."""

    def __init__(self, lo: float, hi: float):
        if not 0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        self.lo = float(lo)
        self.hi = float(hi)

    def __call__(self, x, out=None):
        x = np.asarray(x, dtype=np.float64)
        y = np.subtract(x, self.lo, out=np.empty_like(x) if out is None else out)
        y /= self.hi - self.lo
        y += 1.0
        whole = y.size and y.min() > 1.0 and y.max() < 2.0
        inside = ... if whole else (y > 1.0) & (y < 2.0)
        v = y[inside]  # a view of y when whole, else a copy
        np.subtract(np.multiply(v, 2.0, out=v), 3.0, out=v)
        np.subtract(np.multiply(v, v, out=v), 1.0, out=v)  # in [-1, 0)
        np.exp(np.add(np.divide(1.0, v, out=v), 1.0, out=v), out=v)
        if not whole:
            y.fill(0.0)
            y[inside] = v
        return y if y.shape or out is not None else float(y)

    @property
    def mass(self) -> float:
        """int g = (hi - lo) K, with K the template's mass on a unit width."""
        return (self.hi - self.lo) * _BUMP_MASS

