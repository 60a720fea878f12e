"""Special functions for the central-value machinery.

Gamma and digamma by a fixed Lanczos approximation with reflection, one
array implementation each (the scalar forms call it on one element); the
reciprocal gamma is 1/Gamma, set to exactly 0 at the poles, and gamma_many
takes a kernel's Gamma and 1/Gamma values from one array call.  The
three smooth weights V1, W1, W2 of the approximate functional equation are
inverse Mellin transforms

    weight(x) = (1/2 pi i) int K(s) x^{-s} ds

whose kernels K are explicit in terms of B(s) = Gamma(1/4+s/2)^2/Gamma(1/4)^2:

    V1:       B(s)/s
    W1:       (B(s)/2) [ (1 - c/logQ)/s + 1/(logQ s^2) ]
    W2:       (B(s)/2) [ (1 - c/logQ)/s - 1/(logQ s^2) ]

with c = digamma(1/4).  V1 serves both sides of the functional equation.
The W kernels combine V1, d/ds acting on x^{-s} and the kernels
(+-digamma(1/4+s/2) - c) B(s)/s; the 1/s^2 sign is the only difference.
Quadrature runs on a vertical line: Re(s) = 1 for x > 1, and Re(s) = -1/4
plus the residue at s = 0 for x <= 1, which keeps the line integral
O(x^{1/4}) and leaves the constant term to the exactly-known residue.
Kernels decay like e^{-pi|t|/4}, so |t| <= 60 at step 1/64 is far below
double precision.  B on a line is computed once per sigma, for every kind
and logQ.  One routine, eval_weight_many, evaluates any set of kinds: per x
it computes the rotation row x^{-it} on the t-grid once, the remaining
per-point cost, and takes one product with the kinds' stacked kernel rows.
The t-grid is symmetric about 0, so only the t <= 0 half of the row goes
through exp; the t > 0 half is its mirror image conjugated, exactly (below).

Also here: a C-infinity bump template, with its mass in closed form.
"""

from __future__ import annotations

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
    one _gamma_arr call: each value has the bits of its scalar form, at the
    cost of one scalar call.  A pole in gam raises; 1/Gamma is exactly 0 at
    the poles s = 0, -1, -2, ..."""
    for s in gam:
        if _is_nonpositive_integer(s):
            raise ValueError(f"gamma pole at s={s}")
    poles = [_is_nonpositive_integer(s) for s in rgam]
    # Gamma is not evaluated at a pole (its reflection would divide by 0)
    points = [*gam, *(1.0 if pole else s for s, pole in zip(rgam, poles))]
    vals = _gamma_arr(np.array(points, dtype=np.complex128)).tolist()
    return vals[:len(gam)] + [0j if pole else 1 / g for pole, g in zip(poles, vals[len(gam):])]


def gamma_complex(s: complex) -> complex:
    """Gamma(s) by Lanczos (g=7, 9 terms), reflection for Re(s) < 1/2."""
    return gamma_many((s,))[0]


def rgamma_complex(s: complex) -> complex:
    """1/Gamma(s), exactly 0 at the poles."""
    return gamma_many((), (s,))[0]


def digamma_complex(s: complex) -> complex:
    """digamma(s) from the same Lanczos data; reflection for Re(s) < 1/2."""
    if _is_nonpositive_integer(s):
        raise ValueError(f"digamma pole at s={s}")
    return complex(_digamma_arr(np.array([s], dtype=np.complex128))[0])


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


WEIGHT_KINDS = ("V1", "W1", "W2")


def _check_weight(kind: str, logQ: float) -> None:
    if kind not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {kind!r}")
    if not logQ > 0:
        raise ValueError("logQ must be positive")


def _b_arr(s: np.ndarray) -> np.ndarray:
    """B(s) = Gamma(1/4 + s/2)^2 / Gamma(1/4)^2."""
    return (_gamma_arr(0.25 + s / 2) / GAMMA_QUARTER) ** 2


def _kernel_arr(kind: str, logQ: float, s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The kernel K(s) of one weight, from b = B(s)."""
    if kind == "V1":
        return b / s
    c_over = DIGAMMA_QUARTER / logQ
    if kind == "W1":
        return b / 2 * ((1 - c_over) / s + 1 / (logQ * s * s))
    if kind == "W2":
        return b / 2 * ((1 - c_over) / s - 1 / (logQ * s * s))
    raise ValueError(kind)


def mellin_weight(kind: str, logQ: float, s: complex) -> complex:
    """Closed-form Mellin transform of any of the three weights."""
    _check_weight(kind, logQ)
    if s == 0:
        raise ValueError("pole at s=0")
    s_arr = np.array([s], dtype=complex)
    return complex(_kernel_arr(kind, logQ, s_arr, _b_arr(s_arr))[0])


def mellin_principal_part(kind: str, logQ: float) -> tuple[float, float]:
    """(c2, c1): the coefficients of 1/s^2 and 1/s at s=0 of a weight's
    Mellin transform."""
    _check_weight(kind, logQ)
    if kind == "V1":
        return 0, 1
    if kind == "W1":
        return 1 / (2 * logQ), 0.5
    return -1 / (2 * logQ), 0.5 - DIGAMMA_QUARTER / logQ


_QUAD_T_MAX = 60.0
_QUAD_STEP = 1.0 / 64.0
_QUAD_T = np.arange(-_QUAD_T_MAX, _QUAD_T_MAX + _QUAD_STEP / 2, _QUAD_STEP)
# the grid is exactly symmetric (every node a multiple of 2^-6), _QUAD_T[_MID] = 0
_MID = len(_QUAD_T) // 2


@lru_cache(maxsize=16)  # 123 kB per sigma
def _line_b(sigma: float) -> np.ndarray:
    """B(sigma + it) on the fixed t-grid _QUAD_T, for every kind and logQ."""
    b = _b_arr(sigma + 1j * _QUAD_T)
    b.flags.writeable = False
    return b


def _line_kernel(kind: str, logQ: float, sigma: float) -> np.ndarray:
    """Kernel samples K(sigma + it) on the fixed t-grid _QUAD_T."""
    return _kernel_arr(kind, logQ, sigma + 1j * _QUAD_T, _line_b(sigma))


def eval_weight_many(kinds: tuple[str, ...], logQ: float, xs: np.ndarray) -> np.ndarray:
    """weight(x) for each kind at each x, one row per kind; absolute accuracy
    far below 1e-10 on [1e-8, 1e3].

    For x <= 1 the contour sits at Re(s) = -1/4 (staying right of the
    Gamma^2 poles at s = -1/2) and the s=0 residue is added exactly.  Per
    x, one product of the rotation row x^{-it} with the kinds' kernel rows,
    stacked per contour, and one row-wise sum give every kind; numpy sums a
    contiguous row pairwise, as it sums a 1-D array, so each kind keeps the
    bits it has alone.  Only the row's t <= 0 half (3841 exponentials, the
    floor of the cost) is exponentiated; each t > 0 entry is the conjugate
    of the entry at -t.  That is exact, not just close: every node is a
    multiple of 2^-6, so -t is exactly on the grid and -t*log(x) is exactly
    the negated product; exp of a purely imaginary i*theta is
    cos(theta) + i*sin(theta), and the library cos and sin are even and odd
    to the bit.  The row therefore equals the full-grid exp bit for bit
    (test_special checks it against that formula), at half its cost.
    """
    pps = [mellin_principal_part(kind, logQ) for kind in kinds]  # checks kinds, logQ
    xs = np.asarray(xs, dtype=np.float64)
    if not np.all(xs > 0):
        raise ValueError("x must be positive")
    out = np.empty((len(kinds),) + xs.shape, dtype=np.float64)
    rows = out.reshape(len(kinds), -1)
    neg_it_half = -1j * _QUAD_T[: _MID + 1]
    rot = np.empty(len(_QUAD_T), dtype=np.complex128)
    kerns = {}  # contour sigma -> kinds x t-grid
    for i, x in enumerate(xs.ravel().tolist()):
        sigma = 1.0 if x > 1 else -0.25
        if sigma not in kerns:
            kerns[sigma] = np.array([_line_kernel(kind, logQ, sigma) for kind in kinds])
        lx = math.log(x)
        np.exp(neg_it_half * lx, out=rot[: _MID + 1])
        np.conj(rot[_MID - 1 :: -1], out=rot[_MID + 1 :])
        sums = (kerns[sigma] * rot).sum(axis=1).real.tolist()
        for row, (c2, c1), total in zip(rows, pps, sums):
            val = _QUAD_STEP / (2 * math.pi) * total * x**-sigma
            if x <= 1:
                val += c1 - c2 * lx
            row[i] = val
    return out


def eval_weight(kind: str, logQ: float, x: float) -> float:
    """weight(x) of one weight at one point: eval_weight_many on one element."""
    return float(eval_weight_many((kind,), logQ, [x])[0, 0])


def kernel_abs_moment(kind: str, logQ: float, sigma: float) -> float:
    """(1/2pi) int |K(sigma+it)| dt, so |weight(x)| <= moment * x^{-sigma}
    for x > 1 and any sigma > 0 (no pole crossed)."""
    kern = _line_kernel(kind, logQ, sigma)
    return _QUAD_STEP / (2 * math.pi) * float(np.sum(np.abs(kern)))


# (1/2) int_{-1}^{1} exp(1 - 1/(1 - v^2)) dv, the template's mass per unit
# width of support (mpmath, 40 digits: 0.6034501612189380876681189981652416974166)
_BUMP_MASS = 0.60345016121893808766811899816524


class SmoothBump:
    """C-infinity bump supported on [lo, hi], sup-normalized to peak 1.

    Template exp(1 + 1/((2y-3)^2 - 1)) on 1 < y < 2, zero outside, with
    y the affine map of [lo, hi] onto [1, 2].  On arrays, out (x's shape; x
    itself will do) receives the values.  The template runs in place on out
    when every point is strictly inside the support, else on a copy of the
    inside points: the same operations (v**2 is v*v), so the same bits."""

    def __init__(self, lo: float, hi: float):
        if not 0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        self.lo = float(lo)
        self.hi = float(hi)

    def __call__(self, x, out=None):
        if isinstance(x, float) and out is None:
            # the array path's operations on one float, without the array
            # overhead (scalar quad integrands call this once per node);
            # np.exp, since math.exp rounds some of these inputs differently
            y = 1.0 + (x - self.lo) / (self.hi - self.lo)
            if not 1.0 < y < 2.0:
                return 0.0
            v = 2.0 * y - 3.0
            return float(np.exp(1.0 + 1.0 / (v * v - 1.0)))
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

