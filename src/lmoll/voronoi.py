"""Twisted summation formula for the divisor-convolved character weights.

For a smooth compactly supported g, the sum of (1 * psi)(n) e(an/c) g(n)
is evaluated two ways: directly over the support, and through its dual
expansion -- a constant term proportional to L(1, psi) and to the bump's
closed-form mass, plus two Bessel sums (Y0 oscillatory, K0 exponentially
decaying) over the convolution coefficients of the factor characters psi1
mod (c, D) and psi2 mod D/(c, D).
All three coprimality regimes of (c, D) go through the same formula, with
the principal character mod 1 filling in the degenerate slots; it shares
the real character's interface, so Gauss sums and the convolution
(arith.character_convolution) never ask which kind a factor is.

Oscillatory integrals use Gauss-Legendre panels sized to the cycle count,
targeting 1e-11 per integral, their tables built in place in one workspace
per voronoi_rhs call; every truncated sum reports a tail estimate and an
insufficiency flag instead of failing silently.

The Y0/K0 kernels are scipy.special's y0/k0, bound as bessel_y0/bessel_k0
on first use (the first read of either name through the module's PEP 562
__getattr__, or the first integral), so importing lmoll loads no scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import (PrincipalCharacter, RealCharacter, ResidueCharacter,
                    character_convolution, one_star_psi_table)
from .characters import gauss_sum
from .lvalues import oracle_L
from .reduction import fsum_complex
from .special import SmoothBump

__all__ = [
    "VoronoiCase",
    "VoronoiDual",
    "factor_character",
    "dual_coefficients",
    "voronoi_lhs",
    "voronoi_rhs",
]


def _character_for(modulus: int) -> ResidueCharacter:
    """The factor character mod a divisor of D: real, or for modulus 1 the
    principal character mod 1, which is identically one."""
    if modulus == 1:
        return PrincipalCharacter()
    if modulus % 4 == 3:
        # the real primitive character mod this factor would be odd, and the
        # dual expansion below only covers the even case
        raise ValueError(f"factor modulus {modulus} carries an odd character")
    return RealCharacter(modulus)


@dataclass(frozen=True)
class VoronoiCase:
    """Twist geometry: c, a with (a, c) = 1, and psi split across c.

    shared = (c, D) and D_c = D/shared are coprime because D is squarefree;
    psi1 = (shared/.) lives mod shared and psi2 = (D_c/.) mod D_c.  The
    Kronecker symbol is multiplicative in its top argument, so psi = psi1 psi2
    pointwise by construction.
    """

    c: int
    a: int
    psi: RealCharacter
    psi1: ResidueCharacter = field(init=False)
    psi2: ResidueCharacter = field(init=False)
    shared: int = field(init=False)
    D_c: int = field(init=False)

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("c must be positive")
        if self.c > 10**6:
            # both sides tabulate the c-th roots of unity
            raise ValueError(f"c must be at most 10^6, got {self.c}")
        if math.gcd(self.a, self.c) != 1:
            raise ValueError("a must be coprime to c")
        shared = math.gcd(self.c, self.psi.D)
        object.__setattr__(self, "shared", shared)
        object.__setattr__(self, "D_c", self.psi.D // shared)
        object.__setattr__(self, "psi1", _character_for(shared))
        object.__setattr__(self, "psi2", _character_for(self.D_c))


def factor_character(psi: RealCharacter, c: int, a: int = 1) -> VoronoiCase:
    """Split psi across (c, D) and D/(c, D) and package the twist data."""
    return VoronoiCase(c=c, a=a, psi=psi)


def dual_coefficients(case: VoronoiCase, limit: int) -> np.ndarray:
    """(psi1 * psi2)(m) for m = 1..limit (index 0 unused), sieved in exact
    int64 and returned as float64."""
    return character_convolution(case.psi1, case.psi2, limit).astype(np.float64)


# ------------------------------------------------------------------ LHS


def voronoi_lhs(case: VoronoiCase, g: SmoothBump) -> complex:
    """Exact twisted sum over the integers in the support of g."""
    if g.hi > 1e6:
        raise ValueError("support cap is 1e6")
    n_lo = int(math.floor(g.lo)) + 1
    n_hi = int(math.ceil(g.hi)) - 1
    if n_hi < n_lo:
        return 0j
    tab = one_star_psi_table(case.psi, n_hi).astype(np.float64)
    n = np.arange(n_lo, n_hi + 1)
    roots = np.exp(2j * np.pi * np.arange(case.c) / case.c)
    terms = tab[n] * g(n.astype(np.float64)) * roots[(case.a % case.c) * n % case.c]
    return fsum_complex(terms)


# ------------------------------------------------------------------ integrals


def _bind_bessel() -> None:
    """Import scipy.special's y0/k0 as this module's bessel_y0/bessel_k0,
    keeping a name that is already bound (a patched kernel stays patched)."""
    names = globals()
    if "bessel_y0" in names and "bessel_k0" in names:
        return
    from scipy.special import k0, y0
    names.setdefault("bessel_y0", y0)
    names.setdefault("bessel_k0", k0)


def __getattr__(name: str):
    if name in ("bessel_y0", "bessel_k0"):
        _bind_bessel()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the 12-point Gauss-Legendre rule on [-1, 1], the doubles of
# numpy.polynomial.legendre.leggauss(12), which are exactly symmetric;
# written out so that no command imports numpy.polynomial
_GL_HALF_NODES = np.array([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                           0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GL_HALF_WEIGHTS = np.array([0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                             0.16007832854334642, 0.10693932599531907, 0.04717533638651141])
_GL_NODES = np.concatenate((-_GL_HALF_NODES[::-1], _GL_HALF_NODES))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))


def _panels(g: SmoothBump, t0: float, t1: float, panels: int,
            work: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gauss-Legendre nodes t on equal panels of [t0, t1], the values
    2t g(t^2) there, the weights half-width x GL weight, and a scratch row
    for the Bessel values, all of shape (panels, 12).  None of it depends
    on the Bessel argument, so one table serves every alpha.  The tables
    are views of the rows of work, shape (4, >= 12 panels), overwritten."""
    t, h, hw, buf = (row[:12 * panels].reshape(panels, 12) for row in work)
    edges = np.linspace(t0, t1, panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])[:, None]
    halfs = 0.5 * (edges[1:] - edges[:-1])[:, None]
    np.add(mids, np.multiply(halfs, _GL_NODES, out=t), out=t)
    g(np.multiply(t, t, out=buf), out=h)
    h *= np.multiply(2.0, t, out=buf)
    np.multiply(halfs, _GL_WEIGHTS, out=hw)
    return t, h, hw, buf


def _panel_integral(panels: tuple[np.ndarray, ...], alpha: float, bessel) -> float:
    """int 2t g(t^2) bessel(alpha t) dt on a _panels table, summed as
    ((2t g(t^2)) * bessel) * weight over the (panels, 12) nodes."""
    t, h, hw, buf = panels
    vals = bessel(np.multiply(t, alpha, out=buf), out=buf)
    vals *= h
    vals *= hw
    return float(vals.sum())


_PANEL_CAP = 4000


def _oscillatory_panels(t0: float, t1: float, alpha: float) -> int:
    """Panel count of the Y0 integral at alpha, tied to the cycle count.

    The cap kicks in only once the integral itself has decayed below the
    stopping threshold, where degraded panel resolution no longer matters.
    """
    cycles = alpha * (t1 - t0) / (2.0 * math.pi)
    return max(40, min(int(4.0 * cycles) + 1, _PANEL_CAP))


def _k0_upper(z: float) -> float:
    return math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)


def _decaying_integral(g: SmoothBump, t0: float, t1: float, alpha: float,
                       work: np.ndarray) -> tuple[float, float]:
    """int 2t g(t^2) K0(alpha t) dt, truncated where the kernel is spent.

    Returns the integral and a bound on the discarded piece (g <= 1).
    """
    _bind_bessel()
    t_hi = min(t1, t0 + 60.0 / alpha)
    value = _panel_integral(_panels(g, t0, t_hi, 40, work), alpha, bessel_k0)
    rem = 0.0 if t_hi >= t1 else _k0_upper(alpha * t_hi) * (t1 * t1 - t_hi * t_hi)
    return value, rem


def _k0_sum_tail(beta: float, m_from: int, scale: float) -> float:
    """Bound on sum_{m > m_from} m k0_upper(beta sqrt(m)) times scale.

    Uses d(m) <= m, the monotone integral comparison, and the closed form
    of int s^3 e^{-beta s} ds; valid once beta sqrt(m_from) > 2.
    """
    u = math.sqrt(m_from)
    if beta * u <= 2.0:
        return math.inf
    poly = (u**3 / beta + 3 * u**2 / beta**2 + 6 * u / beta**3 + 6 / beta**4
            + u / beta + 1 / beta**2)
    root = math.sqrt(math.pi / (2.0 * beta * u))
    return scale * root * 2.0 * math.exp(-beta * u) * poly


# ------------------------------------------------------------------ RHS

_Y_WINDOW = 40          # floor on the run of negligible integrals before stopping
_Y_EPS = 5e-13


def _settle_run(t0: float, alpha0: float, m: int) -> int:
    """Run length needed before the Y0 sum may stop at m.

    The integral oscillates in alpha with period ~ 2 pi / t, and alpha moves
    by alpha0/(2 sqrt(m)) per step, so a fixed-length run can sit inside a
    single null of the envelope; require the run to span several periods.
    """
    return max(_Y_WINDOW, int(6.0 * math.pi / t0 * 2.0 * math.sqrt(m) / alpha0) + 1)


def _check_m_max(m_max: int) -> None:
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    if m_max > 10**6:
        raise ValueError(f"m_max must be at most 10^6, got {m_max}")


@dataclass(frozen=True)
class VoronoiDual:
    """Dual-side evaluation: constant term plus the two Bessel sums."""

    value: complex
    main: complex
    dual_y: complex
    dual_k: complex
    tail_bound: float
    m_used_y: int
    m_used_k: int
    insufficient: bool


def voronoi_rhs(case: VoronoiCase, g: SmoothBump, m_max: int = 100000) -> VoronoiDual:
    """Constant term plus Y0/K0 dual sums, with tail accounting.

    The Y0 sum stops after a run of negligible integrals; zero convolution
    coefficients are skipped outright and extend a run already in progress.
    The K0 sum runs to where its analytic tail bound clears 1e-10.  Hitting
    m_max first sets the insufficient flag instead of raising.  m_max lies
    in [1, 10^6]: the dual coefficients are sieved up to m_max up front, in
    O(sqrt(m_max)) array steps (about 0.1 s at 10^6), and are not cached.
    The Y0 panel table is rebuilt only when the panel count changes, in
    place in one (4, 12 _PANEL_CAP) workspace that the K0 tables reuse.
    """
    _check_m_max(m_max)
    _bind_bessel()
    c, D = case.c, case.psi.D
    D_c = case.D_c
    t0, t1 = math.sqrt(g.lo), math.sqrt(g.hi)

    if case.shared == D:
        rho = gauss_sum(case.psi) * case.psi(case.a) / c
    else:
        rho = complex(case.psi(c)) / c
    main = rho * oracle_L(1.0, case.psi).real * g.mass

    tau2 = gauss_sum(case.psi2)
    psi2_c = case.psi2(c)
    pref_y = -2.0 * math.pi * tau2 * case.psi1(-case.a) * psi2_c / (c * D_c)
    pref_k = 4.0 * tau2 * case.psi1(case.a) * psi2_c / (c * D_c)

    inv = 0 if c == 1 else pow(case.a * D_c % c, -1, c)
    roots = np.exp(2j * np.pi * np.arange(c) / c)
    conv = dual_coefficients(case, m_max)
    alpha0 = 4.0 * math.pi / (c * math.sqrt(D_c))

    work = np.empty((4, 12 * _PANEL_CAP))
    y_terms: list[complex] = []
    panels, n_built = None, 0
    trailing = 0.0
    small_run = 0
    m_used_y = 0
    y_settled = False
    for mm in range(1, m_max + 1):
        m_used_y = mm
        if conv[mm] == 0.0:
            # contributes nothing; extends a run already under way but
            # cannot start one, so a zero-density stretch never stops us
            small_run = small_run + 1 if small_run > 0 else 0
        else:
            alpha = alpha0 * math.sqrt(mm)
            n_panels = _oscillatory_panels(t0, t1, alpha)
            if n_panels != n_built:
                panels, n_built = _panels(g, t0, t1, n_panels, work), n_panels
            integral = _panel_integral(panels, alpha, bessel_y0)
            y_terms.append(conv[mm] * roots[-inv * mm % c] * integral)
            trailing = max(trailing, abs(integral)) if small_run > 0 else abs(integral)
            small_run = small_run + 1 if abs(integral) < _Y_EPS else 0
        if small_run >= _settle_run(t0, alpha0, mm):
            y_settled = True
            break
    # superpolynomial decay with divisor-sized coefficients: the unreached
    # terms are scored at the stopping level times an m log^2 m envelope
    y_tail = m_used_y * math.log(m_used_y + 2.0) ** 2 * max(trailing, _Y_EPS)
    dual_y = pref_y * fsum_complex(y_terms)

    beta = alpha0 * t0
    m_stop_k = min(m_max, int((50.0 / beta) ** 2) + 1)

    k_vals = np.zeros((m_stop_k, 2))
    for mm in range(1, m_stop_k + 1):
        if conv[mm] != 0.0:
            k_vals[mm - 1] = _decaying_integral(g, t0, t1, alpha0 * math.sqrt(mm), work)
    k_terms = [conv[mm] * roots[inv * mm % c] * k_vals[mm - 1, 0]
               for mm in range(1, m_stop_k + 1)]
    dual_k = pref_k * fsum_complex(k_terms)
    k_cut = float(np.dot(np.arange(1, m_stop_k + 1), k_vals[:, 1]))
    k_tail = _k0_sum_tail(beta, m_stop_k, g.mass) + k_cut

    insufficient = (not y_settled) or (m_stop_k == m_max and k_tail > 1e-10)
    tail = (abs(pref_y) * y_tail + abs(pref_k) * k_tail
            + 1e-11 * (m_used_y * abs(pref_y) + m_stop_k * abs(pref_k)))
    return VoronoiDual(value=main + dual_y + dual_k, main=main, dual_y=dual_y,
                       dual_k=dual_k, tail_bound=tail, m_used_y=m_used_y,
                       m_used_k=m_stop_k, insufficient=insufficient)
