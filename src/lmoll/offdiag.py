"""Shifted convolution sums of the divisor-twisted coefficients.

Two independent evaluations of the same object: a brute-force lattice sum
over pairs (m, n) with a*m = +-b*n mod q and a*m != b*n, and the arithmetic
main term built from a singular series of Ramanujan sums times smooth
overlap integrals.  The singular series has a companion Dirichlet series in
the shift variable whose value at 1 is 1/zeta(2) exactly; the Mellin-side
kernel H(u, v) that controls the smooth integrals is checked against its
Gauss-product form.  Both forms take each evaluation's Gamma and 1/Gamma
values from one call of special.gamma_many.  The overlap integrals of the
main term are QUADPACK's QAGS (lmoll.quadpack), run on a block of shifts
at a time with one array integrand, each integral the double that
scipy.integrate.quad returns.

Truncated quantities always travel with a computed tail bound.  The shift
series is only conditionally convergent, but its truncation to L_max terms
is exactly rounded, so it does not matter that _series_sums groups those
terms by gcd class rather than taking them in increasing modulus order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .arith import (
    RealCharacter,
    _cpow,
    _mobius_table,
    dirichlet_convolution,
    divisors,
    factor,
    is_prime,
    one_star_psi_table,
)
from .lvalues import oracle_L
from .quadpack import qags_block as quad
from .reduction import exact_parts, exact_sum
from .special import SmoothBump, _is_nonpositive_integer, gamma_many

__all__ = [
    "ShiftedConvParams",
    "brute_shifted_conv",
    "shifted_conv_r_decomposed",
    "singular_series",
    "singular_series_factored",
    "singular_series_r_sum",
    "dirichlet_series_G",
    "main_term",
    "H_kernel",
    "H_kernel_plus",
    "H_kernel_minus",
    "H_kernel_product_form",
]

_ZETA2 = math.pi * math.pi / 6.0
_SIGNS = ("+", "-", "both")


# the weight of both variables, at m/M and n/N: lattice support (M, 2M) x (N, 2N)
_BUMP = SmoothBump(1.0, 2.0)


@dataclass(frozen=True)
class ShiftedConvParams:
    """Inputs for the congruence-restricted double sum, weighted by _BUMP
    at m/M and n/N."""

    a: int
    b: int
    q: int
    M: float
    N: float
    psi: RealCharacter
    sign: str = "both"

    def __post_init__(self):
        _check_pair(self.a, self.b)
        if self.a % self.psi.D == 0 or self.b % self.psi.D == 0:
            raise ValueError("a, b must avoid the restriction modulus")
        if not is_prime(self.q):
            raise ValueError(f"q = {self.q} must be prime")
        # residue bookkeeping below needs a, b invertible mod q
        if (self.a * self.b) % self.q == 0:
            raise ValueError("q must not divide ab")
        # the main term's singular series assumes (q, D) = 1; at q | D it
        # misses the brute sum by about half
        if self.psi.D % self.q == 0:
            raise ValueError("q must not divide D")
        if not (0 < self.M <= 1e6 and 0 < self.N <= 1e6):
            raise ValueError("scales must lie in (0, 1e6]")
        # main_term walks about 4(aM + bN)/q shifts, each an overlap integral
        # and a series
        if self.a * self.M > 1e6 or self.b * self.N > 1e6:
            raise ValueError(f"a M and b N must be at most 1e6, got {self.a * self.M:g} "
                             f"and {self.b * self.N:g}")
        if self.sign not in _SIGNS:
            raise ValueError(f"sign must be one of {_SIGNS}")

    def branches(self) -> tuple[int, ...]:
        # +1 encodes a*m - b*n = qr, -1 encodes a*m + b*n = qr
        if self.sign == "+":
            return (1,)
        if self.sign == "-":
            return (-1,)
        return (1, -1)


def _lattice_range(scale: float) -> tuple[int, int]:
    lo = int(math.floor(_BUMP.lo * scale)) + 1
    hi = int(math.ceil(_BUMP.hi * scale)) - 1
    return lo, hi


def _weight_arrays(p: ShiftedConvParams):
    m_lo, m_hi = _lattice_range(p.M)
    n_lo, n_hi = _lattice_range(p.N)
    if m_hi < m_lo or n_hi < n_lo:
        return m_lo, m_hi, n_lo, n_hi, None, None
    tab = one_star_psi_table(p.psi, max(m_hi, n_hi)).astype(np.float64)
    m_all = np.arange(m_lo, m_hi + 1)
    n_all = np.arange(n_lo, n_hi + 1)
    wm = _BUMP(m_all / p.M) * tab[m_all]
    wn = _BUMP(n_all / p.N) * tab[n_all]
    return m_lo, m_hi, n_lo, n_hi, wm, wn


def brute_shifted_conv(params: ShiftedConvParams) -> float:
    """Exact lattice sum over the support of the two bumps.

    Terms are grouped by m; each group is summed exactly (exact_sum), as is
    the final reduction over groups.  The sign "both" counts a pair once per
    congruence branch it satisfies, so it equals the "+" and "-" values
    added together.
    """
    p = params
    m_lo, m_hi, n_lo, n_hi, wm, wn = _weight_arrays(p)
    if wm is None:
        return 0.0
    q = p.q
    binv = pow(p.b, -1, q)
    branches = p.branches()
    groups = np.zeros(m_hi - m_lo + 1)
    for m in range(m_lo, m_hi + 1):
        w1 = wm[m - m_lo]
        if w1 == 0.0:
            continue
        am = p.a * m
        pieces = []
        for sgn in branches:
            t = (sgn * am * binv) % q
            first = n_lo + (t - n_lo) % q
            ns = np.arange(first, n_hi + 1, q)
            ns = ns[p.b * ns != am]  # the diagonal is excluded in both branches
            if ns.size:
                pieces.append(w1 * wn[ns - n_lo])
        if pieces:
            groups[m - m_lo] = exact_sum(np.concatenate(pieces))
    return exact_sum(groups)


def shifted_conv_r_decomposed(params: ShiftedConvParams) -> float:
    """The same sum rebuilt from its decomposition a*m -+ b*n = qr, r != 0;
    it cross-checks brute_shifted_conv, bit for bit.

    Intended as an independent route at test scale: every admissible pair
    (m, n) belongs to exactly one r per branch, so the per-m term multisets
    match the direct evaluation and the two routes agree bit for bit.
    """
    p = params
    m_lo, m_hi, n_lo, n_hi, wm, wn = _weight_arrays(p)
    if wm is None:
        return 0.0
    q = p.q
    m_all = np.arange(m_lo, m_hi + 1)
    per_m: dict[int, list[float]] = {}
    for sgn in p.branches():
        # qr = a*m - sgn * b*n over the support box
        if sgn == 1:
            qr_lo = p.a * m_lo - p.b * n_hi
            qr_hi = p.a * m_hi - p.b * n_lo
        else:
            qr_lo = p.a * m_lo + p.b * n_lo
            qr_hi = p.a * m_hi + p.b * n_hi
        for r in range(-(-qr_lo // q), qr_hi // q + 1):
            if r == 0:
                continue
            t = p.a * m_all - q * r if sgn == 1 else q * r - p.a * m_all
            ok = (t % p.b == 0)
            n = np.where(ok, t // p.b, -1)
            ok &= (n >= n_lo) & (n <= n_hi) & (p.b * n != p.a * m_all)
            for i in np.nonzero(ok)[0]:
                m = int(m_all[i])
                per_m.setdefault(m, []).append(float(wm[i] * wn[n[i] - n_lo]))
    groups = [exact_sum(per_m[m]) for m in sorted(per_m)]
    return exact_sum(groups)


# ------------------------------------------------------------------ series


def _check_pair(a: int, b: int, r: int = 1) -> None:
    """(a, b) coprime and positive, and the shift r nonzero."""
    if a < 1 or b < 1 or math.gcd(a, b) != 1:
        raise ValueError("a, b must be coprime positive integers")
    if r == 0:
        raise ValueError("shift r = 0 is excluded")


def _check_L_max(L_max: int) -> None:
    if L_max < 1000:
        raise ValueError("L_max below 1000 gives useless tails")
    if L_max > 10**7:
        raise ValueError("L_max above 10^7 exceeds the Mobius sieve cap")


def _series_coeff(a: int, b: int, psi: RealCharacter,
                  limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Shift-free numerator and denominator of the series terms, ell = 1..limit.

    Numerator psi(ell_a ell_b) + [D | (ell_a, ell_b)] D psi(a'b'), denominator
    ell_a ell_b = ell^2/((a,ell)(b,ell)), with ell_a = ell/(a,ell) and
    a' = a/(a,ell).  All but ell^2 depends on ell only mod abD: one period, tiled.
    """
    D = psi.D
    ell = np.arange(1, min(limit, a * b * D) + 1, dtype=np.int64)
    ga = np.gcd(ell, a)
    gb = np.gcd(ell, b)
    ell_a = ell // ga
    ell_b = ell // gb
    tab = psi.values()
    chi_ell = tab[ell_a % D] * tab[ell_b % D]
    chi_red = tab[(a // ga) % D] * tab[(b // gb) % D]
    deep = np.gcd(ell_a, ell_b) % D == 0
    # int64 before the product: D * chi_red overflows int8 once D >= 128
    coeff = chi_ell + np.where(deep, D * chi_red.astype(np.int64), 0)
    copies = -(-limit // len(ell))
    denom = np.arange(1, limit + 1, dtype=np.int64) ** 2
    denom //= np.tile(ga * gb, copies)[:limit]
    return np.tile(coeff, copies)[:limit], denom.astype(np.float64)


def _gcd_classes(r: int, limit: int) -> list[tuple[int, int, int]]:
    """(g, e, mu(e)) for every g | r and squarefree e | r/g with ge <= limit,
    the classes of _series_sums that hold a term."""
    out = [(1, 1, 1)]
    for p, k in factor(r).factors:
        out = [(g * p**i, e * p**j, -m if j else m)
               for g, e, m in out for i in range(k + 1) for j in range(1 + (i < k))]
    return [(g, e, m) for g, e, m in out if g * e <= limit]


def _series_sums(coeff: np.ndarray, denom: np.ndarray,
                 rs: Iterable[int]) -> dict[int, float]:
    """{|r|: S(r)} for every r of rs, S(r) the exactly rounded sum of the
    series terms coeff(ell) c_ell(r)/(ell_a ell_b), ell = 1..len(coeff).

    c_ell(r) depends on r only through g = (ell, r), and the ell = gk with
    (ell, r) = g are the k prime to r/g, so by Mobius inversion
    S(r) = sum_{g | r} sum_{e | r/g} mu(e) P_g(e), P_g(e) the sum of
    row_g[e-1::e].  row_g[k-1] = coeff(gk) c_gk(g)/denom(gk) is the very
    double of the term ell = gk, and each P_g(e) is kept as its exact_parts,
    so math.fsum of the signed parts is math.fsum of the terms, bit for bit.
    The rows are built one g at a time, from strided views of the Mobius
    table, so the arrays held at once are O(len(coeff)) however many shifts
    there are; what stays per class (g, e) is its few parts.
    """
    limit = len(coeff)
    mu = _mobius_table(limit)
    shifts = {abs(r) for r in rs}
    need: dict[int, set[int]] = {}  # g -> the e its P_g(e) is needed for
    for r in shifts:
        for g, e, _ in _gcd_classes(r, limit):
            need.setdefault(g, set()).add(e)
    parts: dict[tuple[int, int], tuple[float, ...]] = {}
    for g in sorted(need):
        es = need.pop(g)
        k_max = limit // g
        col = np.zeros(k_max, dtype=np.int64)  # c_gk(g) = sum_{d | g} d mu(gk/d)
        for d in divisors(g):
            col += d * mu[g // d :: g // d][:k_max]
        row = np.divide(coeff[g - 1 :: g] * col, denom[g - 1 :: g])
        for e in es:
            parts[g, e] = exact_parts(row[e - 1 :: e])
    return {r: math.fsum(m * x for g, e, m in _gcd_classes(r, limit) for x in parts[g, e])
            for r in shifts}


def _series_tail(a: int, b: int, r: int, D: int, limit: int) -> float:
    # |c_ell(r)| <= (r, ell) and ell_a ell_b >= ell^2/(ab); sum the gcd by
    # divisor class: sum_{ell>L} (r,ell)/ell^2 <= sum_{d|r} (1/d)/floor(L/d)
    total = 0.0
    for d in divisors(abs(r)):
        total += (1.0 / d) * (_ZETA2 if d > limit else 1.0 / (limit // d))
    return (1 + D) * a * b * total


def singular_series(a: int, b: int, r: int, psi: RealCharacter,
                    L_max: int = 10000) -> tuple[float, float]:
    """(value, tail): the shift series summed to L_max terms, and a bound on the rest."""
    _check_pair(a, b, r)
    _check_L_max(L_max)
    value = _series_sums(*_series_coeff(a, b, psi, L_max), [r])[abs(r)]
    return value, _series_tail(a, b, r, psi.D, L_max)


def _local_term_sum(p: int, alpha: int, beta: int, vr: int, psi_p: int,
                    reduced: bool) -> float:
    """Local factor at p of one series piece, exact finite sum over e.

    reduced=False weights by psi(p) to the power max(e-alpha,0)+max(e-beta,0)
    (the ell part); reduced=True by the complementary power max(alpha-e,0)+
    max(beta-e,0) (the a'b' part) and, when p | D (psi_p == 0), restricts to
    e >= max(alpha, beta) + 1.  The e-range is finite because c_{p^e}(r)
    vanishes for e > vr + 1.
    """
    total = 0.0
    for e in range(0, vr + 2):
        if e <= vr:
            c = 1 if e == 0 else p ** e - p ** (e - 1)
        else:
            c = -(p ** vr)
        m = max(e - alpha, 0) + max(e - beta, 0)
        k = max(alpha - e, 0) + max(beta - e, 0) if reduced else m
        if reduced and psi_p == 0 and not (min(e - alpha, e - beta) >= 1):
            continue
        w = 1.0 if k == 0 else float(psi_p) ** k
        total += w * c * p ** (-float(m))
    return total


def singular_series_factored(a: int, b: int, r: int, psi: RealCharacter) -> float:
    """Euler-factored evaluation, valid for every nonzero r.

    The conditionally convergent ell-sum factors (per piece) over primes;
    outside p | rabD every local factor is 1 - 1/p^2, which regroups into
    1/zeta(2).  At p | r the local sum runs over e <= v_p(r) + 1, since
    c_{p^e}(r) vanishes beyond, so r need be neither squarefree nor prime
    to abD.  Cross-checks singular_series(r)[0], the direct shift series
    that main_term sums.
    """
    _check_pair(a, b, r)
    D = psi.D
    rr = abs(r)
    piece1 = 1.0 / _ZETA2
    piece2 = float(D) / _ZETA2
    fa, fb, fr = (dict(factor(n).factors) for n in (a, b, rr))
    for p in sorted({f[0] for f in factor(rr * a * b * D).factors}):
        alpha, beta, vr = fa.get(p, 0), fb.get(p, 0), fr.get(p, 0)
        psi_p = psi(p)
        generic = 1.0 - p ** -2.0
        piece1 *= _local_term_sum(p, alpha, beta, vr, psi_p, reduced=False) / generic
        piece2 *= _local_term_sum(p, alpha, beta, vr, psi_p, reduced=True) / generic
    return piece1 + piece2


def singular_series_r_sum(a: int, b: int, R: int, psi: RealCharacter,
                          L_max: int = 10000) -> tuple[float, float]:
    """sum_{r=1..R} of the truncated shift series over r^2, with tail bound.

    Swaps the finite double sum to ell-major order so the Ramanujan sums
    collapse to divisor sums against partial zeta(2) sums; identical to
    summing singular_series(r)[0] / r^2 up to roundoff.  The tail bound
    covers only the ell-truncation (the r-range is summed exactly).
    Cross-checks the r-sum of the shift series against its closed form
    dirichlet_series_G(a, b, 2) zeta(2) zeta(3) (criterion 7).
    """
    _check_pair(a, b)
    if R < 1:
        raise ValueError("R must be positive")
    _check_L_max(L_max)
    coeff, denom = _series_coeff(a, b, psi, L_max)
    h2 = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, R + 1, dtype=np.float64) ** 2)))
    # f(d) = H2(R//d)/d, which vanishes for d > R
    d = np.arange(1, min(R, L_max) + 1)
    f = np.concatenate(([0.0], h2[R // d] / d))
    inner = dirichlet_convolution(f, _mobius_table(L_max))
    value = exact_sum(coeff / denom * inner[1:])
    # per-r tails summed against 1/r^2, regrouped by the divisor d:
    # sum_{r<=R} tail_r/r^2 = (1+D)ab sum_d cap(d) d^{-3} H2(R//d)
    d_arr = np.arange(1, R + 1)
    cap = np.where(d_arr <= L_max, 1.0 / np.maximum(L_max // d_arr, 1), _ZETA2)
    tail = float((1 + psi.D) * a * b * np.dot(cap / d_arr.astype(np.float64) ** 3, h2[R // d_arr]))
    return value, tail


# ------------------------------------------------------------------ G series


def dirichlet_series_G(a: int, b: int, s: complex, psi: RealCharacter) -> complex:
    """Multiplicative part of sum_r (shift series)(r)/r^s.

    Closed form: every prime outside abD contributes
    (1 - p^{-2})/(1 - p^{-1-s}), which regroups against zeta into the exact
    prefactor below, so no truncation is involved and the value at s = 1 is
    1/zeta(2) identically.
    """
    _check_pair(a, b)
    s = complex(s)
    if s.real < 0.7:
        raise ValueError("evaluation restricted to Re(s) >= 0.7")
    D = psi.D
    prefactor = 1.0 / _ZETA2
    piece1 = 1.0 + 0j
    piece2 = complex(D)
    fa, fb = dict(factor(a).factors), dict(factor(b).factors)
    for p in sorted({f[0] for f in factor(a * b * D).factors}):
        alpha, beta = fa.get(p, 0), fb.get(p, 0)
        prefactor *= (1 - _cpow(p, -1 - s)) / (1 - p ** -2.0)
        l1, l2 = _g_local_pair(p, alpha, beta, s, psi(p))
        piece1 *= l1
        piece2 *= l2
    return prefactor * (piece1 + piece2)


def _g_local_pair(p: int, alpha: int, beta: int, s: complex,
                  psi_p: int) -> tuple[complex, complex]:
    """Local factors at p of the two series pieces, geometric tail in closed
    form beyond e = max(alpha, beta)."""
    E = max(alpha, beta)
    x = _cpow(p, -1 - s)
    shrink = 1 - _cpow(p, s - 1)
    tail_geom = p ** (alpha + beta) * shrink * x ** (E + 1) / (1 - x)

    def g_e(e: int) -> complex:
        if e == 0:
            return 1.0 + 0j
        return _cpow(p, e * (1 - s)) - _cpow(p, (e - 1) * (1 - s))

    l1 = 0j
    l2 = 0j
    for e in range(0, E + 1):
        m = max(e - alpha, 0) + max(e - beta, 0)
        k = max(alpha - e, 0) + max(beta - e, 0)
        base = p ** (-float(m)) * g_e(e)
        l1 += (1.0 if m == 0 else float(psi_p) ** m) * base
        if psi_p != 0:  # p | D forces the second piece into the tail range
            l2 += (1.0 if k == 0 else float(psi_p) ** k) * base
    # piece-1 tail weight is psi(p)^{2e-alpha-beta}, which dies when p | D
    l1 += (float(psi_p) ** (alpha + beta) if psi_p != 0 else 0.0) * tail_geom
    l2 += tail_geom
    return l1, l2


# ------------------------------------------------------------------ main term


# shifts integrated in lockstep per quad call: bounds the integrator's
# memory, O(block * limit), whatever r_cap is
_OVERLAP_BLOCK = 128


def _overlaps(p: ShiftedConvParams, aM: float, bN: float,
              r_cap: int) -> Iterator[tuple[int, int, float, float]]:
    """(r, sgn, lo, hi) of every shift 0 < |r| <= r_cap whose bump supports
    overlap on (lo, hi), branch by branch, r increasing."""
    q = p.q
    lo1, hi1 = _BUMP.lo * aM, _BUMP.hi * aM
    for sgn in p.branches():
        for r in range(-r_cap, r_cap + 1):
            if r == 0:
                continue
            if sgn == 1:
                lo2, hi2 = q * r + _BUMP.lo * bN, q * r + _BUMP.hi * bN
            else:
                lo2, hi2 = q * r - _BUMP.hi * bN, q * r - _BUMP.lo * bN
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo:
                yield r, sgn, lo, hi


def main_term(params: ShiftedConvParams, L_max: int = 100000) -> tuple[float, float]:
    """Arithmetic prediction for the congruence sum, with tail bound.

    L(1, psi)^2/(ab) times the shift series against the smooth overlap
    integrals int _BUMP(x/aM) _BUMP(-+(qr-x)/bN) dx, the r-range forced
    by the bump supports.  The tail bound aggregates the series tails
    weighted by |integral|; the r-truncation itself is exact.

    The overlap integrals are QUADPACK's QAGS (quadpack.qags_block),
    _OVERLAP_BLOCK shifts per call: one array integrand evaluates the
    pending nodes of every shift of a block, each node with its own r and
    branch, and each integral is the double scipy's quad returns.  The
    series of every |r| comes from one _series_sums call, and each series
    and its tail piece serve r and -r and both branches.  Each series and
    the final sum are exactly rounded, so they are math.fsum's doubles
    whatever the order of summation inside.  Terms are still appended per
    (branch, r) in the same order, so the tail is the same floating-point
    operations as a per-r loop.
    """
    _check_L_max(L_max)
    p = params
    a, b, q = p.a, p.b, p.q
    aM, bN = a * p.M, b * p.N
    L1 = oracle_L(1.0, p.psi).real
    pref = L1 * L1 / (a * b)
    r_cap = int(4 * (aM + bN) / q) + 1
    shifts = list(_overlaps(p, aM, bN, r_cap))
    series = _series_sums(*_series_coeff(a, b, p.psi, L_max), [r for r, *_ in shifts])
    tails = {r: _series_tail(a, b, r, p.psi.D, L_max) for r in series}
    terms: list[float] = []
    tail = 0.0
    for start in range(0, len(shifts), _OVERLAP_BLOCK):
        rs, sgns, los, his = zip(*shifts[start : start + _OVERLAP_BLOCK])
        qr = q * np.array(rs, dtype=np.float64)  # exact: |qr| < 2^53
        plus = np.array(sgns) == 1

        def integrand(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
            # _BUMP(x/aM) _BUMP(+-(x - qr)/bN), with each node's own r and branch
            qr_x = qr[owner]
            second = np.where(plus[owner], x - qr_x, qr_x - x)
            second /= bN
            return _BUMP(x / aM) * _BUMP(second, out=second)

        integrals = quad(integrand, los, his, epsabs=1e-10, epsrel=1e-10, limit=200)
        for r, (integral, _) in zip(rs, integrals):
            # density argument is r, not the lattice offset q*r: the two agree
            # only as q grows, so at fixed q this choice floors the relative
            # deviation from the brute sum near 1/q
            terms.append(pref * series[abs(r)] * integral)
            tail += pref * tails[abs(r)] * abs(integral)
    return exact_sum(terms), tail


# ------------------------------------------------------------------ H kernel


def _check_kernel_point(u: complex, v: complex) -> tuple[complex, complex]:
    u, v = complex(u), complex(v)
    w = u + v
    if _is_nonpositive_integer(w):
        raise ValueError(f"pole: u + v = {w.real:g} is a nonpositive integer")
    if u == 0.5 or v == 0.5:
        raise ValueError("pole: u, v = 1/2 excluded")
    return u, v


def H_kernel_plus(u: complex, v: complex) -> complex:
    u, v = _check_kernel_point(u, v)
    g_w, g_v, g_u, r_u, r_v = gamma_many((u + v, 0.5 - v, 0.5 - u), (0.5 + u, 0.5 + v))
    return g_w * (g_v * r_u + g_u * r_v)


def H_kernel_minus(u: complex, v: complex) -> complex:
    # reciprocal gamma keeps the zero at u + v = 1 exact
    u, v = _check_kernel_point(u, v)
    g_u, g_v, r_w = gamma_many((0.5 - u, 0.5 - v), (1 - u - v,))
    return g_u * g_v * r_w


def H_kernel(u: complex, v: complex) -> complex:
    return H_kernel_plus(u, v) + H_kernel_minus(u, v)


def H_kernel_product_form(u: complex, v: complex) -> complex:
    """Gauss-product route: sqrt(pi) times a ratio of half-argument gammas."""
    u, v = _check_kernel_point(u, v)
    g_w, g_u, g_v, r_w, r_u, r_v = gamma_many(
        ((u + v) / 2, (0.5 - u) / 2, (0.5 - v) / 2),
        ((1 - u - v) / 2, (0.5 + u) / 2, (0.5 + v) / 2))
    return math.sqrt(math.pi) * (g_w * g_u * g_v) * (r_w * r_u * r_v)
