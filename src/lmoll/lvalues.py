"""Central values of L(s,chi)L(s,chi psi) by independent routes.

afe-check's production route is the product's approximate functional
equation (afe_central): a coefficient sum against the smooth weights of
module `special`, cut where the weights' closed-form Bessel bound
certifies that all they could still add is at most 2^-64 (_afe_cut),
well inside the interface length n_max.  census's
route takes each factor by its own short AFE, for the whole even family at
once (_factor_pass): about 3.8 sqrt(m) terms per factor mod m, a certified
tail below 1e-20, and one real transform of length (q-1)/2 per row, as
even characters see a and -a alike.  The oracle route, afe-check's second
route and the tests' reference for census's route, is Euler-Maclaurin
Hurwitz zeta, assembling L(s,chi) = q^{-s} sum_a chi(a) zeta_H(s, a/q); it
shares no code with the AFE routes beyond the character tables and the
group's binning by discrete log.  Its shift N is the smallest whose
remainder bound after the B16 term, 4|(s)_16|/(2 pi)^16 N^{1-sigma-16}/(sigma+15)
(F. Johansson, Numer. Algorithms 69 (2015); DLMF 2.10), is at most 2^-60:
N = 13 at s = 1/2.  The bound needs Re s > -15, and N is capped at 10^4.
A single character takes one zeta_H row mod its modulus (oracle_L).  A
family mod a prime q takes one for the whole character group (_family_L):
(chi psi)(b) = chi(b mod q) psi(b mod D) for the coprime moduli, so one CRT
row per unit class mod D and one inverse DFT over the group give L(s, chi)
and L(s, chi psi) for every chi at once, with no composite-modulus group
and no modulus-qD table per character.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .arith import RealCharacter, one_star_psi_table
from .characters import DirichletCharacter, build_group, epsilon, epsilon_product_direct
from .special import (
    DIGAMMA_QUARTER,
    GAMMA_QUARTER,
    _digamma_arr,
    _upper_gamma_quarter,
    eval_weight_many,
)

# ---------------------------------------------------------------- oracle side

_BERNOULLI_EVEN = (
    1 / 6,
    -1 / 30,
    1 / 42,
    -1 / 30,
    5 / 66,
    -691 / 2730,
    7 / 6,
    -3617 / 510,
)
# the Euler-Maclaurin remainder target, and the largest shift allowed to meet it
_EM_TOL = 2.0**-60
_EM_MAX_SHIFT = 10_000


def _em_bound(s: complex, n: int) -> float:
    """Bound on the Euler-Maclaurin remainder after the B16 term at shift n,
    for Re s > -15 and every x > 0:
    4|(s)_16|/(2 pi)^16 n^{1-sigma-16}/(sigma+15), with (s)_16 the rising
    factorial (Johansson, Numer. Algorithms 69 (2015), Theorem 1 with M = 8,
    and (n+x)^{-a} <= n^{-a}; DLMF 2.10)."""
    sigma = s.real
    rising = math.prod(abs(s + j) for j in range(16))
    return 4 * rising / (2 * math.pi) ** 16 * n ** (1 - sigma - 16) / (sigma + 15)


def _em_shift(s: complex) -> int:
    """Smallest shift N >= 1 with _em_bound(s, N) <= 2^-60: 13 at s = 1/2,
    14 at s = 2, 478 at s = 1/2 + 200i.  Raises above _EM_MAX_SHIFT."""
    c, a = _em_bound(s, 1), s.real + 15  # the bound is c n^{-a}
    for n in range(1, _EM_MAX_SHIFT + 1):
        if c * n**-a <= _EM_TOL:
            return n
    raise ValueError(f"Euler-Maclaurin shift for s={s} exceeds {_EM_MAX_SHIFT}")


def hurwitz_zeta_vec(s: complex, x: np.ndarray) -> np.ndarray:
    """zeta_H(s, x_i) for an array of finite x > 0, by Euler-Maclaurin.

    The head sum_{k<N} (k+x)^{-s} is followed by the integral, the half-term
    and the Bernoulli corrections through B16 at w = N+x.  The shift N is
    _em_shift(s), the smallest whose certified remainder bound is <= 2^-60
    (Johansson 2015, see _em_bound): N = 13 at s = 1/2, growing about
    linearly in |Im s| (478 at 1/2 + 200i).  The head is accumulated one row
    at a time from k = N-1 down (smallest terms first when Re s > 0), so
    memory is O(len(x)); w^{-s} is computed once and the Bernoulli terms
    summed by Horner in w^{-2}.  At s = 1/2, the central point where
    afe-check's oracle (_family_L) and oracle_L evaluate it, each (k+x)^{-s}
    and w^{-s} is 1/sqrt; every other s takes exp(-s log).  A real s gives
    a real array.  Against mpmath at 30 digits the error is below
    1e-13 max(1, |zeta_H|) on Re s in [0.3, 2], |Im s| <= 200 and x in
    [1e-5, 1]; it is not relative near a zero in x (x = 0.3027 at
    s = 1/2), where zeta_H itself cancels.

    Raises ValueError at the pole s = 1, for non-finite s or x, for x <= 0,
    for Re s <= -15 (where the bound does not hold) and when N would exceed
    _EM_MAX_SHIFT = 10^4 (|Im s| above about 3800 at Re s = 1/2).
    """
    cs = complex(s)
    if not cmath.isfinite(cs):
        raise ValueError("s must be finite")
    if cs == 1:
        raise ValueError("pole at s=1")
    if not cs.real > -15:
        raise ValueError("Euler-Maclaurin bound needs Re(s) > -15")
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x > 0) & (x < np.inf)):
        raise ValueError("x must be finite and positive")
    n = _em_shift(cs)
    # y^{-1/2} as 1/sqrt(y): two correctly rounded operations, cheaper than
    # exp(-log(y)/2) and no less accurate
    half = cs == 0.5
    head = np.zeros(x.shape, dtype=np.result_type(x, s))
    y = np.empty(x.shape)
    term = np.empty_like(head)
    for k in range(n - 1, -1, -1):
        np.add(x, k, out=y)
        if half:
            np.sqrt(y, out=y)
            np.divide(1.0, y, out=term)
        else:
            np.log(y, out=y)
            np.multiply(y, -s, out=term)
            np.exp(term, out=term)
        head += term
    # B_2j/(2j)! (s)_{2j-1} times w^{-s-1} w^{2-2j}, by Horner in u = w^{-2}
    coeffs = []
    rising, factorial = s, 2.0
    for j, b in enumerate(_BERNOULLI_EVEN, start=1):
        coeffs.append(b / factorial * rising)
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
        factorial *= (2 * j + 1) * (2 * j + 2)
    w = x + n
    u = 1.0 / (w * w)
    poly = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        poly = poly * u + c
    w_s = 1.0 / np.sqrt(w) if half else np.exp(-s * np.log(w))
    return head + w_s * (w / (s - 1) + 0.5 + poly / w)


def oracle_L(s: complex, chi) -> complex:
    """L(s, chi) for chi mod m from one zeta_H row mod m (-digamma at s = 1);
    pole flagged for the principal character."""
    if chi.is_trivial and s == 1:
        raise ValueError("L(s, principal) has a pole at s=1")
    if not complex(s).real > 0:
        raise ValueError("oracle restricted to Re(s) > 0")
    m = chi.modulus
    a = np.arange(1, m + 1, dtype=np.float64)
    vals = chi.values().astype(np.complex128)[np.arange(1, m + 1) % m]
    if s == 1:
        # zeta_H(s,x) = 1/(s-1) - digamma(x) + O(s-1); the pole part carries
        # coefficient sum(chi) = 0 for non-principal chi
        if abs(complex(np.sum(vals))) > 1e-9:
            raise ValueError("pole at s=1")
        return complex(-np.dot(vals, _digamma_arr(a / m)) / m)
    return complex(np.exp(-s * math.log(m)) * np.dot(vals, hurwitz_zeta_vec(s, a / m)))


# b values of the modulus-qD Hurwitz sum handled at once, rounded down to
# whole rows of q - 1 (at least one); bounds _family_L's memory
_FAMILY_BLOCK = 1 << 13


def _family_L(s: complex, q: int, psi: RealCharacter) -> tuple[np.ndarray, np.ndarray]:
    """L(s, chi_k) and L(s, chi_k psi) for every index k = 0..q-2 mod the
    prime q, from (q-1)(1 + phi(D)) Hurwitz points; Re s > 0, s != 1.

    Both are sums of chi(a) against a function of a mod q: zeta_H(s, a/q),
    and the modulus-qD sum grouped by b mod q, as (chi psi)(b) =
    chi(b mod q) psi(b mod D).  That sum has one row per unit class c mod D,
    b = CRT(r, c) for r = 1..q-1 weighted by psi(c) = +-1, added in ascending
    c whatever the block size; every b it visits has psi(b) != 0, q not
    dividing b, and sits in its residue.  One group transform of the two
    rows gives every k.
    """
    D = psi.D
    group = build_group(q)
    z_plain = hurwitz_zeta_vec(s, np.arange(1, q, dtype=np.float64) / q)
    # b = r e_q + c e_D mod qD, with e_q = 1 mod q, 0 mod D and e_D the reverse
    r_part = np.arange(1, q, dtype=np.int64) * (D * pow(D, -1, q)) % (q * D)
    e_D = q * pow(q, -1, D)
    table = psi.values()
    units = np.flatnonzero(table)
    grouped = np.zeros(q - 1, dtype=z_plain.dtype)
    rows = max(1, _FAMILY_BLOCK // (q - 1))
    for lo in range(0, len(units), rows):
        c = units[lo:lo + rows]
        b = (r_part + (c * e_D)[:, None]) % (q * D)
        zb = hurwitz_zeta_vec(s, b.astype(np.float64) / (q * D))
        zb *= table[c, None]
        for row in zb:
            grouped += row
    sums = group.transform(np.stack((z_plain, grouped)))
    return q ** -s * sums[0], (q * D) ** -s * sums[1]


def oracle_products_at(s: complex, family, psi: RealCharacter) -> list[complex]:
    """L(s,chi) L(s,chi psi) for each chi of a family mod the prime q, both
    factors by the Hurwitz route, read off _family_L at each chi's index."""
    family = list(family)
    if any(chi.is_trivial for chi in family):
        raise ValueError("principal character rejected")
    if not complex(s).real > 0:
        raise ValueError("oracle restricted to Re(s) > 0")
    if not family:
        return []
    q = family[0].modulus
    if any(chi.modulus != q for chi in family):
        raise ValueError("family mixes moduli")
    plain, twist = _family_L(s, q, psi)
    return [complex(plain[chi.k] * twist[chi.k]) for chi in family]


# ------------------------------------------------------------ factor AFE side

# each factor's AFE stops at the first n with pi n^2/m >= 45 (e^{-45} < 3e-20)
_FACTOR_CUT = 45.0


def _factor_length(m: int) -> int:
    """N = ceil(sqrt(45 m/pi)), the length of a factor's AFE mod m."""
    return math.ceil(math.sqrt(_FACTOR_CUT * m / math.pi))


def _factor_tail_bound(m: int, n: int) -> float:
    """Bound on |L(1/2, chi) - its AFE cut at n| for even primitive chi mod
    m, with x_n = pi n^2/m.

    Each side's tail is sum_{j>n} |chi(j)| j^{-1/2} Gamma(1/4, x_j)/Gamma(1/4)
    with |chi(j)| <= 1, Gamma(a, x) <= x^{a-1} e^{-x} for a <= 1, x_j >= x_n
    and x_j - x_n >= 2 pi n (j - n)/m, so it is at most
    n^{-1/2} x_n^{-3/4} e^{-x_n} / (Gamma(1/4) (e^{2 pi n/m} - 1)); the
    root number has modulus 1, and the bound counts both sides."""
    x = math.pi * n * n / m
    return 2 * n**-0.5 * x**-0.75 * math.exp(-x) / (GAMMA_QUARTER * math.expm1(2 * math.pi * n / m))


def _factor_terms(m: int) -> np.ndarray:
    """n = 1..N as floats, N = _factor_length(m): the terms of the AFE of
    every even primitive character mod m.  Raises when the certified tail
    exceeds AFEConfig.tail_budget; at N it is below 1e-20 for every
    m <= 10^10."""
    N = _factor_length(m)
    tail = _factor_tail_bound(m, N)
    if tail > AFEConfig.tail_budget:
        raise ValueError(f"certified factor tail {tail:.3e} exceeds budget {AFEConfig.tail_budget:.3e}")
    return np.arange(1, N + 1, dtype=np.float64)


def _factor_pass(q: int, psi: RealCharacter) -> tuple[np.ndarray, np.ndarray]:
    """L(1/2, chi_k) and L(1/2, chi_k psi) for the even family mod the prime
    q, k = 2, 4, ..., q-3 in the order of enumerate_even_primitive; q and
    D coprime.

    Each factor by its own AFE (Iwaniec-Kowalski, Analytic Number Theory,
    Thm 5.3): for even primitive chi mod m,
    L(1/2, chi) = sum chi(n) c(n) + eps(chi) sum conj(chi(n)) c(n), with
    c(n) = n^{-1/2} Gamma(1/4, pi n^2/m)/Gamma(1/4) over the
    _factor_terms(m), about 3.8 sqrt(m) terms within a certified tail below
    1e-20; one Gamma(1/4, .) call serves both factors.  chi psi is even and
    primitive mod qD.  The coefficients, times psi(n) for the twisted
    factor, are binned by n mod q; one even_transform of the two real rows
    and of cos(2 pi a/q) gives every sum and every Gauss sum tau(chi_k)
    (for even chi the sine part of e(a/q) cancels), and the conjugate sum
    is the conjugate of the real-coefficient sum.
    eps(chi psi) = chi(D) psi(q) eps(chi) eps(psi), with chi_k(D)'s
    exponent k dlog D reduced mod q-1 in integers.
    """
    D = psi.D
    group = build_group(q)
    n_plain, n_twist = _factor_terms(q), _factor_terms(q * D)
    n = np.concatenate((n_plain, n_twist))
    x = np.concatenate((np.pi / q * n_plain * n_plain, np.pi / (q * D) * n_twist * n_twist))
    c = _upper_gamma_quarter(x) / (GAMMA_QUARTER * np.sqrt(n))
    c_plain, c_twist = c[:len(n_plain)], c[len(n_plain):]
    c_twist *= psi.values_at(np.arange(1, len(c_twist) + 1))

    def binned(c):  # sum of c(n) over n = a mod q, for a = 1..q-1
        return np.bincount(np.arange(1, len(c) + 1) % q, weights=c, minlength=q)[1:]

    rows = np.stack((binned(c_plain), binned(c_twist), np.cos(2 * np.pi * np.arange(1, q) / q)))
    sums = group.even_transform(rows)
    eps = sums[2] / math.sqrt(q)
    k = np.arange(2, q - 2, 2)
    chi_D = group.unity[k * group.dlog[D % q] % (q - 1)]
    eps_twist = chi_D * psi(q) * eps * epsilon(psi)
    plain, twist = sums[0], sums[1]
    return plain + eps * np.conj(plain), twist + eps_twist * np.conj(twist)


# ------------------------------------------------------------------ AFE side

# the largest AFE length: at n_max = 1,997,758 (q = 28319, D = 5) _afe_tables
# takes 8.1-8.4 s (33 s when it evaluated the weights at every nonzero n) and
# raises the peak RSS from 30 to 113 MB, on a 2-vCPU Xeon VM
_AFE_MAX_N = 2 * 10**6
# the largest q D: epsilon_product_direct builds a modulus-qD table per
# character, 48 B an entry: 197 MB at q = 41, D = 100,001, 480 MB here
_AFE_MAX_QD = 10**7


@dataclass(frozen=True)
class AFEConfig:
    """The AFE setup of the family mod q twisted by psi mod D, as
    default_config(q, D) derives it."""

    Q: float
    n_max: int
    # the most any certified truncation tail may be
    tail_budget: ClassVar[float] = 1e-10

    @property
    def logQ(self) -> float:
        return math.log(self.Q)


def default_config(q: int, D: int) -> AFEConfig:
    """The analytic conductor Q = q sqrt(D)/pi of L(s,chi)L(s,chi psi) and
    the AFE length n_max = ceil(Q max(30, 10 log Q)); raises beyond the
    caps on n_max and q D, before any table."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    Q = q * math.sqrt(D) / math.pi
    n_max = math.ceil(Q * max(30.0, 10.0 * math.log(Q)))
    if n_max > _AFE_MAX_N:
        raise ValueError(f"AFE length n_max must be at most 2*10^6, got {n_max}")
    if q * D > _AFE_MAX_QD:
        raise ValueError(f"AFE modulus q D must be at most 10^7, got {q * D}")
    return AFEConfig(Q=Q, n_max=n_max)


@dataclass(frozen=True)
class CentralValuePair:
    L_central: complex
    L_combo: complex
    epsilon_product: complex


# the most the entries _afe_tables leaves out may add up to, V1's and U's
# together: 2^-12 of an ulp of 1, and below the roundoff of about 1e-19
# that the quadrature would return for them
_AFE_CUT_TOL = 2.0**-64


def _weight_tails(Q: float, n: int) -> tuple[float, float]:
    """Certified bounds on sum_{m>n} |(1*psi)(m)| m^{-1/2} weight(m/Q) for V1
    and U, every n >= 0.

    V1(x) = (4/Gamma(1/4)^2) int_x^inf u^{-1/2} K0(2u) du and
    U(x) = int_x^inf V1(u) du/u (DLMF 10.43.19), and
    K0(z) <= sqrt(pi/2z) e^{-z} (DLMF 10.37), so for every x > 0
    V1(x) <= C e^{-2x}/x and U(x) <= C e^{-2x}/(2x^2), C = sqrt(pi)/Gamma(1/4)^2.
    With |(1*psi)(m)| <= d(m) <= 2 sqrt(m) and x = (n+1)/Q the least m/Q,
    the tails are at most 2C/x G and C/x^2 G, G = sum_{m>n} e^{-2m/Q}
    = e^{-2x}/(1 - e^{-2/Q})."""
    x = (n + 1) / Q
    c = 2 * math.sqrt(math.pi) / GAMMA_QUARTER**2 * math.exp(-2 * x) / -math.expm1(-2 / Q)
    return c / x, c / (2 * x * x)


def _afe_cut(Q: float, n_max: int) -> int:
    """n_cut: the least n <= n_max whose _weight_tails add up to at most
    _AFE_CUT_TOL = 2^-64, or n_max if none does; by bisection, as the tails
    fall with n.  At the family's Q = 72, 2848 and 20156 (q = 101, 4001 and
    28319, D = 5) it sits at n/Q = 21.8, 23.6 and 24.5, under n_max/Q = 42.8
    to 99."""
    lo, hi = 0, n_max  # the tails exceed the tolerance at lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sum(_weight_tails(Q, mid)) <= _AFE_CUT_TOL:
            hi = mid
        else:
            lo = mid
    return hi


def afe_tail_bound(kind: str, cfg: AFEConfig) -> float:
    """Certified bound on |sum_{n>n_cut} (1*psi)(n) n^{-1/2} weight(n/Q)|,
    everything the AFE table of cfg leaves out, n_cut = _afe_cut(Q, n_max):
    _weight_tails at n_cut."""
    t_v, t_u = _weight_tails(cfg.Q, _afe_cut(cfg.Q, cfg.n_max))
    if kind == "V1":
        return t_v
    if kind == "U":
        return t_u
    raise ValueError(f"unknown weight kind {kind!r}")


def _combo(v, u, L: float):
    """((1 - c/L) v + u/L)/2, c = digamma(1/4): a side of L_combo from its V1
    and U parts (W1, W2 = ((1 - c/L)/2) V1 +- U/(2L)), or its tail bound."""
    return ((1 - DIGAMMA_QUARTER / L) * v + u / L) / 2


@lru_cache(maxsize=32)
def _afe_tables(q: int, D: int, n_max: int, Q: float):
    """Shared per-(q,D) arrays: the coefficients times V1 and times U, from
    one quadrature pass.  V1 serves both sides of the AFE.

    The weights are evaluated only at the n <= n_cut = _afe_cut(Q, n_max)
    where the coefficient is nonzero.  (1*psi)(n) vanishes whenever a prime
    with psi(p) = -1 divides n to an odd power (about four fifths of n at
    D = 5), and past n_cut the weights' certified tail, V1's and U's
    together, is at most 2^-64, while the quadrature returns only roundoff
    of about 1e-19 there.  The cut keeps 54% of the nonzero n at q = 101
    and 26% at q = 28319, D = 5.  The other entries are +0.0; the columns
    keep their full length n_max, so every dot product over them sums the
    same entries in the same order.

    "tails" holds the certified tail bound of each weight past n_cut and,
    as "L_combo", the bound _combo(t_V1, t_U, L) on each side of
    afe_central's combination, above both when L = log Q < 1 - c.  The
    bounds depend only on Q and n_max, so they are computed here once per
    entry; _budgeted_tables compares them with the budget."""
    psi = RealCharacter(D)
    coeff = one_star_psi_table(psi, n_max)[1:].astype(np.float64)
    n = np.arange(1, n_max + 1, dtype=np.float64)
    coeff /= np.sqrt(n)
    xs = n / Q
    kept = np.flatnonzero(coeff[:_afe_cut(Q, n_max)])
    cols = np.zeros((2, n_max))
    cols[:, kept] = eval_weight_many(("V1", "U"), xs[kept])
    cols *= coeff
    cfg = AFEConfig(Q=Q, n_max=n_max)
    t_v, t_u = (afe_tail_bound(kind, cfg) for kind in ("V1", "U"))
    return {"V": cols[0], "U": cols[1],
            "tails": {"V1": t_v, "U": t_u, "L_combo": _combo(t_v, t_u, cfg.logQ)}}


def _budgeted_tables(q: int, D: int):
    """The family's AFE setup and its _afe_tables columns, raising when a
    certified tail exceeds AFEConfig.tail_budget, so no truncated sum leaves
    without its bound."""
    cfg = default_config(q, D)
    cols = _afe_tables(q, D, cfg.n_max, cfg.Q)
    for kind, t in cols["tails"].items():
        if t > cfg.tail_budget:
            raise ValueError(
                f"certified {kind} tail {t:.3e} exceeds budget {cfg.tail_budget:.3e}"
            )
    return cfg, cols


def afe_central(chi: DirichletCharacter, psi: RealCharacter) -> CentralValuePair:
    """Central value and derivative combination for L(s,chi)L(s,chi psi).

    L_combo is the AFE of L(1/2) + L'(1/2)/(2 log Q), each side _combo of
    its V1 and U sums.  Each column and each side of L_combo carries a
    certified tail bound; one above AFEConfig.tail_budget raises, rather
    than return a doubtful value.
    """
    if chi.is_trivial:
        raise ValueError("principal character rejected")
    if not chi.is_even:
        raise ValueError("odd character rejected")
    q, D = chi.modulus, psi.D
    if math.gcd(q, D) != 1:
        raise ValueError("moduli must be coprime")
    cfg, cols = _budgeted_tables(q, D)
    chivals = chi.values_at(np.arange(1, cfg.n_max + 1))
    eps = epsilon(chi) * epsilon_product_direct(chi, psi)
    s_v1 = complex(np.dot(cols["V"], chivals))
    s_v2 = complex(np.dot(cols["V"], np.conj(chivals)))
    s_u1 = complex(np.dot(cols["U"], chivals))
    s_u2 = complex(np.dot(cols["U"], np.conj(chivals)))
    L_central = s_v1 + eps * s_v2
    return CentralValuePair(
        L_central=L_central,
        L_combo=_combo(L_central, s_u1 - eps * s_u2, cfg.logQ),
        epsilon_product=eps,
    )
