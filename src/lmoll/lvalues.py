"""Central values of L(s,chi)L(s,chi psi) two independent ways.

The production route is the approximate functional equation: a coefficient
sum against the smooth weights of module `special`, truncated at n_max with
a certified tail bound.  The oracle route is Euler-Maclaurin Hurwitz zeta,
assembling L(s,chi) = q^{-s} sum_a chi(a) zeta_H(s, a/q); the two routes
share no code beyond the character tables.  Its shift N is the smallest whose
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

import numpy as np

from .arith import RealCharacter, one_star_psi_table
from .characters import DirichletCharacter, build_group, epsilon, epsilon_product_direct
from .special import _digamma_arr, eval_weight_many, gamma_complex, kernel_abs_moment

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
    summed by Horner in w^{-2}.  At s = 1/2, the central point of every
    census and afe-check, each (k+x)^{-s} and w^{-s} is 1/sqrt; every other
    s takes exp(-s log).  A real s gives a real array.  Against mpmath
    at 30 digits the error is below 1e-13 max(1, |zeta_H|) on Re s in
    [0.3, 2], |Im s| <= 200 and x in [1e-5, 1]; it is not relative near a
    zero in x (x = 0.3027 at s = 1/2), where zeta_H itself cancels.

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
    dividing b, and sits in its residue.  Read in primitive-root order
    a = g^j, each sum is sum_j e(jk/(q-1)) f(g^j): one inverse DFT of length
    q-1 gives every k.
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
    by_dlog = np.empty((2, q - 1), dtype=z_plain.dtype)
    by_dlog[:, group.dlog[1:]] = z_plain, grouped
    sums = np.fft.ifft(by_dlog, axis=1, norm="forward")
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


def oracle_product(chi: DirichletCharacter, psi: RealCharacter) -> complex:
    return oracle_products_at(0.5, [chi], psi)[0]


_STENCIL = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))


def oracle_product_derivative(chi: DirichletCharacter, psi: RealCharacter,
                              h: float = 1e-3) -> complex:
    """d/ds [L(s,chi)L(s,chi psi)] at s = 1/2, five-point stencil."""
    acc = 0j
    for k, c in _STENCIL:
        acc += c * oracle_products_at(0.5 + k * h, [chi], psi)[0]
    return acc / (12 * h)


# ------------------------------------------------------------------ AFE side

# the largest AFE length: at n_max = 1,997,758 (q = 28319, D = 5) _afe_tables
# took 49 s and 152 MB above the import on a 2-vCPU Xeon VM
_AFE_MAX_N = 2 * 10**6
# the largest q D: epsilon_product_direct builds a modulus-qD table per
# character, 48 B an entry: 197 MB at q = 41, D = 100,001, 480 MB here
_AFE_MAX_QD = 10**7


@dataclass(frozen=True)
class AFEConfig:
    Q: float
    n_max: int
    tail_budget: float = 1e-10

    def __post_init__(self):
        if not self.Q > 0:
            raise ValueError("Q must be positive")
        if self.n_max < math.ceil(self.Q):
            raise ValueError("n_max must be at least ceil(Q)")
        if self.n_max > _AFE_MAX_N:
            raise ValueError(f"AFE length n_max must be at most 2*10^6, got {self.n_max}")
        if not 0 < self.tail_budget <= 1e-10:
            raise ValueError("tail_budget must be in (0, 1e-10]")

    @property
    def logQ(self) -> float:
        return math.log(self.Q)


def default_config(q: int, D: int) -> AFEConfig:
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    Q = q * math.sqrt(D) / math.pi
    n_max = math.ceil(Q * max(30.0, 10.0 * math.log(Q)))
    cfg = AFEConfig(Q=Q, n_max=n_max)
    if q * D > _AFE_MAX_QD:
        raise ValueError(f"AFE modulus q D must be at most 10^7, got {q * D}")
    return cfg


@dataclass(frozen=True)
class CentralValuePair:
    L_central: complex
    L_combo: complex
    epsilon_product: complex


_TAIL_SIGMAS = (4.0, 6.0, 8.0, 10.0, 12.0)


def afe_tail_bound(kind: str, cfg: AFEConfig) -> float:
    """Certified bound on |sum_{n>n_max} (1*psi)(n) n^{-1/2} weight(n/Q)|.

    |weight(x)| <= moment(sigma) x^{-sigma} for x>1, and (1*psi)(n) <= d(n)
    <= 2 sqrt(n), so the tail is at most
    2 moment(sigma) Q^sigma n_max^{1-sigma}/(sigma-1), minimized over sigma.
    """
    best = math.inf
    for sigma in _TAIL_SIGMAS:
        m = kernel_abs_moment(kind, cfg.logQ, sigma)
        bound = 2 * m * cfg.Q**sigma * cfg.n_max ** (1 - sigma) / (sigma - 1)
        best = min(best, bound)
    return best


@lru_cache(maxsize=32)
def _afe_tables(q: int, D: int, n_max: int, Q: float):
    """Shared per-(q,D) arrays: the coefficients times each weight, all three
    weights from one quadrature pass.  V1 serves both sides of the AFE.

    (1*psi)(n) vanishes whenever a prime with psi(p) = -1 divides n to an odd
    power, so the weights are evaluated only where the coefficient is nonzero
    (about a fifth of n <= n_max at D = 5) and the cost is proportional to
    that count.  The other entries are +0.0; the columns keep their full
    length, so every dot product over them sums in the same order.

    "tails" holds the certified tail bound of each weight.  The bounds
    depend only on Q and n_max, so they are computed here once per entry;
    afe_central compares them with its config's budget."""
    psi = RealCharacter(D)
    coeff = one_star_psi_table(psi, n_max)[1:].astype(np.float64)
    n = np.arange(1, n_max + 1, dtype=np.float64)
    coeff /= np.sqrt(n)
    logQ = math.log(Q)
    xs = n / Q
    nonzero = np.flatnonzero(coeff)
    weights = np.zeros((3, n_max))
    weights[:, nonzero] = eval_weight_many(("V1", "W1", "W2"), logQ, xs[nonzero])
    v, w1, w2 = weights
    cfg = AFEConfig(Q=Q, n_max=n_max)
    tails = {kind: afe_tail_bound(kind, cfg) for kind in ("V1", "W1", "W2")}
    return {"V": coeff * v, "W1": coeff * w1, "W2": coeff * w2, "tails": tails}


def _budgeted_tables(q: int, D: int, cfg: AFEConfig):
    """_afe_tables for cfg, raising when cfg.Q is not q sqrt(D)/pi or a
    certified tail exceeds cfg.tail_budget, so no truncated sum leaves
    without its bound."""
    if abs(cfg.Q - q * math.sqrt(D) / math.pi) > 1e-9 * cfg.Q:
        raise ValueError("cfg.Q inconsistent with q sqrt(D)/pi")
    cols = _afe_tables(q, D, cfg.n_max, cfg.Q)
    for kind, t in cols["tails"].items():
        if t > cfg.tail_budget:
            raise ValueError(
                f"certified {kind} tail {t:.3e} exceeds budget {cfg.tail_budget:.3e}"
            )
    return cols


def afe_central(chi: DirichletCharacter, psi: RealCharacter,
                cfg: AFEConfig | None = None) -> CentralValuePair:
    """Central value and derivative combination for L(s,chi)L(s,chi psi).

    Truncation at cfg.n_max carries a certified tail bound; if the bound
    exceeds cfg.tail_budget this raises rather than return a doubtful value.
    """
    if chi.is_trivial:
        raise ValueError("principal character rejected")
    if not chi.is_even:
        raise ValueError("odd character rejected")
    q, D = chi.modulus, psi.D
    if math.gcd(q, D) != 1:
        raise ValueError("moduli must be coprime")
    if cfg is None:
        cfg = default_config(q, D)
    cols = _budgeted_tables(q, D, cfg)
    chivals = chi.values_at(np.arange(1, cfg.n_max + 1))
    eps = epsilon(chi) * epsilon_product_direct(chi, psi)
    s_v1 = complex(np.dot(cols["V"], chivals))
    s_v2 = complex(np.dot(cols["V"], np.conj(chivals)))
    s_w1 = complex(np.dot(cols["W1"], chivals))
    s_w2 = complex(np.dot(cols["W2"], np.conj(chivals)))
    return CentralValuePair(
        L_central=s_v1 + eps * s_v2,
        L_combo=s_w1 + eps * s_w2,
        epsilon_product=eps,
    )


def epsilon_consistency_residual(chi: DirichletCharacter, psi: RealCharacter,
                                 alpha: float = 0.1) -> float:
    """|eps(chi)eps(chi psi) - ratio forced by the functional equation|.

    The completed product Q^s Gamma(s/2)^2 L(s,chi)L(s,chi psi) at
    s = 1/2 + alpha equals eps-product times its conjugate-character value
    at 1/2 - alpha, so the eps-product is a computable ratio of oracle
    values.
    """
    Q = chi.modulus * math.sqrt(psi.D) / math.pi
    num = oracle_products_at(0.5 + alpha, [chi], psi)[0]
    den = oracle_products_at(0.5 - alpha, [chi.conjugate()], psi)[0]
    gamma_ratio = (gamma_complex((0.5 + alpha) / 2) / gamma_complex((0.5 - alpha) / 2)) ** 2
    forced = Q ** (2 * alpha) * gamma_ratio * num / den
    eps = epsilon(chi) * epsilon_product_direct(chi, psi)
    return abs(eps - forced)
