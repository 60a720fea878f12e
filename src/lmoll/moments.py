"""Mollified moments and the diagonal Euler-product algebra.

The mollifier coefficients are the Dirichlet inverse of the divisor-twisted
coefficients (1*psi), restricted to cutoff X and to indices prime to the
sign of restriction D | a.  First and second mollified moments over the
even primitive family are computed character by character; an independent
route expands the first moment through family orthogonality and Gauss-sum
squares, turning it into a double sum weighted by Kloosterman values.

The diagonal main term factors into three Euler products (over primes
dividing D, inert primes, and split primes); the split-prime factor carries
a finite correction sum built from a small family of multiplicative
functions evaluated here in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (
    RealCharacter,
    _cpow,
    dirichlet_convolution,
    divisors,
    eval_rho,
    factor,
    is_prime,
    one_star_psi_table,
    primes_up_to,
)
from .characters import (
    DirichletCharacter,
    build_group,
    enumerate_even_primitive,
    epsilon,
    phi_plus,
)
from .lvalues import AFEConfig, _budgeted_tables, _family_L, afe_central, default_config
from .reduction import exact_sum, fsum_complex

__all__ = [
    "MollifierTable",
    "MomentReport",
    "EulerProductFamily",
    "build_mollifier",
    "eval_mollifier",
    "mollified_moments",
    "first_moment_by_orthogonality",
    "census",
    "euler_product",
    "restricted_divisor_product_check",
    "restricted_divisor_product_residuals",
    "g_family_eval",
    "tau4_table",
    "tau4_prime_power",
    "lacunary_divisor_sum",
]


# ---------------------------------------------------------------------------
# mollifier construction


@dataclass(frozen=True)
class MollifierTable:
    """The nonzero mollifier coefficients rho[i] = rho(a[i]) over a <= X with
    D not dividing a, a increasing."""

    a: np.ndarray
    rho: np.ndarray


def build_mollifier(psi: RealCharacter, X: int) -> MollifierTable:
    if X < 1:
        raise ValueError("cutoff must be positive")
    a = np.array([n for n in range(1, X + 1) if n % psi.D], dtype=np.int64)
    rho = np.array([eval_rho(psi, n) for n in a.tolist()], dtype=np.float64)
    return MollifierTable(a=a[rho != 0], rho=rho[rho != 0])


def eval_mollifier(table: MollifierTable, chi: DirichletCharacter) -> complex:
    """sum of rho(a) chi(a) / sqrt(a) over the stored coefficients."""
    chivals = chi.values_at(table.a)
    return complex(np.dot(table.rho / np.sqrt(table.a.astype(np.float64)), chivals))


# ---------------------------------------------------------------------------
# moment reports


@dataclass(frozen=True)
class MomentReport:
    q: int
    D: int
    X: int
    s1: complex
    s2: float
    ratio: float
    census_nonzero: int

    def __post_init__(self):
        if not (0.0 <= self.ratio <= 1.0 + 1e-9):
            raise ValueError("ratio outside [0, 1]")
        if self.census_nonzero > phi_plus(self.q):
            raise ValueError("census exceeds family size")

    def record(self) -> dict:
        """The payload fields: s1 split into its real and imaginary parts."""
        return {
            "q": self.q,
            "D": self.D,
            "X": self.X,
            "s1_re": self.s1.real,
            "s1_im": self.s1.imag,
            "s2": self.s2,
            "ratio": self.ratio,
            "census_nonzero": self.census_nonzero,
            "phi_plus": phi_plus(self.q),
        }


def _moment_guards(q: int, psi: RealCharacter, X: int) -> None:
    if not is_prime(q):
        raise ValueError("modulus must be prime")
    if math.gcd(q, psi.D) != 1:
        raise ValueError("moduli must be coprime")
    if not 1 <= X <= q:
        raise ValueError("mollifier cutoff limited to X <= q")


def mollified_moments(q: int, psi: RealCharacter, X: int,
                      cfg: AFEConfig | None = None,
                      threshold: float = 1e-8) -> MomentReport:
    """First and second mollified moments over the even primitive family.

    ratio is |S1|^2 / (phi_plus(q) S2), the Cauchy-Schwarz proportion: at
    most 1 up to roundoff, and MomentReport rejects a value outside
    [0, 1 + 1e-9].
    census_nonzero counts characters whose product central value clears the
    threshold in absolute value.
    """
    _moment_guards(q, psi, X)
    if cfg is None:
        cfg = default_config(q, psi.D)
    table = build_mollifier(psi, X)
    family = enumerate_even_primitive(build_group(q))

    terms = []
    nonzero = 0
    for chi in family:
        central = afe_central(chi, psi, cfg).L_central
        terms.append(central * eval_mollifier(table, chi))
        nonzero += int(abs(central) > threshold)
    s1 = fsum_complex(terms)
    s2 = exact_sum([abs(t) ** 2 for t in terms])
    denom = phi_plus(q) * s2
    ratio = abs(s1) ** 2 / denom if denom > 0 else 0.0
    return MomentReport(q=q, D=psi.D, X=X, s1=s1, s2=s2, ratio=ratio,
                       census_nonzero=nonzero)


# ---------------------------------------------------------------------------
# orthogonality route for the first moment

def _kloosterman_row(q: int) -> np.ndarray:
    """S(1, w; q) for w = 0..q-1.  S(1, w; q) = sum_y e(ybar/q) e(wy/q) is the
    inverse DFT of f(y) = e(ybar/q), f(0) = 0, so one FFT gives the row."""
    inv = np.array([pow(y, -1, q) for y in range(1, q)], dtype=np.float64)
    f = np.zeros(q, dtype=np.complex128)
    f[1:] = np.exp(2j * np.pi * inv / q)
    return np.fft.ifft(f, norm="forward").real


def first_moment_by_orthogonality(q: int, psi: RealCharacter, X: int,
                                  cfg: AFEConfig | None = None) -> complex:
    """The first mollified moment without looping over characters: it
    cross-checks S1 of mollified_moments, the character-by-character route.

    Summing chi(an) over the even primitive family leaves congruence
    conditions an = +-1 mod q, and summing eps(chi)eps(chi psi) chi(a/n)
    reduces, through the square of the Gauss sum, to Kloosterman values
    S(1, +-n/(Da); q).  Truncations match afe_central exactly, so the two
    routes differ only by floating-point reordering, and like afe_central
    this raises when a certified tail exceeds cfg.tail_budget.
    """
    _moment_guards(q, psi, X)
    D = psi.D
    if cfg is None:
        cfg = default_config(q, D)
    cols = _budgeted_tables(q, D, cfg)
    vcol = cols["V"]
    n_mod = np.arange(1, cfg.n_max + 1, dtype=np.int64) % q
    unit = n_mod != 0
    kl = _kloosterman_row(q)
    phi_q = q - 1
    c_eps = complex(psi(q) * epsilon(psi)) / (2.0 * q)
    table = build_mollifier(psi, X)
    parts = []
    for a, rho in zip(table.a.tolist(), table.rho.tolist()):
        if a % q == 0:
            continue
        an_mod = (a * n_mod) % q
        hit = ((an_mod == 1) | (an_mod == q - 1)).astype(np.float64)
        t1 = vcol * (0.5 * phi_q * hit - 1.0)
        ainv = pow(D * a, -1, q)
        w = (n_mod * ainv) % q
        t2 = vcol * (c_eps * (phi_q * (kl[w] + kl[(q - w) % q]) - 2.0))
        contrib = complex(np.sum((t1 + t2)[unit]))
        parts.append(rho / math.sqrt(a) * contrib)
    return fsum_complex(parts)


# ---------------------------------------------------------------------------
# nonvanishing census


def census(q: int, psi: RealCharacter, threshold: float) -> tuple[int, int]:
    """Count even primitive chi mod q with the product central value, and
    with the plain central value, exceeding the threshold in absolute value.

    Values come from the Hurwitz-zeta oracle through one FFT over the
    discrete log (see lvalues._family_L): (q-1)(1 + phi(D)) Hurwitz points,
    one row of q-1 per unit class mod D, in O(q log q + qD) time and O(q)
    memory plus one block of rows, whatever the size of D.
    """
    if not is_prime(q) or q > 10**4:
        raise ValueError("census limited to prime q <= 10^4")
    if math.gcd(q, psi.D) != 1:
        raise ValueError("moduli must be coprime")
    if q * psi.D > 10**8:
        # the modulus-qD Hurwitz sum visits every unit b < qD
        raise ValueError(f"census limited to q D <= 10^8, got {q * psi.D}")
    # the even family is k = 2, 4, ..., q-3, as enumerate_even_primitive lists it
    l_plain, l_twist = (v[2:q - 2:2] for v in _family_L(0.5, q, psi))
    count_product = int(np.count_nonzero(np.abs(l_plain * l_twist) > threshold))
    count_plain = int(np.count_nonzero(np.abs(l_plain) > threshold))
    return count_product, count_plain


# ---------------------------------------------------------------------------
# Euler products for the diagonal main term


@dataclass(frozen=True)
class EulerProductFamily:
    """One of the three diagonal factors with its shifts and truncation.

    which "A": finite product over p | D, truncation ignored.
    which "B": inert primes p <= truncation.
    which "C": split-prime product with correction sum over n <= truncation.
    """

    which: str
    u: complex
    v: complex
    truncation: int

    def __post_init__(self):
        if self.which not in ("A", "B", "C"):
            raise ValueError("family must be A, B, or C")
        # absolute convergence needs both shifts to the right of -1/4
        if min(complex(self.u).real, complex(self.v).real) <= -0.25 + 0.01:
            raise ValueError("shifts outside the convergence region")
        if self.truncation < 1:
            raise ValueError("truncation must be positive")


def euler_product(family: EulerProductFamily, psi: RealCharacter) -> complex:
    """A diagonal main-term factor; cross-checks its boundary normalisation (criterion 6)."""
    u, v = complex(family.u), complex(family.v)
    if family.which == "A":
        out = 1.0 + 0.0j
        for p, _ in factor(psi.D).factors:
            out *= (1 + 1 / p - _cpow(p, -(1 + u)) - _cpow(p, -(1 + v))) \
                / (1 - _cpow(p, -(1 + u + v)))
        return out
    if family.which == "B":
        if family.truncation < 10**3:
            raise ValueError("inert-prime cutoff below 10^3")
        # tail of the log-product is below 2/cutoff throughout the region
        ps = np.array([p for p in primes_up_to(family.truncation) if psi(p) == -1],
                      dtype=np.float64)
        logs = np.log(ps)
        x2 = np.exp(-2 * (1 + u + v) * logs)
        xu = np.exp(-2 * (1 + u) * logs)
        xv = np.exp(-2 * (1 + v) * logs)
        factors = (1 + ps**-2.0 - xu - xv) / (1 - x2)
        return complex(np.prod(factors))
    # C: split-prime product times the truncated correction sum
    X = family.truncation
    p_cut = max(X, 10**4)
    ps = np.array([p for p in primes_up_to(p_cut) if psi(p) == 1], dtype=np.float64)
    logs = np.log(ps)
    factors = (1 - np.exp(-2 * (1 + u + v) * logs)) * (1 + ps**-2.0)
    prod = complex(np.prod(factors))
    terms = _split_smooth_terms(psi, X, u, v)
    return prod * fsum_complex([t for _, t in terms])


def _split_smooth_terms(psi: RealCharacter, X: int, u: complex, v: complex):
    """(n, g3(n)/n) over n <= X supported on split primes, ascending in n."""
    ps = [p for p in primes_up_to(X) if psi(p) == 1]
    terms = [(1, 1.0 + 0.0j)]
    stack = [(0, 1, 1.0 + 0.0j)]
    while stack:
        i, n, val = stack.pop()
        for k in range(i, len(ps)):
            p = ps[k]
            m, j = n * p, 1
            while m <= X:
                g = val * g_family_eval("g3", p, j, u, v, psi)
                terms.append((m, g / m))
                stack.append((k + 1, m, g))
                m *= p
                j += 1
    terms.sort(key=lambda t: t[0])
    return terms


# ---------------------------------------------------------------------------
# the finite product identity over divisors of D


def _restricted_inverse_triple_sums(D: int, shifts) -> list[complex]:
    """Triple sum over d, e, g | D with (e, g) = 1 of
    rho(de) rho(dg) / (d e^{1+u} g^{1+v}) at each (u, v) of shifts; rho kills
    every unsupported term.  The integer terms are found once for D."""
    psi = RealCharacter(D)
    divs = divisors(D)
    triples = []
    for d in divs:
        for e in divs:
            re = eval_rho(psi, d * e)
            if re == 0:
                continue
            for g in divs:
                if math.gcd(e, g) != 1:
                    continue
                rg = eval_rho(psi, d * g)
                if rg != 0:
                    triples.append((re * rg, d, e, g))
    sums = []
    for u, v in shifts:
        total = 0.0 + 0.0j
        for rr, d, e, g in triples:
            total += rr / (d * _cpow(e, 1 + u) * _cpow(g, 1 + v))
        sums.append(total)
    return sums


def restricted_divisor_product_residuals(D: int, shifts) -> list[float]:
    """restricted_divisor_product_check at each (u, v) of shifts."""
    f = factor(D)
    if not f.is_squarefree():
        raise ValueError("D must be squarefree")
    shifts = [(complex(u), complex(v)) for u, v in shifts]
    out = []
    for (u, v), lhs in zip(shifts, _restricted_inverse_triple_sums(D, shifts)):
        rhs = 1.0 + 0.0j
        for p, _ in f.factors:
            rhs *= 1 + 1 / p - _cpow(p, -(1 + u)) - _cpow(p, -(1 + v))
        out.append(abs(lhs - rhs))
    return out


def restricted_divisor_product_check(D: int, u: complex, v: complex) -> float:
    """|triple sum - product over p|D of (1 + 1/p - p^{-1-u} - p^{-1-v})|."""
    return restricted_divisor_product_residuals(D, [(u, v)])[0]


# ---------------------------------------------------------------------------
# the multiplicative family feeding the split-prime factor


def _tau_table(limit: int) -> np.ndarray:
    """tau = 1 * 1, the divisor count, for n = 0..limit."""
    ones = np.ones(limit + 1, dtype=np.int64)
    return dirichlet_convolution(ones, ones)


def tau4_table(limit: int) -> np.ndarray:
    """tau4 = tau * tau by direct Dirichlet convolution, exact integers."""
    tau = _tau_table(limit)
    return dirichlet_convolution(tau, tau)


def tau4_prime_power(j: int) -> int:
    # convolution tau * tau restricted to a prime power
    return sum((i + 1) * (j - i + 1) for i in range(j + 1))


def _require_split(name: str, psi: RealCharacter, p: int) -> None:
    if psi(p) != 1:
        raise ValueError(f"{name} defined only at split primes")


def g_family_eval(name: str, p: int, j: int, u: complex, v: complex,
                  psi: RealCharacter) -> complex:
    """Closed forms for the multiplicative helpers on prime powers p^j."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if j < 0:
        raise ValueError("exponent must be nonnegative")
    u, v = complex(u), complex(v)
    if j == 0:
        if name in ("h2", "h3", "g1", "g2", "g3", "f"):
            return 1.0 + 0.0j
        raise ValueError(f"unknown family member {name!r}")
    if name == "f":
        if psi(p) == 0:
            return 1.0 + 0.0j
        if psi(p) == -1:
            return complex(1 - j % 2)
        s = 1 + u + v
        return 1 + j * (_cpow(p, s) - 1) / (_cpow(p, s) + 1)
    if name == "h2":
        return 1.0 / (1 + p**-2)
    P = _cpow(p, -(1 + u + v))
    h2 = 1.0 / (1 + p**-2)
    if name == "h3":
        _require_split(name, psi, p)
        if j != 1:
            raise ValueError("h3 is evaluated on squarefree arguments only")
        return 4 - (4 / p) * (_cpow(p, -u) + _cpow(p, -v)) / (1 + P)
    if name == "g1":
        _require_split(name, psi, p)
        if j == 1:
            return -4 * h2 * (_cpow(p, -u) + _cpow(p, -v)) / (1 + P)
        if j == 2:
            return h2 * (3 - P) * (_cpow(p, -2 * u) + _cpow(p, -2 * v)) / (1 + P)
        return 0.0 + 0.0j
    if name == "g2":
        _require_split(name, psi, p)
        if j == 1:
            return 4 * h2 - 4 * h2 * (1 + 1 / p) * (_cpow(p, -u) + _cpow(p, -v)) / (1 + P)
        if j == 2:
            return g_family_eval("g1", p, 2, u, v, psi)
        return 0.0 + 0.0j
    if name == "g3":
        _require_split(name, psi, p)
        w = _cpow(p, -(u + v))
        if j == 1:
            return g_family_eval("g2", p, 1, u, v, psi) + 4 * w
        g2_1 = g_family_eval("g2", p, 1, u, v, psi)
        g2_2 = g_family_eval("g2", p, 2, u, v, psi)
        return (tau4_prime_power(j) * w**j
                + g2_1 * tau4_prime_power(j - 1) * w ** (j - 1)
                + g2_2 * tau4_prime_power(j - 2) * w ** (j - 2))
    raise ValueError(f"unknown family member {name!r}")


# ---------------------------------------------------------------------------
# lacunary divisor sum, exact


def lacunary_divisor_sum(psi: RealCharacter, A: int, k: int = 1) -> Fraction:
    """sum of tau(n)^k (1*psi)(n)/n over D^4 < n <= D^A as an exact rational.

    Cross-checks lacunary_partial_sum: at k = 0 this is the exact value of
    lacunary_partial_sum(psi, D^A) - lacunary_partial_sum(psi, D^4).

    Common denominator lcm(1..D^A) keeps every addition integral; the one
    gcd happens at the end.
    """
    D = psi.D
    if A < 4:
        raise ValueError("upper exponent must be at least 4")
    hi = D**A
    if hi > 10**6:
        raise ValueError("range too large for exact summation")
    lo = D**4
    tau = _tau_table(hi)
    ospi = one_star_psi_table(psi, hi)
    lcm = 1
    for n in range(lo + 1, hi + 1):
        lcm = math.lcm(lcm, n)
    num = 0
    for n in range(lo + 1, hi + 1):
        c = int(tau[n]) ** k * int(ospi[n])
        if c:
            num += c * (lcm // n)
    return Fraction(num, lcm)
