"""Reference implementations the tests check lmoll against.

No command of the library and none of its cross-checks calls these: each is
a direct or scalar form of something lmoll computes another way (the
Kronecker symbol behind psi's residue table, rho one a at a time behind
its sieved table, Kloosterman and Ramanujan sums behind the orthogonality
expansions, the shift series summed one r at a time behind its sums over
gcd classes, scalar gamma and digamma behind the array Lanczos
evaluation), or a closed form that a test holds a library route to.  Test
modules import them as `from oracles import ...`.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from lmoll.arith import (
    PrincipalCharacter,
    RealCharacter,
    _mobius_table,
    character_convolution,
    dirichlet_convolution,
    divisors,
    factor,
    one_star_psi_table,
)
from lmoll.characters import (
    CharacterGroup,
    DirichletCharacter,
    enumerate_even_primitive,
    epsilon,
    epsilon_product_direct,
)
from lmoll.lvalues import AFEConfig, oracle_products_at
from lmoll.offdiag import _check_pair, _series_coeff
from lmoll.reduction import exact_sum
from lmoll.special import (
    _QUAD_STEP,
    _b_arr,
    _digamma_arr,
    _is_nonpositive_integer,
    _kernel_arr,
    _line_kernel,
    gamma_many,
    mellin_principal_part,
)

# ------------------------------------------------------------------ arith


def mobius(n: int) -> int:
    f = factor(n)
    if not f.is_squarefree():
        return 0
    return -1 if len(f.factors) % 2 else 1


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factor(n).factors:
        out -= out // p
    return out


def eval_rho(psi: RealCharacter, a: int) -> int:
    """The Dirichlet inverse of 1*psi at one a, from a's factorization:
    multiplicative, supported on cubefree a, with value -(1+psi(p)) at p and
    psi(p) at p^2.  The reference for arith.rho_table."""
    if a < 1:
        raise ValueError("a must be positive")
    out = 1
    for p, e in factor(a).factors:
        if e == 1:
            out *= -(1 + psi(p))
        elif e == 2:
            out *= psi(p)
        else:
            return 0
        if out == 0:
            return 0
    return out


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), full sign and 2-adic rules, any integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    # factor out 2s of n: (a/2) = 0, 1, -1 for a even, a = +-1 (8), a = +-3 (8)
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    if n == 1:
        return result
    a %= n
    # Jacobi loop on odd n > 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def one_star_psi(psi: RealCharacter, n: int) -> int:
    """(1*psi)(n) = sum_{d|n} psi(d).  Nonnegative for real psi."""
    if n < 1:
        raise ValueError("n must be positive")
    out = 1
    for p, e in factor(n).factors:
        v = psi(p)
        if v == 1:
            out *= e + 1
        elif v == -1 and e % 2 == 1:
            return 0
        # v == 0, or v == -1 with e even: local factor 1
    return out


def ramanujan_sum(r: int, ell: int) -> int:
    """sum_{x mod ell, (x,ell)=1} e(rx/ell), by the divisor formula
    sum_{d | gcd(r,ell)} mu(ell/d) d."""
    if ell < 1:
        raise ValueError("modulus must be positive")
    g = math.gcd(abs(r), ell)  # gcd(0, ell) = ell handles r = 0
    out = 0
    for d in divisors(g):
        out += mobius(ell // d) * d
    return out


def kloosterman(m: int, n: int, c: int) -> complex:
    """S(m,n;c) = sum*_{x mod c} e((mx + n xbar)/c).

    The sum is real (x <-> -x symmetry); callers should expect a complex
    return regardless.
    """
    if c < 1:
        raise ValueError("modulus must be positive")
    if c == 1:
        return complex(1.0)
    total = 0j
    w = 2j * math.pi / c
    for x in range(1, c):
        if math.gcd(x, c) != 1:
            continue
        xbar = pow(x, -1, c)
        total += cmath.exp(w * ((m * x + n * xbar) % c))
    return total


def lacunary_partial_sum(psi: RealCharacter, x: float) -> float:
    """sum_{n<=x} (1*psi)(n)/n, exactly rounded."""
    if x < 1:
        raise ValueError("x must be at least 1")
    limit = int(math.floor(x))
    table = one_star_psi_table(psi, limit)
    return exact_sum(table[1:] / np.arange(1, limit + 1))


# ------------------------------------------------------------------ characters


def even_family_pair_sum(group: CharacterGroup, m: int, n: int) -> int:
    """sum over even nontrivial chi of chi(m) conj(chi(n)), for (mn, q) = 1,
    read off the group's pair-sum table."""
    q = group.q
    dm, dn = group.dlog[m % q], group.dlog[n % q]
    if dm < 0 or dn < 0:
        raise ValueError("m and n must be coprime to the modulus")
    return int(group.even_pair_sums[(dm - dn) % (q - 1)])


def epsilon_pair_sum(group: CharacterGroup, psi: RealCharacter):
    """sum over the even family of eps(chi) eps(chi psi), two ways.

    Returns (direct, closed): `direct` accumulates per-character Gauss sums
    mod q and mod qD; `closed` is the Kloosterman reduction

        psi(q) eps(psi) [ (phi(q)/2q) (S(1, Dbar; q) + S(1, -Dbar; q)) - 1/q ]

    with Dbar the inverse of D mod q.
    """
    q, D = group.q, psi.D
    if math.gcd(q, D) != 1:
        raise ValueError("moduli must be coprime")
    direct = 0j
    for chi in enumerate_even_primitive(group):
        direct += epsilon(chi) * epsilon_product_direct(chi, psi)
    dbar = pow(D, -1, q)
    eps_psi = epsilon(psi)
    s_plus = kloosterman(1, dbar, q)
    s_minus = kloosterman(1, -dbar, q)
    closed = psi(q) * eps_psi * (euler_phi(q) / (2 * q) * (s_plus + s_minus) - 1 / q)
    return direct, closed


# ------------------------------------------------------------------ special


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


def mellin_weight(kind: str, s: complex) -> complex:
    """Closed-form Mellin transform of either weight."""
    mellin_principal_part(kind)  # checks the kind
    if s == 0:
        raise ValueError("pole at s=0")
    s_arr = np.array([s], dtype=complex)
    return complex(_kernel_arr(kind, s_arr, _b_arr(s_arr))[0])


# ------------------------------------------------------------------ lvalues


def mellin_moment_tail_bound(kind: str, cfg: AFEConfig) -> float:
    """The AFE weight tail past n_max by Mellin moments, the bound lvalues
    certified before its closed form: |weight(x)| <= m(sigma) x^{-sigma}
    for x > 1 with m(sigma) = (1/2 pi) int |K(sigma+it)| dt, and
    (1*psi)(n) <= d(n) <= 2 sqrt(n), so the tail is at most
    2 m(sigma) Q^sigma n_max^{1-sigma}/(sigma-1), the least over
    sigma = 4, 6, ..., 12."""
    best = math.inf
    for sigma in (4.0, 6.0, 8.0, 10.0, 12.0):
        m = _QUAD_STEP / (2 * math.pi) * float(np.sum(np.abs(_line_kernel(kind, sigma))))
        best = min(best, 2 * m * cfg.Q**sigma * cfg.n_max ** (1 - sigma) / (sigma - 1))
    return best


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
    den = oracle_products_at(0.5 - alpha, [chi.group.character(-chi.k)], psi)[0]
    gamma_ratio = (gamma_complex((0.5 + alpha) / 2) / gamma_complex((0.5 - alpha) / 2)) ** 2
    forced = Q ** (2 * alpha) * gamma_ratio * num / den
    eps = epsilon(chi) * epsilon_product_direct(chi, psi)
    return abs(eps - forced)


# ------------------------------------------------------------------ moments


def tau4_table(limit: int) -> np.ndarray:
    """tau4 = tau * tau by direct Dirichlet convolution, exact integers."""
    tau = character_convolution(PrincipalCharacter(), PrincipalCharacter(), limit)
    return dirichlet_convolution(tau, tau)


# ------------------------------------------------------------------ offdiag


def ramanujan_column(r: int, limit: int) -> np.ndarray:
    """c_ell(r) for ell = 1..limit via sum_{d | (r,ell)} mu(ell/d) d, by one
    divisor sieve over the divisors of |r|."""
    divs = divisors(abs(r))
    f = np.zeros(divs[-1] + 1, dtype=np.int64)
    f[divs] = divs
    return dirichlet_convolution(f, _mobius_table(limit))[1:]


def series_terms(coeff: np.ndarray, denom: np.ndarray, r: int) -> np.ndarray:
    """The shift-series terms coeff(ell) c_ell(r)/(ell_a ell_b), ell = 1..len(coeff),
    from the shift-free parts of offdiag._series_coeff, one r at a time."""
    return coeff * ramanujan_column(r, len(coeff)) / denom


def series_sum(coeff: np.ndarray, denom: np.ndarray, r: int) -> float:
    """math.fsum of series_terms: the bit oracle of offdiag._series_sums,
    which takes every |r| at once from partial sums over gcd classes."""
    return math.fsum(memoryview(series_terms(coeff, denom, r)))


def singular_series_term(a: int, b: int, r: int, psi: RealCharacter, ell: int) -> float:
    """Single ell-term of the shift series, for hand cross-checks."""
    _check_pair(a, b, r)
    if ell < 1:
        raise ValueError("ell must be positive")
    return float(series_terms(*_series_coeff(a, b, psi, ell), r)[-1])


def power_overlap_closed(T: float, u: float, v: float) -> float:
    """Gamma-ratio closed form of int_{x>T} x^{-(1/2+u)} (x-T)^{-(1/2+v)} dx,
    for 0 < v < 1/2 and u + v > 0."""
    if not (T > 0 and 0 < v < 0.5 and u + v > 0):
        raise ValueError("need T > 0, 0 < v < 1/2, u + v > 0")
    value = gamma_complex(u + v) * gamma_complex(0.5 - v) * rgamma_complex(0.5 + u)
    return T ** (-(u + v)) * value.real
