"""Multiplicative arithmetic.

Factorization, the real quadratic character psi(n) = (D/n) for a squarefree
D = 1 (mod 4), the principal character, and the one Dirichlet-convolution
sieve every multiplicative table is built with: the divisor-type sum
(1*psi)(n) = sum_{d|n} psi(d), its Dirichlet inverse rho = mu * (mu psi),
and the divisor count 1*1.  The Mobius table mu, which rho and the
Ramanujan sums of `offdiag` read, keeps its own prime sieve.

Every character (these two and chi mod q in `characters`) is a
ResidueCharacter: its residue table values() is the one source of its
array values, and character_convolution is the one place such a table is
tiled out to a convolution.

Everything here is exact integer arithmetic, apart from the complex power
_cpow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=8)
def primes_up_to(limit: int) -> tuple[int, ...]:
    """Primes <= limit by Eratosthenes."""
    if limit < 2:
        return ()
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return tuple(int(p) for p in np.nonzero(sieve)[0])


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit n."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent-cycle rho with a deterministic parameter sweep; n composite, odd,
    no factor below the trial-division bound."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")  # unreachable for 63-bit inputs


@dataclass(frozen=True)
class FactoredInt:
    """Canonical factorization n = prod p^e with primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last = 0
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError("factors must be (prime, exponent>=1), primes increasing")
            prod *= p**e
            last = p
        if prod != self.n:
            raise ValueError("factor list does not multiply to n")

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def divisors(self) -> list[int]:
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return sorted(divs)


_TRIAL_BOUND = 10**4  # trial primes cover n < 10^8 completely


def factor(n: int) -> FactoredInt:
    """Factor 1 <= n < 2^63 deterministically."""
    if not 1 <= n <= 2**63 - 1:
        raise ValueError(f"factor requires 1 <= n < 2^63, got {n}")
    m = n
    fac: dict[int, int] = {}
    for p in primes_up_to(_TRIAL_BOUND):
        if p * p > m:
            break
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < _TRIAL_BOUND**2 or is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return FactoredInt(n, tuple(sorted(fac.items())))


def divisors(n: int) -> list[int]:
    return factor(n).divisors()


@lru_cache(maxsize=8)
def _mobius_table(limit: int) -> np.ndarray:
    """mu(n) for n = 0..limit (entry 0 unused), sieved by the primes up to
    sqrt(limit).  `small` collects the product of those primes dividing n;
    a squarefree n with small < n has one prime factor above sqrt(limit)
    left, which flips its sign once more."""
    mu = np.ones(limit + 1, dtype=np.int64)
    small = np.ones(limit + 1, dtype=np.int64)
    for p in primes_up_to(math.isqrt(limit)):
        mu[p::p] *= -1
        small[p::p] *= p
        mu[p * p :: p * p] = 0
    mu[small < np.arange(limit + 1)] *= -1
    return mu


class ResidueCharacter:
    """A Dirichlet character given by its residue table.

    Each subclass has `modulus`, `is_trivial`, `__call__` and `values()`, the
    table of chi(a) for a = 0..modulus-1: int8 for the integer characters,
    complex128 for chi mod q."""

    def values_at(self, n: np.ndarray) -> np.ndarray:
        """chi(n) for an integer array n of any sign: values()[n mod m]."""
        return self.values()[np.mod(n, self.modulus)]


@dataclass(frozen=True)
class RealCharacter(ResidueCharacter):
    """The real primitive even character psi(n) = (D/n) for squarefree D = 1 (mod 4).

    Moduli with D = 0 (mod 4) are deliberately rejected: only the even
    squarefree case is supported (psi(-1) = +1 always holds here).
    """

    D: int

    is_trivial = False

    def __post_init__(self):
        if self.D <= 1:
            raise ValueError("modulus must exceed 1")
        if self.D > 10**6:
            # values() is a D-long table, and the work that reads it (the
            # Gauss sum, the Hurwitz oracle's (q-1) phi(D) points) grows with D
            raise ValueError(f"modulus {self.D} is above the cap 10^6")
        if self.D % 4 != 1:
            raise ValueError(f"modulus {self.D} is not 1 mod 4; even squarefree case only")
        if not factor(self.D).is_squarefree():
            raise ValueError(f"modulus {self.D} is not squarefree")

    @property
    def modulus(self) -> int:
        return self.D

    def __call__(self, n: int) -> int:
        return int(self._table[n % self.D])

    @cached_property
    def _table(self) -> np.ndarray:
        # for squarefree D = 1 (mod 4), (D/n) is the Jacobi symbol (n/D), the
        # product over p | D of the Legendre symbols (n/p)
        r = np.arange(self.D)
        table = np.ones(self.D, dtype=np.int8)
        for p, _ in factor(self.D).factors:
            legendre = np.full(p, -1, dtype=np.int8)
            legendre[np.arange(p, dtype=np.int64) ** 2 % p] = 1
            legendre[0] = 0
            table *= legendre[r % p]
        table.flags.writeable = False
        return table

    def values(self) -> np.ndarray:
        """psi(r) for residues r = 0..D-1, as read-only int8, built on the
        first call and held by this instance alone."""
        return self._table


@dataclass(frozen=True)
class PrincipalCharacter(ResidueCharacter):
    """chi_0 mod m: 1 on units, 0 elsewhere.  The default modulus 1 gives the
    character that is identically one."""

    modulus: int = 1

    is_trivial = True

    def __call__(self, n: int) -> int:
        return int(math.gcd(n, self.modulus) == 1)

    def values(self) -> np.ndarray:
        """chi_0(r) for residues r = 0..m-1, as int8."""
        m = self.modulus
        return (np.gcd(np.arange(m), m) == 1).astype(np.int8)


def dirichlet_convolution(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f*g)(n) = sum_{d|n} f(d) g(n/d) for n = 0..limit by a divisor sieve.

    g is a table over 0..limit and f a table from 0 that counts as zero past
    its end (entry 0 of both unused).  The result takes their common dtype,
    so integer tables give exact integers.  Float terms are added in
    increasing d.  Integer sums do not depend on the order, so they split
    the pairs d*k <= limit at s = isqrt(limit): one row per d <= s, then one
    column per k <= limit/(s+1) over the d > s, in O(sqrt(limit)) steps.
    """
    limit = len(g) - 1
    out = np.zeros(limit + 1, dtype=np.result_type(f, g))
    s = math.isqrt(limit) if np.issubdtype(out.dtype, np.integer) else limit
    for d in range(1, min(len(f), s + 1)):
        if f[d]:
            out[d::d] += f[d] * g[1 : limit // d + 1]
    if len(f) > s + 1:
        for k in range(1, limit // (s + 1) + 1):
            if g[k]:
                d_hi = min(len(f) - 1, limit // k)
                out[(s + 1) * k : d_hi * k + 1 : k] += g[k] * f[s + 1 : d_hi + 1]
    return out


def character_convolution(chi1: ResidueCharacter, chi2: ResidueCharacter,
                          limit: int) -> np.ndarray:
    """(chi1 * chi2)(n) for n = 0..limit (entry 0 unused) for two integer
    characters, in exact int64: each residue table tiled over 0..limit,
    chi1's as f and chi2's, widened to int64, as g of dirichlet_convolution."""
    f, g = (np.tile(t, limit // len(t) + 1)[: limit + 1]
            for t in (chi1.values(), chi2.values().astype(np.int64)))
    return dirichlet_convolution(f, g)


def _cpow(n: int, z: complex) -> complex:
    """n^z for a positive integer n and complex z."""
    return cmath.exp(z * math.log(n))


def one_star_psi_table(psi: RealCharacter, limit: int) -> np.ndarray:
    """(1*psi)(n) for n = 0..limit by a divisor sieve (entry 0 unused)."""
    return character_convolution(psi, PrincipalCharacter(), limit)


def rho_table(psi: RealCharacter, limit: int) -> np.ndarray:
    """rho(n) for n = 0..limit (entry 0 unused), the Dirichlet inverse of 1*psi,
    in exact int64.  psi is completely multiplicative, so rho = mu * (mu psi):
    -(1+psi(p)) at p, psi(p) at p^2 and 0 on every cube multiple."""
    mu = _mobius_table(limit)
    return dirichlet_convolution(mu, mu * psi.values_at(np.arange(limit + 1)))
