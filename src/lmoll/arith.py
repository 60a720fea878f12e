"""Multiplicative arithmetic.

Factorization, the real quadratic character psi(n) = (D/n) for a squarefree
D = 1 (mod 4), the principal character, the divisor-type sum
(1*psi)(n) = sum_{d|n} psi(d), its Dirichlet inverse rho, the one
Dirichlet-convolution sieve every divisor-sum table is built with,
Ramanujan sums, Kloosterman sums, and the long partial sums
sum_{n<=x} (1*psi)(n)/n.

Every character (these two and chi mod q in `characters`) is a
ResidueCharacter: its residue table values() is the one source of its
array values, and character_convolution is the one place such a table is
tiled out to a convolution.

Everything here is exact integer arithmetic except the final partial sums,
which are exactly rounded by reduction.exact_sum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .reduction import exact_sum

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
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
            # values() builds a D-long table one Kronecker symbol at a time
            raise ValueError(f"modulus {self.D} is above the cap 10^6")
        if self.D % 4 != 1:
            raise ValueError(f"modulus {self.D} is not 1 mod 4; even squarefree case only")
        if not factor(self.D).is_squarefree():
            raise ValueError(f"modulus {self.D} is not squarefree")

    @property
    def modulus(self) -> int:
        return self.D

    def __call__(self, n: int) -> int:
        return kronecker(self.D, n)

    @cached_property
    def _table(self) -> np.ndarray:
        table = np.array([kronecker(self.D, r) for r in range(self.D)], dtype=np.int8)
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
        return np.array([math.gcd(r, m) == 1 for r in range(m)], dtype=np.int8)


def dirichlet_convolution(f: np.ndarray, g: np.ndarray,
                          out: np.ndarray | None = None) -> np.ndarray:
    """(f*g)(n) = sum_{d|n} f(d) g(n/d) for n = 0..limit by a divisor sieve.

    g is a table over 0..limit and f a table from 0 that counts as zero past
    its end (entry 0 of both unused).  The result takes their common dtype,
    so integer tables give exact integers.  Float terms are added in
    increasing d.  Integer sums do not depend on the order, so they split
    the pairs d*k <= limit at s = isqrt(limit): one row per d <= s, then one
    column per k <= limit/(s+1) over the d > s, in O(sqrt(limit)) steps.
    out (length limit + 1, that dtype, any contents) is zeroed and filled.
    """
    limit = len(g) - 1
    dtype = np.result_type(f, g)
    out = np.empty(limit + 1, dtype=dtype) if out is None else out
    if out.shape != (limit + 1,) or out.dtype != dtype:
        raise ValueError(f"out must be a length-{limit + 1} {dtype} array")
    out.fill(0)
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


def one_star_psi_table(psi: RealCharacter, limit: int) -> np.ndarray:
    """(1*psi)(n) for n = 0..limit by a divisor sieve (entry 0 unused)."""
    return character_convolution(psi, PrincipalCharacter(), limit)


def eval_rho(psi: RealCharacter, a: int) -> int:
    """The Dirichlet inverse of 1*psi: multiplicative, supported on cubefree a,
    with value -(1+psi(p)) at p and psi(p) at p^2."""
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
