"""Dirichlet characters mod a prime q, 5 <= q <= 10^5.

The group is realized through the least primitive root g: character k sends
g^j to e(jk/(q-1)).  For prime modulus every nontrivial character is
primitive, the even ones are those with k even, and there are (q-3)/2
even nontrivial characters.

A character here is an arith.ResidueCharacter like the real and principal
characters, so one Gauss sum (a DFT of the residue table) and one root number
eps = tau/sqrt(m) serve all three.  Also: the root-number sum over the even
family in both its direct and Kloosterman-reduced forms, and products with
an auxiliary real character to a coprime modulus.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import RealCharacter, ResidueCharacter, euler_phi, factor, is_prime, kloosterman


class CharacterGroup:
    """All Dirichlet characters mod a prime q, indexed by k = 0..q-2."""

    def __init__(self, q: int):
        if not (5 <= q <= 10**5) or not is_prime(q):
            raise ValueError(f"modulus must be a prime in [5, 10^5], got {q}")
        self.q = q
        self.g = _least_primitive_root(q)
        # dlog[g^j mod q] = j; dlog[a] = -1 for q | a
        dlog = np.full(q, -1, dtype=np.int64)
        acc = 1
        for j in range(q - 1):
            dlog[acc] = j
            acc = acc * self.g % q
        self.dlog = dlog
        j = np.arange(q - 1)
        self.unity = np.exp(2j * np.pi * j / (q - 1))

    def character(self, k: int) -> "DirichletCharacter":
        return DirichletCharacter(self, k % (self.q - 1))

    def __iter__(self):
        return (self.character(k) for k in range(self.q - 1))


class DirichletCharacter(ResidueCharacter):
    """chi_k mod prime q; chi_k(g^j) = e(jk/(q-1))."""

    def __init__(self, group: CharacterGroup, k: int):
        self.group = group
        self.k = k

    @property
    def modulus(self) -> int:
        return self.group.q

    @property
    def is_trivial(self) -> bool:
        return self.k == 0

    @property
    def is_even(self) -> bool:
        return self.k % 2 == 0

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.group, (-self.k) % (self.group.q - 1))

    def __call__(self, n: int) -> complex:
        d = self.group.dlog[n % self.group.q]
        if d < 0:
            return 0j
        return complex(self.group.unity[self.k * d % (self.group.q - 1)])

    def values(self) -> np.ndarray:
        """chi(a) for a = 0..q-1 as one complex array."""
        q = self.group.q
        out = np.zeros(q, dtype=np.complex128)
        ok = self.group.dlog >= 0
        out[ok] = self.group.unity[self.k * self.group.dlog[ok] % (q - 1)]
        return out


def _least_primitive_root(q: int) -> int:
    cofactors = [(q - 1) // p for p, _ in factor(q - 1).factors]
    for g in range(2, q):
        if all(pow(g, c, q) != 1 for c in cofactors):
            return g
    raise ArithmeticError(f"no primitive root mod {q}")  # q prime: unreachable


@lru_cache(maxsize=64)
def build_group(q: int) -> CharacterGroup:
    return CharacterGroup(q)


def enumerate_even_primitive(group: CharacterGroup) -> list[DirichletCharacter]:
    """Even nontrivial characters, ascending index: k = 2, 4, ..., q-3."""
    return [group.character(k) for k in range(2, group.q - 2, 2)]


def phi_plus(q: int) -> int:
    """Size of the even primitive family mod a prime q."""
    return (q - 3) // 2


def even_family_pair_sum(group: CharacterGroup, m: int, n: int) -> int:
    """sum over even nontrivial chi of chi(m) conj(chi(n)), for (mn, q) = 1.

    The sum is an integer; the complex accumulation must land within 1e-9
    of one or this raises.
    """
    q = group.q
    dm, dn = group.dlog[m % q], group.dlog[n % q]
    if dm < 0 or dn < 0:
        raise ValueError("m and n must be coprime to the modulus")
    delta = (dm - dn) % (q - 1)
    total = 0j
    for k in range(2, q - 2, 2):
        total += group.unity[k * delta % (q - 1)]
    nearest = round(total.real)
    if abs(total - nearest) > 1e-9:
        raise ArithmeticError(f"pair sum {total} not within 1e-9 of an integer")
    return int(nearest)


def _gauss_sum(table: np.ndarray) -> complex:
    """sum_a table[a] e(a/m) over a = 0..m-1, m = len(table): the frequency-1
    DFT of a residue table, which is the Gauss sum of the character it holds."""
    m = len(table)
    return complex(np.dot(table, np.exp(2j * np.pi * np.arange(m) / m)))


def gauss_sum(chi: ResidueCharacter) -> complex:
    """tau(chi) = sum_a chi(a) e(a/m) for any character; one for the
    principal character mod 1."""
    return _gauss_sum(chi.values())


def epsilon(chi: ResidueCharacter) -> complex:
    return gauss_sum(chi) / math.sqrt(chi.modulus)


def product_values(chi: DirichletCharacter, psi: RealCharacter) -> np.ndarray:
    """(chi psi)(a) for a = 0..qD-1; requires (q, D) = 1."""
    q, D = chi.modulus, psi.D
    if math.gcd(q, D) != 1:
        raise ValueError("moduli must be coprime")
    a = np.arange(q * D)
    return chi.values_at(a) * psi.values_at(a)


def epsilon_product_direct(chi: DirichletCharacter, psi: RealCharacter) -> complex:
    """eps(chi psi) straight from the mod-qD Gauss sum, no factorization."""
    return _gauss_sum(product_values(chi, psi)) / math.sqrt(chi.modulus * psi.D)


def epsilon_product_factored(chi: DirichletCharacter, psi: RealCharacter) -> complex:
    """eps(chi psi) = chi(D) psi(q) eps(chi) eps(psi)."""
    return chi(psi.D) * psi(chi.modulus) * epsilon(chi) * epsilon(psi)


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
