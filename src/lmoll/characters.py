"""Dirichlet characters mod a prime q, 5 <= q <= 10^5.

The group is realized through the least primitive root g: character k sends
g^j to e(jk/(q-1)).  For prime modulus every nontrivial character is
primitive, the even ones are those with k even, and there are (q-3)/2
even nontrivial characters.

A character here is an arith.ResidueCharacter like the real and principal
characters, so one Gauss sum (a DFT of the residue table) and one root number
eps = tau/sqrt(m) serve all three.  Also: products with an auxiliary real
character to a coprime modulus, and their root numbers both from the
mod-qD Gauss sum and factored.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .arith import RealCharacter, ResidueCharacter, factor, is_prime


class CharacterGroup:
    """All Dirichlet characters mod a prime q, indexed by k = 0..q-2."""

    def __init__(self, q: int):
        if not (5 <= q <= 10**5) or not is_prime(q):
            raise ValueError(f"modulus must be a prime in [5, 10^5], got {q}")
        self.q = q
        self.g = _least_primitive_root(q)
        # powers[j] = g^j mod q for j < q - 1, in the baby-step/giant-step
        # layout: j = B t + i, g^j = (g^B)^t g^i for B baby steps i and B
        # giant steps t, B^2 >= q - 1; the products stay below q^2 <= 10^10
        B = math.isqrt(q - 2) + 1
        baby = _geometric_row(self.g, B, q)
        giant = _geometric_row(pow(self.g, B, q), B, q)
        self.powers = (giant[:, None] * baby % q).ravel()[:q - 1]
        # dlog[g^j mod q] = j; dlog[a] = -1 for q | a
        dlog = np.full(q, -1, dtype=np.int64)
        dlog[self.powers] = np.arange(q - 1)
        self.dlog = dlog
        j = np.arange(q - 1)
        self.unity = np.exp(2j * np.pi * j / (q - 1))

    def _by_dlog(self, values_by_residue: np.ndarray) -> np.ndarray:
        """f(g^j) at position j = 0..q-2 along the last axis, from f(a) for
        a = 1..q-1."""
        by_dlog = np.empty_like(values_by_residue)
        by_dlog[..., self.dlog[1:]] = values_by_residue
        return by_dlog

    def transform(self, values_by_residue: np.ndarray) -> np.ndarray:
        """sum_a f(a) chi_k(a) for every index k = 0..q-2, along the last
        axis of f, which holds f(a) for a = 1..q-1.

        Read in primitive-root order a = g^j the sum is
        sum_j f(g^j) e(jk/(q-1)): bin f by dlog, then one inverse DFT."""
        return np.fft.ifft(self._by_dlog(values_by_residue), axis=-1, norm="forward")

    def even_transform(self, values_by_residue: np.ndarray) -> np.ndarray:
        """sum_a f(a) chi_k(a) for the even nontrivial k = 2, 4, ..., q-3,
        along the last axis of a real f, which holds f(a) for a = 1..q-1.

        g^h = -1 for h = (q-1)/2, so for k = 2j the sum is
        sum_{d<h} [f(g^d) + f(g^{d+h})] e(jd/h): fold the dlog-ordered row
        in half and take one real DFT of length h, conjugated.  The folded
        row is real, so index j > h/2 is the conjugate of index h - j."""
        if np.iscomplexobj(values_by_residue):
            raise TypeError("even_transform takes a real f; use transform")
        h = (self.q - 1) // 2
        by_dlog = self._by_dlog(values_by_residue)
        half = np.fft.rfft(by_dlog[..., :h] + by_dlog[..., h:], axis=-1)
        m = h // 2  # j = 1..m read off the DFT, j = m+1..h-1 by symmetry
        return np.concatenate((np.conj(half[..., 1:m + 1]), half[..., h - m - 1:0:-1]), axis=-1)

    @cached_property
    def even_pair_sums(self) -> np.ndarray:
        """sum over even nontrivial chi of chi(m) conj(chi(n)), an integer,
        at index delta = dlog m - dlog n mod q-1.

        As a function of delta it is sum over even k != 0 of e(k delta/(q-1)),
        the transform of the indicator of the nontrivial squares g^k.  Every
        entry must land within 1e-9 of an integer or this raises."""
        k = self.dlog[1:]
        squares = ((k % 2 == 0) & (k > 0)).astype(np.float64)
        sums = self.transform(squares)
        nearest = np.round(sums.real)
        worst = int(np.argmax(np.abs(sums - nearest)))
        if abs(sums[worst] - nearest[worst]) > 1e-9:
            raise ArithmeticError(f"pair sum {sums[worst]} not within 1e-9 of an integer")
        table = nearest.astype(np.int64)
        table.flags.writeable = False
        return table

    def character(self, k: int) -> "DirichletCharacter":
        return DirichletCharacter(self, k % (self.q - 1))


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


def _geometric_row(r: int, n: int, q: int) -> np.ndarray:
    """r^i mod q for i = 0..n-1, as int64."""
    row = [1] * n
    for i in range(1, n):
        row[i] = row[i - 1] * r % q
    return np.array(row, dtype=np.int64)


@lru_cache(maxsize=64)
def build_group(q: int) -> CharacterGroup:
    return CharacterGroup(q)


def enumerate_even_primitive(group: CharacterGroup) -> list[DirichletCharacter]:
    """Even nontrivial characters, ascending index: k = 2, 4, ..., q-3."""
    return [group.character(k) for k in range(2, group.q - 2, 2)]


def phi_plus(q: int) -> int:
    """Size of the even primitive family mod a prime q."""
    return (q - 3) // 2


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
