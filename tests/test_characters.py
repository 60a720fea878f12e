"""Character group mod a prime: values, orthogonality over the even family,
Gauss sums, root numbers and their factorization over a product of moduli."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lmoll.arith import PrincipalCharacter, RealCharacter, factor, primes_up_to
from lmoll.characters import (
    CharacterGroup,
    build_group,
    enumerate_even_primitive,
    epsilon,
    epsilon_product_direct,
    epsilon_product_factored,
    gauss_sum,
    phi_plus,
)
from lmoll.lvalues import _family_L
from oracles import epsilon_pair_sum, even_family_pair_sum


def test_build_group_validation():
    for bad in (4, 9, 10**5 + 3, 91, 3):
        with pytest.raises(ValueError):
            build_group(bad)


def test_group_structure_small():
    G = build_group(7)
    assert G.g == 3  # least primitive root mod 7
    chars = [G.character(k) for k in range(6)]
    assert len(chars) == 6
    triv = G.character(0)
    assert all(triv(n) == 1 for n in range(1, 7))
    assert triv(7) == 0


def test_enumerate_even_primitive():
    for q in (5, 7, 11, 29, 101):
        G = build_group(q)
        fam = enumerate_even_primitive(G)
        assert len(fam) == phi_plus(q) == (q - 3) // 2
        ks = [chi.k for chi in fam]
        assert ks == sorted(ks)
        for chi in fam:
            assert chi.is_even and not chi.is_trivial
            assert abs(chi(-1) - 1) < 1e-12
            assert abs(chi(q - 1) - 1) < 1e-12


def test_character_multiplicative_exhaustive():
    # full multiplication table for every character, q <= 101
    for q in (5, 13, 101):
        G = build_group(q)
        for chi in map(G.character, range(q - 1)):
            vals = chi.values()
            mn = np.outer(np.arange(q), np.arange(q)) % q
            assert np.max(np.abs(vals[mn] - np.outer(vals, vals))) < 1e-9


def test_character_order_divides_group_order():
    G = build_group(11)
    for chi in map(G.character, range(10)):
        prod = 1 + 0j
        for _ in range(10):
            prod *= chi(G.g)
        assert abs(prod - 1) < 1e-12


# (character, dtype of its residue table, |tau|^2): m for primitive chi, and
# for the principal character mod m the Ramanujan sum c_m(1) = mu(m) squared
RESIDUE_CHARACTERS = {
    "real-5": (RealCharacter(5), np.int8, 5),
    "real-65": (RealCharacter(65), np.int8, 65),
    "principal-1": (PrincipalCharacter(), np.int8, 1),
    "principal-12": (PrincipalCharacter(12), np.int8, 0),
    "dirichlet-29-5": (build_group(29).character(5), np.complex128, 29),
    "dirichlet-29-0": (build_group(29).character(0), np.complex128, 1),
}


@pytest.mark.parametrize("chi, dtype, tau_sq", RESIDUE_CHARACTERS.values(),
                         ids=RESIDUE_CHARACTERS.keys())
def test_residue_character_interface(chi, dtype, tau_sq):
    """Every character is its residue table: values_at reads it at n mod m,
    and gauss_sum and epsilon are its frequency-1 DFT, whatever the class."""
    m = chi.modulus
    vals = chi.values()
    assert len(vals) == m and vals.dtype == dtype
    rng = np.random.default_rng(m)
    n = np.concatenate((rng.integers(-10**6, 10**6, size=300), m * np.arange(-3, 4),
                        np.arange(-2 * m, 2 * m)))
    assert chi.values_at(n).tolist() == [chi(int(k)) for k in n]
    tau = gauss_sum(chi)
    assert abs(abs(tau) ** 2 - tau_sq) < 1e-10 * m
    if m == 1:
        assert tau == 1 + 0j
    # oracle: the frequency-1 DFT of the table written out; epsilon must
    # equal it over sqrt(m) bit for bit
    old = complex(np.dot(vals, np.exp(2j * np.pi * np.arange(m) / m))) / math.sqrt(m)
    eps = epsilon(chi)
    assert (eps.real.hex(), eps.imag.hex()) == (old.real.hex(), old.imag.hex())


def test_even_family_pair_sum_closed_form():
    # (q-3)/2 even nontrivial characters; the pair sum collapses to
    # phi/2 at m = +-n mod q, with -1 subtracted everywhere
    for q in (7, 11, 13, 29):
        G = build_group(q)
        phi = q - 1
        for m in range(1, q):
            for n in range(1, q):
                got = even_family_pair_sum(G, m, n)
                want = -1
                if (m - n) % q == 0:
                    want += phi // 2
                if (m + n) % q == 0:
                    want += phi // 2
                assert got == want, (q, m, n)


def test_even_family_pair_sum_rejects_divisible_args():
    G = build_group(7)
    with pytest.raises(ValueError):
        even_family_pair_sum(G, 7, 1)


@pytest.mark.parametrize("q", [5, 7, 11, 9973, 99991])
def test_dlog_matches_power_walk(q):
    # oracle: g^j by one multiply per step, as the table was first built;
    # 99991 is the largest prime under the cap 10^5
    G = CharacterGroup(q)
    want = np.full(q, -1, dtype=np.int64)
    powers = []
    acc = 1
    for j in range(q - 1):
        want[acc] = j
        powers.append(acc)
        acc = acc * G.g % q
    assert G.dlog.dtype == want.dtype and np.array_equal(G.dlog, want)
    assert np.array_equal(G.powers, powers)


# every prime below 2000, then larger ones up to the cap: 2^16 + 1 (q - 1 a
# power of two), safe primes (q - 1 = 2 * prime) and the largest two
PAIR_SUM_QS = [p for p in primes_up_to(2000) if p >= 5] + [9973, 65537, 99839, 99989, 99991]


def test_even_pair_sums_closed_form():
    # sum over even nontrivial chi of chi(m) conj(chi(n)) is
    # -1 + (q-1)/2 ([m = n] + [m = -n]); in delta = dlog m - dlog n that is
    # [delta = 0] and [delta = (q-1)/2], as -1 = g^((q-1)/2)
    for q in PAIR_SUM_QS:
        table = CharacterGroup(q).even_pair_sums
        want = np.full(q - 1, -1, dtype=np.int64)
        want[[0, (q - 1) // 2]] += (q - 1) // 2
        assert np.array_equal(table, want), q


def test_even_pair_sums_reject_non_integers(monkeypatch):
    G = CharacterGroup(13)
    plain = CharacterGroup.transform
    monkeypatch.setattr(CharacterGroup, "transform", lambda self, f: plain(self, f) + 2e-9)
    with pytest.raises(ArithmeticError, match="not within 1e-9 of an integer"):
        G.even_pair_sums


def test_transform_is_the_family_dft(monkeypatch):
    # _family_L's two rows are q^-s and (qD)^-s times the transform of the
    # rows it builds; the transform must give the bits of binning by dlog
    # and one inverse DFT along axis 1
    seen = []
    plain = CharacterGroup.transform

    def spy(self, f):
        seen.append(f.copy())
        return plain(self, f)

    monkeypatch.setattr(CharacterGroup, "transform", spy)
    for q, D, s in ((29, 5, 0.5), (101, 65, 0.5), (1009, 13, 0.75 + 2j)):
        G = build_group(q)
        plain_row, twisted_row = _family_L(s, q, RealCharacter(D))
        f = seen.pop()
        assert f.shape == (2, q - 1)
        by_dlog = np.empty((2, q - 1), dtype=f.dtype)
        by_dlog[:, G.dlog[1:]] = f[0], f[1]
        sums = np.fft.ifft(by_dlog, axis=1, norm="forward")
        assert (q ** -s * sums[0]).tobytes() == plain_row.tobytes()
        assert ((q * D) ** -s * sums[1]).tobytes() == twisted_row.tobytes()


@pytest.mark.parametrize("q", [5, 7, 11, 13, 9967, 9973])
def test_even_transform_matches_transform(q):
    # h = (q-1)/2 is 2, 3, 5, 6, 4983 and 4986: odd and even h, and at even
    # h the self-conjugate index j = h/2 (k = h).  Both sides are computed
    # DFTs of f; each has 2-norm error at most about 7 u log2(q) times the
    # 2-norm of the full transform, sqrt(q-1) |f|_2 (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., Thm 24.2), and the fold
    # adds one rounding per entry.  16 covers both sides with the fold; the
    # worst gap measured, in units of u log2(q) sqrt(q-1) |f|_2, is 0.4 over
    # 180 random rows at twelve primes q <= 99991.
    G = build_group(q)
    f = np.random.default_rng(q).standard_normal((3, q - 1))
    got = G.even_transform(f)
    want = G.transform(f)[..., 2::2]
    assert got.shape == want.shape == (3, phi_plus(q))
    bound = 16 * 2.0**-53 * math.log2(q) * math.sqrt(q - 1) * np.linalg.norm(f, axis=-1)
    assert np.all(np.linalg.norm(got - want, axis=-1) <= bound)
    with pytest.raises(TypeError, match="real f"):
        G.even_transform(f + 0j)


def test_gauss_sum_magnitude_and_conjugation():
    for q in (7, 13, 29):
        G = build_group(q)
        for chi in map(G.character, range(q - 1)):
            if chi.is_trivial:
                continue
            tau = gauss_sum(chi)
            assert abs(abs(tau) - math.sqrt(q)) < 1e-10
            tau_bar = gauss_sum(chi.group.character(-chi.k))
            assert abs(tau_bar - chi(-1) * np.conj(tau)) < 1e-10
            assert abs(abs(epsilon(chi)) - 1) < 1e-10


def test_real_character_gauss_sum_is_sqrt_d():
    for D in (5, 13, 17, 65):
        psi = RealCharacter(D)
        tau = gauss_sum(psi)
        assert abs(tau - math.sqrt(D)) < 1e-10
        assert abs(epsilon(psi) - 1) < 1e-10


PRIMES = [p for p in primes_up_to(500) if p >= 5]
SQUAREFREE_D = [D for D in range(5, 500, 4) if factor(D).is_squarefree()]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_gauss_sum_square_is_modulus_random(q, data):
    chi = build_group(q).character(data.draw(st.integers(1, q - 2)))
    assert abs(abs(gauss_sum(chi)) ** 2 - q) < 1e-10 * q


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SQUAREFREE_D))
def test_real_gauss_sum_square_is_modulus_random(D):
    assert abs(abs(gauss_sum(RealCharacter(D))) ** 2 - D) < 1e-10 * D


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PRIMES), st.sampled_from(SQUAREFREE_D), st.data())
def test_epsilon_factorization_random(q, D, data):
    assume(D % q != 0)
    chi = build_group(q).character(data.draw(st.integers(1, q - 2)))
    psi = RealCharacter(D)
    assert abs(epsilon_product_direct(chi, psi) - epsilon_product_factored(chi, psi)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_character_completely_multiplicative_random(q, data):
    # all integers, so multiples of q (value 0) and negatives are covered
    chi = build_group(q).character(data.draw(st.integers(0, q - 2)))
    m = data.draw(st.integers(-10**6, 10**6))
    n = data.draw(st.integers(-10**6, 10**6))
    assert abs(chi(m * n) - chi(m) * chi(n)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_even_family_orthogonality_random(q, data):
    # n is sometimes a lift of +-m, so both delta terms are exercised
    m = data.draw(st.integers(1, 10**6).filter(lambda v: v % q != 0))
    n = data.draw(st.integers(1, 10**6).filter(lambda v: v % q != 0)
                  | st.sampled_from((m, q - m % q)).map(lambda v: v + q * 17))
    want = (q - 1) // 2 * int((m - n) % q == 0 or (m + n) % q == 0) - 1
    assert even_family_pair_sum(build_group(q), m, n) == want


def test_epsilon_factorization():
    for q in (7, 11, 13, 29):
        G = build_group(q)
        for D in (5, 13, 17):
            if q == D:
                continue  # product route requires coprime moduli
            psi = RealCharacter(D)
            for chi in enumerate_even_primitive(G):
                lhs = epsilon_product_direct(chi, psi)
                rhs = epsilon_product_factored(chi, psi)
                assert abs(lhs - rhs) < 1e-10, (q, D, chi.k)


def test_epsilon_product_rejects_common_modulus():
    G = build_group(5)
    with pytest.raises(ValueError):
        epsilon_product_direct(G.character(2), RealCharacter(5))


def test_epsilon_pair_sum_two_routes():
    for q in (7, 11, 13, 29, 53):
        for D in (5, 13, 17):
            if q == D:
                continue
            G = build_group(q)
            direct, closed = epsilon_pair_sum(G, RealCharacter(D))
            assert abs(direct - closed) < 1e-8, (q, D)
            assert abs(direct) <= 3 * math.sqrt(q)
