"""Exact arithmetic layer: factorization, characters, divisor-type sums,
Ramanujan and Kloosterman sums."""

from __future__ import annotations

import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lmoll.arith import (
    FactoredInt,
    PrincipalCharacter,
    RealCharacter,
    dirichlet_convolution,
    divisors,
    euler_phi,
    eval_rho,
    factor,
    is_prime,
    kloosterman,
    kronecker,
    lacunary_partial_sum,
    mobius,
    one_star_psi,
    one_star_psi_table,
    primes_up_to,
    ramanujan_sum,
)


def test_factor_small():
    assert factor(1) == FactoredInt(1, ())
    assert factor(60).factors == ((2, 2), (3, 1), (5, 1))
    assert factor(2**10).factors == ((2, 10),)


def test_factor_large_prime():
    n = 10**9 + 7
    assert factor(n).factors == ((n, 1),)


def test_factor_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factor(p * q).factors == ((p, 1), (q, 1))


def test_factor_rejects_out_of_range():
    for bad in (0, -5, 2**63):
        with pytest.raises(ValueError):
            factor(bad)


def test_factored_int_validates():
    with pytest.raises(ValueError):
        FactoredInt(6, ((3, 1), (2, 1)))  # primes out of order
    with pytest.raises(ValueError):
        FactoredInt(6, ((2, 1),))  # wrong product


def test_factor_multiplicativity_exhaustive():
    # recombining prime powers reproduces n for all n <= 10^4
    for n in range(1, 10**4 + 1):
        f = factor(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_divisor_and_phi_helpers():
    assert divisors(28) == [1, 2, 4, 7, 14, 28]
    assert euler_phi(1) == 1
    assert euler_phi(10) == 4
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_primes_up_to():
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_kronecker_against_quadratic_residues():
    # against Euler's criterion for odd primes
    for p in (3, 5, 7, 11, 13, 101):
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert kronecker(a, p) == expected
        assert kronecker(p, p) == 0


def test_kronecker_two_and_signs():
    assert [kronecker(a, 2) for a in (1, 3, 5, 7)] == [1, -1, -1, 1]
    assert kronecker(-1, 5) == 1
    assert kronecker(-1, 7) == -1  # via (−1/7) = (−1)^3
    assert kronecker(2, 15) == 1
    assert kronecker(5, 15) == 0


def test_real_character_d5_values():
    psi = RealCharacter(5)
    assert [psi(n) for n in range(10)] == [0, 1, -1, -1, 1, 0, 1, -1, -1, 1]
    assert psi(-1) == 1  # even


def test_real_character_periodic_and_multiplicative():
    for D in (5, 13, 17, 65):
        psi = RealCharacter(D)
        tab = psi.values()
        for n in range(1, 3 * D):
            assert psi(n) == tab[n % D]
        for m in range(1, 40):
            for n in range(1, 40):
                assert psi(m * n) == psi(m) * psi(n)


def test_real_character_table_read_only_and_owned():
    # the table is built once per instance and dies with it; no cache keeps
    # a psi alive for the life of the process
    psi = RealCharacter(65)
    tab = psi.values()
    assert psi.values() is tab
    assert not tab.flags.writeable
    with pytest.raises(ValueError):
        tab[1] = 0
    ref = weakref.ref(psi)
    del psi, tab
    gc.collect()
    assert ref() is None


def test_real_character_rejects_bad_moduli():
    for bad in (1, 0, -5, 7, 12, 25, 45):  # wrong residue, not squarefree, tiny
        with pytest.raises(ValueError):
            RealCharacter(bad)


def test_real_character_cap_before_any_table():
    # values() would build a D-long table, one Kronecker symbol at a time
    tracemalloc.start()
    try:
        for D in (1_000_001, 1_000_000_001):
            with pytest.raises(ValueError, match="above the cap 10\\^6"):
                RealCharacter(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert RealCharacter(999_997).modulus == 999_997   # the largest below the cap


def test_one_star_psi_values():
    psi = RealCharacter(5)
    # (1*psi)(1)=1, (1*psi)(2)=1+psi(2)=0, (1*psi)(4)=1+psi(2)+psi(4)=1
    assert one_star_psi(psi, 1) == 1
    assert one_star_psi(psi, 2) == 0
    assert one_star_psi(psi, 4) == 1
    assert one_star_psi(psi, 5) == 1
    assert one_star_psi(psi, 11) == 2


def test_one_star_psi_against_direct_divisor_sum():
    for D in (5, 13):
        psi = RealCharacter(D)
        for n in range(1, 500):
            direct = sum(psi(d) for d in divisors(n))
            assert one_star_psi(psi, n) == direct
            assert direct >= 0


def test_one_star_psi_table_matches_pointwise():
    psi = RealCharacter(13)
    table = one_star_psi_table(psi, 2000)
    for n in range(1, 2001):
        assert table[n] == one_star_psi(psi, n)


# squarefree D = 1 (mod 4): the moduli of the even real characters
SQUAREFREE_D = [D for D in range(5, 400, 4) if factor(D).is_squarefree()]


@st.composite
def character_split(draw):
    """Character tables mod shared = (c, D) and mod D/shared over 0..limit, as
    in the Voronoi dual.  Splits whose factors carry odd characters (moduli
    3 mod 4) are left out; a factor of modulus 1 is the principal character."""
    D = draw(st.sampled_from(SQUAREFREE_D))
    shared = draw(st.sampled_from([d for d in divisors(D) if d % 4 == 1]))
    limit = draw(st.integers(1, 3000))
    dtype = draw(st.sampled_from((np.int64, np.float64)))
    n = np.arange(limit + 1)
    tables = []
    for m in (shared, D // shared):
        chi = PrincipalCharacter() if m == 1 else RealCharacter(m)
        tables.append(chi.values_at(n).astype(dtype))
    return tables[0], tables[1]


@settings(max_examples=30, deadline=None)
@given(character_split())
def test_dirichlet_convolution_is_pointwise_divisor_sum(fg):
    f, g = fg
    got = dirichlet_convolution(f, g)
    assert got.dtype == f.dtype and len(got) == len(f)
    for n in range(1, len(f)):
        assert got[n] == sum(f[d] * g[n // d] for d in divisors(n))


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(1, 3000), f_len=st.integers(1, 3100), seed=st.integers(0, 2**32 - 1))
@example(limit=1, f_len=2, seed=0)
@example(limit=2, f_len=3, seed=1)
@example(limit=3, f_len=4, seed=2)
@example(limit=4, f_len=5, seed=3)
@example(limit=2500, f_len=2501, seed=4)
@example(limit=2024, f_len=2025, seed=5)  # 45^2 - 1: the split just below a square
@example(limit=2025, f_len=46, seed=6)    # f ends at isqrt(limit) + 1
@example(limit=2025, f_len=47, seed=7)
def test_dirichlet_convolution_dense_int_is_pointwise_divisor_sum(limit, f_len, seed):
    """The integer path splits the pairs d*k <= limit at isqrt(limit); every
    entry must still be the full divisor sum, with f zero past its end."""
    rng = np.random.default_rng(seed)
    f = rng.integers(-5, 6, size=f_len)
    g = rng.integers(-5, 6, size=limit + 1)
    got = dirichlet_convolution(f, g)
    assert got.dtype == np.int64 and len(got) == limit + 1
    fl, gl = f.tolist(), g.tolist()
    for n in range(1, limit + 1):
        assert got[n] == sum(fl[d] * gl[n // d] for d in divisors(n) if d < f_len)
    # a caller's buffer holding garbage is zeroed first and filled in place
    out = rng.integers(-9, 10, size=limit + 1)
    assert dirichlet_convolution(f, g, out) is out and np.array_equal(out, got)


def test_dirichlet_convolution_rejects_mismatched_out():
    f, g = np.arange(5), np.arange(11)
    for out in (np.zeros(10, dtype=np.int64), np.zeros(11, dtype=np.float64)):
        with pytest.raises(ValueError):
            dirichlet_convolution(f, g, out)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SQUAREFREE_D), st.integers(1, 3000))
def test_one_star_psi_table_matches_pointwise_random_D(D, limit):
    psi = RealCharacter(D)
    table = one_star_psi_table(psi, limit)
    assert table.tolist() == [0] + [one_star_psi(psi, n) for n in range(1, limit + 1)]


def test_principal_character():
    chi0 = PrincipalCharacter(12)
    assert chi0.values().tolist() == [0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1]
    assert chi0.values().dtype == np.int8
    assert [chi0(n) for n in (-1, 5, 6, 25)] == [1, 1, 0, 1]
    trivial = PrincipalCharacter()
    assert trivial.modulus == 1 and trivial.is_trivial
    assert trivial(0) == trivial(-7) == 1


def test_eval_rho_values():
    psi = RealCharacter(5)
    assert eval_rho(psi, 1) == 1
    assert eval_rho(psi, 2) == -(1 + psi(2))  # = 0
    assert eval_rho(psi, 3) == 0
    assert eval_rho(psi, 7) == 0
    assert eval_rho(psi, 11) == -2
    assert eval_rho(psi, 4) == psi(2)  # = -1
    assert eval_rho(psi, 8) == 0  # cube
    assert eval_rho(psi, 5) == -1
    assert eval_rho(psi, 25) == 0


def test_rho_is_dirichlet_inverse():
    # sum_{d|n} rho(d) (1*psi)(n/d) = [n == 1] for n <= 10^4
    for D in (5, 17):
        psi = RealCharacter(D)
        for n in range(1, 10**4 + 1):
            s = sum(eval_rho(psi, d) * one_star_psi(psi, n // d) for d in divisors(n))
            assert s == (1 if n == 1 else 0), n


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SQUAREFREE_D), st.integers(1, 2000))
def test_rho_inverts_one_star_psi_by_convolution(D, limit):
    psi = RealCharacter(D)
    rho = np.array([0] + [eval_rho(psi, a) for a in range(1, limit + 1)], dtype=np.int64)
    delta = dirichlet_convolution(rho, one_star_psi_table(psi, limit))
    assert delta.tolist() == [0, 1] + [0] * (limit - 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SQUAREFREE_D), st.integers(1, 10**6), st.integers(1, 10**6))
def test_one_star_psi_and_rho_multiplicative_random(D, m, n):
    assume(math.gcd(m, n) == 1)
    psi = RealCharacter(D)
    assert one_star_psi(psi, m * n) == one_star_psi(psi, m) * one_star_psi(psi, n)
    assert eval_rho(psi, m * n) == eval_rho(psi, m) * eval_rho(psi, n)


def test_ramanujan_closed_forms():
    assert ramanujan_sum(1, 6) == mobius(6)
    assert ramanujan_sum(0, 6) == euler_phi(6)
    assert ramanujan_sum(4, 6) == -1  # mu(6)*1 + mu(3)*2 = 1 - 2
    assert ramanujan_sum(0, 1) == 1


def test_ramanujan_against_exponential_sum():
    for ell in list(range(1, 60)) + [128, 189, 300]:
        xs = np.array([x for x in range(ell) if math.gcd(x, ell) == 1])
        for r in range(-50, 51):
            direct = np.sum(np.exp(2j * np.pi * r * xs / ell)) if len(xs) else 1.0
            val = ramanujan_sum(r, ell)
            assert abs(direct - val) < 1e-8 * max(1, ell)
            assert abs(direct.imag) < 1e-9 * max(1, ell)


def test_kloosterman_small_closed_form():
    # x=2,3 invert each other mod 5 giving e(1)=1 twice; x=1,4 give e(2/5)+e(3/5)
    # so S(1,1;5) = 2 + 2 cos(4 pi/5) = (3 - sqrt 5)/2
    val = kloosterman(1, 1, 5)
    assert abs(val.imag) < 1e-12
    assert abs(val.real - (3 - math.sqrt(5)) / 2) < 1e-12


def test_kloosterman_degenerate_reductions():
    for c in (1, 2, 6, 12, 30):
        assert abs(kloosterman(0, 0, c) - euler_phi(c)) < 1e-9
    for ell in (1, 4, 9, 15, 210):
        assert abs(kloosterman(1, 0, ell) - mobius(ell)) < 1e-9
    for r in (-7, -1, 2, 9):
        for ell in (6, 10, 36):
            assert abs(kloosterman(r, 0, ell) - ramanujan_sum(r, ell)) < 1e-9


def test_kloosterman_real_and_symmetric():
    for m, n, c in [(1, 2, 7), (3, 5, 11), (2, 2, 9), (1, 1, 13)]:
        v = kloosterman(m, n, c)
        assert abs(v.imag) < 1e-10
        assert abs(v - kloosterman(n, m, c)) < 1e-10


def test_kloosterman_weil_bound():
    # |S(m,n;c)| <= tau(c) gcd(m,n,c)^(1/2) c^(1/2), via an independent
    # vectorized evaluation
    rng = np.random.default_rng(20240517)
    cs = list(range(1, 51)) + list(rng.integers(51, 201, size=25))
    for c in cs:
        c = int(c)
        xs = np.array([x for x in range(1, c + 1) if math.gcd(x, c) == 1] or [0])
        if c == 1:
            xs = np.array([0])
        xbars = np.array([pow(int(x), -1, c) if c > 1 else 0 for x in xs])
        tau_c = len(divisors(c))
        for m, n in [(1, 1), (-20, 3), (7, -7), (12, 18), (20, 20)]:
            direct = np.sum(np.exp(2j * np.pi * (m * xs + n * xbars) / c))
            val = kloosterman(m, n, c)
            assert abs(val - direct) < 1e-8 * c
            bound = tau_c * math.sqrt(math.gcd(m, math.gcd(n, c)) * c)
            assert abs(val) <= bound + 1e-8


def test_lacunary_partial_sum_small():
    psi = RealCharacter(5)
    assert lacunary_partial_sum(psi, 1.0) == 1.0
    # exact rational oracle up to 2000
    acc = Fraction(0)
    for n in range(1, 2001):
        acc += Fraction(one_star_psi(psi, n), n)
    assert abs(lacunary_partial_sum(psi, 2000.0) - float(acc)) < 1e-12


def test_lacunary_partial_sum_rejects_small_x():
    with pytest.raises(ValueError):
        lacunary_partial_sum(RealCharacter(5), 0.5)
