"""Shifted convolution tests: brute lattice sums against the arithmetic
main term, plus the shift-series, G-series, and H-kernel identities.

Frozen constants were produced by the exact fsum evaluations and an
independent dense outer-product oracle before being written down.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import zeta

from lmoll import offdiag
from lmoll.arith import RealCharacter, _mobius_table, factor
from lmoll.lvalues import oracle_L
from lmoll.offdiag import (
    _BUMP,
    ShiftedConvParams,
    _series_coeff,
    _series_sums,
    _series_tail,
    brute_shifted_conv,
    dirichlet_series_G,
    H_kernel,
    H_kernel_product_form,
    main_term,
    shifted_conv_r_decomposed,
    singular_series,
    singular_series_factored,
    singular_series_r_sum,
)
from oracles import (
    power_overlap_closed,
    ramanujan_column,
    ramanujan_sum,
    series_sum,
    series_terms,
    singular_series_term,
)

PSI5 = RealCharacter(5)
# squarefree D = 1 mod 4 below 200
SQUAREFREE_D = [D for D in range(5, 200, 4) if factor(D).is_squarefree()]

GOLDEN = dict(a=1, b=1, q=101, M=500.0, N=500.0, psi=PSI5)
GOLDEN_BOTH = 235.3561859024497
GOLDEN_PLUS = 67.97703012877889
GOLDEN_MINUS = 167.37915577367082


def spf_table(limit: int) -> np.ndarray:
    """Smallest-prime-factor table for 0..limit (limit capped at 10^7): the
    sieve the Moebius table was once built from, kept as its oracle."""
    if limit > 10**7:
        raise ValueError("spf table capped at 10^7")
    spf = np.zeros(limit + 1, dtype=np.int64)
    spf[1:] = np.arange(1, limit + 1)
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:  # p prime
            block = spf[p * p :: p]
            np.minimum(block, p, out=block)
    return spf


def per_r_main_term(params: ShiftedConvParams, L_max: int) -> tuple[float, float]:
    """main_term as a plain per-r loop: every series rebuilt for each
    (branch, r) and summed over all its terms, zeros included."""
    p = params
    a, b, q = p.a, p.b, p.q
    aM, bN = a * p.M, b * p.N
    L1 = oracle_L(1.0, p.psi).real
    pref = L1 * L1 / (a * b)
    r_cap = int(4 * (aM + bN) / q) + 1
    coeff, denom = _series_coeff(a, b, p.psi, L_max)
    terms: list[float] = []
    tail = 0.0
    for sgn in p.branches():
        lo1, hi1 = _BUMP.lo * aM, _BUMP.hi * aM
        for r in range(-r_cap, r_cap + 1):
            if r == 0:
                continue
            if sgn == 1:
                lo2, hi2 = q * r + _BUMP.lo * bN, q * r + _BUMP.hi * bN
            else:
                lo2, hi2 = q * r - _BUMP.hi * bN, q * r - _BUMP.lo * bN
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi <= lo:
                continue

            def integrand(x: float, _r=r, _sgn=sgn) -> float:
                first = _BUMP(x / aM)
                second = _BUMP((x - q * _r) / bN if _sgn == 1 else (q * _r - x) / bN)
                return float(first) * float(second)

            integral = quad(integrand, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=200)[0]
            ss = math.fsum(memoryview(series_terms(coeff, denom, r)))
            terms.append(pref * ss * integral)
            tail += pref * _series_tail(a, b, r, p.psi.D, L_max) * abs(integral)
    return math.fsum(terms), tail


def dense_oracle(p: ShiftedConvParams) -> float:
    """Full m x n outer product, no residue stepping.  O(MN) memory."""
    from lmoll.arith import one_star_psi_table
    from lmoll.offdiag import _lattice_range

    m_lo, m_hi = _lattice_range(p.M)
    n_lo, n_hi = _lattice_range(p.N)
    tab = one_star_psi_table(p.psi, max(m_hi, n_hi)).astype(np.float64)
    m = np.arange(m_lo, m_hi + 1)
    n = np.arange(n_lo, n_hi + 1)
    w = np.outer(_BUMP(m / p.M) * tab[m], _BUMP(n / p.N) * tab[n])
    am = (p.a * m)[:, None]
    bn = (p.b * n)[None, :]
    off_diag = am != bn
    total = 0.0
    if p.sign in ("+", "both"):
        total += float(w[((am - bn) % p.q == 0) & off_diag].sum())
    if p.sign in ("-", "both"):
        total += float(w[((am + bn) % p.q == 0) & off_diag].sum())
    return total


class TestParams:
    def test_branch_encoding(self):
        assert ShiftedConvParams(**GOLDEN, sign="+").branches() == (1,)
        assert ShiftedConvParams(**GOLDEN, sign="-").branches() == (-1,)
        assert ShiftedConvParams(**GOLDEN).branches() == (1, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShiftedConvParams(2, 4, 7, 50.0, 50.0, PSI5)     # not coprime
        with pytest.raises(ValueError):
            ShiftedConvParams(5, 1, 7, 50.0, 50.0, PSI5)     # 5 | a
        with pytest.raises(ValueError):
            ShiftedConvParams(1, 1, 10, 50.0, 50.0, PSI5)    # composite q
        with pytest.raises(ValueError):
            ShiftedConvParams(3, 101, 101, 50.0, 50.0, PSI5)  # q | ab
        with pytest.raises(ValueError, match="q must not divide D"):
            ShiftedConvParams(1, 1, 5, 50.0, 50.0, PSI5)      # q = D
        with pytest.raises(ValueError, match="q must not divide D"):
            ShiftedConvParams(1, 1, 13, 50.0, 50.0, RealCharacter(65))  # q | D
        with pytest.raises(ValueError):
            ShiftedConvParams(1, 1, 7, 0.0, 50.0, PSI5)
        with pytest.raises(ValueError):
            ShiftedConvParams(1, 1, 7, 2e6, 50.0, PSI5)
        with pytest.raises(ValueError):
            ShiftedConvParams(1, 1, 7, 50.0, 50.0, PSI5, sign="x")
        # main_term walks about 4(aM + bN)/q shifts: 49,406 at a = 997, M = 2500
        for a, b in ((997, 1), (1, 997)):
            with pytest.raises(ValueError, match="a M and b N must be at most 1e6"):
                ShiftedConvParams(a, b, 7, 2500.0, 2500.0, PSI5)
        assert ShiftedConvParams(4, 1, 7, 2.5e5, 1e6, PSI5).a == 4   # both at the cap


class TestBruteSum:
    def test_golden_value(self):
        assert abs(brute_shifted_conv(ShiftedConvParams(**GOLDEN)) - GOLDEN_BOTH) < 1e-10

    def test_sign_split(self):
        plus = brute_shifted_conv(ShiftedConvParams(**GOLDEN, sign="+"))
        minus = brute_shifted_conv(ShiftedConvParams(**GOLDEN, sign="-"))
        assert abs(plus - GOLDEN_PLUS) < 1e-10
        assert abs(minus - GOLDEN_MINUS) < 1e-10
        assert abs((plus + minus) - GOLDEN_BOTH) < 1e-10

    def test_matches_dense_oracle(self):
        p = ShiftedConvParams(1, 2, 7, 120.0, 95.0, PSI5)
        got = brute_shifted_conv(p)
        assert abs(got - dense_oracle(p)) < 1e-12 * abs(got)

    def test_r_route_identical(self):
        # every pair lands in exactly one r per branch, so the per-m term
        # multisets coincide and the two routes agree bit for bit
        p = ShiftedConvParams(**GOLDEN)
        assert shifted_conv_r_decomposed(p) == brute_shifted_conv(p)

    def test_empty_when_modulus_exceeds_box(self):
        p = ShiftedConvParams(1, 1, 211, 25.0, 25.0, PSI5)
        assert brute_shifted_conv(p) == 0.0
        assert shifted_conv_r_decomposed(p) == 0.0

    def test_swap_symmetry(self):
        # a*m = -+ b*n is symmetric under (a, M) <-> (b, N) for sign "both"
        p1 = ShiftedConvParams(2, 3, 11, 301.0, 203.0, PSI5)
        p2 = ShiftedConvParams(3, 2, 11, 203.0, 301.0, PSI5)
        s1, s2 = brute_shifted_conv(p1), brute_shifted_conv(p2)
        assert abs(s1 - s2) < 1e-9 * abs(s1)


class TestSingularSeries:
    def test_first_term_is_one(self):
        for a, b, r in [(1, 1, 1), (2, 3, 5), (4, 9, -7)]:
            assert singular_series_term(a, b, r, PSI5, 1) == 1.0

    def test_hand_term_ell_six(self):
        # ell = 6 at (a, b, r) = (2, 3, 1): ell_a = 3, ell_b = 2, both psi
        # values -1, c_6(1) = mu(6) = 1, so the term is 1/6 exactly
        assert singular_series_term(2, 3, 1, PSI5, 6) == 1.0 / 6.0

    def test_ramanujan_column_matches_scalar(self):
        col = ramanujan_column(12, 50)
        for ell in range(1, 51):
            assert col[ell - 1] == ramanujan_sum(12, ell)

    def test_spf_oracle_agrees_with_factor(self):
        spf = spf_table(10**4)
        for n in range(2, 10**4 + 1):
            assert spf[n] == factor(n).factors[0][0]

    def test_mobius_table_matches_smallest_prime_factor_recursion(self):
        limit = 10**5
        spf = spf_table(limit)
        mu = np.ones(limit + 1, dtype=np.int64)
        for n in range(2, limit + 1):
            p = int(spf[n])
            m = n // p
            mu[n] = 0 if m % p == 0 else -mu[m]
        got = _mobius_table(limit)
        assert got.dtype == mu.dtype and np.array_equal(got, mu)
        for small in range(1, 50):
            assert np.array_equal(_mobius_table(small), mu[: small + 1])

    def test_truncations_consistent(self):
        v1, t1 = singular_series(1, 1, 1, PSI5, L_max=10000)
        v2, t2 = singular_series(1, 1, 1, PSI5, L_max=100000)
        assert abs(v1 - v2) <= t1 + t2
        assert t2 < t1

    @pytest.mark.parametrize("a,b,r,D", [
        (1, 1, 1, 5), (1, 1, 2, 5), (1, 1, -3, 5), (2, 3, 7, 5),
        (4, 9, 7, 5), (1, 1, 1, 65), (2, 3, 7, 65), (12, 35, 11, 13),
    ])
    def test_factored_route_agrees(self, a, b, r, D):
        psi = RealCharacter(D)
        value, tail = singular_series(a, b, r, psi, L_max=100000)
        assert abs(value - singular_series_factored(a, b, r, psi)) <= tail

    def test_factored_route_preconditions(self):
        # r = 4 (not squarefree) and r = 5 (shares a factor with D) are valid
        for r in (4, 5):
            value, tail = singular_series(1, 1, r, PSI5, L_max=100000)
            assert abs(value - singular_series_factored(1, 1, r, PSI5)) <= tail
        with pytest.raises(ValueError):
            singular_series_factored(1, 1, 0, PSI5)

    @settings(max_examples=25, deadline=None)
    @given(a=st.integers(1, 40), b=st.integers(1, 40),
           r=st.integers(1, 400), negate=st.booleans(), D=st.sampled_from(SQUAREFREE_D))
    @example(a=4, b=9, r=72, negate=False, D=5)
    @example(a=10, b=3, r=125, negate=True, D=5)
    @example(a=1, b=1, r=360, negate=False, D=13)
    def test_factored_route_within_direct_tail(self, a, b, r, negate, D):
        # the factored value is exact; the direct sum truncated at L_max must
        # lie within its certified tail of it, for every nonzero r
        if math.gcd(a, b) != 1:
            a, b = a // math.gcd(a, b), b // math.gcd(a, b)
        r = -r if negate else r
        psi = RealCharacter(D)
        value, tail = singular_series(a, b, r, psi, L_max=100000)
        assert abs(value - singular_series_factored(a, b, r, psi)) <= tail

    @pytest.mark.parametrize("a,b,D", [(1, 1, 5), (2, 3, 13)])
    def test_series_sum_equals_fsum_over_all_terms(self, a, b, D):
        # the sums over gcd classes must be the fsum over every term of the
        # per-r route, for r and -r
        coeff, denom = _series_coeff(a, b, RealCharacter(D), 100000)
        rs = (1, 2, 7, 12, 36, 60, 97, 120, 210, 240, 243, 360, 384, 400)
        got = _series_sums(coeff, denom, rs)
        assert sorted(got) == sorted(rs)
        assert _series_sums(coeff, denom, [-r for r in rs]) == got
        for r in rs:
            assert got[r].hex() == series_sum(coeff, denom, r).hex()

    @pytest.mark.parametrize("a,b,D,limit", [(1, 1, 5, 1000), (1, 1, 5, 100000),
                                             (2, 3, 13, 1000), (4, 9, 5, 100000),
                                             (12, 35, 13, 1000), (7, 4, 21, 1000)])
    def test_series_sums_match_per_r_route(self, a, b, D, limit):
        # shifts past L_max, with many divisors, prime powers (of a prime
        # that divides D, a or b too) and their products, all in one call
        rs = (1, 210, 2310, 2 * 3 * 5 * 7 * 11 * 13, 16, 243, 625, 2**10, 3**7, 5**6,
              7**3, 101, 2 * limit, limit + 1, 3 * limit + 7, 2**4 * 3**3 * 5**2,
              D, D * D, a * b * D, -(limit - 1))
        coeff, denom = _series_coeff(a, b, RealCharacter(D), limit)
        got = _series_sums(coeff, denom, rs)
        for r in rs:
            assert got[abs(r)].hex() == series_sum(coeff, denom, r).hex(), r

    @pytest.mark.parametrize("a,b,D,limit", [(1, 1, 5, 100000), (2, 3, 13, 100000),
                                             (7, 4, 21, 1000), (9, 10, 5, 449),
                                             (3, 1, 129, 2000)])
    def test_series_coeff_matches_direct_construction(self, a, b, D, limit):
        # the construction over every ell, before the numerator was tiled
        # from one period of abD and ell_a ell_b taken as ell^2/((a,ell)(b,ell))
        tab = RealCharacter(D).values()
        ell = np.arange(1, limit + 1, dtype=np.int64)
        ga, gb = np.gcd(ell, a), np.gcd(ell, b)
        ell_a, ell_b = ell // ga, ell // gb
        chi_red = tab[(a // ga) % D].astype(np.int64) * tab[(b // gb) % D]
        deep = np.gcd(ell_a, ell_b) % D == 0
        want = tab[ell_a % D] * tab[ell_b % D] + np.where(deep, D * chi_red, 0)
        coeff, denom = _series_coeff(a, b, RealCharacter(D), limit)
        assert coeff.dtype == np.int64 and np.array_equal(coeff, want)
        assert denom.dtype == np.float64
        assert np.array_equal(denom, (ell_a * ell_b).astype(np.float64))

    def test_workspace_series_is_bit_identical_for_every_r_of_main_term(self, monkeypatch):
        # the seed-0 shifted-conv case: the one _series_sums call of
        # main_term, against each series built and summed on its own
        coeff, denom = _series_coeff(1, 1, PSI5, 100000)
        seen = []

        def checked(c, d, rs):
            got = _series_sums(c, d, rs)
            for r in rs:
                assert got[abs(r)].hex() == series_sum(coeff, denom, r).hex()
            seen.append(sorted(got))
            return got

        monkeypatch.setattr(offdiag, "_series_sums", checked)
        main_term(ShiftedConvParams(a=1, b=1, q=101, M=2500.0, N=2500.0, psi=PSI5))
        assert seen == [[*range(1, 25), *range(50, 100)]]

    def test_workspace_series_at_large_shifts(self):
        # |r| up to r_cap = 793 of M = N = 10^4, q = 101, across the sieve's
        # split at isqrt(L_max) = 316
        coeff, denom = _series_coeff(1, 1, PSI5, 100000)
        rs = (793, 1, 720, 316, -317, 792, 510)
        got = _series_sums(coeff, denom, rs)
        for r in rs:
            assert got[abs(r)].hex() == series_sum(coeff, denom, r).hex()

    def test_main_term_series_memory_is_linear_in_L_max(self, monkeypatch):
        # 1,188 distinct |r| up to 1,584, their series summed one row of a
        # gcd class at a time: the peak (6.1 MB) is a few length-L_max
        # arrays, not one per shift, nor one per class g (12 MB).  The
        # integrals are stubbed: quad holds O(_OVERLAP_BLOCK) whatever L_max
        # is, and tracing its Python loop takes seconds
        monkeypatch.setattr(offdiag, "quad", lambda f, los, his, **kw: [(1.0, 0.0)] * len(los))
        p = ShiftedConvParams(a=1, b=1, q=101, M=40000.0, N=40000.0, psi=PSI5)
        L_max = 100000
        _mobius_table(L_max)  # the sieve's lru cache holds it either way
        tracemalloc.start()
        try:
            main_term(p, L_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 8 * L_max

    def test_guards(self):
        with pytest.raises(ValueError):
            singular_series(1, 1, 0, PSI5)
        with pytest.raises(ValueError):
            singular_series(1, 1, 1, PSI5, L_max=999)
        with pytest.raises(ValueError):
            singular_series_term(1, 1, 1, PSI5, 0)
        with pytest.raises(ValueError):
            singular_series(2, 4, 1, PSI5)


class TestGSeries:
    @pytest.mark.parametrize("a,b,D", [
        (1, 1, 5), (2, 3, 5), (4, 9, 5), (1, 1, 65), (6, 25, 13),
    ])
    def test_value_at_one(self, a, b, D):
        # the closed form has no truncation, so this is 6/pi^2 to roundoff
        got = dirichlet_series_G(a, b, 1.0, RealCharacter(D))
        assert abs(got - 6.0 / math.pi**2) < 1e-12

    def test_guards(self):
        with pytest.raises(ValueError):
            dirichlet_series_G(2, 4, 1.0, PSI5)
        with pytest.raises(ValueError):
            dirichlet_series_G(1, 1, 0.5, PSI5)


class TestRSum:
    def test_matches_per_r_route(self):
        R = 50
        swapped, _ = singular_series_r_sum(1, 1, R, PSI5)
        direct = math.fsum(
            singular_series(1, 1, r, PSI5)[0] / r**2 for r in range(1, R + 1)
        )
        # measured difference is exactly zero; allow roundoff headroom
        assert abs(swapped - direct) < 1e-13

    def test_truncation_error_halves(self):
        target = dirichlet_series_G(1, 1, 2.0, PSI5).real * zeta(2) * zeta(3)
        e1 = abs(singular_series_r_sum(1, 1, 1000, PSI5, L_max=200000)[0] - target)
        e2 = abs(singular_series_r_sum(1, 1, 2000, PSI5, L_max=200000)[0] - target)
        assert abs(e1 - 9.985641e-4) < 1e-9
        assert 0.45 < e2 / e1 < 0.55

    def test_guards(self):
        with pytest.raises(ValueError):
            singular_series_r_sum(1, 1, 0, PSI5)
        with pytest.raises(ValueError):
            singular_series_r_sum(1, 1, 10, PSI5, L_max=10)


H_GRID = [
    (0.1, 0.2),
    (0.35, -0.05),
    (-0.2, 0.45),
    (0.3 + 0.2j, 0.1 - 0.05j),
    (0.05 + 0.6j, 0.05 - 0.6j),
]


class TestHKernel:
    @pytest.mark.parametrize("u,v", H_GRID)
    def test_sum_matches_product_form(self, u, v):
        s = H_kernel(u, v)
        assert abs(s - H_kernel_product_form(u, v)) <= 1e-10 * max(1.0, abs(s))

    @pytest.mark.parametrize("v", [0.1, 0.2])
    def test_zero_line(self, v):
        assert abs(H_kernel(1.0 - v, v)) < 1e-10

    def test_symmetric(self):
        assert abs(H_kernel(0.11, 0.27) - H_kernel(0.27, 0.11)) < 1e-14

    def test_pole_guards(self):
        with pytest.raises(ValueError):
            H_kernel(0.3, -0.3)
        with pytest.raises(ValueError):
            H_kernel(-0.6, -0.4)
        with pytest.raises(ValueError):
            H_kernel(0.5, 0.1)


def power_overlap_integral(T: float, u: float, v: float) -> float:
    """Oracle for power_overlap_closed: quadrature of
    int_{x>T} x^{-(1/2+u)} (x-T)^{-(1/2+v)} dx.

    The endpoint singularity is removed by x = T + z^2 on the near piece;
    the far piece decays like x^{-1-u-v}.  Needs 0 < v < 1/2 and u + v > 0.
    """
    if not (T > 0 and 0 < v < 0.5 and u + v > 0):
        raise ValueError("need T > 0, 0 < v < 1/2, u + v > 0")

    def near(z: float) -> float:
        x = T + z * z
        return 2.0 * x ** (-(0.5 + u)) * z ** (-2.0 * v)

    def far(x: float) -> float:
        return x ** (-(0.5 + u)) * (x - T) ** (-(0.5 + v))

    first = quad(near, 0.0, math.sqrt(T), epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    second = quad(far, 2.0 * T, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    return first + second


class TestOverlapIntegral:
    @pytest.mark.parametrize("T,u,v", [(2.0, 0.1, 0.1), (0.5, 0.3, 0.25)])
    def test_quadrature_matches_closed_form(self, T, u, v):
        got = power_overlap_integral(T, u, v)
        assert abs(got - power_overlap_closed(T, u, v)) < 1e-8

    def test_guards(self):
        for bad in [(0.0, 0.1, 0.1), (1.0, 0.1, 0.6), (1.0, -0.2, 0.1)]:
            with pytest.raises(ValueError):
                power_overlap_integral(*bad)
            with pytest.raises(ValueError):
                power_overlap_closed(*bad)


class TestMainTerm:
    def test_empty_box(self):
        value, tail = main_term(ShiftedConvParams(1, 1, 211, 25.0, 25.0, PSI5))
        assert value == 0.0 and tail == 0.0

    def test_swap_symmetry(self):
        v1, _ = main_term(ShiftedConvParams(2, 3, 11, 301.0, 203.0, PSI5))
        v2, _ = main_term(ShiftedConvParams(3, 2, 11, 203.0, 301.0, PSI5))
        assert abs(v1 - v2) < 1e-8 * abs(v1)

    def test_tracks_brute_sum(self):
        # fluctuations around the main term shrink slowly, roughly like
        # M^(-1/3); at this scale the measured deviation is 0.27%
        p = ShiftedConvParams(1, 1, 101, 2500.0, 2500.0, PSI5)
        brute = brute_shifted_conv(p)
        value, tail = main_term(p)
        assert abs(brute - value) / brute < 0.02
        assert 0.0 < tail < 0.01 * brute

    @pytest.mark.parametrize("sign", ["+", "-", "both"])
    @pytest.mark.parametrize("a,b,D", [(1, 1, 5), (2, 3, 5), (1, 1, 13), (2, 3, 13), (1, 5, 13)])
    def test_bits_equal_per_r_loop(self, sign, a, b, D):
        # one series per |r|, summed over its nonzero terms, against the
        # plain per-r loop: value and tail must agree to the last bit
        p = ShiftedConvParams(a, b, 11, 40.0, 30.0, RealCharacter(D), sign=sign)
        got = main_term(p, L_max=5000)
        want = per_r_main_term(p, L_max=5000)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert got[0] != 0.0

    @pytest.mark.parametrize("block", [1, 3, 1000])
    def test_bits_equal_per_r_loop_across_blocks(self, monkeypatch, block):
        # the shifts split into blocks of the quadrature in any way: the
        # integrals, so the terms and the tail, keep their order and bits
        monkeypatch.setattr(offdiag, "_OVERLAP_BLOCK", block)
        p = ShiftedConvParams(2, 3, 11, 40.0, 30.0, PSI5)
        got = main_term(p, L_max=5000)
        want = per_r_main_term(p, L_max=5000)
        assert [x.hex() for x in got] == [x.hex() for x in want]
