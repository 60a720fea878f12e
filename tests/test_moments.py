"""Mollifier, moment, census, and Euler-product tests.

Frozen constants here were produced by the exact enumerations and the
Hurwitz-zeta oracle route before being written down.
"""
from __future__ import annotations

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmoll.arith import (
    RealCharacter,
    _cpow,
    divisors,
    eval_rho,
    factor,
    kloosterman,
    primes_up_to,
)
from lmoll.characters import build_group, enumerate_even_primitive, epsilon, phi_plus
from lmoll.lvalues import (
    AFEConfig,
    _budgeted_tables,
    _family_L,
    afe_central,
    default_config,
    hurwitz_zeta_vec,
    oracle_L,
    oracle_products_at,
)
from lmoll.moments import (
    EulerProductFamily,
    MollifierTable,
    MomentReport,
    _kloosterman_row,
    _restricted_inverse_triple_sums,
    build_mollifier,
    census,
    eval_mollifier,
    euler_product,
    first_moment_by_orthogonality,
    g_family_eval,
    lacunary_divisor_sum,
    mollified_moments,
    restricted_divisor_product_check,
    restricted_divisor_product_residuals,
    tau4_prime_power,
    tau4_table,
)
from lmoll.reduction import fsum_complex
from lmoll.special import eval_weight

PSI5 = RealCharacter(5)

SQUAREFREE_1MOD4 = [5, 13, 17, 21, 29, 33, 37, 41, 53, 57, 61, 65, 69, 73, 77,
                    85, 89, 93, 97]
SHIFT_GRID = [-0.2, 0.0, 0.3]


class TestMollifier:
    def test_table_small(self):
        table = build_mollifier(PSI5, 10)
        assert table.a.tolist() == [1, 4, 9] and table.rho.tolist() == [1, -1, -1]

    def test_table_25(self):
        table = build_mollifier(PSI5, 25)
        assert table.a.tolist() == [1, 4, 9, 11, 19]
        assert table.rho.tolist() == [1, -1, -1, -2, -2]

    def test_invariants(self):
        psi = RealCharacter(65)
        table = build_mollifier(psi, 200)
        assert table.a[0] == 1 and table.rho[0] == 1
        assert np.all(np.diff(table.a) > 0)
        for a, r in zip(table.a.tolist(), table.rho.tolist()):
            assert a % 65 != 0
            assert all(e <= 2 for _, e in factor(a).factors)
            assert r == eval_rho(psi, a)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            build_mollifier(PSI5, 0)

    def test_eval_at_trivial_cutoff(self):
        group = build_group(13)
        table = build_mollifier(PSI5, 1)
        for chi in enumerate_even_primitive(group):
            assert eval_mollifier(table, chi) == 1.0

    # sha256 of eval_mollifier over every even chi mod 101 (k = 0, 2, .., 98):
    # moments payloads show only the sums over the family, so the bits of
    # each value are frozen here
    @pytest.mark.parametrize("X,digest", [
        (25, "bc52b8a58cea71450fadab55f71981d40d920f0fc4b4ca476565f4068d759cff"),
        (10, "e938eae76ddd071b4d37ecc6c2e35b8dc66b1488264ed5c937e8057549df96d8"),
    ])
    def test_eval_bits_frozen(self, X, digest):
        group = build_group(101)
        table = build_mollifier(PSI5, X)
        vals = np.array([eval_mollifier(table, group.character(k)) for k in range(0, 100, 2)])
        assert hashlib.sha256(vals.tobytes()).hexdigest() == digest


class TestMomentReport:
    def test_json_keys_exact(self):
        rep = mollified_moments(13, PSI5, 1)
        payload = rep.record()
        assert set(payload) == {"q", "D", "X", "s1_re", "s1_im", "s2", "ratio",
                                "census_nonzero", "phi_plus"}
        assert payload["q"] == 13 and payload["D"] == 5 and payload["X"] == 1
        assert payload["phi_plus"] == phi_plus(13)
        assert payload["s1_re"] == rep.s1.real

    def test_ratio_bounds_enforced(self):
        with pytest.raises(ValueError):
            MomentReport(q=13, D=5, X=1, s1=0j, s2=1.0, ratio=1.1,
                         census_nonzero=0)
        with pytest.raises(ValueError):
            MomentReport(q=13, D=5, X=1, s1=0j, s2=1.0, ratio=0.5,
                         census_nonzero=99)

    def test_moment_guards(self):
        with pytest.raises(ValueError):
            mollified_moments(12, PSI5, 5)       # composite modulus
        with pytest.raises(ValueError):
            mollified_moments(13, RealCharacter(13), 5)  # shared modulus
        with pytest.raises(ValueError):
            mollified_moments(13, PSI5, 14)      # cutoff beyond modulus


class TestMoments:
    def test_degenerate_cutoff_reduces_to_plain_sum(self):
        rep = mollified_moments(13, PSI5, 1)
        direct = fsum_complex([
            afe_central(chi, PSI5).L_central
            for chi in enumerate_even_primitive(build_group(13))
        ])
        assert abs(rep.s1 - direct) < 1e-12

    @pytest.mark.parametrize("q", [29, 53])
    def test_ratio_in_unit_interval(self, q):
        rep = mollified_moments(q, PSI5, 10)
        assert 0.0 <= rep.ratio <= 1.0 + 1e-9
        assert rep.census_nonzero <= phi_plus(q)

    @pytest.mark.parametrize("q,X", [(53, 10), (53, 25), (101, 10), (101, 25)])
    def test_first_moment_two_routes(self, q, X):
        s1_characters = mollified_moments(q, PSI5, X).s1
        s1_orthogonality = first_moment_by_orthogonality(q, PSI5, X)
        assert abs(s1_characters - s1_orthogonality) < 1e-6

    def test_first_moment_by_orthogonality_bits_frozen(self):
        # in no payload, so frozen here: q = 101, D = 5, X = 25
        s1 = first_moment_by_orthogonality(101, PSI5, 25)
        assert (s1.real.hex(), s1.imag.hex()) == ("0x1.2bad8497ff8c4p+5",
                                                  "-0x1.650da7f97be74p-50")

    def test_first_moment_by_orthogonality_checks_tail_budget(self):
        # the orthogonality route reads the same truncated columns as
        # afe_central, so a config whose certified tail is over budget must
        # raise here too; the default config still agrees with the afe route
        cfg = default_config(13, 5)
        short = AFEConfig(Q=cfg.Q, n_max=math.ceil(cfg.Q))
        with pytest.raises(ValueError, match="exceeds budget"):
            first_moment_by_orthogonality(13, PSI5, 5, short)
        with pytest.raises(ValueError, match="exceeds budget"):
            afe_central(build_group(13).character(2), PSI5, short)
        s1_characters = mollified_moments(13, PSI5, 5).s1
        assert abs(first_moment_by_orthogonality(13, PSI5, 5) - s1_characters) < 1e-12

    def test_first_moment_by_orthogonality_checks_Q(self):
        # a config whose Q is not q sqrt(D)/pi gives wrong weights (3.4997
        # here against 2.8118), so both routes must refuse it alike
        cfg = default_config(13, 5)
        wrong_Q = AFEConfig(Q=1.5 * cfg.Q, n_max=cfg.n_max)
        with pytest.raises(ValueError, match=r"cfg\.Q inconsistent with q sqrt\(D\)/pi"):
            first_moment_by_orthogonality(13, PSI5, 5, wrong_Q)
        with pytest.raises(ValueError, match=r"cfg\.Q inconsistent with q sqrt\(D\)/pi"):
            afe_central(build_group(13).character(2), PSI5, wrong_Q)

    def test_kloosterman_row_matches_scalar(self):
        for q in (13, 101):
            row = _kloosterman_row(q)
            for w in range(q):
                assert abs(row[w] - kloosterman(1, w, q)) < 1e-12, (q, w)


def census_full_sum(q, psi):
    """zeta(1/2, a/q) for a = 1..q-1, and the whole modulus-qD Hurwitz sum
    at once, every b in [1, qD) included, grouped by b mod q."""
    D = psi.D
    a = np.arange(1, q, dtype=np.float64)
    z_plain = hurwitz_zeta_vec(0.5, a / q)
    b = np.arange(1, q * D, dtype=np.int64)
    psivals = psi.values_at(b).astype(np.float64)
    zb = hurwitz_zeta_vec(0.5, b.astype(np.float64) / (q * D))
    grouped = np.zeros(q, dtype=np.float64)
    np.add.at(grouped, b % q, psivals * zb)
    return z_plain, grouped


def census_values_by_loop(q, psi):
    """Reference for census's values: the full sum, then one length-q dot
    product per character."""
    D = psi.D
    z_plain, grouped = census_full_sum(q, psi)
    twisted = grouped[1:]
    plain, twist = [], []
    for chi in enumerate_even_primitive(build_group(q)):
        chivals = chi.values()[1:]
        plain.append(q ** -0.5 * np.dot(chivals, z_plain))
        twist.append((q * D) ** -0.5 * np.dot(chivals, twisted))
    return np.array(plain), np.array(twist)


class TestCensus:
    @pytest.mark.parametrize("q", [13, 101])
    def test_matches_per_character_oracle(self, q):
        counts = census(q, PSI5, 1e-8)
        nprod = nplain = 0
        ref_plain, ref_twist = census_values_by_loop(q, PSI5)
        for chi, product in zip(enumerate_even_primitive(build_group(q)),
                                ref_plain * ref_twist):
            if abs(oracle_L(0.5, chi)) > 1e-8:
                nplain += 1
            if abs(product) > 1e-8:
                nprod += 1
        assert counts == (nprod, nplain)

    @pytest.mark.parametrize("q,D", [(13, 5), (101, 5), (101, 13), (1009, 5),
                                     (1009, 13)])
    def test_fft_matches_per_character_loop(self, q, D):
        psi = RealCharacter(D)
        plain, twist = (v[2:q - 2:2] for v in _family_L(0.5, q, psi))
        ref_plain, ref_twist = census_values_by_loop(q, psi)
        assert plain.shape == twist.shape == (phi_plus(q),)
        assert np.max(np.abs(plain - ref_plain)) < 1e-12
        assert np.max(np.abs(twist - ref_twist)) < 1e-12

    @pytest.mark.parametrize("q,D", [(13, 5), (101, 65), (13, 101), (1009, 13)])
    def test_crt_rows_visit_each_unit_once(self, q, D, monkeypatch):
        # every b < qD with psi(b) != 0 and q not dividing b, each exactly
        # once, and each row laid out by residue r = 1..q-1
        calls = []

        def recording(s, x):
            calls.append(np.array(x))
            return hurwitz_zeta_vec(s, x)

        monkeypatch.setattr("lmoll.lvalues.hurwitz_zeta_vec", recording)
        psi = RealCharacter(D)
        _family_L(0.5, q, psi)
        # calls[0] is the plain sum's zeta(1/2, a/q); the rest are CRT rows
        rows = np.concatenate([np.reshape(x, (-1, q - 1)) for x in calls[1:]])
        b = np.rint(rows * (q * D)).astype(np.int64)
        assert np.array_equal(rows, b / (q * D))
        assert np.all(b % q == np.arange(1, q))
        everything = np.arange(1, q * D)
        wanted = everything[(psi.values_at(everything) != 0) & (everything % q != 0)]
        assert np.array_equal(np.sort(b, axis=None), wanted)

    @pytest.mark.parametrize("q,D", [(101, 65), (13, 101)])
    def test_counts_match_oracle_at_composite_and_large_D(self, q, D):
        psi = RealCharacter(D)
        family = enumerate_even_primitive(build_group(q))
        plain = [oracle_L(0.5, chi) for chi in family]
        ref_plain, ref_twist = census_values_by_loop(q, psi)
        product = ref_plain * ref_twist
        for threshold in (1e-8, 0.5, 1.0):
            want = (sum(abs(v) > threshold for v in product),
                    sum(abs(v) > threshold for v in plain))
            assert census(q, psi, threshold) == want

    def test_qD_cap_before_any_table(self, monkeypatch):
        # q D <= 10^8: 9973 * 10021 = 99,939,433 reaches the sum (stubbed
        # here), 9973 * 10029 = 100,019,217 and 9973 * 999997 do not
        monkeypatch.setattr("lmoll.moments._family_L",
                            lambda s, q, psi: (np.ones(q - 1), np.ones(q - 1)))
        assert census(9973, RealCharacter(10021), 1e-8) == (phi_plus(9973),) * 2

        def fail(s, q, psi):
            raise AssertionError("census summed past its cap")

        monkeypatch.setattr("lmoll.moments._family_L", fail)
        for D in (10029, 999997):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="census limited to q D <= 10"):
                    census(9973, RealCharacter(D), 1e-8)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024

    def test_block_size_does_not_change_bits(self, monkeypatch):
        psi = RealCharacter(13)
        whole = _family_L(0.5, 1009, psi)
        monkeypatch.setattr("lmoll.lvalues._FAMILY_BLOCK", 1000)
        blocked = _family_L(0.5, 1009, psi)
        assert all(np.array_equal(x, y) for x, y in zip(whole, blocked))

    def test_memory_bounded_by_block(self):
        # the modulus-qD range is 52012 long; held at once it peaks near 41 MB
        psi = RealCharacter(13)
        tracemalloc.start()
        try:
            census(4001, psi, 1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_family_29_fully_nonvanishing(self):
        # empirical census at this modulus: every central value clears 1e-8
        nprod, nplain = census(29, PSI5, 1e-8)
        assert nprod <= phi_plus(29)
        assert nprod >= math.ceil(0.9 * phi_plus(29))
        assert nplain >= math.ceil(0.9 * phi_plus(29))

    def test_threshold_monotone(self):
        lo = census(29, PSI5, 1e-8)
        hi = census(29, PSI5, 0.5)
        assert lo[0] >= hi[0] and lo[1] >= hi[1]

    def test_infinite_threshold(self):
        assert census(13, PSI5, math.inf) == (0, 0)

    def test_guard(self):
        with pytest.raises(ValueError):
            census(10007 * 2, PSI5, 1e-8)   # composite
        with pytest.raises(ValueError):
            census(10037, PSI5, 1e-8)       # prime but beyond the cap


# random families: prime q < 100 and squarefree D = 1 mod 4, D <= 101, coprime
FAMILIES = st.tuples(
    st.sampled_from([p for p in primes_up_to(100) if p >= 5]),
    st.sampled_from([D for D in range(5, 102, 4) if factor(D).is_squarefree()]),
).filter(lambda qD: math.gcd(*qD) == 1)


class TestRandomFamilies:
    """The independent routes of each L-value quantity agree on random
    families, beyond the fixed moduli of the tests above."""

    @settings(max_examples=8, deadline=None)
    @given(FAMILIES)
    def test_afe_matches_oracle(self, qD):
        q, D = qD
        psi = RealCharacter(D)
        cfg = default_config(q, D)
        family = enumerate_even_primitive(build_group(q))
        for chi, want in zip(family, oracle_products_at(0.5, family, psi)):
            got = afe_central(chi, psi, cfg).L_central
            assert abs(got - want) <= 2 * cfg.tail_budget + 1e-12 * max(1.0, abs(want)), chi.k

    @settings(max_examples=20, deadline=None)
    @given(FAMILIES)
    def test_census_values_match_loop(self, qD):
        q, D = qD
        psi = RealCharacter(D)
        plain, twist = (v[2:q - 2:2] for v in _family_L(0.5, q, psi))
        ref_plain, ref_twist = census_values_by_loop(q, psi)
        assert np.max(np.abs(plain - ref_plain)) < 1e-12
        assert np.max(np.abs(twist - ref_twist)) < 1e-12

    @settings(max_examples=8, deadline=None)
    @given(FAMILIES, st.data())
    def test_first_moment_matches_orthogonality(self, qD, data):
        q, D = qD
        psi = RealCharacter(D)
        X = data.draw(st.integers(1, q), label="X")
        s1 = mollified_moments(q, psi, X).s1
        assert abs(s1 - first_moment_by_orthogonality(q, psi, X)) <= 1e-12 * max(1.0, abs(s1))


FIRST_MOMENT_PARTS = ("a = n = 1", "other an = +-1", "-1 mean", "dual")


def first_moment_parts(q, psi, X):
    """first_moment_by_orthogonality split into its four parts, on the same
    tables and truncation: the a = n = 1 term (q-1)/2 V(1/Q), the other
    terms with an = +-1 mod q, the -1 mean over units n, and the dual side
    of Kloosterman sums S(1, +-n/(Da); q).  Keyed by FIRST_MOMENT_PARTS."""
    D = psi.D
    cfg = default_config(q, D)
    vcol = _budgeted_tables(q, D, cfg)["V"]
    n_mod = np.arange(1, cfg.n_max + 1, dtype=np.int64) % q
    unit = n_mod != 0
    kl = _kloosterman_row(q)
    phi_q = q - 1
    c_eps = complex(psi(q) * epsilon(psi)) / (2.0 * q)
    table = build_mollifier(psi, X)
    parts = {name: [] for name in FIRST_MOMENT_PARTS}
    for a, rho in zip(table.a.tolist(), table.rho.tolist()):
        if a % q == 0:
            continue
        weight = rho / math.sqrt(a)
        an_mod = (a * n_mod) % q
        hits = float(np.sum(vcol[unit & ((an_mod == 1) | (an_mod == q - 1))]))
        first = vcol[0] if a == 1 else 0.0  # n = 1 is a hit exactly when a = 1
        parts["a = n = 1"].append(weight * 0.5 * phi_q * first)
        parts["other an = +-1"].append(weight * 0.5 * phi_q * (hits - first))
        parts["-1 mean"].append(-weight * float(np.sum(vcol[unit])))
        w = (n_mod * pow(D * a, -1, q)) % q
        dual = vcol * (c_eps * (phi_q * (kl[w] + kl[(q - w) % q]) - 2.0))
        parts["dual"].append(weight * complex(np.sum(dual[unit])))
    return {name: fsum_complex(terms) for name, terms in parts.items()}


class TestFirstMomentParts:
    """The first moment by orthogonality, split into the four parts that
    locate criterion 12a's miss; the parts must add back up."""

    @pytest.mark.parametrize("q", [101, 211])
    def test_parts_sum_back(self, q):
        whole = first_moment_by_orthogonality(q, PSI5, 25)
        parts = first_moment_parts(q, PSI5, 25)
        assert abs(sum(parts.values()) - whole) <= 1e-12 * max(1.0, abs(whole))
        # the a = n = 1 term is (q-1)/2 V(1/Q), real
        cfg = default_config(q, 5)
        v1 = eval_weight("V1", math.log(cfg.Q), 1.0 / cfg.Q)
        assert parts["a = n = 1"] == pytest.approx(0.5 * (q - 1) * v1, rel=1e-10)


class TestEulerProducts:
    @pytest.mark.parametrize("D", [5, 65, 85])
    @pytest.mark.parametrize("u", SHIFT_GRID)
    def test_a_boundary_normalization(self, D, u):
        psi = RealCharacter(D)
        a1 = euler_product(EulerProductFamily("A", u, 0.0, 1), psi)
        a2 = euler_product(EulerProductFamily("A", 0.0, u, 1), psi)
        assert abs(a1 - 1) < 1e-10
        assert abs(a2 - 1) < 1e-10

    @pytest.mark.parametrize("u", SHIFT_GRID)
    def test_b_boundary_normalization(self, u):
        b = euler_product(EulerProductFamily("B", u, 0.0, 10**3), PSI5)
        assert abs(b - 1) < 1e-10

    def test_b_truncation_stability(self):
        b1 = euler_product(EulerProductFamily("B", 0.1, 0.2, 10**3), PSI5)
        b2 = euler_product(EulerProductFamily("B", 0.1, 0.2, 10**4), PSI5)
        assert abs(b1 - b2) < 2.0 / 10**3

    @pytest.mark.parametrize("X", [10**3, 10**4])
    def test_c_central_normalization(self, X):
        c = euler_product(EulerProductFamily("C", 0.0, 0.0, X), PSI5)
        assert abs(c - 1) <= 5.0 * X**-0.9

    def test_a_symmetric_in_shifts(self):
        psi = RealCharacter(65)
        a1 = euler_product(EulerProductFamily("A", 0.3, -0.1, 1), psi)
        a2 = euler_product(EulerProductFamily("A", -0.1, 0.3, 1), psi)
        assert abs(a1 - a2) < 1e-14

    def test_region_and_argument_validation(self):
        with pytest.raises(ValueError):
            EulerProductFamily("A", -0.3, 0.0, 1)
        with pytest.raises(ValueError):
            EulerProductFamily("Q", 0.0, 0.0, 1)
        with pytest.raises(ValueError):
            EulerProductFamily("B", 0.0, 0.0, 0)
        with pytest.raises(ValueError):
            euler_product(EulerProductFamily("B", 0.0, 0.0, 500), PSI5)


class TestDivisorProductIdentity:
    def test_hand_value_d5(self):
        # four supported triples give 1 + 1/5 - 5^{-1.3} - 5^{-0.9}
        rhs = 1 + 1 / 5 - 5.0**-1.3 - 5.0**-0.9
        assert abs(restricted_divisor_product_check(5, 0.3, -0.1)) < 1e-15
        assert abs(_restricted_inverse_triple_sums(5, [(0.3, -0.1)])[0] - rhs) < 1e-15

    def test_composite_modulus(self):
        assert restricted_divisor_product_check(65, 0.0, 0.0) < 1e-14

    @pytest.mark.parametrize("D", SQUAREFREE_1MOD4)
    def test_grid(self, D):
        for u in SHIFT_GRID:
            for v in SHIFT_GRID:
                assert restricted_divisor_product_check(D, u, v) < 1e-12

    def test_shift_symmetry(self):
        a = _restricted_inverse_triple_sums(5, [(0.17, -0.05)])[0]
        b = _restricted_inverse_triple_sums(5, [(-0.05, 0.17)])[0]
        assert abs(a - b) < 1e-15

    def test_rejects_squareful(self):
        with pytest.raises(ValueError):
            restricted_divisor_product_check(45, 0.0, 0.0)
        with pytest.raises(ValueError):
            restricted_divisor_product_residuals(45, [(0.0, 0.0)])

    def test_triples_built_once_keep_bits(self):
        # the triple loop as written before the integer triples were built
        # once per D, with its float operations in the same order
        def triple_sum_by_loop(D, u, v):
            psi = RealCharacter(D)
            total = 0.0 + 0.0j
            for d in divisors(D):
                for e in divisors(D):
                    re = eval_rho(psi, d * e)
                    if re == 0:
                        continue
                    for g in divisors(D):
                        if math.gcd(e, g) != 1:
                            continue
                        rg = eval_rho(psi, d * g)
                        if rg == 0:
                            continue
                        total += re * rg / (d * _cpow(e, 1 + u) * _cpow(g, 1 + v))
            return total

        shifts = [(u, v) for u in SHIFT_GRID for v in SHIFT_GRID]
        for D in SQUAREFREE_1MOD4:
            want = []
            for u, v in shifts:
                u, v = complex(u), complex(v)
                lhs = triple_sum_by_loop(D, u, v)
                assert lhs == _restricted_inverse_triple_sums(D, [(u, v)])[0], D
                rhs = 1.0 + 0.0j
                for p, _ in factor(D).factors:
                    rhs *= 1 + 1 / p - _cpow(p, -(1 + u)) - _cpow(p, -(1 + v))
                want.append(abs(lhs - rhs))
            assert restricted_divisor_product_residuals(D, shifts) == want, D


class TestGFamily:
    def test_h3_spot_value(self):
        val = g_family_eval("h3", 11, 1, 0.0, 0.0, PSI5)
        assert abs(val - 10.0 / 3.0) < 1e-14

    def test_h3_matches_definition(self):
        # definitional route: rho(p)^2 + rho(p)rho(p^2) f_p(s) (p^{-1-u}+p^{-1-v})
        p, u, v = 11, 0.12, -0.07
        fp = g_family_eval("f", p, 1, u, v, PSI5)
        rho1, rho2 = eval_rho(PSI5, p), eval_rho(PSI5, p * p)
        direct = rho1**2 + rho1 * rho2 * fp * (p ** -(1 + u) + p ** -(1 + v))
        assert abs(g_family_eval("h3", p, 1, u, v, PSI5) - direct) < 1e-14

    def test_g1_matches_definition(self):
        p, u, v = 19, 0.05, 0.2
        h2 = g_family_eval("h2", p, 1, 0, 0, PSI5)
        fp = g_family_eval("f", p, 1, u, v, PSI5)
        fp2 = g_family_eval("f", p, 2, u, v, PSI5)
        rho1, rho2 = eval_rho(PSI5, p), eval_rho(PSI5, p * p)
        d1 = rho1 * fp * h2 * (p**-u + p**-v)
        d2 = rho2 * fp2 * h2 * (p ** (-2 * u) + p ** (-2 * v))
        assert abs(g_family_eval("g1", p, 1, u, v, PSI5) - d1) < 1e-14
        assert abs(g_family_eval("g1", p, 2, u, v, PSI5) - d2) < 1e-14

    def test_g2_is_h2h3_plus_g1(self):
        p, u, v = 29, -0.1, 0.3
        lhs = g_family_eval("g2", p, 1, u, v, PSI5)
        rhs = (g_family_eval("h2", p, 1, 0, 0, PSI5)
               * g_family_eval("h3", p, 1, u, v, PSI5)
               + g_family_eval("g1", p, 1, u, v, PSI5))
        assert abs(lhs - rhs) < 1e-14

    def test_support_truncation(self):
        assert g_family_eval("g1", 11, 3, 0.1, 0.2, PSI5) == 0
        assert g_family_eval("g2", 11, 5, 0.1, 0.2, PSI5) == 0
        for name in ("h2", "h3", "g1", "g2", "g3", "f"):
            assert g_family_eval(name, 11, 0, 0.3, 0.3, PSI5) == 1

    def test_g3_generating_identity(self):
        # 1 + sum g3(p^j)/p^j = (1-p^{-1-u-v})^{-4} (1 + g2(p)/p + g2(p^2)/p^2)
        p, u, v = 11, 0.12, -0.07
        lhs = 1 + sum(g_family_eval("g3", p, j, u, v, PSI5) / p**j
                      for j in range(1, 60))
        x = p ** (-(1 + u + v))
        rhs = (1 - x) ** -4 * (1 + g_family_eval("g2", p, 1, u, v, PSI5) / p
                               + g_family_eval("g2", p, 2, u, v, PSI5) / p**2)
        assert abs(lhs - rhs) < 1e-12

    def test_f_table(self):
        psi65 = RealCharacter(65)
        assert g_family_eval("f", 5, 3, 0.1, 0.1, psi65) == 1      # 5 | 65
        assert g_family_eval("f", 2, 1, 0.1, 0.1, PSI5) == 0       # inert, odd
        assert g_family_eval("f", 2, 4, 0.1, 0.1, PSI5) == 1       # inert, even
        s = 1 + 0.2 + 0.1
        expect = 1 + 3 * (11**s - 1) / (11**s + 1)
        assert abs(g_family_eval("f", 11, 3, 0.2, 0.1, PSI5) - expect) < 1e-12

    def test_split_only_names_reject_inert(self):
        for name in ("h3", "g1", "g2", "g3"):
            with pytest.raises(ValueError):
                g_family_eval(name, 2, 1, 0.0, 0.0, PSI5)
        with pytest.raises(ValueError):
            g_family_eval("nope", 11, 1, 0.0, 0.0, PSI5)
        with pytest.raises(ValueError):
            g_family_eval("h3", 10, 1, 0.0, 0.0, PSI5)


class TestTau4:
    def test_prime_power_closed_form(self):
        for j in range(12):
            assert tau4_prime_power(j) == math.comb(j + 3, 3)

    def test_table_multiplicative(self):
        from lmoll.arith import factor

        table = tau4_table(2000)
        for n in range(1, 2001):
            expect = 1
            for _, e in factor(n).factors:
                expect *= math.comb(e + 3, 3)
            assert table[n] == expect


class TestLacunaryDivisorSum:
    def test_empty_range(self):
        assert lacunary_divisor_sum(PSI5, 4) == Fraction(0)

    def test_exact_values_and_monotonicity(self):
        s5 = lacunary_divisor_sum(PSI5, 5)
        s6 = lacunary_divisor_sum(PSI5, 6)
        assert isinstance(s5, Fraction) and isinstance(s6, Fraction)
        assert 0 <= s5 <= s6
        assert abs(float(s5) - 4.001721923729) < 1e-9
        assert abs(float(s6) - 8.667306438784) < 1e-9

    def test_guards(self):
        with pytest.raises(ValueError):
            lacunary_divisor_sum(PSI5, 3)
        with pytest.raises(ValueError):
            lacunary_divisor_sum(PSI5, 12)
