"""Twisted summation checks: the exact lattice sum against its dual expansion.

The golden twisted-sum constant was produced by an independent oracle
(character values from the quadratic residues mod 5, divisor sums by trial
division, phases from cmath) before being written down.  Dual-side agreement
runs here on moderate supports; the full grid lives with the acceptance
checks.
"""
from __future__ import annotations

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import k0 as bessel_k0
from scipy.special import y0 as bessel_y0

from lmoll.arith import (PrincipalCharacter, RealCharacter, character_convolution,
                         factor, one_star_psi_table)
from lmoll.characters import gauss_sum
from lmoll.lvalues import oracle_L
from lmoll.special import SmoothBump
from lmoll import voronoi
from lmoll.voronoi import (
    _GL_NODES,
    _GL_WEIGHTS,
    _PANEL_CAP,
    _character_for,
    _decaying_integral,
    _k0_sum_tail,
    _oscillatory_panels,
    _panel_integral,
    _panels,
    dual_coefficients,
    factor_character,
    voronoi_lhs,
    voronoi_rhs,
)

PSI5 = RealCharacter(5)
PSI65 = RealCharacter(65)

G_WIDE = SmoothBump(50.0, 4850.0)
G_MID = SmoothBump(30.0, 3630.0)
G_NARROW = SmoothBump(10.0, 100.0)


def psi5_oracle(n: int) -> int:
    # quadratic residues mod 5 are {1, 4}
    return {0: 0, 1: 1, 2: -1, 3: -1, 4: 1}[n % 5]


def coeff_oracle(n: int) -> int:
    return sum(psi5_oracle(d) for d in range(1, n + 1) if n % d == 0)


# ------------------------------------------------------------------ factoring


class TestFactorCharacter:
    def test_coprime_regime(self):
        case = factor_character(PSI5, 7, 1)
        assert isinstance(case.psi1, PrincipalCharacter)
        assert isinstance(case.psi2, RealCharacter) and case.psi2.D == 5
        assert case.shared == 1 and case.D_c == 5

    def test_divisible_regime(self):
        case = factor_character(PSI5, 10, 1)
        assert isinstance(case.psi1, RealCharacter) and case.psi1.D == 5
        assert isinstance(case.psi2, PrincipalCharacter)
        assert case.shared == 5 and case.D_c == 1

    def test_intermediate_regime(self):
        case = factor_character(PSI65, 10, 3)
        assert case.psi1.D == 5 and case.psi2.D == 13
        for n in range(1, 2001):
            if math.gcd(n, 65) == 1:
                assert case.psi(n) == case.psi1(n) * case.psi2(n)

    def test_full_modulus(self):
        case = factor_character(PSI65, 65, 2)
        assert isinstance(case.psi1, RealCharacter) and case.psi1.D == 65
        assert isinstance(case.psi2, PrincipalCharacter)
        assert case.D_c == 1

    @pytest.mark.parametrize("D,c", [(21, 3), (21, 7), (33, 3)])
    def test_odd_factor_rejected(self, D, c):
        with pytest.raises(ValueError, match="odd character"):
            factor_character(RealCharacter(D), c, 1)

    def test_trivial_character(self):
        triv = PrincipalCharacter()
        assert triv.modulus == 1
        assert triv(0) == triv(7) == 1
        assert triv.values().tolist() == [1]
        assert gauss_sum(triv) == 1.0 + 0j

    @pytest.mark.parametrize("D,c,expect", [
        (5, 7, math.sqrt(5.0)),
        (65, 10, math.sqrt(13.0)),
        (5, 10, 1.0),
    ])
    def test_second_factor_gauss_sum(self, D, c, expect):
        case = factor_character(RealCharacter(D), c, 1)
        assert abs(gauss_sum(case.psi2) - expect) < 1e-10


class TestCaseValidation:
    def test_nonpositive_c(self):
        with pytest.raises(ValueError, match="c must be positive"):
            factor_character(PSI5, 0, 1)

    def test_twist_not_coprime(self):
        with pytest.raises(ValueError, match="coprime to c"):
            factor_character(PSI5, 10, 4)

    def test_c_cap_before_any_table(self):
        # both sides tabulate the c-th roots of unity: 160 GB at this c
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="c must be at most 10\\^6"):
                factor_character(PSI5, 10_000_000_019, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert factor_character(PSI5, 10**6 - 1, 2).c == 10**6 - 1


_SQUAREFREE_1_MOD_4 = [D for D in range(5, 400, 4) if factor(D).is_squarefree()]


@pytest.mark.parametrize("D", _SQUAREFREE_1_MOD_4)
def test_split_multiplies_back_to_psi(D):
    """psi(n) = psi1(n) psi2(n) for n <= 1000 prime to D, for every c <= 60
    whose two factor moduli carry even characters; the others are rejected."""
    psi = RealCharacter(D)
    n = np.arange(1, 1001)
    n = n[np.gcd(n, D) == 1]
    for c in range(1, 61):
        shared = math.gcd(c, D)
        try:
            _character_for(shared), _character_for(D // shared)
        except ValueError:
            with pytest.raises(ValueError, match="odd character"):
                factor_character(psi, c, 1)
            continue
        case = factor_character(psi, c, 1)
        assert (case.shared, case.D_c) == (shared, D // shared)
        assert (case.psi1.modulus, case.psi2.modulus) == (shared, D // shared)
        assert np.array_equal(psi.values_at(n),
                              case.psi1.values_at(n) * case.psi2.values_at(n)), c


# ------------------------------------------------------------------ dual coefficients


class TestDualCoefficients:
    def test_against_divisor_oracle(self):
        case = factor_character(PSI65, 10, 3)
        conv = dual_coefficients(case, 2000)
        chi5, chi13 = RealCharacter(5), RealCharacter(13)
        for m in range(1, 2001):
            direct = sum(chi5(d) * chi13(m // d)
                         for d in range(1, m + 1) if m % d == 0)
            assert conv[m] == direct

    @pytest.mark.parametrize("d1,d2", [(1, 1), (1, 5), (5, 1), (5, 13), (13, 5), (1, 65)])
    def test_conv_table_is_pointwise_convolution(self, d1, d2):
        psi1, psi2 = _character_for(d1), _character_for(d2)
        limit = 1500
        conv = character_convolution(psi1, psi2, limit)
        assert conv.dtype == np.int64 and len(conv) == limit + 1
        for m in range(1, limit + 1):
            direct = sum(psi1(d) * psi2(m // d) for d in range(1, m + 1) if m % d == 0)
            assert conv[m] == direct

    def test_coprime_regime_reduces_to_weights(self):
        case = factor_character(PSI5, 7, 1)
        conv = dual_coefficients(case, 2000)
        tab = one_star_psi_table(PSI5, 2000)
        assert np.array_equal(conv[1:], tab[1:].astype(np.float64))


# ------------------------------------------------------------------ lhs


class TestLhs:
    GOLDEN = complex(-8.127244083668229, 0.7900118066131981)

    def test_golden_value(self):
        got = voronoi_lhs(factor_character(PSI5, 3, 1), G_NARROW)
        assert abs(got - self.GOLDEN) < 1e-12

    def test_dense_oracle(self):
        got = voronoi_lhs(factor_character(PSI5, 3, 1), G_NARROW)
        acc = 0j
        for n in range(11, 100):
            acc += (coeff_oracle(n) * float(G_NARROW(float(n)))
                    * cmath.exp(2j * cmath.pi * n / 3))
        assert abs(got - acc) < 1e-12

    def test_empty_support(self):
        assert voronoi_lhs(factor_character(PSI5, 3, 1), SmoothBump(0.2, 0.9)) == 0j

    def test_untwisted_when_c_is_one(self):
        got = voronoi_lhs(factor_character(PSI5, 1, 1), G_NARROW)
        tab = one_star_psi_table(PSI5, 100)
        plain = math.fsum(float(tab[n]) * float(G_NARROW(float(n)))
                          for n in range(11, 100))
        assert got.imag == 0.0
        assert abs(got.real - plain) < 1e-12

    def test_conjugation_exact(self):
        lo = voronoi_lhs(factor_character(PSI65, 10, 3), G_NARROW)
        hi = voronoi_lhs(factor_character(PSI65, 10, 7), G_NARROW)
        assert abs(hi - lo.conjugate()) < 1e-12

    def test_support_cap(self):
        with pytest.raises(ValueError, match="support cap"):
            voronoi_lhs(factor_character(PSI5, 3, 1), SmoothBump(10.0, 2e6))


# ------------------------------------------------------------------ integrals


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestIntegrals:
    @pytest.mark.parametrize("g,alpha", [
        (G_WIDE, 0.5), (G_WIDE, 3.0), (G_NARROW, 1.2),
    ])
    def test_oscillatory_against_quad(self, g, alpha):
        t0, t1 = math.sqrt(g.lo), math.sqrt(g.hi)
        panels = _panels(g, t0, t1, _oscillatory_panels(t0, t1, alpha),
                         np.empty((4, 12 * _PANEL_CAP)))
        mine = _panel_integral(panels, alpha, bessel_y0)
        ref = quad(lambda t: 2.0 * t * float(g(t * t)) * bessel_y0(alpha * t),
                   t0, t1, epsabs=1e-12, epsrel=1e-12, limit=2000)[0]
        assert abs(mine - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("g,alpha", [
        (G_WIDE, 0.8), (G_NARROW, 2.5), (G_WIDE, 2.5),
    ])
    def test_decaying_against_quad(self, g, alpha):
        t0, t1 = math.sqrt(g.lo), math.sqrt(g.hi)
        value, rem = _decaying_integral(g, t0, t1, alpha, np.empty((4, 480)))
        ref = quad(lambda t: 2.0 * t * float(g(t * t)) * bessel_k0(alpha * t),
                   t0, t1, epsabs=1e-14, epsrel=1e-14, limit=2000)[0]
        assert rem >= 0.0
        assert abs(value - ref) <= rem + 1e-12

    def test_gauss_legendre_literals_are_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(12)
        assert _GL_NODES.dtype == _GL_WEIGHTS.dtype == np.float64
        assert _GL_NODES.tobytes() == nodes.tobytes()
        assert _GL_WEIGHTS.tobytes() == weights.tobytes()

    @staticmethod
    def _inline_panel_integral(g, t0, t1, alpha, bessel, panels):
        # the panel rule written out in one expression, nodes rebuilt per call
        edges = np.linspace(t0, t1, panels + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])[:, None]
        halfs = 0.5 * (edges[1:] - edges[:-1])[:, None]
        t = mids + halfs * _GL_NODES[None, :]
        vals = 2.0 * t * g(t * t) * bessel(alpha * t)
        return float((vals * (halfs * _GL_WEIGHTS[None, :])).sum())

    @pytest.mark.parametrize("bessel", [bessel_y0, bessel_k0])
    @pytest.mark.parametrize("g,panels", [(G_WIDE, 40), (G_WIDE, 1337), (G_NARROW, 40),
                                          (G_MID, 4000)])
    def test_panel_table_is_bit_identical_to_inline_rule(self, bessel, g, panels):
        t0, t1 = math.sqrt(g.lo), math.sqrt(g.hi)
        table = _panels(g, t0, t1, panels, np.empty((4, 12 * panels)))
        # one table serves every alpha: its scratch row must not leak between calls
        for alpha in (0.05, 0.8, 3.0, 0.8, 17.5):
            got = _panel_integral(table, alpha, bessel)
            want = self._inline_panel_integral(g, t0, t1, alpha, bessel, panels)
            assert got.hex() == want.hex()

    @staticmethod
    def _fresh_panels(g, t0, t1, panels):
        # the table as built before it moved into a workspace: every array fresh
        edges = np.linspace(t0, t1, panels + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])[:, None]
        halfs = 0.5 * (edges[1:] - edges[:-1])[:, None]
        t = mids + halfs * _GL_NODES[None, :]
        return t, 2.0 * t * g(t * t), halfs * _GL_WEIGHTS[None, :]

    @pytest.mark.parametrize("g", [G_WIDE, G_NARROW])
    def test_workspace_tables_are_bit_identical_to_fresh_build(self, g):
        work = np.full((4, 12 * _PANEL_CAP), np.nan)
        t0, t1 = math.sqrt(g.lo), math.sqrt(g.hi)
        # the Y0 range and a K0 range cut as _decaying_integral cuts it; the
        # counts rise and then fall, so a table left by a larger count shows
        for hi in (t1, min(t1, t0 + 60.0 / 2.5)):
            for panels in (40, 41, 997, 2000, 4000, 2000, 41, 40):
                got = _panels(g, t0, hi, panels, work)
                want = self._fresh_panels(g, t0, hi, panels)
                assert [a.shape for a in got] == [(panels, 12)] * 4
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
                assert all(np.shares_memory(a, work[i]) for i, a in enumerate(got))

    def test_each_y0_integral_gets_its_own_panel_count(self, monkeypatch):
        g = G_WIDE
        t0, t1 = math.sqrt(g.lo), math.sqrt(g.hi)
        calls = []

        def checked(table, alpha, bessel):
            if bessel is voronoi.bessel_y0:
                panels = _oscillatory_panels(t0, t1, alpha)
                for a, b in zip(table, self._fresh_panels(g, t0, t1, panels)):
                    assert np.array_equal(a, b)
                calls.append(panels)
            return _panel_integral(table, alpha, bessel)

        monkeypatch.setattr(voronoi, "_panel_integral", checked)
        voronoi_rhs(factor_character(PSI5, 3, 1), g, m_max=120)
        assert len(set(calls)) > 20

    def test_decaying_truncation_engages(self):
        t0, t1 = math.sqrt(G_WIDE.lo), math.sqrt(G_WIDE.hi)
        _, rem = _decaying_integral(G_WIDE, t0, t1, 2.5, np.empty((4, 480)))
        assert rem > 0.0

    def test_k0_sum_tail_decreasing(self):
        tails = [_k0_sum_tail(0.5, m, 1.0) for m in (100, 200, 400, 800)]
        assert all(a > b > 0.0 for a, b in zip(tails, tails[1:]))

    def test_k0_sum_tail_refuses_small_argument(self):
        assert _k0_sum_tail(0.1, 100, 1.0) == math.inf


# ------------------------------------------------------------------ rhs


class TestRhs:
    def test_agreement_coprime(self):
        case = factor_character(PSI5, 3, 2)
        lhs = voronoi_lhs(case, G_WIDE)
        rhs = voronoi_rhs(case, G_WIDE)
        assert not rhs.insufficient
        assert abs(lhs - rhs.value) < 1e-8
        assert abs(lhs - rhs.value) <= rhs.tail_bound < 1e-6

    def test_agreement_divisible(self):
        case = factor_character(PSI5, 10, 1)
        lhs = voronoi_lhs(case, G_MID)
        rhs = voronoi_rhs(case, G_MID)
        assert not rhs.insufficient
        assert abs(lhs - rhs.value) < 1e-8

    def test_agreement_intermediate(self):
        case = factor_character(PSI65, 3, 1)
        lhs = voronoi_lhs(case, G_WIDE)
        rhs = voronoi_rhs(case, G_WIDE)
        assert not rhs.insufficient
        assert abs(lhs - rhs.value) < 1e-6

    def test_main_term_divisible_branch(self):
        case = factor_character(PSI5, 10, 1)
        got = voronoi_rhs(case, G_NARROW, m_max=50).main
        mass = quad(G_NARROW, 10.0, 100.0, epsabs=1e-13, epsrel=1e-13)[0]
        expect = gauss_sum(PSI5) / 10.0 * oracle_L(1.0, PSI5).real * mass
        assert abs(got - expect) < 1e-12 * abs(expect)

    def test_main_term_coprime_branch(self):
        case = factor_character(PSI5, 7, 1)
        got = voronoi_rhs(case, G_NARROW, m_max=50).main
        mass = quad(G_NARROW, 10.0, 100.0, epsabs=1e-13, epsrel=1e-13)[0]
        # (5 | 7) = -1, so the constant term picks up a sign
        expect = -oracle_L(1.0, PSI5).real * mass / 7.0
        assert abs(got - expect) < 1e-12 * abs(expect)

    def test_conjugation(self):
        lo = voronoi_rhs(factor_character(PSI65, 10, 3), G_WIDE)
        hi = voronoi_rhs(factor_character(PSI65, 10, 7), G_WIDE)
        assert abs(hi.value - lo.value.conjugate()) < 1e-8

    def test_insufficient_flag(self):
        rhs = voronoi_rhs(factor_character(PSI5, 7, 1), G_WIDE, m_max=200)
        assert rhs.insufficient
        assert rhs.m_used_y == 200
        assert rhs.tail_bound > 1e-6


# random cases: squarefree D = 1 mod 4 up to 205, c <= 30, a coprime to c,
# supports [lo, lo + width] with lo in [5, 60] and width in [50, 1500]
RANDOM_D = [D for D in range(5, 206, 4) if factor(D).is_squarefree()]


class TestRandomCases:
    """The dual expansion stays within its reported tail bound of the direct
    sum on random cases, settled or not: a small m_max cuts the sums short
    and must widen the bound, not break it."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(RANDOM_D), st.integers(1, 30), st.data())
    def test_residual_within_tail_bound(self, D, c, data):
        a = data.draw(st.integers(1, c).filter(lambda a: math.gcd(a, c) == 1), label="a")
        lo = data.draw(st.floats(5.0, 60.0), label="lo")
        width = data.draw(st.floats(50.0, 1500.0), label="width")
        m_max = data.draw(st.integers(50, 10**4), label="m_max")
        try:
            case = factor_character(RealCharacter(D), c, a)
        except ValueError as err:
            # a split the formula does not cover, not a failure of it
            assume("odd character" not in str(err))
            raise
        g = SmoothBump(lo, lo + width)
        rhs = voronoi_rhs(case, g, m_max=m_max)
        assert abs(voronoi_lhs(case, g) - rhs.value) <= rhs.tail_bound
