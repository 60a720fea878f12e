"""Central values: Hurwitz-zeta oracle vs the smooth-weight route,
epsilon consistency, derivative combination, truncation certificates."""

from __future__ import annotations

import csv
import math
import pathlib
import tracemalloc

import mpmath
import numpy as np
import pytest

from lmoll import lvalues
from lmoll.arith import PrincipalCharacter, RealCharacter, one_star_psi_table
from lmoll.characters import build_group, enumerate_even_primitive, product_values
from lmoll.lvalues import (
    _AFE_CUT_TOL,
    AFEConfig,
    _afe_cut,
    _afe_tables,
    _weight_tails,
    afe_central,
    afe_tail_bound,
    default_config,
    hurwitz_zeta_vec,
    oracle_L,
    oracle_products_at,
)
from lmoll.moments import family_centrals, mollified_moments
from lmoll.special import DIGAMMA_QUARTER, eval_weight_many
from oracles import (
    epsilon_consistency_residual,
    mellin_moment_tail_bound,
    oracle_product,
    oracle_product_derivative,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "central_values.csv"


def test_hurwitz_matches_mpmath():
    for s in (0.5, 0.3 + 0.2j, 2.0):
        for x in (0.1, 0.5, 1.0):
            with mpmath.workdps(30):
                want = complex(mpmath.zeta(s, x))
            assert abs(hurwitz_zeta_vec(s, np.array([x]))[0] - want) < 1e-12


def test_hurwitz_classical_value():
    assert abs(hurwitz_zeta_vec(2.0, np.array([1.0]))[0] - math.pi**2 / 6) < 1e-12
    with pytest.raises(ValueError):
        hurwitz_zeta_vec(0.5, np.array([-0.3]))


def test_oracle_principal_euler_factor():
    got = oracle_L(2.0, PrincipalCharacter(3))
    assert abs(got - (8 / 9) * (math.pi**2 / 6)) < 1e-12
    with pytest.raises(ValueError):
        oracle_L(1.0, PrincipalCharacter(3))
    with pytest.raises(ValueError):
        oracle_L(-0.5, PrincipalCharacter(3))


def test_oracle_L1_closed_form():
    got = oracle_L(1.0, RealCharacter(5))
    want = (2 / math.sqrt(5)) * math.log((1 + math.sqrt(5)) / 2)
    assert abs(got - want) < 1e-12


def test_golden_central_values():
    with GOLDEN.open() as f:
        for row in csv.DictReader(f):
            q, k, D = int(row["q"]), int(row["k"]), int(row["D"])
            want = complex(float(row["re"]), float(row["im"]))
            chi = build_group(q).character(k)
            if D == 1:
                got = oracle_L(0.5, chi)
            else:
                got = oracle_products_at(0.5, [chi], RealCharacter(D))[0]
            assert abs(got - want) < 1e-9, (q, k, D)


def test_afe_matches_oracle_family():
    psi = RealCharacter(5)
    for q in (13, 29):
        G = build_group(q)
        for chi in enumerate_even_primitive(G):
            pair = afe_central(chi, psi)
            orc = oracle_product(chi, psi)
            assert abs(pair.L_central - orc) < 1e-6, (q, chi.k)
            assert abs(abs(pair.epsilon_product) - 1) < 1e-9


def _oracle_product_per_character(chi, psi, s=0.5) -> complex:
    """The oracle without the group's shared rows: each L-factor computes
    its own Hurwitz row, zeta_H(s, a/m) for a = 1..m, and dots it with the
    character's table, mod q and mod qD."""

    def dirichlet_L(modulus, values):
        a = np.arange(1, modulus + 1, dtype=np.float64)
        vals = values[np.arange(1, modulus + 1) % modulus]
        total = np.dot(vals, hurwitz_zeta_vec(s, a / modulus))
        return complex(np.exp(-s * math.log(modulus)) * total)

    q, D = chi.modulus, psi.D
    first = dirichlet_L(q, chi.values().astype(np.complex128))
    return first * dirichlet_L(q * D, product_values(chi, psi))


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("q,D", [(13, 5), (29, 5), (101, 5), (101, 13)])
def test_family_oracle_is_bit_identical_per_character(q, D):
    psi = RealCharacter(D)
    family = enumerate_even_primitive(build_group(q))
    got = oracle_products_at(0.5, family, psi)
    assert len(got) == len(family)
    for chi, z in zip(family, got):
        assert _hex(z) == _hex(oracle_product(chi, psi)), chi.k
        want = _oracle_product_per_character(chi, psi)
        assert abs(z - want) <= 1e-13 * max(1.0, abs(want)), chi.k


@pytest.mark.parametrize("s", [0.4, 0.6, 0.5 + 3j])
@pytest.mark.parametrize("q,D", [(13, 5), (29, 13), (101, 5)])
def test_family_oracle_off_center_and_odd(q, D, s):
    # every nontrivial character, odd ones included, off the central point
    psi = RealCharacter(D)
    group = build_group(q)
    family = [group.character(k) for k in range(1, q - 1)]
    for chi, z in zip(family, oracle_products_at(s, family, psi)):
        want = _oracle_product_per_character(chi, psi, s)
        assert abs(z - want) <= 1e-13 * max(1.0, abs(want)), chi.k


def test_family_oracle_guards():
    psi = RealCharacter(5)
    assert oracle_products_at(0.5, [], psi) == []
    with pytest.raises(ValueError, match="principal"):
        oracle_products_at(0.5, [PrincipalCharacter(13)], psi)
    with pytest.raises(ValueError, match="moduli"):
        oracle_products_at(0.5, [build_group(13).character(2),
                                 build_group(29).character(2)], psi)
    with pytest.raises(ValueError, match="Re"):
        oracle_products_at(0.0, [build_group(13).character(2)], psi)
    with pytest.raises(ValueError, match="pole at s=1"):
        oracle_products_at(1.0, [build_group(13).character(2)], psi)


def test_afe_conjugation_symmetry():
    psi = RealCharacter(5)
    G = build_group(13)
    pair = afe_central(G.character(2), psi)
    conj_pair = afe_central(G.character(13 - 1 - 2), psi)
    assert abs(pair.L_central - conj_pair.L_central.conjugate()) < 1e-8
    assert abs(abs(pair.L_central) - abs(conj_pair.L_central)) < 1e-8


def test_afe_nonvanishing_family_q29():
    # empirical full nonvanishing at this modulus; reported, not proven
    psi = RealCharacter(5)
    G = build_group(29)
    for chi in enumerate_even_primitive(G):
        pair = afe_central(chi, psi)
        assert abs(pair.L_central) > 1e-8


def test_afe_config_validation():
    with pytest.raises(ValueError):
        default_config(0, 5)


def test_afe_length_cap_before_any_table():
    # n_max <= 2*10^6: the largest admitted q is 28319 at D = 5 and 17579
    # at D = 13; the next prime, and the uncapped 5,498,573,660 at
    # q = 99991, D = 999997, raise before any table
    assert default_config(28319, 5).n_max == 1_997_758
    assert default_config(17579, 13).n_max == 1_999_799
    assert default_config(9973, 13).n_max == 1_069_658
    for q, D in ((28349, 5), (17581, 13), (99991, 999997)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="AFE length n_max must be at most 2"):
                default_config(q, D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def test_afe_rejects_bad_characters():
    psi = RealCharacter(5)
    G = build_group(13)
    with pytest.raises(ValueError):
        afe_central(G.character(0), psi)  # principal
    with pytest.raises(ValueError):
        afe_central(G.character(3), psi)  # odd
    with pytest.raises(ValueError):
        afe_central(build_group(5).character(2), RealCharacter(5))  # shared modulus


# the most eval_weight_many's roundoff floor was seen to reach for x >= 12
# is 1.3e-19; past n_cut the quadrature returns nothing else
QUAD_FLOOR = 2e-19
# the pointwise bounds V1(x) <= C e^{-2x}/x and U(x) <= C e^{-2x}/(2x^2)
BESSEL_C = math.sqrt(math.pi) / math.gamma(0.25) ** 2


@pytest.mark.parametrize("q,D", [(13, 5), (29, 5), (101, 5), (101, 13)])
def test_afe_tables_equal_coefficients_times_every_weight(q, D):
    # the weights are evaluated only where (1*psi)(n) != 0 and n <= n_cut;
    # up to n_cut the columns equal coeff * weight, to the bit where
    # coeff != 0, and past it they are +0.0, where coeff * weight is only
    # roundoff under the pointwise bound
    cfg = default_config(q, D)
    cut = _afe_cut(cfg.Q, cfg.n_max)
    assert cut < cfg.n_max
    cols = _afe_tables(q, D, cfg.n_max, cfg.Q)
    coeff = one_star_psi_table(RealCharacter(D), cfg.n_max)[1:].astype(np.float64)
    n = np.arange(1, cfg.n_max + 1, dtype=np.float64)
    coeff /= np.sqrt(n)
    nonzero = coeff[:cut] != 0
    assert 0 < np.count_nonzero(nonzero) < cut
    x = n / cfg.Q
    full = eval_weight_many(("V1", "U"), x)
    bounds = (BESSEL_C * np.exp(-2 * x) / x, BESSEL_C * np.exp(-2 * x) / (2 * x * x))
    for key, weight, bound in zip(("V", "U"), full, bounds):
        want = coeff * weight
        assert cols[key].shape == (cfg.n_max,)
        assert np.array_equal(cols[key][:cut], want[:cut])
        assert cols[key][:cut][nonzero].tobytes() == want[:cut][nonzero].tobytes()
        assert cols[key][cut:].tobytes() == bytes(8 * (cfg.n_max - cut))
        assert np.all(np.abs(want[cut:]) <= coeff[cut:] * (bound[cut:] + QUAD_FLOOR))


# the family's setups: the benchmark's q = 101, the golden payloads' and
# the largest admitted q at D = 5
CUT_CONFIGS = [(13, 5), (29, 5), (101, 5), (101, 13), (401, 5), (4001, 5), (28319, 5)]


@pytest.mark.parametrize("q,D", CUT_CONFIGS)
def test_afe_cut_is_minimal(q, D):
    cfg = default_config(q, D)
    cut = _afe_cut(cfg.Q, cfg.n_max)
    assert 20 < cut / cfg.Q < 25 and cut < cfg.n_max
    assert sum(_weight_tails(cfg.Q, cut)) <= _AFE_CUT_TOL
    assert sum(_weight_tails(cfg.Q, cut - 1)) > _AFE_CUT_TOL
    # a table too short to reach the tolerance keeps every n
    assert _afe_cut(cfg.Q, cut - 1) == cut - 1


@pytest.mark.parametrize("q,D", CUT_CONFIGS[:4])
def test_afe_tails_at_the_cut(q, D):
    # the tails each table reports are the closed form at its cut, V1's and
    # U's together at most 2^-64, and every one under the budget
    cfg = default_config(q, D)
    tails = _afe_tables(q, D, cfg.n_max, cfg.Q)["tails"]
    assert (tails["V1"], tails["U"]) == _weight_tails(cfg.Q, _afe_cut(cfg.Q, cfg.n_max))
    assert tails["V1"] + tails["U"] <= 2.0**-64
    assert max(tails.values()) <= cfg.tail_budget


@pytest.mark.parametrize("q,D", CUT_CONFIGS)
def test_closed_form_tail_under_mellin_moment_bound(q, D):
    # the closed form at the cut is below the Mellin-moment bound that the
    # full length n_max certified before, for both weights
    cfg = default_config(q, D)
    for kind in ("V1", "U"):
        assert afe_tail_bound(kind, cfg) <= mellin_moment_tail_bound(kind, cfg), kind
    # and at one common length too, for the closed form as such
    short = AFEConfig(Q=cfg.Q, n_max=math.ceil(15 * cfg.Q))
    for kind, t in zip(("V1", "U"), _weight_tails(short.Q, short.n_max)):
        assert t <= mellin_moment_tail_bound(kind, short), kind


def _setup_as(monkeypatch, cfg: AFEConfig) -> None:
    """Make cfg the AFE setup that default_config derives for any family."""
    monkeypatch.setattr(lvalues, "default_config", lambda q, D: cfg)


def test_afe_tail_certificate_blocks_short_truncation(monkeypatch):
    cfg_short = AFEConfig(Q=default_config(13, 5).Q, n_max=math.ceil(default_config(13, 5).Q))
    assert afe_tail_bound("V1", cfg_short) > 1e-10
    _setup_as(monkeypatch, cfg_short)
    for _ in range(2):  # the second call finds its table entry cached
        with pytest.raises(ValueError):
            afe_central(build_group(13).character(2), RealCharacter(5))


def _combo_tail(cfg: AFEConfig) -> float:
    """The bound each side of L_combo inherits from the V1 and U tails:
    W1, W2 = ((1 - c/L)/2) V1 +- U/(2L) with c = digamma(1/4), L = log Q."""
    c, L = DIGAMMA_QUARTER, cfg.logQ
    return ((1 - c / L) * afe_tail_bound("V1", cfg) + afe_tail_bound("U", cfg) / L) / 2


def test_afe_tail_bounds_computed_once_per_config(monkeypatch):
    # the two certified weight tails depend on Q and n_max alone, so a whole
    # moments run (every character of the family) computes them once, and
    # L_combo's bound with them; the family's values are cleared too, so
    # that the run takes its product AFEs
    calls = []
    real = lvalues.afe_tail_bound

    def counting(kind, cfg):
        calls.append((kind, cfg.Q, cfg.n_max))
        return real(kind, cfg)

    monkeypatch.setattr(lvalues, "afe_tail_bound", counting)
    _afe_tables.cache_clear()
    family_centrals.cache_clear()
    cfg = default_config(29, 5)
    mollified_moments(29, RealCharacter(5), 10)
    assert sorted(calls) == [(kind, cfg.Q, cfg.n_max) for kind in ("U", "V1")]
    tails = _afe_tables(29, 5, cfg.n_max, cfg.Q)["tails"]
    assert tails == {"V1": real("V1", cfg), "U": real("U", cfg), "L_combo": _combo_tail(cfg)}


def test_afe_tail_budget_checked_against_cached_tails(monkeypatch):
    # the table entry is shared by every budget: a tighter budget on the
    # same (Q, n_max) must still raise after a call that passed
    psi = RealCharacter(5)
    chi = build_group(13).character(2)
    cfg = default_config(13, 5)
    afe_central(chi, psi)
    worst = max(afe_tail_bound("V1", cfg), afe_tail_bound("U", cfg), _combo_tail(cfg))
    monkeypatch.setattr(AFEConfig, "tail_budget", worst / 2)
    with pytest.raises(ValueError, match="exceeds budget"):
        afe_central(chi, psi)


def test_afe_combo_tail_checked_against_budget(monkeypatch):
    # at q = 13, D = 5, log Q = 2.22 < 1 - c, and L_combo's inherited bound
    # exceeds both weight tails: a budget between them must still raise
    psi = RealCharacter(5)
    chi = build_group(13).character(2)
    cfg = default_config(13, 5)
    weights = max(afe_tail_bound("V1", cfg), afe_tail_bound("U", cfg))
    combo = _combo_tail(cfg)
    assert cfg.logQ < 1 - DIGAMMA_QUARTER and combo > 1.4 * weights
    afe_central(chi, psi)
    monkeypatch.setattr(AFEConfig, "tail_budget", (weights + combo) / 2)
    with pytest.raises(ValueError, match="certified L_combo tail .* exceeds budget"):
        afe_central(chi, psi)


def test_afe_truncation_doubling_stability(monkeypatch):
    psi = RealCharacter(5)
    chi = build_group(13).character(2)
    cfg = default_config(13, 5)
    a = afe_central(chi, psi)
    _setup_as(monkeypatch, AFEConfig(Q=cfg.Q, n_max=2 * cfg.n_max))
    b = afe_central(chi, psi)
    assert abs(a.L_central - b.L_central) < 1e-8
    assert abs(a.L_combo - b.L_combo) < 1e-8


def test_epsilon_consistency():
    psi = RealCharacter(5)
    for q, k in [(13, 2), (29, 6)]:
        chi = build_group(q).character(k)
        assert epsilon_consistency_residual(chi, psi, alpha=0.1) < 1e-6


def test_derivative_combo_vs_finite_difference():
    psi = RealCharacter(5)
    for q, k in [(13, 2), (29, 4)]:
        chi = build_group(q).character(k)
        cfg = default_config(q, 5)
        pair = afe_central(chi, psi)
        fd = oracle_product(chi, psi) + oracle_product_derivative(chi, psi) / (
            2 * math.log(cfg.Q)
        )
        assert abs(pair.L_combo - fd) < 1e-6, (q, k)
