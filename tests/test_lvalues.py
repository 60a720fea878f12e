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
    AFEConfig,
    _afe_tables,
    afe_central,
    afe_tail_bound,
    default_config,
    epsilon_consistency_residual,
    hurwitz_zeta_vec,
    oracle_L,
    oracle_product,
    oracle_product_derivative,
    oracle_products_at,
)
from lmoll.moments import mollified_moments
from lmoll.special import eval_weight_many

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
        cfg = default_config(q, 5)
        for chi in enumerate_even_primitive(G):
            pair = afe_central(chi, psi, cfg)
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
    cfg = default_config(13, 5)
    with pytest.raises(ValueError):
        AFEConfig(Q=cfg.Q, n_max=int(cfg.Q) - 2)
    with pytest.raises(ValueError):
        AFEConfig(Q=cfg.Q, n_max=cfg.n_max, tail_budget=1e-9)
    with pytest.raises(ValueError):
        AFEConfig(Q=-1.0, n_max=10)
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


@pytest.mark.parametrize("q,D", [(13, 5), (29, 5), (101, 5), (101, 13)])
def test_afe_tables_equal_coefficients_times_every_weight(q, D):
    # the weights are evaluated only where (1*psi)(n) != 0; the columns must
    # still equal coeff * weight at every n, to the bit where coeff != 0
    cfg = default_config(q, D)
    cols = _afe_tables(q, D, cfg.n_max, cfg.Q)
    coeff = one_star_psi_table(RealCharacter(D), cfg.n_max)[1:].astype(np.float64)
    n = np.arange(1, cfg.n_max + 1, dtype=np.float64)
    coeff /= np.sqrt(n)
    nonzero = coeff != 0
    assert 0 < np.count_nonzero(nonzero) < cfg.n_max
    full = eval_weight_many(("V1", "W1", "W2"), math.log(cfg.Q), n / cfg.Q)
    for key, weight in zip(("V", "W1", "W2"), full):
        want = coeff * weight
        assert cols[key].shape == (cfg.n_max,)
        assert np.array_equal(cols[key], want)
        assert cols[key][nonzero].tobytes() == want[nonzero].tobytes()


def test_afe_tail_certificate_blocks_short_truncation():
    cfg_short = AFEConfig(Q=default_config(13, 5).Q, n_max=math.ceil(default_config(13, 5).Q))
    assert afe_tail_bound("V1", cfg_short) > 1e-10
    for _ in range(2):  # the second call finds its table entry cached
        with pytest.raises(ValueError):
            afe_central(build_group(13).character(2), RealCharacter(5), cfg_short)


def test_afe_tail_bounds_computed_once_per_config(monkeypatch):
    # the three certified tails depend on Q and n_max alone, so a whole
    # moments run (every character of the family) computes them once
    calls = []
    real = lvalues.afe_tail_bound

    def counting(kind, cfg):
        calls.append((kind, cfg.Q, cfg.n_max))
        return real(kind, cfg)

    monkeypatch.setattr(lvalues, "afe_tail_bound", counting)
    _afe_tables.cache_clear()
    cfg = default_config(29, 5)
    mollified_moments(29, RealCharacter(5), 10)
    assert sorted(calls) == [(kind, cfg.Q, cfg.n_max) for kind in ("V1", "W1", "W2")]
    tails = _afe_tables(29, 5, cfg.n_max, cfg.Q)["tails"]
    assert tails == {kind: real(kind, cfg) for kind in ("V1", "W1", "W2")}


def test_afe_tail_budget_checked_against_cached_tails():
    # the table entry is shared by every budget: a tighter budget on the
    # same (Q, n_max) must still raise after a call that passed
    psi = RealCharacter(5)
    chi = build_group(13).character(2)
    cfg = default_config(13, 5)
    afe_central(chi, psi, cfg)
    worst = max(afe_tail_bound(kind, cfg) for kind in ("V1", "W1", "W2"))
    tight = AFEConfig(Q=cfg.Q, n_max=cfg.n_max, tail_budget=worst / 2)
    with pytest.raises(ValueError, match="exceeds budget"):
        afe_central(chi, psi, tight)


def test_afe_truncation_doubling_stability():
    psi = RealCharacter(5)
    chi = build_group(13).character(2)
    cfg = default_config(13, 5)
    doubled = AFEConfig(Q=cfg.Q, n_max=2 * cfg.n_max, tail_budget=cfg.tail_budget)
    a = afe_central(chi, psi, cfg)
    b = afe_central(chi, psi, doubled)
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
        pair = afe_central(chi, psi, cfg)
        fd = oracle_product(chi, psi) + oracle_product_derivative(chi, psi) / (
            2 * math.log(cfg.Q)
        )
        assert abs(pair.L_combo - fd) < 1e-6, (q, k)
