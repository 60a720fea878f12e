"""The names of lmoll that the benchmark harness reaches from outside.

perfbench/tracer.py replaces a few attributes with timing wrappers,
perfbench/worker.py reads the AFE table cache, and perfbench/baseline.py
reads a config's Q and n_max.  A rename or deletion in lmoll fails here in
well under a second, instead of as a worker crash inside the traced
benchmark test.
"""
from __future__ import annotations

import inspect

import pytest

from lmoll import arith, characters, lvalues, moments, offdiag, special, voronoi

# (owner, attribute) pairs that Tracer.install patches by name
PATCHED = {
    "special.eval_weight": (special, "eval_weight"),
    "special.SmoothBump.__call__": (special.SmoothBump, "__call__"),
    "voronoi.bessel_y0": (voronoi, "bessel_y0"),
    "voronoi.bessel_k0": (voronoi, "bessel_k0"),
    "lvalues.afe_tail_bound": (lvalues, "afe_tail_bound"),
    "characters.DirichletCharacter.values": (characters.DirichletCharacter, "values"),
    "characters.DirichletCharacter.values_at": (characters.DirichletCharacter, "values_at"),
    "offdiag.quad": (offdiag, "quad"),
}


@pytest.mark.parametrize("owner,attr", PATCHED.values(), ids=PATCHED)
def test_patched_name_resolves(owner, attr):
    assert callable(getattr(owner, attr))


def test_afe_tail_bound_second_argument_carries_the_budget():
    # the tracer's hook divides the result by args[1].tail_budget
    assert len(inspect.signature(lvalues.afe_tail_bound).parameters) == 2
    cfg = lvalues.default_config(101, 5)
    assert 0 < lvalues.afe_tail_bound("V1", cfg) / cfg.tail_budget <= 1


def test_worker_reads_the_afe_cache_info():
    info = lvalues._afe_tables.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_baseline_reads_the_config_and_table_arguments():
    cfg = lvalues.default_config(101, 5)
    assert cfg.Q > 0 and isinstance(cfg.n_max, int)
    # baseline.py calls _afe_tables(q, D, cfg.n_max, cfg.Q)
    params = inspect.signature(lvalues._afe_tables.__wrapped__).parameters
    assert list(params) == ["q", "D", "n_max", "Q"]


def _hurwitz_points(monkeypatch, run) -> int:
    """The tracer's lvalues.hurwitz_points for run(): the size of each x
    passed to hurwitz_zeta_vec, which lvalues' family oracle looks up in
    its own module."""
    sizes = []
    original = lvalues.hurwitz_zeta_vec

    def counting(s, x):
        sizes.append(x.size)
        return original(s, x)

    monkeypatch.setattr(lvalues, "hurwitz_zeta_vec", counting)
    run()
    return sum(sizes)


@pytest.mark.parametrize("q,D", [(13, 5), (101, 65), (1009, 13)])
def test_census_hurwitz_points(q, D, monkeypatch):
    # (q-1)(1 + phi(D)) per census
    points = _hurwitz_points(
        monkeypatch, lambda: moments.census(q, arith.RealCharacter(D), 1e-8))
    assert points == (q - 1) * (1 + arith.euler_phi(D))


@pytest.mark.parametrize("q,D", [(13, 5), (101, 5), (101, 65)])
def test_family_oracle_hurwitz_points(q, D, monkeypatch):
    # afe-check's oracle over the even family takes the census's
    # (q-1)(1 + phi(D)) points: 500 at q = 101, D = 5
    family = characters.enumerate_even_primitive(characters.build_group(q))
    points = _hurwitz_points(
        monkeypatch, lambda: lvalues.oracle_products_at(0.5, family, arith.RealCharacter(D)))
    assert points == (q - 1) * (1 + arith.euler_phi(D))
