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


@pytest.mark.parametrize("q,D", [(13, 5), (101, 65), (1009, 13)])
def test_census_hurwitz_points(q, D, monkeypatch):
    # the tracer's lvalues.hurwitz_points counts the size of each x that
    # moments passes to hurwitz_zeta_vec: (q-1)(1 + phi(D)) per census
    sizes = []

    def counting(s, x):
        sizes.append(x.size)
        return lvalues.hurwitz_zeta_vec(s, x)

    monkeypatch.setattr(moments, "hurwitz_zeta_vec", counting)
    moments.census(q, arith.RealCharacter(D), 1e-8)
    assert sum(sizes) == (q - 1) * (1 + arith.euler_phi(D))
