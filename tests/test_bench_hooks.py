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

from lmoll import characters, lvalues, offdiag, special, voronoi

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
