"""The names of lmoll that the benchmark harness reaches from outside.

perfbench/tracer.py replaces a few attributes with timing wrappers,
perfbench/worker.py reads the AFE table cache, and perfbench/baseline.py
reads a config's Q and n_max.  A rename or deletion in lmoll fails here in
well under a second, instead of as a worker crash inside the traced
benchmark test.
"""
from __future__ import annotations

import inspect
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import lmoll
from lmoll import arith, characters, lvalues, moments, offdiag, special, voronoi
from oracles import euler_phi

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
    # census takes no Hurwitz point; one Gamma(1/4, .) call takes both
    # factors' AFE terms, ceil(sqrt(45 m/pi)) for m = q and for m = qD:
    # 121 + 434 at q = 1009, D = 13
    terms = []
    original = lvalues._upper_gamma_quarter

    def counting(x):
        terms.append(x.size)
        return original(x)

    monkeypatch.setattr(lvalues, "_upper_gamma_quarter", counting)
    points = _hurwitz_points(
        monkeypatch, lambda: moments.census(q, arith.RealCharacter(D), 1e-8))
    assert points == 0
    assert terms == [sum(math.ceil(math.sqrt(45 * m / math.pi)) for m in (q, q * D))]


@pytest.mark.parametrize("q,D", [(13, 5), (101, 5), (101, 65)])
def test_family_oracle_hurwitz_points(q, D, monkeypatch):
    # afe-check's oracle over the even family takes (q-1)(1 + phi(D))
    # points: 500 at q = 101, D = 5
    family = characters.enumerate_even_primitive(characters.build_group(q))
    points = _hurwitz_points(
        monkeypatch, lambda: lvalues.oracle_products_at(0.5, family, arith.RealCharacter(D)))
    assert points == (q - 1) * (1 + euler_phi(D))


# patches voronoi's kernels as Tracer._set does (getattr, then setattr) in an
# interpreter that has not bound them yet, runs voronoi_rhs patched, sets the
# originals back and runs it again
_PATCH_UNBOUND_KERNELS = """
import collections, dataclasses, json, sys
from lmoll import arith, special, voronoi
unbound = "scipy" not in sys.modules and not {"bessel_y0", "bessel_k0"} & set(vars(voronoi))
calls, undo = collections.Counter(), []
for attr in ("bessel_y0", "bessel_k0"):
    undo.append((attr, getattr(voronoi, attr)))

    def counting(*args, _attr=attr, _fn=undo[-1][1], **kwargs):
        calls[_attr] += 1
        return _fn(*args, **kwargs)

    setattr(voronoi, attr, counting)
case = voronoi.factor_character(arith.RealCharacter(5), 3, 2)
g = special.SmoothBump(50.0, 4850.0)
patched = repr(dataclasses.astuple(voronoi.voronoi_rhs(case, g, m_max=120)))
for attr, fn in undo:
    setattr(voronoi, attr, fn)
restored = [getattr(voronoi, attr) is fn for attr, fn in undo]
again = repr(dataclasses.astuple(voronoi.voronoi_rhs(case, g, m_max=120)))
print(json.dumps([unbound, calls, patched, restored, again]))
"""


def test_tracer_patch_of_unbound_bessel_kernels_takes_effect():
    # voronoi binds its kernels on first use; the tracer's patch, made before
    # that, must still be what voronoi_rhs calls, and must leave no trace
    src = pathlib.Path(lmoll.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", _PATCH_UNBOUND_KERNELS], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    unbound, calls, patched, restored, again = json.loads(out.stdout)
    assert unbound
    assert calls["bessel_y0"] > 0 and calls["bessel_k0"] > 0
    assert restored == [True, True]
    assert patched == again
