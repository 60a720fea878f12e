"""Spans around calls into lmoll's modules, installed from outside the program.

Every public function of a layer module is wrapped wherever another lmoll
module (or the CLI) holds a reference to it, so a span marks a call that
crosses a layer boundary.  A few calls inside one module are wrapped too,
where a per-layer metric needs them split out (the series inside
main_term, the mollifier inside the moments, ...).  Hot callees, called
hundreds of thousands of times, are not spans: they get a call count and
a cumulative time, and their time stays in the enclosing span.

A span's self time is its duration minus the time of its child spans, so
the self times of all spans plus the time outside any span add up to the
traced wall time.  Spans stay in memory and are written once, at the end.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYER_MODULES = ("arith", "characters", "special", "lvalues", "moments",
                 "offdiag", "voronoi", "reduction")

# (module, function) -> metric prefix; unnamed public functions go to
# "<module>.other".
_SPAN_KEYS = {
    ("special", "eval_weight_many"): "special.weight",
    ("special", "kernel_abs_moment"): "special.weight",
    ("special", "mellin_V"): "special.weight",
    ("special", "mellin_weight"): "special.weight",
    ("special", "mellin_principal_part"): "special.weight",
    ("lvalues", "afe_central"): "lvalues.afe",
    ("lvalues", "oracle_L"): "lvalues.oracle",
    ("lvalues", "oracle_product"): "lvalues.oracle",
    ("lvalues", "oracle_product_at"): "lvalues.oracle",
    ("lvalues", "oracle_product_derivative"): "lvalues.oracle",
    ("lvalues", "hurwitz_zeta_vec"): "lvalues.oracle",
    ("lvalues", "hurwitz_zeta"): "lvalues.oracle",
    ("characters", "epsilon"): "characters.epsilon",
    ("characters", "epsilon_real"): "characters.epsilon",
    ("characters", "epsilon_product_direct"): "characters.epsilon",
    ("characters", "epsilon_product_factored"): "characters.epsilon",
    ("characters", "epsilon_pair_sum"): "characters.epsilon",
    ("characters", "gauss_sum"): "characters.epsilon",
    ("characters", "gauss_sum_real"): "characters.epsilon",
    ("characters", "product_values"): "characters.epsilon",
    ("characters", "build_group"): "characters.group",
    ("characters", "enumerate_even_primitive"): "characters.group",
    ("characters", "phi_plus"): "characters.group",
    ("arith", "one_star_psi_table"): "arith.sieve",
    ("arith", "spf_table"): "arith.sieve",
    ("arith", "primes_up_to"): "arith.sieve",
    ("moments", "mollified_moments"): "moments.moments",
    ("moments", "build_mollifier"): "moments.mollifier",
    ("moments", "eval_mollifier"): "moments.mollifier",
    ("moments", "census"): "moments.census",
    ("offdiag", "main_term"): "offdiag.main_term",
    ("offdiag", "singular_series"): "offdiag.series",
    ("offdiag", "brute_shifted_conv"): "offdiag.brute",
    ("voronoi", "voronoi_rhs"): "voronoi.rhs",
    ("voronoi", "voronoi_lhs"): "voronoi.lhs",
    ("voronoi", "dual_coefficients"): "voronoi.dual_coeff",
    ("reduction", "ordered_map"): "reduction.map",
}

# calls made inside their own module that still get a span of their own
_INTRA = (("lvalues", "hurwitz_zeta_vec"), ("moments", "build_mollifier"),
          ("moments", "eval_mollifier"), ("offdiag", "singular_series"),
          ("voronoi", "dual_coefficients"))


class Tracer:
    """Collects spans, self times, counters and hot-callee aggregates."""

    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent, name, start, end, task)
        self.stack: list[list] = []       # [span id, child time, key]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.hot: dict[str, list] = {}    # name -> [calls, cumulative s]
        self.top_s = 0.0                  # time inside outermost spans
        self.task = 0
        self._undo: list[tuple] = []
        self._misses: dict[int, int] = {}

    # -------------------------------------------------------------- wrappers

    def span(self, key: str, name: str, fn, hook=None):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tr.stack
            frame = [len(tr.spans) + len(stack), 0.0, key]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                d = t1 - t0
                tr.self_s[key] += d - frame[1]
                tr.calls[key] += 1
                if stack:
                    stack[-1][1] += d
                else:
                    tr.top_s += d
                tr.spans.append((frame[0], parent, name, t0, t1, tr.task))
            if hook is not None:
                hook(tr, fn, args, out)
            return out

        return wrapper

    def hot_callee(self, name: str, fn, hook=None):
        agg = self.hot.setdefault(name, [0, 0.0])
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            agg[1] += time.perf_counter() - t0
            agg[0] += 1
            if hook is not None:
                hook(tr, fn, args, out)
            return out

        return wrapper

    def _charge_mapped_to_caller(self, ordered_map):
        """Run each mapped call in a span of the caller's layer, so that work
        handed to ordered_map stays with the layer that asked for it and
        reduction.map keeps only the pool's own cost."""
        tr = self

        @functools.wraps(ordered_map)
        def wrapper(fn, items, *args, **kwargs):
            caller = tr.stack[-1][2] if tr.stack else "reduction.map"
            name = f"{caller}.mapped"
            return ordered_map(tr.span(caller, name, fn), items, *args, **kwargs)

        return wrapper

    # -------------------------------------------------------------- patching

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, map_only: bool = False) -> None:
        """Patch lmoll's module attributes; map_only wraps ordered_map alone."""
        mods = {m: importlib.import_module(f"lmoll.{m}") for m in LAYER_MODULES}
        users = [m for n, m in sys.modules.items() if n.startswith("lmoll.")]
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                if map_only and (layer, name) != ("reduction", "ordered_map"):
                    continue
                key = _SPAN_KEYS.get((layer, name), f"{layer}.other")
                wrapped = self.span(key, f"{layer}.{name}", fn, _HOOKS.get(name))
                if name == "ordered_map" and not map_only:
                    wrapped = self._charge_mapped_to_caller(wrapped)
                if hasattr(fn, "cache_info"):
                    self._misses[id(fn)] = fn.cache_info().misses
                for user in users:
                    if user is mod and (layer, name) not in _INTRA:
                        continue
                    for attr, val in list(vars(user).items()):
                        if val is fn:
                            self._set(user, attr, wrapped)
        if map_only:
            return
        special, characters, voronoi = mods["special"], mods["characters"], mods["voronoi"]
        self._set(special, "eval_weight",
                  self.hot_callee("special.eval_weight", special.eval_weight))
        self._set(special.SmoothBump, "__call__",
                  self.hot_callee("special.SmoothBump.__call__",
                                  special.SmoothBump.__call__))
        for attr in ("bessel_y0", "bessel_k0"):
            self._set(voronoi, attr, self.hot_callee(
                f"voronoi.{attr}", getattr(voronoi, attr), _count_points("voronoi.bessel_points", 0)))
        lvalues = mods["lvalues"]
        self._set(lvalues, "afe_tail_bound",
                  self.hot_callee("lvalues.afe_tail_bound", lvalues.afe_tail_bound, _tail_ratio))
        cls = characters.DirichletCharacter
        for meth in ("values", "values_at"):
            self._set(cls, meth, self.span("characters.values",
                                           f"characters.DirichletCharacter.{meth}",
                                           getattr(cls, meth)))
        qd = mods["offdiag"].quad
        self._set(mods["offdiag"], "quad", self.span("offdiag.overlap", "offdiag.quad", qd))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -------------------------------------------------------------- output

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts),
                "hot": {k: {"calls": v[0], "cum_s": v[1]} for k, v in self.hot.items()},
                "top_s": self.top_s}

    def write_spans(self, path: str) -> None:
        fields = ("id", "parent", "name", "start", "end", "task")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans,
                       "summary": self.summary()}, fh)


def _count_points(counter: str, arg: int):
    def hook(tr, fn, args, out):
        tr.counts[counter] += int(np.size(args[arg]))
    return hook


def _tail_ratio(tr, fn, args, out):
    cfg = args[1]
    key = "lvalues.tail_budget_ratio"
    tr.counts[key] = max(tr.counts[key], out / cfg.tail_budget)


def _sieve_entries(tr, fn, args, out):
    """Entries a sieve actually built: cache hits of the lru-cached ones do none."""
    if hasattr(fn, "cache_info"):
        misses = fn.cache_info().misses
        if misses == tr._misses.get(id(fn), 0):
            return
        tr._misses[id(fn)] = misses
    tr.counts["arith.sieve_entries"] += int(np.size(out))


def _family_size(tr, fn, args, out):
    tr.counts["moments.family_size"] = max(tr.counts["moments.family_size"], len(out))


def _rhs_used(tr, fn, args, out):
    tr.counts["voronoi.m_used_y"] += out.m_used_y
    tr.counts["voronoi.m_used_k"] += out.m_used_k


def _map_items(tr, fn, args, out):
    tr.counts["reduction.map_items"] += len(out)


def _rho_call(tr, fn, args, out):
    tr.counts["arith.rho_calls"] += 1


_HOOKS = {
    "hurwitz_zeta_vec": _count_points("lvalues.hurwitz_points", 1),
    "one_star_psi_table": _sieve_entries,
    "spf_table": _sieve_entries,
    "primes_up_to": _sieve_entries,
    "enumerate_even_primitive": _family_size,
    "voronoi_rhs": _rhs_used,
    "ordered_map": _map_items,
    "eval_rho": _rho_call,
}
