"""Baseline figures: the per-layer reference timings and the workload medians.

    python3 perfbench/baseline.py

Layers: each listed call is timed in a fresh interpreter (caches cold),
REPEATS times, and the median is kept (raw seconds).  Workloads: run.py is
run once per seed 0..SEEDS-1 with --trace 0, and once with --trace 1 at
seed 0, each for BENCHMARK.json's run_seconds; for every end-to-end metric
the median and the spread (distance between the first and third quartile
over the median) are kept, beside the median of the raw (unscaled) wall
times.  Writes perfbench/baseline.json.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from run import END_TO_END, HERE, ROOT, THREAD_PINS, _git_revision
from workloads import WORKLOADS

_SHIFTED = ("from lmoll.arith import RealCharacter\n"
            "from lmoll.offdiag import ShiftedConvParams, brute_shifted_conv, main_term\n"
            "p = ShiftedConvParams(a=1, b=1, q=101, M=1e4, N=1e4, psi=RealCharacter(5))\n")
_VORONOI = ("from lmoll.arith import RealCharacter\n"
            "from lmoll.special import SmoothBump\n"
            "from lmoll.voronoi import factor_character, voronoi_rhs\n"
            "case = factor_character(RealCharacter(65), 10, 3)\n"
            "g = SmoothBump(50, 4850)\n")
# name -> (set-up code, timed statement)
LAYER_CALLS = {
    "afe_tables_q101_D5": ("from lmoll.lvalues import _afe_tables, default_config\n"
                           "cfg = default_config(101, 5)\n",
                           "_afe_tables(101, 5, cfg.n_max, cfg.Q)"),
    "voronoi_rhs_D65_c10_threads1": (_VORONOI, "voronoi_rhs(case, g, threads=1)"),
    "voronoi_rhs_D65_c10_threads2": (_VORONOI, "voronoi_rhs(case, g, threads=2)"),
    "main_term_q101_M1e4": (_SHIFTED, "main_term(p, 100000)"),
    "brute_shifted_conv_q101_M1e4_threads1": (_SHIFTED, "brute_shifted_conv(p, threads=1)"),
    "brute_shifted_conv_q101_M1e4_threads2": (_SHIFTED, "brute_shifted_conv(p, threads=2)"),
}
# the ROADMAP's figures for the same calls, in seconds
ROADMAP_S = {
    "afe_tables_q101_D5": "3.1-3.8",
    "voronoi_rhs_D65_c10_threads1": "4.6",
    "voronoi_rhs_D65_c10_threads2": "4.1",
    "main_term_q101_M1e4": "9.3",
    "brute_shifted_conv_q101_M1e4_threads1": "0.06",
    "brute_shifted_conv_q101_M1e4_threads2": "0.08",
}

REPEATS = 3
SEEDS = 10
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, **THREAD_PINS}


def time_layer(setup: str, stmt: str) -> float:
    code = (f"import sys, time\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{setup}"
            f"t0 = time.perf_counter()\n{stmt}\nprint(time.perf_counter() - t0)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_ENV, capture_output=True,
                          text=True, timeout=600, check=True)
    return float(proc.stdout.strip())


def run_workload(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(stamp line, result line) of one run.py run."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(RUN_SECONDS),
                           "--trace", str(trace)],
                          cwd=str(ROOT), capture_output=True, text=True, timeout=600,
                          check=True)
    stamp, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(stamp), json.loads(result)


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    out = {"git_revision": _git_revision(), "date": time.strftime("%Y-%m-%d"),
           "nproc": len(os.sched_getaffinity(0)), "thread_pins": THREAD_PINS,
           "layers": {}, "workloads": {}}
    for name, (setup, stmt) in LAYER_CALLS.items():
        times = [time_layer(setup, stmt) for _ in range(REPEATS)]
        out["layers"][name] = {"median_s": statistics.median(times), "runs_s": times,
                               "roadmap_s": ROADMAP_S[name]}
        print(name, [round(t, 3) for t in times], flush=True)
    for workload in WORKLOADS:
        stamps, runs = zip(*(run_workload(workload, seed, 0) for seed in range(SEEDS)))
        raw = [statistics.median(st["samples"]["wall_s"]) for st in stamps]
        summary = {"correct": all(r["correct"] for r in runs),
                   "attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs),
                   "raw_wall_s": {"median": statistics.median(raw), "spread": _spread(raw),
                                  "runs": raw},
                   "end_to_end": {}}
        for metric in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in runs]
            summary["end_to_end"][metric] = {"median": statistics.median(values),
                                             "spread": _spread(values), "runs": values}
        _, traced = run_workload(workload, 0, 1)
        summary["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = summary
        print(workload, {m: round(s["spread"], 3)
                         for m, s in summary["end_to_end"].items()}, flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
