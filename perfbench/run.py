"""lmoll's benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload family --seed 0 --seconds 30 --trace 0

Run from a checkout that holds src/lmoll.  The load is a closed loop with one
client: back to back, each iteration starts a fresh interpreter (so lmoll's
lru caches start cold, as for a CLI user) that imports lmoll.cli and runs the
workload's task list through lmoll.cli.main(argv) with --threads 1 and BLAS
threads pinned to 1.  Iterations continue while the next one still fits in
--seconds.  Every payload is checked (see workloads.check) and must be
byte-identical across the run's iterations.

--trace 0 reports the end-to-end metrics as medians over the iterations.
Times are in reference seconds: each stretch of about a second of tasks is
scaled by CAL_REF_S / cal, where cal is the time the same interpreter took
for a fixed calibration kernel (worker.calibrate) just before and after the
stretch.  On a shared host the machine's speed drifts by up to half for
minutes at a time, in step with the calibration, and the scaling takes that
drift out; the raw samples are in the stamp line.
--trace 1 alternates untraced and traced iterations (see tracer.py), then
runs the task list once at --threads 1 and once at --threads 2 with only
ordered_map timed, and reports the per-layer metrics of the traced
iteration with the median wall time, in raw seconds of that iteration
(trace.cal_s is its calibration); its spans go to
perfbench/out/trace-<workload>-seed<seed>.json.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it stamps the environment.  Exit code 0 when that line was
printed, 1 when the harness could not run, 2 on a usage error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check, load_references, task_key, tasks_for  # noqa: E402

ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170
# calibration kernel time that defines a reference second (a quiet 2-vCPU
# Xeon VM, Python 3.11, numpy 2.4)
CAL_REF_S = 0.09

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "tol_margin_digits": "digits"}

# per-layer self times: "<key>_s" is the self time of tracer key "<key>"
SELF_TIMES = (
    "special.weight_s", "special.other_s",
    "lvalues.afe_s", "lvalues.oracle_s", "lvalues.other_s",
    "characters.values_s", "characters.epsilon_s", "characters.group_s",
    "characters.other_s",
    "arith.sieve_s", "arith.other_s",
    "moments.moments_s", "moments.mollifier_s", "moments.census_s", "moments.other_s",
    "offdiag.main_term_s", "offdiag.series_s", "offdiag.overlap_s", "offdiag.brute_s",
    "offdiag.other_s",
    "voronoi.rhs_s", "voronoi.lhs_s", "voronoi.dual_coeff_s", "voronoi.other_s",
    "reduction.map_s", "reduction.other_s",
)
# per-layer counts: name -> (source in the trace summary, key)
COUNTS = {
    "special.weight_points": ("hot_calls", "special.eval_weight"),
    "special.bump_calls": ("hot_calls", "special.SmoothBump.__call__"),
    "lvalues.afe_calls": ("calls", "lvalues.afe"),
    "lvalues.hurwitz_points": ("counts", "lvalues.hurwitz_points"),
    "lvalues.tail_budget_ratio": ("counts", "lvalues.tail_budget_ratio"),
    "characters.values_calls": ("calls", "characters.values"),
    "arith.sieve_entries": ("counts", "arith.sieve_entries"),
    "arith.rho_calls": ("counts", "arith.rho_calls"),
    "moments.family_size": ("counts", "moments.family_size"),
    "offdiag.series_calls": ("calls", "offdiag.series"),
    "offdiag.overlap_calls": ("calls", "offdiag.overlap"),
    "voronoi.bessel_points": ("counts", "voronoi.bessel_points"),
    "voronoi.m_used_y": ("counts", "voronoi.m_used_y"),
    "voronoi.m_used_k": ("counts", "voronoi.m_used_k"),
    "reduction.map_items": ("counts", "reduction.map_items"),
}
PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in COUNTS},
    "lvalues.tail_budget_ratio": "ratio",
    "special.bump_cum_s": "s",
    "lvalues.afe_cache_hit_ratio": "ratio",
    "lvalues.afe_cache_lookups": "count",
    "reduction.pool_speedup": "ratio",
    "cli.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.cal_s": "s",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed task)."""


class Runner:
    """Spawns worker iterations for one task list."""

    def __init__(self, tasks: list[list[str]], tmp: Path):
        self.tasks = tasks
        self.tmp = tmp
        self.env = {**os.environ, **THREAD_PINS}
        self.env.pop("PYTHONPATH", None)  # the worker imports lmoll from ROOT/src only

    def spawn(self, mode: str = "plain", threads: int = 1,
              trace_file: Path | None = None) -> dict:
        spec = {"src": str(ROOT / "src"), "tasks": self.tasks, "threads": threads,
                "out_dir": str(self.tmp), "mode": mode,
                "trace_file": str(trace_file) if trace_file else None}
        spec["spawned_at"] = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                                  env=self.env, cwd=str(ROOT), capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            raise HarnessError(f"iteration exceeded {CHILD_TIMEOUT_S} s") from e
        if proc.returncode != 0:
            raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as e:
            raise HarnessError(f"worker printed no report: {proc.stdout[-500:]}") from e


def score(children: list[dict], references: dict) -> dict:
    """Check every task of every iteration; payloads must repeat byte for byte."""
    first: dict[str, str | None] = {}
    attempted = failed = 0
    margins: list[float] = []
    recorded: dict = {}
    problems: list[str] = []
    for child in children:
        for t in child["tasks"]:
            attempted += 1
            key = task_key(t["argv"])
            errors, margin, rec = check(t["argv"], t["rc"], t["payload"] or "",
                                        references.get(key))
            if t["error"]:
                errors.append(t["error"])
            if first.setdefault(key, t["payload"]) != t["payload"]:
                errors.append("payload differs from the run's first iteration")
            if errors:
                failed += 1
                problems.append(f"{key}: {errors[0]}")
            margins.append(margin)
            if rec:
                recorded[key] = rec
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "tol_margin_digits": min(margins), "recorded": recorded}


def _fits(start: float, seconds: float, rounds: int, reserve: float = 0.0) -> bool:
    """Whether one more round (of the average length so far) still fits."""
    elapsed = time.monotonic() - start
    return elapsed + elapsed / rounds + reserve <= seconds


def plain_run(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    start, children = time.monotonic(), []
    while True:
        children.append(runner.spawn())
        if not _fits(start, seconds, len(children)):
            break
    metrics = {name: statistics.median(_ref(c, name) for c in children)
               for name in ("wall_s", "cpu_s", "setup_s")}
    metrics["peak_rss_mb"] = statistics.median(c["peak_rss_mb"] for c in children)
    return children, metrics


def _ref(child: dict, name: str) -> float:
    """A time of one iteration in reference seconds."""
    return child[name.replace("_s", "_cal")] * CAL_REF_S


def _per_layer(med: dict) -> dict:
    tr = med["trace"]
    hot = tr["hot"]
    sources = {"calls": tr["calls"], "counts": tr["counts"],
               "hot_calls": {k: v["calls"] for k, v in hot.items()}}
    unknown = set(tr["self_s"]) - {n[:-2] for n in SELF_TIMES}
    if unknown:
        raise HarnessError(f"spans without a per-layer metric: {sorted(unknown)}")
    out = {name: tr["self_s"].get(name[:-2], 0.0) for name in SELF_TIMES}
    out.update({name: sources[src].get(key, 0) for name, (src, key) in COUNTS.items()})
    out["special.bump_cum_s"] = hot["special.SmoothBump.__call__"]["cum_s"]
    lookups = tr["afe_cache"]["hits"] + tr["afe_cache"]["misses"]
    out["lvalues.afe_cache_lookups"] = lookups
    out["lvalues.afe_cache_hit_ratio"] = tr["afe_cache"]["hits"] / lookups if lookups else 0.0
    out["cli.overhead_s"] = med["wall_s"] - tr["top_s"]
    out["trace.wall_s"] = med["wall_s"]
    return out


def traced_run(runner: Runner, seconds: float, trace_path: Path) -> tuple[list[dict], dict]:
    start, plain, traced = time.monotonic(), [], []
    while True:
        spans = runner.tmp / f"spans{len(traced)}.json"
        # alternate which of the pair runs first, so drift does not bias the ratio
        if len(plain) % 2:
            traced.append(runner.spawn("trace", trace_file=spans))
            plain.append(runner.spawn())
        else:
            plain.append(runner.spawn())
            traced.append(runner.spawn("trace", trace_file=spans))
        # the closing threads=1/threads=2 pair costs about one round
        if not _fits(start, seconds, len(plain), reserve=(time.monotonic() - start) / len(plain)):
            break
    order = sorted(range(len(traced)), key=lambda i: traced[i]["wall_s"])
    mid = order[(len(order) - 1) // 2]
    shutil.move(runner.tmp / f"spans{mid}.json", trace_path)
    metrics = _per_layer(traced[mid])
    metrics["trace.overhead_ratio"] = (statistics.median(_ref(c, "wall_s") for c in traced)
                                       / statistics.median(_ref(c, "wall_s") for c in plain))
    metrics["trace.cal_s"] = traced[mid]["cal_s"]
    # census calls no ordered_map, so it has no pool to measure: 0
    metrics["reduction.pool_speedup"] = 0.0
    if metrics["reduction.map_items"]:
        one = runner.spawn("map", threads=1)
        two = runner.spawn("map", threads=2)
        plain += [one, two]
        t2 = two["trace"]["self_s"].get("reduction.map", 0.0) / two["cal_s"]
        if t2 > 0:
            metrics["reduction.pool_speedup"] = (one["trace"]["self_s"]["reduction.map"]
                                                 / one["cal_s"] / t2)
    return plain + traced, metrics


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lmoll" / "cli.py").is_file():
        print(f"perfbench: no lmoll sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    tasks = tasks_for(args.workload, args.seed)
    references = load_references().get(args.workload, {})
    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            runner = Runner(tasks, Path(tmp))
            if args.trace:
                trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
                children, metrics = traced_run(runner, args.seconds, trace_path)
                units = PER_LAYER
            else:
                children, metrics = plain_run(runner, args.seconds)
                units = END_TO_END
    except HarnessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    scored = score(children, references)
    metrics["tol_margin_digits"] = scored["tol_margin_digits"]

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tasks": [task_key(t) for t in tasks], "iterations": len(children),
        "samples": {name: [c[name] for c in children] for name in ("wall_s", "setup_s", "cal_s")},
        "nproc": len(os.sched_getaffinity(0)), "thread_pins": THREAD_PINS,
        "environment": children[0]["environment"], "git_revision": _git_revision(),
        "src_sha256": _src_digest(), "recorded": scored["recorded"],
        "problems": scored["problems"][:10],
    }
    print(json.dumps(stamp, sort_keys=True))
    result = {
        "correct": scored["failed"] == 0,
        "attempted": scored["attempted"],
        "failed": scored["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
