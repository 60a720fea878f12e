"""One iteration of a workload in a fresh interpreter, so lmoll's caches start cold.

    python3 worker.py SPEC_JSON

SPEC_JSON holds: src (the directory holding the lmoll package), spawned_at
(time.monotonic() just before this process was started), tasks (argv lists),
threads, out_dir, mode ("plain", "trace" or "map") and, for "trace", the
trace_file to write the spans to.  Prints one JSON object on stdout.
Times come raw and in calibration units: divided by the time a fixed
calibration kernel took around them, which gauges how fast the machine ran
meanwhile.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _environment(lmoll) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "lmoll": lmoll.__version__}


def calibrate() -> float:
    """Seconds for a fixed kernel mixing interpreter-bound loops with small
    vectorised transcendental sums, the two kinds of work lmoll does."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 4096)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(600):
        acc += float(np.exp(-1j * i * x).sum().real)
        acc += sum(k * k % 7 for k in range(300))
    return time.perf_counter() - t0


# Calibrate again once this much task time has passed, so each stretch of
# tasks is scaled by the machine speed measured around it.
CAL_EVERY_S = 1.0


def run_tasks(cli, tasks, threads, out_dir, first_cal, tracer=None) -> tuple[list[dict], dict]:
    """Run each argv through cli.main, calibrating between stretches of tasks.

    first_cal is a calibration taken just before.  Returns the task results
    and the timings: raw wall_s and cpu_s, the same in calibration units
    (wall_cal, cpu_cal), and cal_s, the mean calibration.
    """
    results = []
    cals = [first_cal]
    t = {"wall_s": 0.0, "cpu_s": 0.0, "wall_cal": 0.0, "cpu_cal": 0.0}
    stretch_wall = stretch_cpu = 0.0
    sink = io.StringIO()
    for i, argv in enumerate(tasks):
        out = os.path.join(out_dir, f"task{i}.out")
        if tracer is not None:
            tracer.task = i
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(list(argv) + ["--threads", str(threads), "--out", out])
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:
            rc, error = -1, traceback.format_exc(limit=4)
        stretch_wall += time.perf_counter() - t0
        stretch_cpu += time.process_time() - c0
        payload = None
        if os.path.exists(out):
            with open(out) as fh:
                payload = fh.read()
            os.unlink(out)
        results.append({"argv": argv, "rc": rc, "payload": payload, "error": error})
        sink.seek(0)
        sink.truncate()
        if stretch_wall >= CAL_EVERY_S or i == len(tasks) - 1:
            cals.append(calibrate())
            speed = 2.0 / (cals[-2] + cals[-1])
            t["wall_s"] += stretch_wall
            t["cpu_s"] += stretch_cpu
            t["wall_cal"] += stretch_wall * speed
            t["cpu_cal"] += stretch_cpu * speed
            stretch_wall = stretch_cpu = 0.0
    t["cal_s"] = sum(cals) / len(cals)
    return results, t


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import lmoll.cli  # the import whose cost is setup_s

    setup_s = time.monotonic() - spec["spawned_at"]
    cal = calibrate()
    tracer = None
    if spec["mode"] != "plain":
        from tracer import Tracer  # beside this script, on sys.path

        tracer = Tracer()
        tracer.install(map_only=spec["mode"] == "map")
    results, timing = run_tasks(lmoll.cli, spec["tasks"], spec["threads"],
                                spec["out_dir"], cal, tracer)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {"setup_s": setup_s, "setup_cal": setup_s / cal, **timing,
              "peak_rss_mb": rss_kb / 1024.0, "tasks": results,
              "environment": _environment(lmoll)}
    if tracer is not None:
        tracer.uninstall()
        from lmoll.lvalues import _afe_tables

        info = _afe_tables.cache_info()
        report["trace"] = tracer.summary()
        report["trace"]["afe_cache"] = {"hits": info.hits, "misses": info.misses}
        if spec.get("trace_file"):
            tracer.write_spans(spec["trace_file"])
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
