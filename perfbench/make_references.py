"""Regenerate references.json: every task of every seed variant, run once.

    python3 perfbench/make_references.py

References are meant to be made at a commit whose outputs are trusted and
then kept: the benchmark checks later commits against them.
"""
from __future__ import annotations

import json
import sys
import tempfile

from run import OUT, Runner
from workloads import REFERENCES, VARIANTS, WORKLOADS, task_key, tasks_for


def main() -> int:
    refs: dict[str, dict] = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for workload in WORKLOADS:
            refs[workload] = {}
            for variant in range(VARIANTS):
                tasks = tasks_for(workload, variant)
                child = Runner(tasks, tmp).spawn()
                for t in child["tasks"]:
                    if t["rc"] != 0 or t["payload"] is None:
                        print(f"{task_key(t['argv'])}: exit {t['rc']} {t['error'] or ''}",
                              file=sys.stderr)
                        return 1
                    refs[workload][task_key(t["argv"])] = json.loads(t["payload"])
                print(f"{workload} variant {variant}: {len(tasks)} tasks, "
                      f"{child['wall_s']:.2f} s", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
