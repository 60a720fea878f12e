"""Tests of the benchmark itself: inputs, the payload check, names, trace sums."""
import copy
import json
import math
import tempfile
from pathlib import Path

import pytest

import run
from workloads import VARIANTS, WORKLOADS, check, load_references, task_key, tasks_for

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_argv(workload):
    assert tasks_for(workload, 12345) == tasks_for(workload, 12345)
    assert tasks_for(workload, 3) == tasks_for(workload, 3 + VARIANTS)
    variants = {json.dumps(tasks_for(workload, s)) for s in range(VARIANTS)}
    assert len(variants) == VARIANTS


def test_default_seed_inputs():
    assert tasks_for("family", 0) == [
        "moments --q 101 --D 5 --X 25".split(), "moments --q 101 --D 5 --X 10".split(),
        "afe-check --q 101 --D 5".split()]
    census = [task_key(t) for t in tasks_for("census", 0)]
    assert census[-1] == "identity-suite"
    assert {(t.split()[2], t.split()[4]) for t in census[:-1]} == {
        (str(q), str(D)) for q in (1009, 2003, 4001, 8009, 9973) for D in (5, 13)}
    assert [(t[2], t[4], t[6]) for t in tasks_for("voronoi", 0)] == [
        ("5", "7", "1"), ("65", "10", "3"), ("5", "10", "1")]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_variant_has_references(workload):
    refs = load_references()[workload]
    for seed in range(VARIANTS):
        for argv in tasks_for(workload, seed):
            assert task_key(argv) in refs


def _reference(prefix):
    refs = load_references()
    for workload in refs.values():
        for key, payload in workload.items():
            if key.startswith(prefix):
                return key.split(), payload
    raise KeyError(prefix)


@pytest.mark.parametrize("prefix, field, perturb", [
    ("moments", "s1_re", lambda v: v * (1 + 1e-6)),
    ("moments", "census_nonzero", lambda v: v - 1),
    ("census", "nonzero_product", lambda v: v - 1),
    ("afe-check", "max_residual", lambda v: 1.0),
    ("afe-check", "pass", lambda v: False),
    ("voronoi-check", "insufficient", lambda v: True),
    ("voronoi-check", "tail_bound", lambda v: v * 1.01),
])
def test_check_flags_perturbed_payload(prefix, field, perturb):
    argv, ref = _reference(prefix)
    errors, margin, _ = check(argv, 0, json.dumps(ref), ref)
    assert errors == [] and margin > 0
    bad = copy.deepcopy(ref)
    bad[field] = perturb(bad[field])
    errors, _, _ = check(argv, 0, json.dumps(bad), ref)
    assert errors


def test_check_flags_exit_code_and_garbage():
    argv, ref = _reference("census")
    assert check(argv, 2, json.dumps(ref), ref)[0]
    assert check(argv, 0, "not json", ref)[0]
    assert check(argv, 0, json.dumps(ref), None)[0]


def test_check_tolerates_roundoff():
    argv, ref = _reference("moments")
    near = dict(ref, s1_re=ref["s1_re"] * (1 + 1e-15), s1_im=ref["s1_im"] + 1e-15)
    errors, margin, recorded = check(argv, 0, json.dumps(near), ref)
    assert errors == [] and 0 < margin < 8.0
    assert "c12a_ratio" in recorded


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_self_times_add_up_to_traced_wall():
    tasks = [["census", "--q", "101", "--D", "5"],
             ["moments", "--q", "29", "--D", "5", "--X", "5"],
             ["voronoi-check", "--D", "5", "--c", "7", "--a", "1",
              "--bump-lo", "5", "--bump-hi", "50"],
             ["shifted-conv", "--a", "1", "--b", "1", "--q", "29", "--D", "5",
              "--scales", "100"]]
    with tempfile.TemporaryDirectory() as tmp:
        runner = run.Runner(tasks, Path(tmp))
        traced = runner.spawn("trace")
        plain = runner.spawn()
    assert all(t["rc"] == 0 for t in traced["tasks"])
    assert [t["payload"] for t in traced["tasks"]] == [t["payload"] for t in plain["tasks"]]
    layer = run._per_layer(traced)
    total = sum(layer[name] for name in run.SELF_TIMES) + layer["cli.overhead_s"]
    assert math.isclose(total, layer["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9)
    assert layer["cli.overhead_s"] >= 0
    for name in ("special.weight_s", "moments.census_s", "voronoi.rhs_s",
                 "offdiag.main_term_s", "special.bump_calls", "lvalues.afe_calls"):
        assert layer[name] > 0, name
