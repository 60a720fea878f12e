"""Workload task lists and the correctness check of their payloads.

A workload is a list of `lmoll` CLI argument vectors.  `--seed` picks one of
VARIANTS input sets per workload (seed 0 is the default set); every variant
stays in a narrow band around the default so that the work per run barely
moves with the seed, and every variant has a stored reference payload per
task in references.json, generated with make_references.py.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

VARIANTS = 8

REFERENCES = Path(__file__).with_name("references.json")

# Relative tolerance for float fields compared against the stored reference.
# The scale floor keeps fields that are zero in exact arithmetic (the
# imaginary part of a real first moment, ~1e-16) from failing on roundoff.
REF_RTOL = 1e-8
REF_SCALE_FLOOR = 1e-3
# Digits of headroom reported when an error reads as zero.
MARGIN_CAP = 8.0

# Frozen tolerances of the identity-suite batteries (see lmoll.cli).
IDENTITY_TOLS = {"epsilon": 1e-10, "restricted_divisor": 1e-12, "h_kernel": 1e-10}

# Fields that hold a command's own cross-route residual: checked against the
# command's tolerance, never against the reference.  rel_deviation is the
# criterion-10 quantity, a recorded value and not pass/fail.
_RESIDUAL_FIELDS = {"max_residual", "residual"}
_RECORDED_FIELDS = {"rel_deviation"}

_CENSUS_Q = {
    1009: (1009, 1013, 1019, 997, 1021, 991, 1031, 1033),
    2003: (2003, 1999, 1997, 2011, 1993, 2017, 1987, 1979),
    4001: (4001, 4003, 4007, 3989, 4013, 4019, 4021, 4027),
    8009: (8009, 8011, 8017, 7993, 8039, 8053, 7963, 8059),
    9973: (9973, 9967, 9949, 9941, 9931, 9929, 9923, 9907),  # census caps q at 10^4
}
_FAMILY_X = ((25, 10), (24, 9), (26, 11), (23, 8), (27, 12), (22, 7), (28, 13), (21, 6))
_SHIFTED_D = (5, 13, 17, 21, 29, 33, 37, 41)
# twist numerators a for (D, c) = (5, 7) coprime, (65, 10) partial, (5, 10) full
_VORONOI_A = ((1, 3, 1), (2, 7, 3), (3, 9, 7), (4, 1, 9),
              (5, 3, 3), (6, 7, 1), (2, 9, 9), (3, 1, 7))
_VORONOI_CASES = ((5, 7), (65, 10), (5, 10))


def _family(v: int) -> list[list[str]]:
    x1, x2 = _FAMILY_X[v]
    return [["moments", "--q", "101", "--D", "5", "--X", str(x1)],
            ["moments", "--q", "101", "--D", "5", "--X", str(x2)],
            ["afe-check", "--q", "101", "--D", "5"]]


def _census(v: int) -> list[list[str]]:
    tasks = [["census", "--q", str(qs[v]), "--D", str(D)]
             for qs in _CENSUS_Q.values() for D in (5, 13)]
    return tasks + [["identity-suite"]]


def _shifted(v: int) -> list[list[str]]:
    # one criterion-10 scale per run keeps a run's iterations short; the
    # main_term/brute split is the same at every scale
    return [["shifted-conv", "--a", "1", "--b", "1", "--q", "101",
             "--D", str(_SHIFTED_D[v]), "--scales", "2500"]]


def _voronoi(v: int) -> list[list[str]]:
    return [["voronoi-check", "--D", str(D), "--c", str(c), "--a", str(a),
             "--bump-lo", "50", "--bump-hi", "4850"]
            for (D, c), a in zip(_VORONOI_CASES, _VORONOI_A[v])]


WORKLOADS = {"family": _family, "census": _census,
             "shifted": _shifted, "voronoi": _voronoi}


def tasks_for(workload: str, seed: int) -> list[list[str]]:
    """The argv list one iteration of `workload` runs for `seed`."""
    return WORKLOADS[workload](seed % VARIANTS)


def task_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def _margin(tol: float, err: float) -> float:
    if err <= 0.0:
        return MARGIN_CAP
    return min(MARGIN_CAP, math.log10(tol / err))


def _compare(got, ref, path: str, used: list[float], errors: list[str]) -> None:
    """Walk got against ref; exact for ints/bools/strings, REF_RTOL for floats."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            errors.append(f"{path}: keys differ")
            return
        for k in ref:
            if k in _RESIDUAL_FIELDS or k in _RECORDED_FIELDS:
                continue
            _compare(got[k], ref[k], f"{path}.{k}", used, errors)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            errors.append(f"{path}: length differs")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare(g, r, f"{path}[{i}]", used, errors)
    elif isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        u = abs(got - ref) / (REF_RTOL * max(abs(ref), REF_SCALE_FLOOR))
        used.append(u)
        if not u <= 1.0:
            errors.append(f"{path}: {got!r} vs reference {ref!r}")
    elif type(got) is not type(ref) or got != ref:
        errors.append(f"{path}: {got!r} vs reference {ref!r}")


def check(argv: list[str], rc: int, payload: str, reference) -> tuple[list[str], float, dict]:
    """Check one task's outcome.

    Returns (errors, tol_margin_digits, recorded).  The margin is
    log10(tolerance / error) with the command's own cross-route residual
    where it has one, else the deviation from the reference.
    """
    errors: list[str] = []
    recorded: dict = {}
    if rc != 0:
        return [f"exit code {rc}"], 0.0, recorded
    try:
        got = json.loads(payload)
    except ValueError as e:
        return [f"payload is not JSON: {e}"], 0.0, recorded
    if reference is None:
        return ["no reference payload for this task"], 0.0, recorded
    used: list[float] = []
    _compare(got, reference, argv[0], used, errors)
    if errors:
        return errors, 0.0, recorded

    cmd = argv[0]
    if cmd == "afe-check":
        if not (got["pass"] and got["max_residual"] < got["tol"]):
            errors.append("afe-check residual over tolerance")
        margin = _margin(got["tol"], got["max_residual"])
    elif cmd == "voronoi-check":
        if got["insufficient"] or not got["residual"] < 1e-6:
            errors.append("voronoi-check residual over tolerance or insufficient")
        margin = _margin(1e-6, got["residual"])
    elif cmd == "identity-suite":
        if not got["pass"]:
            errors.append("identity-suite battery failed")
        margin = min(_margin(tol, got[name]["max_residual"])
                     for name, tol in IDENTITY_TOLS.items())
        if any(got[name]["max_residual"] >= tol for name, tol in IDENTITY_TOLS.items()):
            errors.append("identity-suite residual over tolerance")
    else:
        margin = MARGIN_CAP if not used else -math.log10(max(max(used), 10.0 ** -MARGIN_CAP))
        if cmd == "census":
            if not (got["nonzero_product"] <= got["phi_plus"] == (got["q"] - 3) // 2
                    and got["nonzero_plain"] <= got["phi_plus"]):
                errors.append("census counts exceed the family size")
        elif cmd == "moments":
            if not 0.0 <= got["ratio"] <= 1.0 + 1e-9:
                errors.append("moments ratio outside [0, 1]")
            # criterion 12a: |S1/phi_plus - 1|, a strict xfail at q=101, X=25
            recorded["c12a_ratio"] = abs(got["s1_re"] / got["phi_plus"] - 1.0)
        elif cmd == "shifted-conv":
            recorded["c10_rel_deviation"] = [r["rel_deviation"] for r in got["scales"]]
    return errors, margin, recorded
