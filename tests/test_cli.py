"""Command-line surface: exit codes, payload shapes, determinism.

Numerical values are covered by the module suites; here we check the
plumbing contract: usage errors exit 1 and name the flag, tolerance
failures exit 2, output files are written atomically and byte-identical
across reruns and to the frozen payloads in tests/golden/cli_payloads.json.
"""
from __future__ import annotations

import importlib
import json
import math
import pathlib
import sys
import tempfile
import tracemalloc

import pytest

from lmoll import cli
from lmoll.cli import main

GOLDEN_PAYLOADS = pathlib.Path(__file__).parent / "golden" / "cli_payloads.json"

# one small run of each command, plus the CSV form of the two table commands
GOLDEN_ARGVS = {
    "census": ["census", "--q", "29", "--D", "5"],
    "census-csv": ["census", "--q", "29", "--D", "5", "--format", "csv"],
    "moments": ["moments", "--q", "29", "--D", "5", "--X", "10"],
    "moments-csv": ["moments", "--q", "29", "--D", "5", "--X", "10",
                    "--format", "csv"],
    "afe-check": ["afe-check", "--q", "13", "--D", "5"],
    "identity-suite": ["identity-suite", "--max-q", "11", "--max-D", "20"],
    "shifted-conv": ["shifted-conv", "--a", "1", "--b", "1", "--q", "101",
                     "--D", "5", "--scales", "200,300"],
    "voronoi-check": ["voronoi-check", "--D", "5", "--c", "3", "--a", "2",
                      "--bump-lo", "50", "--bump-hi", "4850"],
}


_SHIFTED = ["shifted-conv", "--a", "1", "--b", "1", "--q", "101", "--D", "5"]
_VORONOI = GOLDEN_ARGVS["voronoi-check"]

# each argv holds exactly one error: the usage-error site it reaches, and
# the exact message that follows "usage error: " on stderr
USAGE_ERRORS = {
    "census-D": (["census", "--q", "29", "--D", "6"],
                 "--D: modulus 6 is not 1 mod 4; even squarefree case only"),
    "census-q": (["census", "--q", "30", "--D", "5"],
                 "--q/--D/--threshold: census limited to prime q <= 10^4"),
    "moments-D": (["moments", "--q", "29", "--D", "9", "--X", "10"],
                  "--D: modulus 9 is not squarefree"),
    "moments-X": (["moments", "--q", "29", "--D", "5", "--X", "30"],
                  "--q/--X: mollifier cutoff limited to X <= q"),
    "afe-check-D": (["afe-check", "--q", "13", "--D", "1"],
                    "--D: modulus must exceed 1"),
    "afe-check-q": (["afe-check", "--q", "12", "--D", "5"],
                    "--q/--D: modulus must be a prime in [5, 10^5], got 12"),
    "shifted-conv-D": (_SHIFTED[:-1] + ["7", "--scales", "200"],
                       "--D: modulus 7 is not 1 mod 4; even squarefree case only"),
    "shifted-conv-scales": (_SHIFTED + ["--scales", "200,abc"],
                            "--scales: could not convert string to float: 'abc'"),
    "shifted-conv-params": (["shifted-conv", "--a", "1", "--b", "1", "--q", "5",
                             "--D", "5", "--scales", "200"],
                            "--a/--b/--q/--scales/--sign: q must not divide D"),
    "shifted-conv-L-max": (_SHIFTED + ["--scales", "200", "--L-max", "10"],
                           "--L-max: L_max below 1000 gives useless tails"),
    "voronoi-check-D": (["voronoi-check", "--D", "45"] + _VORONOI[3:],
                        "--D: modulus 45 is not squarefree"),
    "voronoi-check-c-a": (["voronoi-check", "--D", "5", "--c", "10", "--a", "4"]
                          + _VORONOI[7:], "--c/--a: a must be coprime to c"),
    "voronoi-check-bump": (_VORONOI[:7] + ["--bump-lo", "60", "--bump-hi", "50"],
                           "--bump-lo/--bump-hi: need 0 < lo < hi"),
    "voronoi-check-m-max": (_VORONOI + ["--m-max", "0"],
                            "--bump-hi/--m-max: m_max must be at least 1, got 0"),
    "voronoi-check-support": (_VORONOI[:10] + ["2e6", "--m-max", "1"],
                              "--bump-hi/--m-max: support cap is 1e6"),
    "threads": (GOLDEN_ARGVS["census"] + ["--threads", "0"],
                "--threads: must be at least 1"),
    "tol": (_VORONOI + ["--tol", "nan"], "--tol: must be finite and positive, got nan"),
    "threshold": (GOLDEN_ARGVS["census"] + ["--threshold", "-1"],
                  "--threshold: must be finite and non-negative, got -1.0"),
    "identity-suite-max-q": (["identity-suite", "--max-q", "6"],
                             "--max-q: must be at least 7, got 6"),
    "identity-suite-max-D": (["identity-suite", "--max-D", "4"],
                             "--max-D: must be at least 5, got 4"),
}

# inputs past a cap: each is rejected before the table or the loop it would need
CAPS = {
    "D": (["census", "--q", "29", "--D", "1000001"],
          "--D: modulus 1000001 is above the cap 10^6"),
    "D-huge": (["voronoi-check", "--D", "1000000001"] + _VORONOI[3:],
               "--D: modulus 1000000001 is above the cap 10^6"),
    "c": (["voronoi-check", "--D", "5", "--c", "10000000019"] + _VORONOI[5:],
          "--c/--a: c must be at most 10^6, got 10000000019"),
    "a-M": (["shifted-conv", "--a", "997", "--b", "1", "--q", "101", "--D", "5",
             "--scales", "2500"],
            "--a/--b/--q/--scales/--sign: a M and b N must be at most 1e6, "
            "got 2.4925e+06 and 2500"),
    "max-D": (["identity-suite", "--max-D", "100000"],
              "--max-D: must be at most 10^4, got 100000"),
    "afe-n_max": (["afe-check", "--q", "99991", "--D", "999997"],
                  "--q/--D: AFE length n_max must be at most 2*10^6, got 5498573660"),
    "afe-n_max-D5": (["afe-check", "--q", "99991", "--D", "5"],
                     "--q/--D: AFE length n_max must be at most 2*10^6, got 7951683"),
    "moments-n_max": (["moments", "--q", "99991", "--D", "999997", "--X", "10"],
                      "--q/--D: AFE length n_max must be at most 2*10^6, got 5498573660"),
    "afe-qD": (["afe-check", "--q", "43", "--D", "999997"],
               "--q/--D: AFE modulus q D must be at most 10^7, got 42999871"),
    "moments-qD": (["moments", "--q", "43", "--D", "999997", "--X", "10"],
                   "--q/--D: AFE modulus q D must be at most 10^7, got 42999871"),
    "census-qD": (["census", "--q", "9973", "--D", "999997"],
                  "--q/--D/--threshold: census limited to q D <= 10^8, got 9972970081"),
}


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def payload_of(capsys):
    out = capsys.readouterr().out.splitlines()
    return json.loads("\n".join(out[1:]))


def payload_bytes(argv, out_path: pathlib.Path) -> tuple[int, bytes]:
    rc = run_cli(list(argv) + ["--out", str(out_path)])
    return rc, out_path.read_bytes()


class TestPlumbing:
    def test_version(self, capsys):
        assert run_cli(["--version"]) == 0
        assert capsys.readouterr().out.startswith("lmoll ")

    def test_one_parser_per_interpreter(self, monkeypatch, capsys):
        # main builds its parse tree once; parsing leaves no state in it, so
        # interleaved commands, errors and --version read exactly as they
        # do from a fresh parser per call
        argvs = [GOLDEN_ARGVS["census"], USAGE_ERRORS["census-q"][0], ["--version"],
                 GOLDEN_ARGVS["afe-check"], ["census", "--D", "5"], ["nosuch"],
                 GOLDEN_ARGVS["census-csv"], ["afe-check", "--q", "13", "--D", "5",
                                              "--tol", "1e-30"]]

        def run_all():
            got = []
            for argv in argvs:
                rc = run_cli(argv)
                captured = capsys.readouterr()
                got.append((rc, captured.out, captured.err))
            return got

        cli._parser.cache_clear()
        reused = run_all()
        assert cli._parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert run_all() == reused
        assert [rc for rc, _, _ in reused] == [0, 1, 0, 0, 1, 1, 0, 2]

    def test_unknown_command(self, capsys):
        assert run_cli(["nosuch"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run_cli(["census", "--D", "5"]) == 1
        assert "--q" in capsys.readouterr().err

    def test_bad_modulus_names_flag(self, capsys):
        assert run_cli(["census", "--q", "30", "--D", "5"]) == 1
        assert "--q" in capsys.readouterr().err

    def test_bad_discriminant_names_flag(self, capsys):
        assert run_cli(["census", "--q", "29", "--D", "6"]) == 1
        assert "--D" in capsys.readouterr().err

    def test_csv_only_for_tables(self, capsys):
        rc = run_cli(["afe-check", "--q", "13", "--D", "5",
                      "--format", "csv"])
        assert rc == 1
        assert "--format" in capsys.readouterr().err

    def test_threads_guard(self, capsys):
        rc = run_cli(["census", "--q", "29", "--D", "5", "--threads", "0"])
        assert rc == 1
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("L_max", ["10", "20000000"])
    def test_L_max_out_of_range_named(self, L_max, capsys):
        rc = run_cli(["shifted-conv", "--a", "1", "--b", "1", "--q", "101",
                      "--D", "5", "--scales", "200", "--L-max", L_max])
        assert rc == 1
        assert "--L-max" in capsys.readouterr().err

    @pytest.mark.parametrize("m_max", ["0", "-5", "2000000"])
    def test_m_max_out_of_range_named(self, m_max, capsys):
        rc = run_cli(["voronoi-check", "--D", "5", "--c", "3", "--a", "2",
                      "--bump-lo", "50", "--bump-hi", "4850", "--m-max", m_max])
        assert rc == 1
        assert "--m-max" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("command", ["afe-check", "voronoi-check"])
    def test_tol_must_be_finite_and_positive(self, command, value, tmp_path, capsys):
        out = tmp_path / "payload"
        assert run_cli(GOLDEN_ARGVS[command] + ["--tol", value, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: --tol: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["census", "moments"])
    def test_threshold_must_be_finite_and_nonnegative(self, command, value, tmp_path,
                                                      capsys):
        out = tmp_path / "payload"
        assert run_cli(GOLDEN_ARGVS[command] + ["--threshold", value, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: --threshold: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_usage_error_bytes(self, argv, message, tmp_path, capsys):
        out = tmp_path / "payload"
        assert run_cli(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", CAPS.values(), ids=CAPS)
    def test_caps_fail_before_any_table(self, argv, message, capsys):
        tracemalloc.start()
        try:
            rc = run_cli(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert peak < 512 * 1024

    @pytest.mark.parametrize("argv,message", [
        (_SHIFTED + ["--scales", "200,300", "--L-max", "10"],
         "--L-max: L_max below 1000 gives useless tails"),
        (_VORONOI + ["--m-max", "0"], "--bump-hi/--m-max: m_max must be at least 1, got 0"),
        (["identity-suite", "--max-D", "10001"], "--max-D: must be at most 10^4, got 10001"),
        (["identity-suite", "--max-q", "0", "--max-D", "0"], "--max-q: must be at least 7, got 0"),
    ])
    def test_flags_checked_before_any_sum(self, argv, message, monkeypatch, capsys):
        def compute(*args, **kwargs):
            raise AssertionError("a sum ran before the flags were checked")

        for name in ("brute_shifted_conv", "voronoi_lhs", "_suite_epsilon",
                     "_suite_h_kernel", "_suite_restricted_divisor", "_suite_orthogonality"):
            monkeypatch.setattr(cli, name, compute)
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("q,D", [("5", "5"), ("13", "65")])
    def test_shifted_conv_rejects_q_dividing_D(self, q, D, tmp_path, capsys):
        out = tmp_path / "payload"
        rc = run_cli(["shifted-conv", "--a", "1", "--b", "1", "--q", q, "--D", D,
                      "--scales", "200", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --a/--b/--q/--scales/--sign: ")
        assert "q must not divide D" in err
        assert not out.exists()


class TestGoldenPayloads:
    """Payload bytes of GOLDEN_ARGVS, frozen at an earlier commit, so a change
    that moves any bit of any command's output fails here.  Regenerate only
    at a commit whose outputs are trusted:

        PYTHONPATH=src python tests/test_cli.py
    """

    @pytest.mark.parametrize("name", sorted(GOLDEN_ARGVS))
    def test_payload_bytes(self, name, tmp_path, capsys):
        argv = GOLDEN_ARGVS[name]
        golden = json.loads(GOLDEN_PAYLOADS.read_text())
        rc, got = payload_bytes(argv, tmp_path / "payload")
        assert rc == 0
        assert got == golden[" ".join(argv)].encode()


class TestCensus:
    def test_json_payload(self, capsys):
        assert run_cli(["census", "--q", "29", "--D", "5"]) == 0
        rec = payload_of(capsys)
        assert rec["q"] == 29 and rec["D"] == 5
        assert rec["phi_plus"] == 13
        assert 0 <= rec["nonzero_product"] <= rec["phi_plus"]
        assert 0 <= rec["nonzero_plain"] <= rec["phi_plus"]

    def test_output_file_deterministic(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["census", "--q", "29", "--D", "5",
                        "--out", str(f1)]) == 0
        assert run_cli(["census", "--q", "29", "--D", "5",
                        "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        json.loads(f1.read_text())
        # summary only on stdout when writing to a file
        out = capsys.readouterr().out
        assert "census q=29" in out and "{" not in out

    def test_csv_format(self, capsys):
        assert run_cli(["census", "--q", "29", "--D", "5",
                        "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "q,D,threshold,phi_plus,nonzero_product,nonzero_plain"
        assert lines[2].startswith("29,5,")


class TestMoments:
    def test_json_keys(self, capsys):
        assert run_cli(["moments", "--q", "29", "--D", "5", "--X", "10"]) == 0
        rec = payload_of(capsys)
        assert set(rec) == {"q", "D", "X", "s1_re", "s1_im", "s2", "ratio",
                            "census_nonzero", "phi_plus"}
        assert 0.0 <= rec["ratio"] <= 1.0 + 1e-9

    def test_csv_format(self, capsys):
        assert run_cli(["moments", "--q", "29", "--D", "5", "--X", "10",
                        "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("q,D,X,")


class TestAfeCheck:
    def test_agreement_exit_zero(self, capsys):
        assert run_cli(["afe-check", "--q", "13", "--D", "5"]) == 0
        rec = payload_of(capsys)
        assert rec["pass"] is True
        assert rec["count"] == 5
        assert rec["max_residual"] < 1e-6

    def test_tolerance_failure_exit_two(self, capsys):
        rc = run_cli(["afe-check", "--q", "13", "--D", "5",
                      "--tol", "1e-20"])
        assert rc == 2
        assert payload_of(capsys)["pass"] is False


class TestIdentitySuite:
    def test_small_run(self, capsys):
        rc = run_cli(["identity-suite", "--max-q", "11", "--max-D", "20"])
        assert rc == 0
        rec = payload_of(capsys)
        assert rec["pass"] is True
        for name in ("orthogonality", "epsilon", "restricted_divisor", "h_kernel"):
            assert rec[name]["pass"] is True
            assert rec[name]["cases"] > 0

    def test_smallest_bounds_leave_no_battery_empty(self, capsys):
        assert run_cli(["identity-suite", "--max-q", "7", "--max-D", "5"]) == 0
        rec = payload_of(capsys)
        assert rec["pass"] is True
        assert all(rec[name]["cases"] > 0 for name in
                   ("orthogonality", "epsilon", "restricted_divisor", "h_kernel"))


class TestShiftedConv:
    def test_scales_payload(self, capsys):
        rc = run_cli(["shifted-conv", "--a", "1", "--b", "1", "--q", "101",
                      "--D", "5", "--scales", "200,300"])
        assert rc == 0
        rec = payload_of(capsys)
        assert [row["M"] for row in rec["scales"]] == [200.0, 300.0]
        for row in rec["scales"]:
            assert set(row) == {"M", "N", "brute", "main", "tail",
                                "rel_deviation"}
            assert row["tail"] >= 0.0

    def test_discriminant_above_int8(self, capsys):
        # D = 129 once overflowed the int8 character table in the series
        rc = run_cli(["shifted-conv", "--a", "1", "--b", "1", "--q", "101",
                      "--D", "129", "--scales", "200"])
        assert rc == 0
        assert math.isfinite(payload_of(capsys)["scales"][0]["main"])

    def test_bad_scales_named(self, capsys):
        rc = run_cli(["shifted-conv", "--a", "1", "--b", "1", "--q", "101",
                      "--D", "5", "--scales", "abc"])
        assert rc == 1
        assert "--scales" in capsys.readouterr().err


class TestVoronoiCheck:
    def test_small_case(self, capsys):
        rc = run_cli(["voronoi-check", "--D", "5", "--c", "3", "--a", "2",
                      "--bump-lo", "50", "--bump-hi", "4850"])
        assert rc == 0
        rec = payload_of(capsys)
        assert set(rec) == {"insufficient", "lhs", "residual", "rhs",
                            "tail_bound"}
        assert rec["residual"] < 1e-6
        assert rec["insufficient"] is False

    def test_tolerance_failure_exit_two(self, capsys):
        rc = run_cli(["voronoi-check", "--D", "5", "--c", "3", "--a", "2",
                      "--bump-lo", "50", "--bump-hi", "4850",
                      "--tol", "1e-30"])
        assert rc == 2

    def test_twist_flag_named(self, capsys):
        rc = run_cli(["voronoi-check", "--D", "5", "--c", "10", "--a", "4",
                      "--bump-lo", "50", "--bump-hi", "4850"])
        assert rc == 1
        assert "--c/--a" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["lmoll", "lmoll.arith", "lmoll.characters",
                                    "lmoll.lvalues", "lmoll.moments", "lmoll.offdiag",
                                    "lmoll.reduction", "lmoll.special", "lmoll.voronoi"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{module}.__all__ names missing {name}"


def write_golden_payloads() -> None:
    payloads = {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in GOLDEN_ARGVS.values():
            rc, got = payload_bytes(argv, pathlib.Path(tmp) / "payload")
            if rc != 0:
                raise SystemExit(f"{' '.join(argv)}: exit {rc}")
            payloads[" ".join(argv)] = got.decode()
    GOLDEN_PAYLOADS.write_text(json.dumps(payloads, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden_payloads()
    print(f"wrote {GOLDEN_PAYLOADS}", file=sys.stderr)
