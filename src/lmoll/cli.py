"""Batch command-line surface with machine-readable output.

Every command is deterministic: no seeds, no environment configuration.
Every command runs on one thread; --threads is validated but has no effect.
Each command maps its parsed flags to (record, summary, ok); main alone
renders the record, writes it and sets the exit code.  Payloads are
canonical JSON (sorted keys); census and moments also offer CSV, headed by
the record's keys in its order.  The one-line summary goes to stdout, then
the payload, or with --out the payload is written atomically (temp file in
the target directory, then rename) to a file in an existing directory,
which is checked before the first sum; a failed write is a usage error.
Exit codes: 0 success, 1 usage error, 2 a failed check: ok false, or no
record, when the summary goes to stderr and no payload is written.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .arith import RealCharacter, factor
from .characters import (
    build_group,
    enumerate_even_primitive,
    epsilon_product_direct,
    epsilon_product_factored,
    phi_plus,
)
from .lvalues import default_config, oracle_products_at
from .moments import (
    census,
    family_centrals,
    mollified_moments,
    restricted_divisor_product_residuals,
)
from .offdiag import (
    H_kernel,
    H_kernel_product_form,
    ShiftedConvParams,
    _check_L_max,
    brute_shifted_conv,
    main_term,
)
from .special import SmoothBump
from .voronoi import _check_m_max, factor_character, voronoi_lhs, voronoi_rhs

# the flag surface and payload field names; bumped only when they change
INTERFACE_VERSION = "1.0"

EPSILON_TOL = 1e-10
RESTRICTED_DIVISOR_TOL = 1e-12
H_KERNEL_TOL = 1e-10

_IDENTITY_QS = (7, 11, 13, 29)
_IDENTITY_MAX_D = 10**4     # the restricted-divisor battery runs every D up to --max-D
_IDENTITY_DS = (5, 13, 17)
_SHIFT_GRID = (-0.2, 0.0, 0.3)
_H_POINTS = (
    (0.1, 0.2),
    (0.35, -0.05),
    (-0.2, 0.45),
    (0.3 + 0.2j, 0.1 - 0.05j),
    (0.05 + 0.6j, 0.05 - 0.6j),
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract reserves 2 for tolerance
    failures, so usage problems are remapped to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _UsageError(Exception):
    """A bad input; main reports it as "usage error: <flag>: <message>"."""


@contextlib.contextmanager
def _flags(label: str):
    """Report a ValueError raised in the block as a usage error of label."""
    try:
        yield
    except ValueError as e:
        raise _UsageError(f"{label}: {e}") from e


def _write_atomic(target: str, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".lmoll-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render(record: dict, fmt: str = "json") -> str:
    """The payload: canonical JSON (sorted keys, one line), or for csv a
    header of the record's keys and one row of its values, in its order."""
    if fmt == "json":
        return json.dumps(record, sort_keys=True, allow_nan=False) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows((record, record.values()))
    return buf.getvalue()


# ------------------------------------------------------------------ commands


def _psi(D: int) -> RealCharacter:
    with _flags("--D"):
        return RealCharacter(D)


def _cmd_census(args) -> tuple[dict, str, bool]:
    psi = _psi(args.D)
    with _flags("--q/--D/--threshold"):
        nonzero_product, nonzero_plain = census(args.q, psi, args.threshold)
    fam = phi_plus(args.q)
    record = {
        "q": args.q,
        "D": args.D,
        "threshold": args.threshold,
        "phi_plus": fam,
        "nonzero_product": nonzero_product,
        "nonzero_plain": nonzero_plain,
    }
    return (record, f"census q={args.q} D={args.D}: product {nonzero_product}/{fam}, "
                    f"plain {nonzero_plain}/{fam}", True)


def _cmd_moments(args) -> tuple[dict, str, bool]:
    psi = _psi(args.D)
    with _flags("--q/--D"):
        default_config(args.q, args.D)  # the AFE caps, before any table
    with _flags("--q/--X"):
        report = mollified_moments(args.q, psi, args.X, args.threshold)
    return (report.record(),
            f"moments q={args.q} D={args.D} X={args.X}: ratio={report.ratio:.6f} "
            f"census={report.census_nonzero}/{phi_plus(args.q)}", True)


def _cmd_afe_check(args) -> tuple[dict, str, bool]:
    psi = _psi(args.D)
    with _flags("--q/--D"):
        default_config(args.q, args.D)  # the AFE caps, before any table
        family = enumerate_even_primitive(build_group(args.q))
        centrals = family_centrals(args.q, args.D).tolist()
        oracles = oracle_products_at(0.5, family, psi)
        residuals = [abs(c - o) for c, o in zip(centrals, oracles)]
    worst = max(residuals, default=0.0)
    ok = worst < args.tol
    record = {
        "D": args.D,
        "count": len(residuals),
        "max_residual": worst,
        "pass": ok,
        "q": args.q,
        "tol": args.tol,
    }
    return (record, f"afe-check q={args.q} D={args.D}: {len(residuals)} characters, "
                    f"max residual {worst:.3e} ({'ok' if ok else 'FAIL'})", ok)


def _suite_orthogonality(max_q: int) -> dict:
    cases, ok = 0, True
    for q in _IDENTITY_QS:
        if q > max_q:
            continue
        # the table raises unless every entry is within 1e-9 of an integer;
        # each entry, delta = dlog m - dlog n, serves q - 1 pairs of units
        # and must be -1 + ((q-1)/2) [m = +-n mod q]: m = n at delta = 0,
        # m = -n at delta = (q-1)/2
        table = build_group(q).even_pair_sums
        half = (q - 1) // 2
        ok &= np.array_equal(table, np.where(np.arange(q - 1) % half == 0, half - 1, -1))
        cases += (q - 1) * len(table)
    return {"cases": cases, "pass": ok}


def _suite_epsilon(max_q: int, max_D: int) -> dict:
    worst, cases = 0.0, 0
    for q in _IDENTITY_QS:
        if q > max_q:
            continue
        group = build_group(q)
        family = enumerate_even_primitive(group)
        for D in _IDENTITY_DS:
            if D > max_D or D == q:
                continue
            psi = RealCharacter(D)
            for chi in family:
                worst = max(worst, abs(epsilon_product_direct(chi, psi)
                                       - epsilon_product_factored(chi, psi)))
                cases += 1
    return {"cases": cases, "max_residual": worst, "pass": worst < EPSILON_TOL}


def _suite_restricted_divisor(max_D: int) -> dict:
    worst, cases = 0.0, 0
    shifts = [(u, v) for u in _SHIFT_GRID for v in _SHIFT_GRID]
    for D in range(5, max_D + 1, 4):
        if not factor(D).is_squarefree():
            continue
        residuals = restricted_divisor_product_residuals(D, shifts)
        worst = max(worst, *residuals)
        cases += len(residuals)
    return {"cases": cases, "max_residual": worst, "pass": worst < RESTRICTED_DIVISOR_TOL}


def _suite_h_kernel() -> dict:
    worst = 0.0
    for u, v in _H_POINTS:
        h = H_kernel(u, v)
        worst = max(worst, abs(h - H_kernel_product_form(u, v))
                    / max(1.0, abs(h)))
    for v in (0.1, 0.2):
        worst = max(worst, abs(H_kernel(1.0 - v, v)))
    return {"cases": len(_H_POINTS) + 2, "max_residual": worst,
            "pass": worst < H_KERNEL_TOL}


def _cmd_identity_suite(args) -> tuple[dict | None, str, bool]:
    # below the smallest q and D of the batteries, a battery would pass with no case
    if args.max_q < 7:
        raise _UsageError(f"--max-q: must be at least 7, got {args.max_q}")
    if args.max_D < 5:
        raise _UsageError(f"--max-D: must be at least 5, got {args.max_D}")
    if args.max_D > _IDENTITY_MAX_D:
        raise _UsageError(f"--max-D: must be at most 10^4, got {args.max_D}")
    try:
        suites = {
            "epsilon": _suite_epsilon(args.max_q, args.max_D),
            "h_kernel": _suite_h_kernel(),
            "restricted_divisor": _suite_restricted_divisor(args.max_D),
            "orthogonality": _suite_orthogonality(args.max_q),
        }
    except ArithmeticError as e:
        return None, f"identity-suite: {e}", False
    ok = all(s["pass"] for s in suites.values())
    parts = ", ".join(f"{name} {s['cases']}" for name, s in sorted(suites.items()))
    return {**suites, "pass": ok}, f"identity-suite ({'ok' if ok else 'FAIL'}): {parts}", ok


def _cmd_shifted_conv(args) -> tuple[dict, str, bool]:
    psi = _psi(args.D)
    with _flags("--scales"):
        scales = [float(s) for s in args.scales.split(",") if s]
        if not scales:
            raise ValueError("at least one scale required")
    with _flags("--a/--b/--q/--scales/--sign"):
        params = [ShiftedConvParams(a=args.a, b=args.b, q=args.q, M=scale, N=scale,
                                    psi=psi, sign=args.sign) for scale in scales]
    with _flags("--L-max"):
        _check_L_max(args.L_max)
    rows = []
    for scale, p in zip(scales, params):
        brute = brute_shifted_conv(p)
        main, tail = main_term(p, args.L_max)
        rel = abs(brute - main) / abs(brute) if brute != 0.0 else None
        rows.append({"M": scale, "N": scale, "brute": brute, "main": main,
                     "rel_deviation": rel, "tail": tail})
    record = {
        "D": args.D, "a": args.a, "b": args.b, "q": args.q,
        "scales": rows, "sign": args.sign,
    }
    devs = " ".join("-" if r["rel_deviation"] is None
                    else f"{r['rel_deviation']:.4f}" for r in rows)
    return (record, f"shifted-conv a={args.a} b={args.b} q={args.q} D={args.D}: "
                    f"deviations {devs}", True)


def _cmd_voronoi_check(args) -> tuple[dict, str, bool]:
    psi = _psi(args.D)
    with _flags("--c/--a"):
        case = factor_character(psi, args.c, args.a)
    with _flags("--bump-lo/--bump-hi"):
        g = SmoothBump(args.bump_lo, args.bump_hi)
    with _flags("--bump-hi/--m-max"):
        _check_m_max(args.m_max)
        lhs = voronoi_lhs(case, g)
        rhs = voronoi_rhs(case, g, m_max=args.m_max)
    residual = abs(lhs - rhs.value)
    ok = residual < args.tol
    record = {
        "insufficient": rhs.insufficient,
        "lhs": [lhs.real, lhs.imag],
        "residual": residual,
        "rhs": [rhs.value.real, rhs.value.imag],
        # an inf bound (the sum stopped short of its certified stop) is null
        "tail_bound": rhs.tail_bound if math.isfinite(rhs.tail_bound) else None,
    }
    return (record, f"voronoi-check D={args.D} c={args.c} a={args.a}: "
                    f"residual {residual:.3e} ({'ok' if ok else 'FAIL'})", ok)


# ------------------------------------------------------------------ parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output file (atomic write)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lmoll")
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__} (interface {INTERFACE_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("census", help="nonvanishing counts for one family")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--threshold", type=float, default=1e-8)
    _add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(run=_cmd_census)

    p = sub.add_parser("moments", help="mollified first and second moments")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--threshold", type=float, default=1e-8)
    _add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(run=_cmd_moments)

    p = sub.add_parser("afe-check",
                       help="central values against the zeta-sum oracle")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(run=_cmd_afe_check)

    p = sub.add_parser("identity-suite",
                       help="orthogonality, sign factorization, restricted "
                            "divisor identity, and kernel identity batteries")
    p.add_argument("--max-q", type=int, default=29)
    p.add_argument("--max-D", type=int, default=100)
    _add_common(p)
    p.set_defaults(run=_cmd_identity_suite)

    p = sub.add_parser("shifted-conv",
                       help="congruence lattice sum against its prediction")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--scales", required=True,
                   help="comma-separated list of M=N values")
    p.add_argument("--sign", choices=("+", "-", "both"), default="both")
    p.add_argument("--L-max", type=int, default=100000)
    _add_common(p)
    p.set_defaults(run=_cmd_shifted_conv)

    p = sub.add_parser("voronoi-check",
                       help="twisted sum against its dual expansion")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--bump-lo", type=float, required=True)
    p.add_argument("--bump-hi", type=float, required=True)
    p.add_argument("--m-max", type=int, default=100000)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(run=_cmd_voronoi_check)

    return parser


# the parse tree is built on the first call and reused: parsing leaves it as built
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise _UsageError("--threads: must be at least 1")
        # nan or inf would reach the payload as invalid JSON (NaN, Infinity)
        tol = getattr(args, "tol", 1.0)
        if not (math.isfinite(tol) and tol > 0):
            raise _UsageError(f"--tol: must be finite and positive, got {tol}")
        threshold = getattr(args, "threshold", 0.0)
        if not (math.isfinite(threshold) and threshold >= 0):
            raise _UsageError(f"--threshold: must be finite and non-negative, got {threshold}")
        if args.out is not None:
            target = os.path.abspath(args.out)
            if os.path.isdir(target):
                raise _UsageError(f"--out: {target} is a directory")
            if not os.path.isdir(os.path.dirname(target)):
                raise _UsageError(f"--out: no directory {os.path.dirname(target)}")
        record, summary, ok = args.run(args)
        if record is None:
            print(summary, file=sys.stderr)
            return 2
        payload = _render(record, getattr(args, "format", "json"))
        if args.out is not None:
            try:
                _write_atomic(target, payload)
            except OSError as e:
                raise _UsageError(f"--out: {e}") from e
        print(summary)
        if args.out is None:
            print(payload, end="")
        return 0 if ok else 2
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
