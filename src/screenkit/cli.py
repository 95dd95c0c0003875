"""Command-line front end.

Subcommands: solve, verify, converse, competitive, bundling, sweep, report.
Outputs are deterministic for a fixed config and seed; runtimes are only
included when asked for. Exit codes: 0 success, 1 usage, file or parse
problem, 2 size guard, 3 failed validation or verification.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io as _io
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

from .applications import (BundleInstance, CompetitiveParams,
                           certify_bundling, competitive_separating,
                           solve_bundling)
from .errors import ScreenkitError, SizeGuardExceeded, StructuralError
from .io import canonical_json, load_instance, load_params, read_field
from .model import _as_index, _as_real, float_table, validate_instance
from .solver import (DEFAULT_GUARD, productive_marginal, solve_downward_1d,
                     solve_full_1d, solve_joint)
from .stochastics import level_couplings, random_positive_instance
from .theorems import converse_construct, verify_theorem1

REPORT_COLUMNS = ("instance_id", "mode", "value", "gap", "y0_as",
                  "assumptions", "runtime_ms")


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _unreadable(path: str, exc: OSError) -> _CliExit:
    if isinstance(exc, FileNotFoundError):
        return _CliExit(f"no such file: {path}", 1)
    return _CliExit(f"cannot read {path}: {exc.strerror or exc}", 1)


def _load(path: str):
    try:
        return load_instance(path)
    except OSError as exc:
        raise _unreadable(path, exc)
    except StructuralError as exc:
        raise _CliExit(str(exc), 1)


def _load_params(path: str, kind: str, parse):
    """Parsed fields of a params file of one kind; file and parse problems exit 1."""
    try:
        found, params = load_params(path)
        if found != kind:
            raise StructuralError(f"expected kind {kind!r}, got {found!r}")
        return parse(params)
    except OSError as exc:
        raise _unreadable(path, exc)
    except StructuralError as exc:
        raise _CliExit(str(exc), 1)


def _competitive_fields(params: dict) -> dict:
    unknown = sorted(set(params) - {f.name for f in fields(CompetitiveParams)})
    if unknown:
        raise StructuralError(f"unknown competitive parameters: {unknown}")
    return {k: read_field(params, k, _as_real) for k in params}


def _bundling_fields(params: dict) -> dict:
    tables = ("values", "prob", "quality_grid", "cost_samples")
    return {"n_goods": read_field(params, "n_goods",
                                  lambda v: _as_index(v, "n_goods")),
            **{k: read_field(params, k, float_table) for k in tables}}


class _CliExit(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _emit(payload, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = canonical_json(payload)
    elif fmt == "csv":
        rows = payload if isinstance(payload, list) else [payload]
        buf = _io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=REPORT_COLUMNS,
                                extrasaction="ignore", lineterminator="\r\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _cell(row.get(k)) for k in REPORT_COLUMNS})
        text = buf.getvalue()
    elif fmt == "pretty-table":
        rows = payload if isinstance(payload, list) else [payload]
        text = _pretty(rows)
    else:
        raise _CliExit(f"unknown format {fmt!r}", 1)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def _pretty(rows: list) -> str:
    if not rows:
        return "(empty)\n"
    if len(rows) == 1 and isinstance(rows[0], dict):
        items = [(k, _cell(v) if not isinstance(v, dict) else canonical_json(v).strip())
                 for k, v in sorted(rows[0].items())]
        width = max(len(k) for k, _ in items)
        return "".join(f"{k.ljust(width)}  {v}\n" for k, v in items)
    keys = sorted({k for row in rows for k in row})
    table = [[_cell(row.get(k)) for k in keys] for row in rows]
    widths = [max(len(k), *(len(r[i]) for r in table)) for i, k in enumerate(keys)]
    lines = ["  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip()]
    for r in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _solve_payload(inst, mode: str, guard: int, timing: bool,
                   instance_id: str, levels=None) -> dict:
    t0 = time.perf_counter()
    if mode == "joint":
        res = solve_joint(inst, guard=guard, levels=levels)
        mech = res.mechanism
        payload = {
            "instance_id": instance_id,
            "mode": mode,
            "value": res.value,
            "mechanism": {
                "support": [list(p) for p in inst.dist.support],
                "x": list(mech.x),
                "y": list(mech.y),
                "t": list(mech.t),
            },
            "some_optimum_baseline": res.some_optimum_baseline,
            "all_optima_baseline": res.all_optima_baseline,
            "certificate": res.certificate,
        }
    elif mode in ("downward1d", "full1d"):
        line = productive_marginal(inst, levels)
        if mode == "downward1d":
            res = solve_downward_1d(line, guard)
        else:
            res = solve_full_1d(line)
        payload = {
            "instance_id": instance_id,
            "mode": mode,
            "value": res.value,
            "mechanism": {
                "levels": line.theta.tolist(),
                "x_idx": list(res.x_idx),
                "x": line.x_grid[list(res.x_idx)].tolist(),
                "t": list(res.t),
            },
            "certificate": res.certificate,
        }
    else:
        raise _CliExit(f"unknown mode {mode!r}", 1)
    if timing:
        payload["runtime_ms"] = round(1e3 * (time.perf_counter() - t0), 3)
    return payload


def _verify_payload(inst, guard: int, timing: bool, instance_id: str) -> dict:
    t0 = time.perf_counter()
    report = verify_theorem1(inst, guard=guard)
    flagged = report.assumption_status.failures
    payload = {
        "instance_id": instance_id,
        "mode": "verify",
        "value": report.v_joint,
        "productive_value": report.v_productive,
        "gap": report.gap,
        "y0_as": report.y0_almost_surely,
        "strictly_costly": report.strictly_costly,
        "some_optimum_baseline": report.some_optimum_baseline,
        "assumptions": "ok" if not flagged else flagged,
        "applicable": report.applicable,
        "passed": report.passed if report.applicable else None,
    }
    if timing:
        payload["runtime_ms"] = round(1e3 * (time.perf_counter() - t0), 3)
    return payload


def _converse_payload(inst, coordinate: int, margin: float,
                      instance_id: str) -> dict:
    art = converse_construct(inst, coord=coordinate,
                             dominance_margin=margin)
    return {
        "instance_id": instance_id,
        "mode": "converse",
        "coordinate": art.coordinate,
        "eps": art.eps_star,
        "payoff_bound": art.r_val,
        "productive_bound": art.q_val,
        "value": art.menu_value,
        "productive_value": art.productive_value,
        "gap": art.margin,
        "certified": True,
    }


def cmd_solve(args) -> int:
    inst = _load(args.instance)
    levels = None
    if args.strict:
        levels = level_couplings(inst)  # validation and solve_joint share it
        report = validate_instance(inst, levels)
        if not report.assumptions_hold:
            raise _CliExit(
                f"assumption checks failed: {report.failures}", 3)
    payload = _solve_payload(inst, args.mode, args.guard, args.timing,
                             Path(args.instance).stem, levels)
    _emit(payload, args.format, args.out)
    return 0


def _check_count(n: int) -> None:
    if n < 0:
        raise _CliExit(f"--random must be nonnegative, got {n}", 1)


def cmd_verify(args) -> int:
    payload = _verify_payload(_load(args.instance), args.guard, args.timing,
                              Path(args.instance).stem)
    _emit(payload, args.format, args.out)
    failed = payload["applicable"] and not payload["passed"]
    if args.strict and payload["assumptions"] != "ok":
        failed = True
    return 3 if failed else 0


def cmd_converse(args) -> int:
    if not (math.isfinite(args.margin) and args.margin >= 0):
        raise _CliExit(f"--margin must be finite and nonnegative, got {args.margin}", 1)
    inst = _load(args.instance)
    payload = _converse_payload(inst, args.coordinate, args.margin,
                                Path(args.instance).stem)
    _emit(payload, args.format, args.out)
    return 0


def cmd_competitive(args) -> int:
    if args.params:
        p = CompetitiveParams(**_load_params(args.params, "competitive",
                                             _competitive_fields))
    else:
        p = CompetitiveParams()
    sep = competitive_separating(p)
    payload = {
        "mode": "competitive",
        "offer_low": list(sep.offer_l),
        "offer_high": list(sep.offer_h),
        "value": sep.value_high,
        "value_without_activity": sep.value_high_no_instrument,
        "gap": sep.gain,
    }
    _emit(payload, args.format, args.out)
    return 0


def cmd_bundling(args) -> int:
    if args.params:
        b = BundleInstance(**_load_params(args.params, "bundling",
                                          _bundling_fields))
    else:
        from .presets import bundling_default
        b = bundling_default()
    sol = solve_bundling(b)
    payload = {
        "mode": "bundling",
        "value": sol.value,
        "menu": [list(opt) for opt in sol.menu],
    }
    if args.certify:
        cert = certify_bundling(b, sol)
        payload["certificate"] = {
            "brute_force_value": cert.brute_force_value,
            "options": cert.options,
            "menu_is_optimal": cert.menu_is_optimal,
        }
        if not cert.menu_is_optimal:
            _emit(payload, args.format, args.out)
            raise _CliExit("bundling menu is not optimal", 3)
    _emit(payload, args.format, args.out)
    return 0


def cmd_sweep(args) -> int:
    _check_count(args.random)
    rows = []
    for k in range(args.random):
        inst = random_positive_instance(args.seed, stream=k)
        instance_id = f"seed{args.seed}-{k}"
        if args.mode:
            rows.append(_solve_payload(inst, args.mode, args.guard,
                                       args.timing, instance_id))
        else:
            rows.append(_verify_payload(inst, args.guard, args.timing,
                                        instance_id))
    _emit(rows, args.format, args.out)
    failed = any(r.get("applicable") and not r.get("passed") for r in rows)
    return 3 if failed else 0


def cmd_report(args) -> int:
    import json
    rows = []
    for path in args.results:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise _unreadable(path, exc)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise _CliExit(f"not valid JSON: {path}: {exc}", 1)
        data = data if isinstance(data, list) else [data]
        if not all(isinstance(row, dict) for row in data):
            raise _CliExit(f"result rows must be objects: {path}", 1)
        rows.extend(data)
    rows.sort(key=lambda r: (str(r.get("instance_id", "")),
                             str(r.get("mode", ""))))
    _emit(rows, "csv", args.out)
    return 0


def _add_output(sub):
    sub.add_argument("--out", default=None, help="write output here")
    sub.add_argument("--format", default="json",
                     choices=("json", "csv", "pretty-table"))


def _add_solving(sub):
    """Output options plus --timing and --guard, for the commands that solve."""
    _add_output(sub)
    sub.add_argument("--timing", action="store_true",
                     help="include runtime_ms (breaks byte-identical output)")
    sub.add_argument("--guard", type=int, default=DEFAULT_GUARD,
                     help="ceiling on an exact solver's work, exit 2 above "
                          "it: the rows the joint solver prices (joint, verify: "
                          "the seed menus plus the product of the options its "
                          "root bound keeps) or the n_x ** n allocations "
                          "downward1d enumerates; full1d takes no guard")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 through `main`, like other bad input, not 2."""

    def error(self, message):
        raise _CliExit(f"{self.format_usage()}{self.prog}: error: {message}", 1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.

    Every `parse_args` call fills a fresh namespace, so sharing it between
    calls of `main` carries nothing over.
    """
    ap = _Parser(
        prog="screenkit",
        description="Finite screening problems with a productive allocation "
                    "and costly instruments: solvers and verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve one instance")
    s.add_argument("--instance", required=True)
    s.add_argument("--mode", default="joint",
                   choices=("downward1d", "full1d", "joint"))
    s.add_argument("--strict", action="store_true",
                   help="fail (exit 3) if assumption checks fail")
    _add_solving(s)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="check the reduction theorem")
    v.add_argument("--instance", required=True)
    v.add_argument("--strict", action="store_true",
                   help="treat flagged assumptions as failures")
    _add_solving(v)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("converse",
                       help="menu construction for negatively dependent types")
    c.add_argument("--instance", required=True)
    c.add_argument("--coordinate", type=int, default=0)
    c.add_argument("--margin", type=float, default=1e-6)
    _add_output(c)
    c.set_defaults(func=cmd_converse)

    k = sub.add_parser("competitive", help="Pareto-optimal separating offers")
    k.add_argument("--params", default=None)
    _add_output(k)
    k.set_defaults(func=cmd_competitive)

    b = sub.add_parser("bundling", help="grand-bundle quality menu")
    b.add_argument("--params", default=None)
    b.add_argument("--certify", action="store_true",
                   help="brute-force the bundling mechanisms (two types)")
    _add_output(b)
    b.set_defaults(func=cmd_bundling)

    w = sub.add_parser("sweep", help="batch-run generated instances")
    w.add_argument("--random", type=int, required=True, metavar="N")
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--mode", default=None,
                   choices=("downward1d", "full1d", "joint"),
                   help="solve in this mode instead of verifying")
    _add_solving(w)
    w.set_defaults(func=cmd_sweep)

    r = sub.add_parser("report", help="aggregate result files into CSV")
    r.add_argument("results", nargs="*")
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_report)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _CliExit as exc:
        return _fail(str(exc), exc.code)
    except SizeGuardExceeded as exc:
        return _fail(str(exc), 2)
    except ScreenkitError as exc:
        return _fail(str(exc), 3)


if __name__ == "__main__":
    sys.exit(main())
