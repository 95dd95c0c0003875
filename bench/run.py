"""screenkit benchmark: closed-loop CLI workloads with output checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One client, one process, one thread: each op is an in-process call to
``screenkit.cli.main`` with ``--out`` pointing at a scratch file, and the
next op starts when the previous one returns. Inputs are generated from the
seed before timing starts (see workloads.py). Timings are calibrated
against a host-speed probe run between ops (see PROBE_NOMINAL_S). The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's details
(determinism digest, tail percentile and sample counts, raw timings,
versions). ``--trace 1`` runs
half the time untraced and half with per-layer spans (spans.py) and reports
the per-layer metrics instead of the end-to-end ones. ``--workload all``
runs every workload both ways in fresh interpreters and prints a table.
The exit code is 1 when any output check fails, 2 when the screenkit
sources are not found next to this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("verify_mix", "joint_heavy", "full1d_large", "certify_mix")
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_RUNS = 5
#: Tail latency percentile per workload: the highest whole percentile with at
#: least ten samples beyond it at the seed's op rate and the configured run
#: length, fixed so a faster program is compared at the same percentile.
TAIL_PERCENTILE = {"verify_mix": 99, "joint_heavy": 85, "full1d_large": 95,
                   "certify_mix": 90}
#: Host-speed probe: a fixed pure-Python loop, best of three, run before the
#: first op, after the last, and between ops at least every PROBE_EVERY_S.
#: The host's CPU speed drifts by up to 1.5x within minutes, so every timing
#: is reported at the probe's nominal duration: multiplied by
#: PROBE_NOMINAL_S over the mean of the probes taken just before and after it.
PROBE_LOOPS = 20_000
PROBE_NOMINAL_S = 1.5e-3
PROBE_EVERY_S = 0.25
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def _probe() -> float:
    """Seconds for the fixed probe loop, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def _first_op_per_kind(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


def _run_op(cli, argv, out: Path):
    """Call the CLI once; returns (exit code or error, seconds, output bytes)."""
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        code = cli.main(list(argv) + ["--out", str(out)])
    except Exception as exc:  # an escaped error fails the op, not the run
        code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    data = out.read_bytes() if out.exists() else b""
    return code, elapsed, data


def _setup_child(workdir: Path) -> int:
    """Child mode: time import plus one warm-up op per kind, then check them."""
    manifest = json.loads((workdir / "warmup.json").read_text())
    out = workdir / f"setup-{os.getpid()}.json"
    before = _probe()
    t0 = time.perf_counter()
    from screenkit import cli
    results = [_run_op(cli, m["argv"], out) for m in manifest]
    elapsed = time.perf_counter() - t0
    speed = PROBE_NOMINAL_S * 2 / (before + _probe())
    out.unlink(missing_ok=True)
    from workloads import Op, check
    ops = [Op(m["kind"], m["path"], tuple(m["argv"])) for m in manifest]
    failures = [r for r in (check(op, code, data) for op, (code, _, data)
                            in zip(ops, results)) if r]
    print(json.dumps({"setup_s": elapsed * speed, "raw_setup_s": elapsed,
                      "ops": len(ops), "failures": failures}))
    return 0


def _measure_setup(workdir: Path, warm) -> tuple:
    """Calibrated and raw set-up times, warm-up ops attempted, failures."""
    (workdir / "warmup.json").write_text(json.dumps(
        [{"kind": op.kind, "path": op.path, "argv": list(op.argv)} for op in warm]))
    times, raw, attempted, failures = [], [], 0, []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-child", str(workdir)],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            failures.append(f"set-up child exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
            attempted += len(warm)
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(result["setup_s"])
        raw.append(result["raw_setup_s"])
        attempted += result["ops"]
        failures += result["failures"]
    return times, raw, attempted, failures


class _Phase:
    """Closed loop of whole passes over the inputs until `seconds` is up.

    Ending on a pass boundary gives every input the same weight in every
    metric, whatever the run length. `first` collects each input's first
    (exit code, sha256, output bytes); later calls keep only the hash.
    `calibrated` holds the latencies at the probe's nominal speed.
    """

    def __init__(self, cli, ops, seconds: float, out: Path, first: dict):
        self.pass_seconds = []
        self.latencies = []
        self.results = []   # (input index, exit code, sha256)
        self.probes = [_probe()]
        before = []         # index of the last probe before each op
        last = time.perf_counter()
        start = last
        while not self.pass_seconds or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            for k, op in enumerate(ops):
                if time.perf_counter() - last >= PROBE_EVERY_S:
                    self.probes.append(_probe())
                    last = time.perf_counter()
                code, elapsed, data = _run_op(cli, op.argv, out)
                sha = hashlib.sha256(data).digest()
                first.setdefault(k, (code, sha, data))
                self.latencies.append(elapsed)
                self.results.append((k, code, sha))
                before.append(len(self.probes) - 1)
            self.pass_seconds.append(time.perf_counter() - t0)
        self.probes.append(_probe())
        self.calibrated = [
            lat * PROBE_NOMINAL_S * 2 / (self.probes[i] + self.probes[i + 1])
            for lat, i in zip(self.latencies, before)]

    @property
    def ops_per_s(self) -> float:
        """Ops over the calibrated time spent in them."""
        return len(self.calibrated) / sum(self.calibrated)

    @property
    def raw_ops_per_s(self) -> float:
        """Ops over the wall time of the passes."""
        return len(self.latencies) / sum(self.pass_seconds)


def _check_outputs(ops, phases, first, check):
    """Check each input's first output once; every repeat must match it.

    Returns (failed op count, reasons, determinism digest over the inputs).
    """
    verdict = {k: check(ops[k], code, data) for k, (code, _, data) in first.items()}
    reasons = [f"{Path(ops[k].path).name}: {v}" for k, v in verdict.items() if v]
    failed = 0
    for phase in phases:
        for k, code, sha in phase.results:
            if verdict[k]:
                failed += 1
            elif (code, sha) != first[k][:2]:
                failed += 1
                reasons.append(f"{Path(ops[k].path).name}: output differs "
                               f"between calls on the same input")
    digest = hashlib.sha256()
    for k in sorted(first):
        code, _, data = first[k]
        digest.update(f"{k}:{code}:{len(data)}:".encode() + data)
    return failed, reasons, digest.hexdigest()[:16]


def _percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_workload(args) -> int:
    import numpy
    import networkx
    import screenkit
    from screenkit import cli
    if Path(screenkit.__file__).resolve().parent != (SRC / "screenkit").resolve():
        print(f"imported screenkit from {screenkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import check, make_inputs

    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = make_inputs(args.workload, args.seed, workdir, args.inputs)
        warm = _first_op_per_kind(ops)
        setup_runs, raw_setup, attempted, reasons = _measure_setup(workdir, warm)
        failed = len(reasons)
        out = workdir / "out.json"
        for op in warm:
            code, _, data = _run_op(cli, op.argv, out)
            attempted += 1
            reason = check(op, code, data)
            if reason:
                failed += 1
                reasons.append(f"warm-up {Path(op.path).name}: {reason}")
        first = {}
        if args.trace:
            from spans import Tracer
            untraced = _Phase(cli, ops, args.seconds / 2, out, first)
            tracer = Tracer()
            tracer.install()
            try:
                traced = _Phase(cli, ops, args.seconds / 2, out, first)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
        else:
            phases = [_Phase(cli, ops, args.seconds, out, first)]
        bad, bad_reasons, digest = _check_outputs(ops, phases, first, check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()   # only when no other run is using it
    failed += bad
    reasons += bad_reasons
    attempted += sum(len(p.latencies) for p in phases)

    if args.trace:
        measured = tracer.metrics(len(traced.latencies),
                                  PROBE_NOMINAL_S / statistics.median(traced.probes))
        measured["trace.ops_per_s"] = (traced.ops_per_s, "1/s")
        measured["trace.untraced_ops_per_s"] = (untraced.ops_per_s, "1/s")
        measured["trace.overhead_ops_per_s"] = (
            traced.ops_per_s - untraced.ops_per_s, "1/s")
    else:
        (phase,) = phases
        lat = phase.calibrated
        p = TAIL_PERCENTILE[args.workload]
        tail = _percentile(lat, p)
        raw = {
            "setup_s": statistics.median(raw_setup or [0.0]),
            "ops_per_s": phase.raw_ops_per_s,
            "latency_p50_ms": 1e3 * statistics.median(phase.latencies),
            "latency_tail_ms": 1e3 * _percentile(phase.latencies, p),
        }
        values = {
            "setup_s": statistics.median(setup_runs or [0.0]),
            "ops_per_s": phase.ops_per_s,
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": 1e3 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        measured = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": len(ops), "ops": sum(len(p.latencies) for p in phases),
        "pass_seconds": [round(s, 4) for p in phases for s in p.pass_seconds],
        "digest": digest,
        "failed_frac": failed / attempted, "failures": reasons[:10],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "networkx": networkx.__version__, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "setup_runs": [round(s, 4) for s in setup_runs],
        "probe_ms": [round(1e3 * statistics.median(p.probes), 4) for p in phases],
    }
    if not args.trace:
        details["tail_percentile"] = p
        details["tail_samples_beyond"] = sum(1 for x in lat if x > tail)
        details["raw"] = raw
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.inputs:
                cmd += ["--inputs", str(args.inputs)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace} exited {proc.returncode}\n"
                      f"{proc.stdout}{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            entry = results.setdefault(name, {"metrics": {}})
            entry["metrics"].update(result["metrics"])
            entry["trace" if trace else "run"] = details
            print(f"\n{name} (trace={trace}, ops={details['ops']}, "
                  f"failed_frac={details['failed_frac']:.3g}, "
                  f"digest={details['digest']})")
            for metric, v in result["metrics"].items():
                if trace and v["value"] == 0:
                    continue
                print(f"  {metric:52s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", type=int, default=None,
                    help="number of generated inputs (default: per workload)")
    ap.add_argument("--setup-child", type=Path, default=None,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "screenkit" / "__init__.py").is_file():
        print(f"screenkit sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("SCREENKIT_THREADS", None)
    sys.path.insert(0, str(SRC))
    if args.setup_child is not None:
        return _setup_child(args.setup_child)
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
