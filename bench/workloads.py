"""Workloads: seeded input files, the command line of each op, output checks.

Every input is drawn from ``--seed`` with screenkit's counter-based
generators (or, for bundling, this file's own seeded generator) and written
to a file before timing starts; the program only ever sees those files.

Joint enumeration cost varies by orders of magnitude between instances of
one size, with a heavy upper tail, so input sets drawn freely from the
generators would make the timing depend mostly on which seed was drawn.
Each input set is therefore stratified: it holds a fixed number of
instances per (knob set, support size) class, and where the joint solver
dominates an op, its instances are spread evenly over a fixed band of
*hardness*. Hardness is a property of the instance alone: the number of
assignments whose expected surplus reaches the optimum value, i.e. the
assignments that no surplus bound can prune. Every seed thus presents the
same mix of work with different numbers in it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from screenkit import (GeneratorKnobs, closed_form_downward_transfers,
                       load_instance, onedim_ic_violations,
                       onedim_ir_violations, onedim_value, productive_marginal,
                       random_negative_instance, random_positive_instance,
                       save_instance, solve_full_1d)


@dataclass(frozen=True)
class Op:
    """One call of ``screenkit.cli.main``; ``argv`` excludes ``--out``."""

    kind: str
    path: str
    argv: tuple


_ARGV = {
    "verify": ("verify", "--instance"),
    "joint": ("solve", "--mode", "joint", "--instance"),
    "full1d": ("solve", "--mode", "full1d", "--instance"),
    "downward1d": ("solve", "--mode", "downward1d", "--instance"),
    "converse": ("converse", "--instance"),
    "bundling": ("bundling", "--certify", "--params"),
}


def _op(kind: str, path: Path) -> Op:
    return Op(kind, str(path), _ARGV[kind] + (str(path),))


# ---------------------------------------------------------------------------
# hardness and stratified drawing
# ---------------------------------------------------------------------------


def unpruned_assignments(inst) -> int:
    """Assignments whose expected surplus reaches the optimum value.

    Only valid where the theorem holds (positive instances), so that the
    joint optimum equals the productive-only optimum. Counted by meeting in
    the middle over the support points, so it costs far less than a solve.
    """
    prod, cost, dist = inst.productive, inst.costly, inst.dist
    ox = np.repeat(np.arange(prod.n_alloc), cost.n_alloc)
    oy = np.tile(np.arange(cost.n_alloc), prod.n_alloc)
    ia = np.array([a for a, _ in dist.support])
    ib = np.array([b for _, b in dist.support])
    surplus = np.asarray(dist.prob)[:, None] * (
        (prod.u_a + prod.v_a)[ox][:, ia].T + (cost.u_b + cost.v_b)[oy][:, ib].T)
    target = solve_full_1d(productive_marginal(inst)).value - 1e-9

    def sums(rows):
        total = np.zeros(1)
        for row in rows:
            total = (total[:, None] + row[None, :]).ravel()
        return total

    half = surplus.shape[0] // 2
    left, right = sums(surplus[:half]), np.sort(sums(surplus[half:]))
    return int((right.size - np.searchsorted(right, target - left)).sum())


MAX_DRAWS = 200_000


def _draw_class(seed, knobs, stream0, m, count, band=None, pool=6):
    """`count` positive instances with support size m.

    Without a hardness band, the first `count` draws of size m. With one,
    a pool of pool*count draws of size m inside the band is sorted by
    hardness and evenly spaced ranks are kept, so every seed yields nearly
    the same spread of hardness.
    """
    found = []
    stream = stream0
    want = count if band is None else pool * count
    while len(found) < want:
        if stream - stream0 > MAX_DRAWS:
            raise RuntimeError(f"fewer than {want} instances of size {m} in "
                               f"{MAX_DRAWS} draws")
        inst = random_positive_instance(seed, knobs, stream=stream)
        stream += 1
        if inst.n_support != m:
            continue
        if band is None:
            found.append(inst)
            continue
        hard = unpruned_assignments(inst)
        if band[0] <= hard < band[1]:
            found.append((hard, stream, inst))
    if band is None:
        return found
    found.sort(key=lambda item: item[:2])
    return [found[(2 * i + 1) * want // (2 * count)][2] for i in range(count)]


# The five knob sets of the acceptance suite's theorem criterion, each with
# the support-size profile it shows when drawn freely (counts per 100 draws,
# rounded). Classes whose joint space A**m reaches 40,000 draw from the
# hardness band VERIFY_BAND, at evenly spaced ranks.
VERIFY_CLASSES = (
    (GeneratorKnobs(), {3: 63, 4: 23, 5: 12, 6: 2}),
    (GeneratorKnobs(n_a=4, n_b=3, n_x=3, n_y=2), {4: 56, 5: 14, 6: 18, 7: 11, 8: 1}),
    (GeneratorKnobs(n_a=2, n_b=2, n_x=2, n_y=2, strict_costly=False), {2: 72, 3: 21, 4: 7}),
    (GeneratorKnobs(n_a=4, n_b=3, n_x=2, n_y=2, dim=2), {4: 51, 5: 17, 6: 21, 7: 10, 8: 1}),
    (GeneratorKnobs(n_a=3, n_b=3, n_x=3, n_y=2, dim=2, strict_costly=False),
     {3: 57, 4: 16, 5: 22, 6: 5}),
)
VERIFY_BAND = (0, 20_000)
JOINT_KNOBS = GeneratorKnobs(n_a=6, n_b=4, n_x=3, n_y=3, max_paths=1)
JOINT_BAND = (15_000, 45_000)
# Type-level counts around 256. With one size only, every op costs the same,
# so the median latency jumps between the host's fast and slow states instead
# of moving with them.
FULL1D_LEVELS = (192, 224, 256, 288, 320)
DOWNWARD_KNOBS = GeneratorKnobs(n_a=8, n_b=2, n_x=3, n_y=2, max_paths=1)


def _verify_mix(seed, n, workdir):
    """n/5 inputs per knob set in its class profile, knob sets interleaved."""
    per_set = []
    for j, (knobs, profile) in enumerate(VERIFY_CLASSES):
        insts = []
        for m, per100 in profile.items():
            count = max(1, round(per100 * n / 500))
            heavy = (knobs.n_x * knobs.n_y) ** m >= 40_000
            insts += _draw_class(seed, knobs, 1_000_000 * (10 * j + m), m, count,
                                 VERIFY_BAND if heavy else None)
        # the first draw of the most common class stays first: the first
        # op of the first knob set is the warm-up op that set-up includes
        order = [0] + [i for i in np.random.default_rng([seed, j]).permutation(len(insts))
                       if i != 0]
        per_set.append([insts[i] for i in order])
    ops = []
    for k in range(max(len(s) for s in per_set)):
        for j, insts in enumerate(per_set):
            if k < len(insts):
                path = workdir / f"verify-{j}-{k}.json"
                save_instance(insts[k], path)
                ops.append(_op("verify", path))
    return ops


def _joint_heavy(seed, n, workdir):
    insts = _draw_class(seed, JOINT_KNOBS, 0, 6, n, JOINT_BAND)
    # median hardness first: it is the warm-up op that set-up time includes
    order = [n // 2] + [i for i in np.random.default_rng([seed, 6]).permutation(n)
                        if i != n // 2]
    ops = []
    for k, inst in enumerate(insts[i] for i in order):
        path = workdir / f"joint-{k}.json"
        save_instance(inst, path)
        ops.append(_op("joint", path))
    return ops


def _full1d_large(seed, n, workdir):
    ops = []
    for k in range(n):
        knobs = GeneratorKnobs(n_a=FULL1D_LEVELS[k % len(FULL1D_LEVELS)], n_b=2,
                               n_x=6, n_y=2, max_paths=1)
        path = workdir / f"full1d-{k}.json"
        save_instance(random_positive_instance(seed, knobs, stream=k), path)
        ops.append(_op("full1d", path))
    return ops


def bundling_params(seed: int, stream: int) -> dict:
    """Two types, two goods, ratio-monotone values, convex cost, 5-point grid."""
    rng = np.random.default_rng([seed, 0xB0, stream])
    vstar = np.sort(rng.uniform(3.0, 9.0, 2))
    vstar[1] = max(vstar[1], vstar[0] + 0.3)
    tau_lo = rng.uniform(0.2, 0.7, 2)
    tau_hi = np.minimum(tau_lo + rng.uniform(0.0, 0.25, 2), 0.95)
    values = np.zeros((2, 4))
    values[:, 3] = vstar
    values[0, 1:3] = tau_lo * vstar[0]
    values[1, 1:3] = tau_hi * vstar[1]
    mu = float(rng.uniform(0.3, 0.7))
    cost = np.concatenate([[0.0], np.cumsum(np.sort(rng.uniform(0.05, 0.8, 4)))])
    return {"kind": "bundling", "n_goods": 2, "values": values.tolist(),
            "prob": [mu, 1.0 - mu], "quality_grid": np.linspace(0, 1, 5).tolist(),
            "cost_samples": cost.tolist()}


def _certify_mix(seed, n, workdir):
    """Blocks of five ops: three converse, one downward1d, one bundling."""
    ops = []
    for b in range(max(1, n // 5)):
        for c in range(3):
            path = workdir / f"converse-{b}-{c}.json"
            save_instance(random_negative_instance(seed, stream=3 * b + c), path)
            ops.append(_op("converse", path))
        path = workdir / f"downward-{b}.json"
        save_instance(random_positive_instance(seed, DOWNWARD_KNOBS, stream=b), path)
        ops.append(_op("downward1d", path))
        path = workdir / f"bundling-{b}.json"
        path.write_text(json.dumps(bundling_params(seed, b)))
        ops.append(_op("bundling", path))
    return ops


#: name -> (input generator, default number of inputs)
WORKLOADS = {
    "verify_mix": (_verify_mix, 1000),
    "joint_heavy": (_joint_heavy, 12),
    "full1d_large": (_full1d_large, 20),
    "certify_mix": (_certify_mix, 20),
}


def make_inputs(workload: str, seed: int, workdir: Path, n: int | None = None) -> list:
    generate, default = WORKLOADS[workload]
    return generate(seed, n or default, workdir)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _reference_full1d(path):
    return solve_full_1d(productive_marginal(load_instance(path))).value


def check(op: Op, code: int, data: bytes) -> str | None:
    """None when the op's exit code and output are right, else the reason."""
    if code != 0:
        return f"exit {code}"
    out = json.loads(data)
    if op.kind == "verify":
        if out["passed"] is not True or out["assumptions"] != "ok":
            return f"verify did not pass: {out['assumptions']}"
        if not out["gap"] <= 1e-6:
            return f"gap {out['gap']}"
    elif op.kind == "joint":
        if out["some_optimum_baseline"] is not True:
            return "no optimum keeps every instrument at the baseline"
        ref = _reference_full1d(op.path)
        if abs(out["value"] - ref) > 1e-6:
            return f"joint value {out['value']} vs productive-only {ref}"
    elif op.kind == "full1d":
        line = productive_marginal(load_instance(op.path))
        x_idx, t = out["mechanism"]["x_idx"], out["mechanism"]["t"]
        if onedim_ic_violations(line, x_idx, t) or onedim_ir_violations(line, x_idx, t):
            return "returned transfers violate IC or IR"
        ref = onedim_value(line, x_idx, closed_form_downward_transfers(line, x_idx))
        if abs(out["value"] - ref) > 1e-9:
            return f"full1d value {out['value']} vs closed form {ref}"
    elif op.kind == "downward1d":
        ref = _reference_full1d(op.path)
        if out["value"] < ref - 1e-9:
            return f"downward1d value {out['value']} below full1d {ref}"
    elif op.kind == "converse":
        if out["certified"] is not True or not out["gap"] > 0:
            return f"converse not certified, gap {out['gap']}"
    elif op.kind == "bundling":
        if out["certificate"]["menu_is_optimal"] is not True:
            return "bundling menu not optimal"
    return None
