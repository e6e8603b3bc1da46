"""Workload plans, the timed workload bodies and their correctness checks.

A plan is made from the workload name and the seed alone. Seed 0 is the
canonical configuration: dimensions in ascending order and the default
``eta_min`` of 0.5, so its counts match the package's documented baselines.
Any other seed shuffles the order of the operations and jitters ``eta_min``
within +-1 % of 0.5; the ground states stay inside the window and the
certification verdicts do not depend on it. The solver only ever receives
the generated settings.

This module imports ``dirac_numerov``; a pass imports it only after it has
timed the package import.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import time
from dataclasses import dataclass

import numpy as np

from dirac_numerov import cli, solver
from dirac_numerov.analytic import analytic_energy, analytic_ground_wavefunction_d3
from dirac_numerov.coefficients import build_coefficients
from dirac_numerov.core import Ansatz, PhysicalConfig, dimensionless_state
from dirac_numerov.numerov import Scheme

WORKLOADS = ("ground-1r", "certify-gauss", "scan-pool")

ETA_MIN = 0.5
ETA_JITTER = 0.01
RATIO_TOL = 5e-8            # |eta* - closed form|, acceptance criterion 1
WAVE_LINF_TOL = 1e-3        # eigenfunction vs closed form, acceptance criterion 3
WAVE_RHO_MAX = 20.0
NO_ISLAND_VERDICT = "no classically-allowed island"
GROUND_DIMS = tuple(range(3, 10))
CERTIFY_DIMS = tuple(range(4, 11))
SCAN_DIMS = tuple(range(3, 11))
SCAN_THREADS = 2


@dataclass(frozen=True)
class Op:
    """One timed call into the package: a solve at one dimension."""

    label: str
    dimension: int


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    eta_min: float
    ops: tuple

    def settings(self, scheme: Scheme = Scheme.CANONICAL):
        window = (self.eta_min, solver.SolverSettings().eta_window[1])
        return solver.SolverSettings(eta_window=window, scheme=scheme)


def make_plan(workload: str, seed: int) -> Plan:
    if workload == "ground-1r":
        ops = [Op(f"solve D={d} 1/r", d) for d in GROUND_DIMS]
    elif workload == "certify-gauss":
        ops = [Op(f"certify D={d}", d) for d in CERTIFY_DIMS]
    elif workload == "scan-pool":
        ops = [Op(f"scan D={d} generalized", d) for d in SCAN_DIMS]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    eta_min = ETA_MIN
    if seed != 0:
        rng = random.Random(seed)
        eta_min = ETA_MIN * (1.0 + rng.uniform(-ETA_JITTER, ETA_JITTER))
        if workload != "scan-pool":  # the CLI fixes the order of a scan
            rng.shuffle(ops)
    return Plan(workload=workload, seed=seed, eta_min=eta_min, ops=tuple(ops))


# ---------------------------------------------------------------------------
# correctness checks: each returns (ok, detail), check_found adds |eta* - closed form|


def reference_ratio(d: int) -> float:
    """Closed-form ground-state E/M of the 1/r problem (equal to Gauss law at D = 3)."""
    return analytic_energy(PhysicalConfig(dimension=d, ansatz=Ansatz.ONE_OVER_R)).energy_ratio


def check_found(d: int, found, eta_star) -> tuple:
    if found is not True or eta_star is None:
        return False, f"D={d}: ground state not found"
    err = abs(eta_star - reference_ratio(d))
    if not err <= RATIO_TOL:
        return False, f"D={d}: |eta* - closed form| = {err:.3e} > {RATIO_TOL}"
    return True, f"|eta* - closed form| = {err:.2e}", err


def check_absent(d: int, found, verdict: str) -> tuple:
    if found is not False:
        return False, f"D={d}: spurious bound state (found = {found!r})"
    if NO_ISLAND_VERDICT not in (verdict or ""):
        return False, f"D={d}: verdict {verdict!r} is not the no-island certificate"
    return True, "certified absent"


def check_wave(wave, config) -> tuple:
    nodes = wave.grid.nodes()
    window = nodes <= WAVE_RHO_MAX
    overlay = analytic_ground_wavefunction_d3(nodes, config)
    linf = float(np.max(np.abs(wave.phi_plus[window] - overlay[window])))
    if not linf <= WAVE_LINF_TOL:
        return False, f"eigenfunction L-inf = {linf:.3e} > {WAVE_LINF_TOL}"
    return True, f"eigenfunction L-inf = {linf:.2e}"


def check_manifest(code, text, dims) -> tuple:
    """(ok, detail, records by dimension) for the scan's exit code and manifest."""
    if code != 0:
        return False, f"exit code {code}", {}
    try:
        records = json.loads(text)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return False, f"manifest does not parse: {exc!r}", {}
    by_dim = {r.get("dimension"): r for r in records if isinstance(r, dict)}
    if len(records) != len(dims) or sorted(by_dim) != sorted(dims):
        return False, f"manifest has dimensions {sorted(by_dim)}, expected {list(dims)}", by_dim
    return True, f"{len(records)} records", by_dim


# ---------------------------------------------------------------------------
# timed workload bodies


def _grid_record(grids) -> dict:
    counts = sorted(set(grids))
    return {"grid_nodes": counts, "bytes_per_array": [8 * n for n in counts]}


def _grid_size(config, settings, eta) -> int:
    coeffs = build_coefficients(dimensionless_state(config, eta), config)
    return settings.resolve_grid(coeffs.turning_scale).n_points


def _solve_ops(plan: Plan, ansatz: Ansatz, on_op):
    """Time solve_ground_state for each op; return [(op, config, settings, result, seconds)]."""
    clock = time.perf_counter
    out = []
    for op in plan.ops:
        config = PhysicalConfig(dimension=op.dimension, ansatz=ansatz)
        settings = plan.settings()
        with on_op(op.label):
            t0 = clock()
            try:
                result = solver.solve_ground_state(config, settings)
            except Exception as exc:  # recorded as a failed operation
                result = exc
            seconds = clock() - t0
        out.append((op, config, settings, result, seconds))
    return out


def run_ground(plan: Plan, on_op):
    clock = time.perf_counter
    t_start = clock()
    solves = _solve_ops(plan, Ansatz.ONE_OVER_R, on_op)
    d3 = next(s for s in solves if s[0].dimension == 3)
    wave = None
    with on_op("eigenfunction D=3 1/r"):
        t0 = clock()
        try:
            if isinstance(d3[3], Exception) or not d3[3].found:
                raise RuntimeError("no D = 3 eigenvalue to build the eigenfunction from")
            wave = solver.eigenfunction(d3[1], d3[2], d3[3].eta_star)
        except Exception as exc:
            wave = exc
        wave_s = clock() - t0
    wall = clock() - t_start

    ops, grids = [], []
    for op, config, settings, result, seconds in solves:
        if isinstance(result, Exception):
            ops.append(_op(op.label, seconds, (False, repr(result)), solve=True))
            continue
        check = check_found(op.dimension, result.found, result.eta_star)
        ops.append(_op(op.label, seconds, check, len(result.scan_trace), solve=True))
        grids += [_grid_size(config, settings, plan.eta_min),
                  _grid_size(config, settings, result.eta_star or settings.eta_window[1])]
    check = (False, repr(wave)) if isinstance(wave, Exception) else check_wave(wave, d3[1])
    ops.append(_op("eigenfunction D=3 1/r", wave_s, check))
    return wall, ops, _grid_record(grids)


def run_certify(plan: Plan, on_op):
    clock = time.perf_counter
    t_start = clock()
    solves = _solve_ops(plan, Ansatz.GENERALIZED, on_op)
    wall = clock() - t_start
    ops, grids = [], []
    for op, config, settings, result, seconds in solves:
        if isinstance(result, Exception):
            ops.append(_op(op.label, seconds, (False, repr(result)), solve=True))
            continue
        check = check_absent(op.dimension, result.found, result.verdict_reason)
        ops.append(_op(op.label, seconds, check, len(result.scan_trace), solve=True))
        grids += [_grid_size(config, settings, plan.eta_min),
                  _grid_size(config, settings, settings.eta_window[1])]
    return wall, ops, _grid_record(grids)


def _scan_argv(plan: Plan, output: str) -> list:
    threads = max(1, min(SCAN_THREADS, os.cpu_count() or 1))
    return ["scan", "--d-min", str(SCAN_DIMS[0]), "--d-max", str(SCAN_DIMS[-1]),
            "--ansatz", "2", "--scheme", "generalized", "--threads", str(threads),
            "--eta-min", repr(plan.eta_min), "--format", "json", "--output", output]


def run_scan(plan: Plan, on_op, workdir: str):
    """In-process ``dirac-numerov scan``; the dimensions run in the CLI's process pool.

    The per-dimension solves happen inside the pool's workers, where the
    untraced pass does not look, so the op time is the whole CLI call.
    """
    clock = time.perf_counter
    output = os.path.join(workdir, f"scan-{os.getpid()}.json")
    argv = _scan_argv(plan, output)
    with on_op("cli scan D=3..10", "cli"):
        t0 = clock()
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = exc
        wall = clock() - t0
    try:
        with open(output, encoding="utf-8") as handle:
            text = handle.read()
        os.remove(output)
    except OSError as exc:
        text = f"unreadable: {exc!r}"
    if isinstance(code, Exception):
        ok, detail, by_dim = False, repr(code), {}
    else:
        ok, detail, by_dim = check_manifest(code, text, SCAN_DIMS)
    ops = [_op("cli scan D=3..10", wall, (ok, detail), solve=True)]
    settings = plan.settings(scheme=Scheme.GENERALIZED)
    grids = []
    for d in SCAN_DIMS:
        rec = by_dim.get(d)
        label = f"scan D={d} generalized"
        if not ok or rec is None:
            ops.append(_op(label, 0.0, (False, "no manifest record")))
            continue
        if d == 3:
            check = check_found(d, rec.get("found"), rec.get("eta_star"))
        else:
            check = check_absent(d, rec.get("found"), rec.get("verdict_reason"))
        ops.append(_op(label, 0.0, check, int(rec.get("trace_points", 0))))
        config = PhysicalConfig(dimension=d, ansatz=Ansatz.GENERALIZED)
        grids += [_grid_size(config, settings, plan.eta_min),
                  _grid_size(config, settings, rec.get("eta_star") or settings.eta_window[1])]
    return wall, ops, _grid_record(grids)


def _op(label, seconds, check, trials=0, solve=False) -> dict:
    """Record of one operation; ``check`` is (ok, detail[, |eta* - closed form|]).

    ``solve`` marks the operations ``slowest_solve_s`` is taken over: one
    call timed by the benchmark's own clock around a whole solve.
    """
    rec = {"label": label, "seconds": seconds, "ok": check[0], "detail": check[1],
           "trials": trials, "solve": solve}
    if len(check) > 2:
        rec["eta_err"] = check[2]
    return rec


def run_workload(plan: Plan, on_op, workdir: str):
    """(wall seconds, op records, grid record) for one pass of the plan."""
    if plan.workload == "ground-1r":
        return run_ground(plan, on_op)
    if plan.workload == "certify-gauss":
        return run_certify(plan, on_op)
    return run_scan(plan, on_op, workdir)


def peak_rss_mb() -> float:
    """Peak resident set of the largest process: this one or a finished pool worker.

    A forked worker's peak already counts the pages it shares with this
    process, so the two peaks are not added.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def summarize_pass(wall, ops) -> dict:
    timed = [o["seconds"] for o in ops if o["solve"] and o["ok"]]
    trials = sum(o["trials"] for o in ops)
    failed = sum(1 for o in ops if not o["ok"])
    return {
        "wall_s": wall,
        "slowest_solve_s": max(timed) if timed else math.nan,
        "trials": trials,
        "trials_per_s": trials / wall if wall > 0 else math.nan,
        "attempted": len(ops),
        "failed": failed,
    }
