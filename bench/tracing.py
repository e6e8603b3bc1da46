"""Spans around the calls between the package's modules, for the traced pass only.

The tracer replaces module attributes with timing wrappers:

* the names ``solver`` binds from ``coefficients`` and ``numerov``,
* ``solver``'s stage functions and ``dimension_scan`` (the pool),
* ``coefficients.general_fields`` and ``ansatz1_fields``, which the
  coefficient closures look up as module globals,
* the ``manifest`` calls the CLI makes.

Spans stay in memory. Under the CLI's forked process pool each worker holds
its own copy of the tracer; the ``_scan_one`` wrapper writes the spans of a
task, and the worker's cache counters, to one file when the task ends, and
the pass reads them back after the pool has closed.

A hook whose target no longer exists is reported as missing, by name, and
every metric that depends on it is left out rather than reported as zero.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import json
import os
import time

from dirac_numerov import coefficients, core, manifest, solver
from metrics import LAYER_METRICS

MARKER = "__bench_wrapped__"

# (owner, attribute, kind): kind groups hooks into one layer quantity
HOOKS = (
    (solver, "_numerov_sweep_rl", "sweep_in"),
    (solver, "_general_sweep_rl", "sweep_in"),
    (solver, "_numerov_sweep_lr", "sweep_out"),
    (solver, "_general_sweep_lr", "sweep_out"),
    (solver, "_canonical_factors", "factors"),
    (solver, "_generalized_arrays", "factors"),
    (solver, "build_coefficients", "build"),
    (coefficients, "general_fields", "field"),
    (coefficients, "ansatz1_fields", "field"),
    (solver, "_evaluate_trial", "trial"),
    (solver, "_match_index", "island"),
    (solver, "_bisect_bracket", "bisect"),
    (solver, "_scan_one", "task"),
    (solver, "dimension_scan", "pool"),
    (manifest, "result_record", "manifest"),
    (manifest, "config_echo", "manifest"),
    (manifest.RunManifest, "serialize", "serialize"),
)

CACHES = {
    "grid": ((core, "_grid_nodes"),),
    "island": ((solver, "_island_basis"), (solver, "_ansatz1_potential")),
}

# kinds recorded by the benchmark itself, not hooked
OP_KIND = "op"
CLI_KIND = "cli"


def _hook_name(owner, attr) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attr}".replace("dirac_numerov.", "")


def _note_sweep(args, out):
    nodes = abs(args[-1] - args[-2])
    rescales = out[1] if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], int) else None
    return [nodes, rescales]


def _note_island(args, out):
    grid = args[1] if len(args) > 1 else None
    return [getattr(grid, "n_points", 0), out is not None]


def _note_serialize(args, out):
    return [len(out.encode("utf-8"))] if isinstance(out, str) else None


def _note_task(args, out):
    payload = args[0] if args else None
    return [payload[0]] if isinstance(payload, tuple) and payload else None


NOTES = {"sweep_in": _note_sweep, "sweep_out": _note_sweep, "island": _note_island,
         "serialize": _note_serialize, "task": _note_task}


def cache_counts() -> dict:
    """{cache group: [hits, misses]}; a group with a missing cache is left out."""
    out = {}
    for group, targets in CACHES.items():
        hits = misses = 0
        for owner, attr in targets:
            fn = getattr(owner, attr, None)
            info = getattr(fn, "cache_info", None)
            if info is None:
                break
            ci = info()
            hits += ci.hits
            misses += ci.misses
        else:
            out[group] = [hits, misses]
    return out


def installed_wrappers() -> int:
    """How many hook targets currently hold a tracer wrapper."""
    return sum(1 for owner, attr, _ in HOOKS if hasattr(getattr(owner, attr, None), MARKER))


class Tracer:
    """Span recorder; each span is [name, kind, start, end, parent, root, note].

    Spans read back from pool tasks carry the worker's pid as an eighth entry.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self.remote: list = []  # spans of pool tasks, read back from the workers
        self.missing: list = []
        self._saved: list = []
        self._caches = {"start": {}, "end": {}, "task": {}, "workers": []}

    # -- recording -------------------------------------------------------
    def _wrap(self, name, kind, fn, note=None, on_enter=None, on_exit=None):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            with self.span(name, kind) as idx:
                out = fn(*args, **kwargs)
            if note is not None:
                spans[idx][6] = note(args, out)
            if on_exit is not None:
                on_exit(idx)
            return out

        setattr(wrapper, MARKER, fn)
        return wrapper

    @contextlib.contextmanager
    def span(self, name, kind=OP_KIND):
        """One span around the enclosed calls; yields its index in ``spans``."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        rec = [name, kind, 0.0, 0.0, parent, self.stack[0] if self.stack else idx, None]
        self.spans.append(rec)
        self.stack.append(idx)
        rec[2] = time.perf_counter()
        try:
            yield idx
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()
            if not self.stack:  # the timed calls end here; the checks that follow do not count
                self._caches["end"] = cache_counts()

    # -- installation ----------------------------------------------------
    def install(self):
        self._caches["start"] = self._caches["end"] = cache_counts()
        for owner, attr, kind in HOOKS:
            name = _hook_name(owner, attr)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            task = kind == "task"
            wrapper = self._wrap(name, kind, original, NOTES.get(kind),
                                 self._task_start if task else None,
                                 self._task_done if task else None)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        for group, targets in CACHES.items():
            for owner, attr in targets:
                if not hasattr(getattr(owner, attr, None), "cache_info"):
                    self.missing.append(f"{_hook_name(owner, attr)}.cache_info")

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _task_start(self):
        self._caches["task"] = cache_counts()

    def _task_done(self, idx):
        """In a pool worker: write this task's spans and cache counts, then drop the spans."""
        if os.getpid() == self.pid:
            return
        rebased = [[s[0], s[1], s[2], s[3], s[4] - idx if s[4] >= idx else -1, 0, s[6]]
                   for s in self.spans[idx:]]
        caches = _count_delta(self._caches["task"], cache_counts())
        path = os.path.join(self.workdir, f"task-{os.getpid()}-{idx}-{time.perf_counter_ns()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": rebased, "caches": caches}, handle)
        del self.spans[idx:]

    def collect_tasks(self):
        """Read back the spans and cache counts the pool's workers wrote."""
        for path in sorted(glob.glob(os.path.join(self.workdir, "task-*.json"))):
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            os.remove(path)
            base = len(self.remote)
            for s in data["spans"]:
                parent = s[4] + base if s[4] >= 0 else -1
                self.remote.append([s[0], s[1], s[2], s[3], parent, base, s[6], data["pid"]])
            self._caches["workers"].append(data["caches"])

    def cache_totals(self) -> dict:
        """Hits and misses during the timed calls, here and in every pool task."""
        out = _count_delta(self._caches["start"], self._caches["end"])
        for task in self._caches["workers"]:
            for group in out:
                if group not in task:
                    continue
                out[group] = [out[group][0] + task[group][0], out[group][1] + task[group][1]]
        return out


def _count_delta(before: dict, after: dict) -> dict:
    return {group: [after[group][0] - before[group][0], after[group][1] - before[group][1]]
            for group in after if group in before}


def self_times(tree) -> list:
    """Per span: its duration minus the durations of its direct children."""
    own = [s[3] - s[2] for s in tree]
    for s in tree:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _ratio(num, den):
    return num / den if den else 0.0


def _hit_ratio(counts):
    return None if counts is None else _ratio(counts[0], counts[0] + counts[1])


def layer_metrics(tracer: Tracer, eta_err_max: float) -> tuple:
    """({metric: value}, [missing hook names], {span name: self seconds}).

    The pass's own spans and the pool tasks' spans are two separate trees:
    the tasks ran in other processes, in parallel with the pool's span.
    """
    kinds: dict = {}
    self_by_name: dict = {}
    bisect_trials = 0
    task_runs = []  # (seconds, pid)
    for tree in (tracer.spans, tracer.remote):
        for s, own in zip(tree, self_times(tree)):
            entry = kinds.setdefault(s[1], {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": []})
            entry["calls"] += 1
            entry["s"] += s[3] - s[2]
            entry["self_s"] += own
            if s[6] is not None:
                entry["notes"].append(s[6])
            self_by_name[s[0]] = self_by_name.get(s[0], 0.0) + own
            if s[1] == "trial" and s[4] >= 0 and tree[s[4]][1] == "bisect":
                bisect_trials += 1
            if s[1] == "task":
                task_runs.append((s[3] - s[2], s[7] if len(s) > 7 else tracer.pid))

    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": []}

    def kind(name):
        return kinds.get(name, empty)

    sweeps = kind("sweep_in")["notes"] + kind("sweep_out")["notes"]
    nodes = sum(n[0] for n in sweeps)
    rescales = [n[1] for n in sweeps]
    sweep_s = kind("sweep_in")["s"] + kind("sweep_out")["s"]
    islands = kind("island")["notes"]
    task_s = [t for t, _ in task_runs]
    workers = len({pid for _, pid in task_runs}) or 1
    longest = max(task_s, default=0.0)
    fair = sum(task_s) / workers
    pool_wall = kind("pool")["s"]
    caches = tracer.cache_totals()

    values = {
        "numerov.sweep_in_calls": kind("sweep_in")["calls"],
        "numerov.sweep_in_s": kind("sweep_in")["s"],
        "numerov.sweep_out_calls": kind("sweep_out")["calls"],
        "numerov.sweep_out_s": kind("sweep_out")["s"],
        "numerov.nodes_swept": nodes,
        "numerov.ns_per_node": _ratio(sweep_s * 1e9, nodes),
        "numerov.rescales": None if None in rescales else sum(rescales),
        "numerov.factors_s": kind("factors")["s"],
        "solver.island_calls": kind("island")["calls"],
        "solver.island_s": kind("island")["s"],
        "solver.island_nodes": sum(n[0] for n in islands),
        "solver.island_hit_ratio": _ratio(sum(1 for n in islands if n[1]), len(islands)),
        "solver.trials": kind("trial")["calls"],
        "solver.trial_s": kind("trial")["s"],
        "solver.trial_self_s": kind("trial")["self_s"],
        "solver.brackets": kind("bisect")["calls"],
        "solver.bisect_calls": bisect_trials,
        "solver.bisect_steps": _ratio(bisect_trials, kind("bisect")["calls"]),
        "solver.bisect_s": kind("bisect")["s"],
        "solver.pool_tasks": len(task_s),
        "solver.pool_wall_s": pool_wall,
        "solver.pool_overhead_s": pool_wall - max(longest, fair) if task_s else 0.0,
        "solver.pool_imbalance": _ratio(longest, fair),
        "coefficients.build_calls": kind("build")["calls"],
        "coefficients.build_s": kind("build")["s"],
        "coefficients.field_evals": kind("field")["calls"],
        "coefficients.field_s": kind("field")["s"],
        "core.grid_cache_hit_ratio": _hit_ratio(caches.get("grid")),
        "solver.island_cache_hit_ratio": _hit_ratio(caches.get("island")),
        "cli.self_s": kind(CLI_KIND)["self_s"],
        "manifest.serialize_s": kind("manifest")["s"] + kind("serialize")["s"],
        "manifest.bytes": sum(n[0] for n in kind("serialize")["notes"]),
        "solver.eta_err_max": eta_err_max,
    }

    absent = {k for owner, attr, k in HOOKS if _hook_name(owner, attr) in tracer.missing}
    absent |= {f"cache:{group}" for group in CACHES if group not in caches}
    if None in rescales:
        absent.add("rescales")
    for name, (_, needs) in LAYER_METRICS.items():
        if name in values and (values[name] is None or absent.intersection(needs)):
            del values[name]
    return values, sorted(tracer.missing), self_by_name


def op_counts(tracer: Tracer) -> dict:
    """Trials and swept trials under each of the benchmark's ops and each pool task."""
    out: dict = {}
    for tree, root_kinds in ((tracer.spans, (OP_KIND, CLI_KIND)), (tracer.remote, ("task",))):
        for s in tree:
            root = tree[s[5]]
            if root[1] not in root_kinds or root[4] != -1:
                continue
            label = root[0] if root[1] != "task" else f"pool task D={(root[6] or ['?'])[0]}"
            entry = out.setdefault(label, {"trials": 0, "swept_trials": 0,
                                           "seconds": root[3] - root[2]})
            if s[1] == "trial":
                entry["trials"] += 1
            elif s[1] == "sweep_in":
                entry["swept_trials"] += 1
    return out
