"""Solver benchmark for dirac_numerov: end-to-end timings and a traced per-layer breakdown.

    python3 bench/run.py --workload ground-1r --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. Workloads: ground-1r, certify-gauss,
scan-pool, or ``all`` for the three in turn. Every pass runs in a fresh
interpreter, as every CLI invocation does, so the package's import and its
cold ``lru_cache``s are part of what is measured. Passes run one after the
other (one process of load; scan-pool's pool uses two workers): at least
``MIN_PASSES`` of them, and then another only while it is expected to end
within ``--seconds``.

``--trace 0`` reports the end-to-end metrics: medians over the passes, and
for ``setup_s`` over ``SETUP_PROBES`` extra import-only interpreters as well.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics from the traced ones, with the tracing overhead.

A run needs one pass (one traced and one untraced with ``--trace 1``). A
pass still running at ``RUN_DEADLINE_S`` is killed, even a needed one, so
that every run ends within 180 s; on a host that slow the run fails with no
result rather than overrunning.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
are the human-readable report: environment, working set, every metric with
its unit and sample count, the failure fraction and any failed operation.
The exit code is 0 when the benchmark ran (a failed correctness check is
reported through ``correct``), and non-zero, with no JSON line, when it
could not run, for example when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from metrics import COUNT_METRICS, END_TO_END, LAYER_METRICS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("ground-1r", "certify-gauss", "scan-pool")
MIN_PASSES = 1
MIN_TRACED_PASSES = 2
SETUP_PROBES = 10
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_pass(args, deadline, workdir, traced=False, setup_only=False) -> dict:
    """Start one pass interpreter, wait for it and return its JSON record."""
    cmd = [sys.executable, os.path.join(BENCH, "one_pass.py")]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--trace", "1" if traced else "0", "--workdir", workdir]
    env = dict(os.environ)
    env.pop("DIRAC_NUMEROV_THREADS", None)  # the workload fixes its own worker count
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from cached bytecode, as installs do
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and its pool workers
        proc.communicate()
        raise BenchError(f"pass exceeded the {RUN_DEADLINE_S:.0f} s run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"pass printed no record: {err.strip()[-2000:]}") from None


def run_passes(args, workdir) -> tuple:
    """(pass records, setup samples) for one workload within --seconds."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    # setup_s is an end-to-end metric, so only an untraced run needs the probes
    setups = [run_pass(args, deadline, workdir, setup_only=True)["setup_s"]
              for _ in range(0 if args.trace else SETUP_PROBES)]
    durations = []
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        t0 = time.monotonic()
        passes.append(run_pass(args, deadline, workdir, traced=traced))
        durations.append(time.monotonic() - t0)
        setups.append(passes[-1]["setup_s"])
        n_traced = sum(p["trace"] for p in passes)
        n_plain = len(passes) - n_traced
        enough = n_plain >= MIN_PASSES and (not args.trace or n_traced >= MIN_TRACED_PASSES)
        least = n_plain >= 1 and (not args.trace or n_traced >= 1)
        # start another pass only if it should end within --seconds, and on a
        # slow host never one that would overrun the run's deadline
        expected_end = time.monotonic() - start + statistics.mean(durations)
        if (enough and expected_end > args.seconds) or (least and expected_end > RUN_DEADLINE_S):
            return passes, setups


def environment(first: dict) -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(base, index, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = size
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unavailable (git failed)"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "start_method": first.get("start_method"),
        "commit": commit,
    }


def _median(values):
    values = [v for v in values if v is not None and not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def _metric_line(name, value, unit, samples):
    shown = " ".join(f"{s:.6g}" for s in samples)
    return f"  {name:<32} {value:>14.6g} {unit:<6} (median of {len(samples)}: {shown})"


def summarize(args, passes, setups) -> tuple:
    """(report lines, result object) for one workload."""
    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # a pass with a failed check is never timed as a success
    timed = [p for p in plain if p["failed"] == 0] or plain
    first = passes[0]
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"seconds {args.seconds}  passes {len(plain)} untraced + {len(traced)} traced",
        "environment " + json.dumps(environment(first), sort_keys=True),
        f"plan eta_min {first['eta_min']!r}  order: " + ", ".join(first["order"]),
        "working set " + json.dumps(first["working_set"]),
    ]
    metrics = {}
    if not args.trace:
        lines.append("end-to-end metrics")
        samples = {name: [p[name] for p in timed] for name in END_TO_END if name != "setup_s"}
        samples["setup_s"] = setups
        for name, unit in END_TO_END.items():
            value = _median(samples[name])
            metrics[name] = {"value": value, "unit": unit}
            lines.append(_metric_line(name, value, unit, samples[name]))
    else:
        lines.append("per-layer metrics (traced passes)")
        layer_passes = [p["layers"] for p in traced]
        values = {name: _median([p[name] for p in layer_passes if name in p])
                  for name in LAYER_METRICS if name in layer_passes[0]}
        # counts repeat exactly between traced passes; report the first one as a whole number
        values.update({name: layer_passes[0][name] for name in COUNT_METRICS if name in values})
        values["trace.overhead_frac"] = (
            _median([p["wall_s"] for p in traced]) / _median([p["wall_s"] for p in plain]) - 1.0)
        for name, (unit, _) in LAYER_METRICS.items():
            if name not in values:
                lines.append(f"  {name:<32} MISSING (hook not found)")
                continue
            metrics[name] = {"value": values[name], "unit": unit}
            samples = [p[name] for p in layer_passes if name in p] or [values[name]]
            lines.append(_metric_line(name, values[name], unit, samples))
        for name in COUNT_METRICS:
            seen = {p.get(name) for p in layer_passes}
            if len(seen) > 1:
                lines.append(f"  WARNING {name} differs between traced passes: {sorted(seen)}")
        missing = sorted(set().union(*(p["missing_hooks"] for p in traced)))
        if missing:
            lines.append("missing hooks: " + ", ".join(missing))
        own = traced[0]["self_s_by_span"]
        lines.append("self time by span (first traced pass), largest first")
        for name, seconds in sorted(own.items(), key=lambda kv: -kv[1])[:12]:
            lines.append(f"  {name:<40} {seconds:10.4f} s")
        lines.append("counts per operation (first traced pass)")
        for label, entry in traced[0]["op_counts"].items():
            lines.append(f"  {label:<32} trials {entry['trials']:>6}  swept {entry['swept_trials']:>5}"
                         f"  {entry['seconds']:.3f} s")
    lines.append(f"fail_frac {failed / attempted if attempted else math.nan:.6g} "
                 f"({failed} of {attempted} operations failed)")
    for p in passes:
        for op in p["ops"]:
            if not op["ok"]:
                lines.append(f"  FAILED {op['label']}: {op['detail']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dirac_numerov", "__init__.py")):
        print(f"no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = os.path.join(BENCH, ".work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    results = {}
    try:
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            passes, setups = run_passes(one, workdir)
            lines, results[name] = summarize(one, passes, setups)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
