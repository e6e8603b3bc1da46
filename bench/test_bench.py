"""Tests of the benchmark itself: its checks, its metric names and its tracer.

    python3 -m pytest bench -q
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import metrics  # noqa: E402
import one_pass  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dirac_numerov import cli, solver  # noqa: E402

NO_ISLAND = "no classically-allowed island at any scanned energy (no turning point)"


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _tiny_certify_plan(workload, seed):
    return workloads.Plan(workload="certify-gauss", seed=seed, eta_min=workloads.ETA_MIN,
                          ops=(workloads.Op("certify D=5", 5),))


# ---------------------------------------------------------------------------
# correctness checks


def test_check_flags_wrong_eigenvalue():
    ref = workloads.reference_ratio(3)
    assert workloads.check_found(3, True, ref)[0]
    assert not workloads.check_found(3, True, ref + 1e-6)[0]
    assert not workloads.check_found(3, False, None)[0]


def test_check_flags_spurious_bound_state():
    assert workloads.check_absent(5, False, NO_ISLAND)[0]
    assert not workloads.check_absent(5, True, NO_ISLAND)[0]
    assert not workloads.check_absent(5, True, "accepted lowest-eta mismatch root")[0]
    assert not workloads.check_absent(5, False, "mismatch never changes sign across the scan window")[0]


def test_check_flags_bad_scan_manifest():
    records = [{"dimension": d, "found": d == 3} for d in workloads.SCAN_DIMS]
    text = json.dumps({"results": records})
    assert workloads.check_manifest(0, text, workloads.SCAN_DIMS)[0]
    assert not workloads.check_manifest(2, text, workloads.SCAN_DIMS)[0]
    assert not workloads.check_manifest(0, "{not json", workloads.SCAN_DIMS)[0]
    short = json.dumps({"results": records[:-1]})
    assert not workloads.check_manifest(0, short, workloads.SCAN_DIMS)[0]


def test_failed_operation_is_never_timed_as_a_success():
    ops = [workloads._op("fast", 1.0, (True, ""), 10, solve=True),
           workloads._op("slow but wrong", 9.0, (False, "spurious"), 10, solve=True)]
    summary = workloads.summarize_pass(2.0, ops)
    assert summary["slowest_solve_s"] == 1.0
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    passes = [{**summary, "trace": False, "setup_s": 0.1, "peak_rss_mb": 50.0, "ops": ops,
               "eta_min": 0.5, "order": ["fast"], "working_set": {}}]
    args = run.argparse.Namespace(workload="certify-gauss", seed=0, trace=0, seconds=1.0)
    _, result = run.summarize(args, passes, [0.1])
    assert result["correct"] is False and result["failed"] == 1


# ---------------------------------------------------------------------------
# seeds


def test_plan_depends_on_the_seed_alone():
    canonical = workloads.make_plan("certify-gauss", 0)
    assert canonical.eta_min == workloads.ETA_MIN
    assert [op.dimension for op in canonical.ops[:7]] == list(workloads.CERTIFY_DIMS)
    assert workloads.make_plan("ground-1r", 7) == workloads.make_plan("ground-1r", 7)
    for seed in range(1, 20):
        plan = workloads.make_plan("ground-1r", seed)
        assert abs(plan.eta_min / workloads.ETA_MIN - 1.0) <= workloads.ETA_JITTER
        assert sorted(op.dimension for op in plan.ops) == list(workloads.GROUND_DIMS)
    orders = {tuple(op.label for op in workloads.make_plan("ground-1r", s).ops) for s in range(1, 6)}
    assert len(orders) > 1


# ---------------------------------------------------------------------------
# metric names and the tracer


def test_end_to_end_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    ops = [workloads._op("op", 1.0, (True, ""), 10, solve=True)]
    record = {**workloads.summarize_pass(1.0, ops), "trace": False, "setup_s": 0.1,
              "peak_rss_mb": 50.0, "ops": ops, "eta_min": 0.5, "order": ["op"],
              "working_set": {}}
    args = run.argparse.Namespace(workload="ground-1r", seed=0, trace=0, seconds=1.0)
    lines, result = run.summarize(args, [record], [0.1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = "\n".join(lines)
    for name in declared:
        assert f"  {name} " in printed


def test_traced_scan_prints_every_per_layer_metric(tmp_path, capsys):
    """A small real scan through the CLI's pool, traced: every declared layer metric appears."""
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    try:
        with tracer.span("cli scan", tracing.CLI_KIND):
            code = cli.main(["scan", "--d-min", "3", "--d-max", "4", "--ansatz", "2",
                             "--scan-points", "30", "--threads", "2", "--format", "json",
                             "--output", str(tmp_path / "scan.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    tracer.collect_tasks()
    layers, missing, _ = tracing.layer_metrics(tracer, 0.0)
    assert missing == []
    assert layers["solver.pool_tasks"] == 2 and layers["solver.trials"] >= 60
    traced = {"trace": True, "wall_s": 1.1, "layers": layers, "missing_hooks": missing,
              "self_s_by_span": {}, "op_counts": tracing.op_counts(tracer)}
    plain = {"trace": False, "wall_s": 1.0}
    for rec in (traced, plain):
        rec.update(attempted=1, failed=0, ops=[], eta_min=0.5, order=[], working_set={})
    args = run.argparse.Namespace(workload="scan-pool", seed=0, trace=1, seconds=1.0)
    _, result = run.summarize(args, [traced, plain], [0.1])
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert set(declared) == set(metrics.LAYER_METRICS)


def test_removed_hook_is_reported_missing_not_zero(tmp_path, monkeypatch):
    monkeypatch.delattr(solver, "_bisect_bracket")
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    tracer.uninstall()
    layers, missing, _ = tracing.layer_metrics(tracer, 0.0)
    assert "solver._bisect_bracket" in missing
    assert "solver.brackets" not in layers and "solver.bisect_s" not in layers
    assert "solver.trials" in layers


@pytest.mark.parametrize("trace", [0, 1])
def test_only_the_traced_pass_installs_wrappers(trace, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "make_plan", _tiny_certify_plan)
    before = {(id(owner), attr): getattr(owner, attr) for owner, attr, _ in tracing.HOOKS}
    assert one_pass.main(["--workload", "certify-gauss", "--trace", str(trace),
                          "--workdir", str(tmp_path)]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["failed"] == 0
    assert record["wrappers_installed"] == (len(tracing.HOOKS) if trace else 0)
    assert ("layers" in record) == bool(trace)
    after = {(id(owner), attr): getattr(owner, attr) for owner, attr, _ in tracing.HOOKS}
    assert after == before


def test_seed0_counts_reproduce_the_documented_baseline(tmp_path):
    """989 trials / 162 swept for D = 3 (1/r); 2000 trials, no sweeps, for D = 5 (Gauss law)."""
    counts = []
    for workload, d, ansatz in (("ground-1r", 3, workloads.Ansatz.ONE_OVER_R),
                                ("certify-gauss", 5, workloads.Ansatz.GENERALIZED),
                                ("certify-gauss", 5, workloads.Ansatz.GENERALIZED)):
        plan = workloads.Plan(workload, 0, workloads.ETA_MIN, (workloads.Op(f"D={d}", d),))
        tracer = tracing.Tracer(str(tmp_path))
        tracer.install()
        try:
            workloads._solve_ops(plan, ansatz, tracer.span)
        finally:
            tracer.uninstall()
        layers, _, _ = tracing.layer_metrics(tracer, 0.0)
        counts.append({name: layers[name] for name in metrics.COUNT_METRICS})
    assert (counts[0]["solver.trials"], counts[0]["numerov.sweep_in_calls"]) == (989, 162)
    assert (counts[1]["solver.trials"], counts[1]["numerov.sweep_in_calls"]) == (2000, 0)
    assert counts[1] == counts[2]
