"""One pass of one workload, in a fresh interpreter with cold caches.

    python3 bench/one_pass.py --workload ground-1r --seed 0 --trace 0 \
        --workdir <working directory inside the checkout>

Times ``import dirac_numerov`` and ``dirac_numerov.cli`` first (the
interpreter has imported nothing of the package or of numpy yet), then runs
the workload and checks every result, and prints one JSON record as its last
line of standard output. With ``--setup-only`` it stops after the import.
With ``--trace 1`` it installs the tracer's wrappers before the workload and
adds the per-layer figures to the record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def _untraced(label, kind="op"):
    return contextlib.nullcontext()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import dirac_numerov
    import dirac_numerov.cli  # noqa: F401  (the CLI is part of what a user imports)
    setup_s = time.perf_counter() - t0
    package = os.path.abspath(dirac_numerov.__file__)
    if not package.startswith(src + os.sep):
        print(f"dirac_numerov imported from {package}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import multiprocessing

    import numpy

    import tracing
    import workloads

    plan = workloads.make_plan(args.workload, args.seed)
    tracer = None
    on_op = _untraced
    if args.trace:
        tracer = tracing.Tracer(args.workdir)
        tracer.install()
        on_op = tracer.span
    wall, ops, grids = workloads.run_workload(plan, on_op, args.workdir)
    record = workloads.summarize_pass(wall, ops)
    record.update({
        "trace": bool(args.trace),
        "setup_s": setup_s,
        "peak_rss_mb": workloads.peak_rss_mb(),
        "wrappers_installed": tracing.installed_wrappers(),
        "eta_min": plan.eta_min,
        "order": [op.label for op in plan.ops],
        "ops": ops,
        "working_set": grids,
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    })
    if tracer is not None:
        tracer.uninstall()
        tracer.collect_tasks()
        eta_err = max((o.get("eta_err", 0.0) for o in ops), default=0.0)
        layers, missing, self_by_name = tracing.layer_metrics(tracer, eta_err)
        record.update({"layers": layers, "missing_hooks": missing,
                       "self_s_by_span": self_by_name, "op_counts": tracing.op_counts(tracer)})
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
