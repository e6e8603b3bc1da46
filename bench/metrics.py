"""Names, units and dependencies of the benchmark's metrics.

Kept free of package imports so ``run.py`` can print and check
metric names without importing ``dirac_numerov``.
"""

END_TO_END = {
    "wall_s": "s",
    "slowest_solve_s": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, hook kinds and caches it needs)
LAYER_METRICS = {
    "numerov.sweep_in_calls": ("count", ("sweep_in",)),
    "numerov.sweep_in_s": ("s", ("sweep_in",)),
    "numerov.sweep_out_calls": ("count", ("sweep_out",)),
    "numerov.sweep_out_s": ("s", ("sweep_out",)),
    "numerov.nodes_swept": ("count", ("sweep_in", "sweep_out")),
    "numerov.ns_per_node": ("ns", ("sweep_in", "sweep_out")),
    "numerov.rescales": ("count", ("sweep_in", "sweep_out", "rescales")),
    "numerov.factors_s": ("s", ("factors",)),
    "solver.island_calls": ("count", ("island",)),
    "solver.island_s": ("s", ("island",)),
    "solver.island_nodes": ("count", ("island",)),
    "solver.island_hit_ratio": ("ratio", ("island",)),
    "solver.trials": ("count", ("trial",)),
    "solver.trial_s": ("s", ("trial",)),
    "solver.trial_self_s": ("s", ("trial", "build", "island", "factors", "sweep_in",
                                  "sweep_out", "field")),
    "solver.brackets": ("count", ("bisect",)),
    "solver.bisect_calls": ("count", ("bisect", "trial")),
    "solver.bisect_steps": ("count", ("bisect", "trial")),
    "solver.bisect_s": ("s", ("bisect",)),
    "solver.pool_tasks": ("count", ("task",)),
    "solver.pool_wall_s": ("s", ("pool",)),
    "solver.pool_overhead_s": ("s", ("pool", "task")),
    "solver.pool_imbalance": ("ratio", ("task",)),
    "coefficients.build_calls": ("count", ("build",)),
    "coefficients.build_s": ("s", ("build",)),
    "coefficients.field_evals": ("count", ("field",)),
    "coefficients.field_s": ("s", ("field",)),
    "core.grid_cache_hit_ratio": ("ratio", ("cache:grid",)),
    "solver.island_cache_hit_ratio": ("ratio", ("cache:island",)),
    "cli.self_s": ("s", ("pool", "manifest", "serialize")),
    "manifest.serialize_s": ("s", ("manifest", "serialize")),
    "manifest.bytes": ("B", ("serialize",)),
    "solver.eta_err_max": ("E/M", ()),
    "trace.overhead_frac": ("ratio", ()),
}

# integer counts that must repeat exactly between traced passes of one seed
COUNT_METRICS = tuple(name for name, (unit, _) in LAYER_METRICS.items()
                      if unit == "count" and name != "solver.bisect_steps")
