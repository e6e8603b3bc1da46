"""The benchmark's tracer targets and workload calls still exist in the package.

``bench/tracing.py`` wraps the names in ``HOOKS`` and reads the counters of
the ``CACHES`` targets; a name retired from ``src/`` would otherwise surface
only as a ``missing hooks:`` line in a traced benchmark run. ``bench/workloads.py``
sizes its grids through ``core`` and ``coefficients`` directly.
"""

import importlib
import os

import pytest

from dirac_numerov import Ansatz, PhysicalConfig, solver

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH)
        return importlib.import_module("tracing")


def test_every_hook_target_exists(tracing):
    missing = [tracing._hook_name(owner, attr) for owner, attr, _ in tracing.HOOKS
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_every_cache_target_has_cache_info(tracing):
    missing = [tracing._hook_name(owner, attr) for targets in tracing.CACHES.values()
               for owner, attr in targets if not hasattr(getattr(owner, attr, None), "cache_info")]
    assert missing == []


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH)
        return importlib.import_module("workloads")


@pytest.mark.parametrize("ansatz", list(Ansatz))
def test_workload_grid_size_is_the_solver_grid(workloads, ansatz):
    # the benchmark sizes its grids through core and coefficients directly,
    # outside the names the hooks cover
    settings = solver.SolverSettings()
    for d in range(3, 11):
        config = PhysicalConfig(dimension=d, ansatz=ansatz)
        for eta in (0.5, 0.99):
            expected = solver._trial_setup(eta, config, settings)[1].n_points
            assert workloads._grid_size(config, settings, eta) == expected, (d, eta)
