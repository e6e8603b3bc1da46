"""The benchmark tracer's targets still exist in the package.

``bench/tracing.py`` wraps the names in ``HOOKS`` and reads the counters of
the ``CACHES`` targets; a name retired from ``src/`` would otherwise surface
only as a ``missing hooks:`` line in a traced benchmark run.
"""

import importlib
import os

import pytest

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
