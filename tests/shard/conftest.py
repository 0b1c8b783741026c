"""Shard-suite isolation.

The in-thread cluster harness runs several servers at once; each
enters the *process-global* ``use_registry`` from its own thread, so
the exits restore in thread-finish order, not LIFO — whichever server
thread exits last wins, and the suite would leak its registry into
later tests.  Snapshot and restore the ambient registry around every
test instead.
"""

import pytest

from repro.telemetry.registry import get_registry, use_registry


@pytest.fixture(autouse=True)
def _restore_ambient_registry():
    with use_registry(get_registry()):
        yield
