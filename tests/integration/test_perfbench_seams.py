"""The seams the traced perfbench replay patches still exist in ``src/``.

``perfbench.replay.REPLAY_STEPS`` swaps module and class attributes for
spanned wrappers, and the traced run probes the fast engine with
``is_vectorizable``.  Deleting one of them in ``src/`` breaks the traced
benchmark run; these tests catch it without running the benchmark.
"""

import importlib


def test_every_replay_step_still_exists():
    replay = importlib.import_module("perfbench.replay")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, *_ in replay.REPLAY_STEPS
        if not hasattr(owner, attribute)
    ]
    assert replay.REPLAY_STEPS and not missing, missing


def test_fast_engine_probe_still_imports():
    from repro.simulator.fast import is_vectorizable

    assert callable(is_vectorizable)
