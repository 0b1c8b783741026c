"""Client-side backpressure: Retry-After-honoring retries (opt-in).

``retries=N`` makes the client treat 429/503 + ``Retry-After`` as a
delay hint rather than an error — capped jittered exponential backoff,
N attempts, then the original typed error surfaces.  Anything else
(validation errors, transport failures) is never retried.
"""

import threading
import time

import pytest

from repro.serve.client import (
    MAX_BACKOFF_S,
    ServeError,
    _backoff_s,
    _retryable,
)

from tests.serve.test_server import GatedExecutor, ServerHarness


class TestBackoffMath:
    def test_seeded_by_retry_after_and_doubling(self):
        for attempt in range(4):
            ideal = min(MAX_BACKOFF_S, 2.0 * 2.0**attempt)
            for _ in range(20):
                delay = _backoff_s(attempt, 2.0, MAX_BACKOFF_S)
                assert 0.5 * ideal <= delay <= ideal

    def test_cap_bounds_every_attempt(self):
        for attempt in range(12):
            assert _backoff_s(attempt, 4.0, 7.5) <= 7.5

    def test_missing_retry_after_defaults_to_one_second(self):
        assert 0.5 <= _backoff_s(0, None, MAX_BACKOFF_S) <= 1.0

    def test_retryable_needs_status_and_hint(self):
        assert _retryable(ServeError("overloaded", "", 429, 1.0))
        assert _retryable(ServeError("draining", "", 503, 1.0))
        assert not _retryable(ServeError("overloaded", "", 429, None))
        assert not _retryable(ServeError("bad_request", "", 400, 1.0))
        assert not _retryable(ServeError("timeout", "", 504, 1.0))


def _saturated_harness():
    """A server whose single admission slot is held by a gated request."""
    return ServerHarness(executor=GatedExecutor(), max_queue=1)


def _occupy(harness):
    """Park one request in the gated backend; returns the thread."""
    client = harness.client(timeout=60.0)

    def hold():
        try:
            client.experiment("hf", "inter")
        finally:
            client.close()

    thread = threading.Thread(target=hold, daemon=True)
    thread.start()
    harness.wait_statusz(lambda doc: doc["admission"]["active"] >= 1)
    return thread


class TestSyncRetry:
    def test_fails_fast_without_retries(self):
        with _saturated_harness() as h:
            holder = _occupy(h)
            try:
                with h.client() as c, pytest.raises(ServeError) as e:
                    c.experiment("sar", "inter")
                assert e.value.code == "overloaded"
                assert e.value.http_status == 429
                assert e.value.retry_after_s is not None
            finally:
                h.server.coalescer.executor.gate.set()
                holder.join(30.0)

    def test_retry_rides_out_the_429(self):
        with _saturated_harness() as h:
            holder = _occupy(h)
            # open the gate shortly after the first 429: the retry lands
            opener = threading.Timer(
                0.2, h.server.coalescer.executor.gate.set
            )
            opener.start()
            try:
                with h.client() as c:
                    resp = c.experiment("sar", "inter", retries=5)
                assert resp.status == 200
                assert resp.source == "simulated"
            finally:
                opener.cancel()
                h.server.coalescer.executor.gate.set()
                holder.join(30.0)

    def test_validation_errors_are_never_retried(self):
        with ServerHarness() as h, h.client() as c:
            start = time.monotonic()
            with pytest.raises(ServeError) as e:
                c.experiment("no-such-workload", "inter", retries=5)
            assert e.value.code == "unknown_workload"
            # five backoffs would take seconds; no-retry returns at once
            assert time.monotonic() - start < 1.0
