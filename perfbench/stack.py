"""The serving stack under test and the closed-loop clients that load it.

One process holds the whole stack: a 1-shard :class:`ShardRouter` in
front of one :class:`MappingServer` (serial in-process backend, on-disk
:class:`ResultStore` partition), each on its own event-loop thread, as
``repro shard serve`` wires them minus the worker subprocess.  Clients
are :class:`ServeClient` connections with retries off, so every error,
429 and timeout counts as a failed request.
"""

from __future__ import annotations

import pathlib
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.exec.store import ResultStore
from repro.serve.client import ServeClient, ServeError, ServeResponse
from repro.serve.server import MappingServer
from repro.shard.partition import partition_dir
from repro.shard.ring import HashRing
from repro.shard.router import ShardRouter
from repro.telemetry import MetricsRegistry, declare_pipeline_metrics

from perfbench.hostspeed import HostClock
from perfbench.inputs import SCALE, Request

SHARD = "shard-0"
READY_TIMEOUT_S = 30.0
CLIENT_TIMEOUT_S = 120.0


class Stack:
    """A started 1-shard router + worker over a fresh store under ``root``."""

    def __init__(self, root: pathlib.Path):
        self.registry = MetricsRegistry()
        declare_pipeline_metrics(self.registry)
        self.store = ResultStore(partition_dir(root, SHARD))
        self.server = MappingServer(
            port=0,
            store=self.store,
            registry=self.registry,
            default_scale=SCALE,
            shard_id=SHARD,
        )
        self.router = ShardRouter(
            ring=HashRing([SHARD]),
            backends={},
            port=0,
            store_root=root,
            registry=self.registry,
            default_scale=SCALE,
        )
        self._running: list[tuple[object, threading.Thread]] = []
        self._start(self.server)
        self.router.backends[SHARD] = ("127.0.0.1", self.server.port)
        self._start(self.router)

    def _start(self, server) -> None:
        thread = threading.Thread(
            target=lambda: server.serve_forever(install_signals=False),
            name=f"perfbench-{type(server).__name__}",
            daemon=True,
        )
        self._running.append((server, thread))
        thread.start()
        if not server.ready.wait(READY_TIMEOUT_S):
            self.stop()
            raise RuntimeError(f"{type(server).__name__} never became ready")

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.router.port}"

    @property
    def direct_url(self) -> str:
        """The worker itself, bypassing the router hop."""
        return f"http://127.0.0.1:{self.server.port}"

    def counter(self, name: str) -> int:
        return self.registry.counter(name).value

    def stop(self) -> None:
        """Drain router then worker, and wait for both threads to end."""
        while self._running:
            server, thread = self._running.pop()
            server.request_shutdown()
            thread.join(READY_TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not stop")


@dataclass
class Served:
    """What a closed loop saw: per-request latencies and outcomes."""

    latencies_s: list[float] = field(default_factory=list)
    #: (request, response) per success, in order.
    responses: list[tuple[Request, ServeResponse]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: X-Repro-Source header -> count ("simulated", "cache", "coalesced").
    sources: Counter = field(default_factory=Counter)
    wall_s: float = 0.0
    #: Loop time (pauses excluded) at each host-speed mark; the stretch
    #: between two marks holds one request.
    marks_s: list[float] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return len(self.responses)

    @property
    def attempted(self) -> int:
        return self.ok + len(self.errors)


def send(client: ServeClient, request: Request, served: Served) -> None:
    """One timed request; a failure is recorded, never raised."""
    start = time.perf_counter()
    try:
        response = client.experiment(**request.body)
    except (ServeError, OSError) as exc:
        served.latencies_s.append(time.perf_counter() - start)
        served.errors.append(f"{request.label}: {type(exc).__name__}: {exc}")
        return
    served.latencies_s.append(time.perf_counter() - start)
    served.sources[response.source] += 1
    served.responses.append((request, response))


def cycles_loop(
    url: str,
    cycle: Callable[[int], list[Request]],
    seconds: float,
    min_requests: int = 0,
    between: Callable[[float], None] | None = None,
    clock: HostClock | None = None,
) -> Served:
    """One connection; whole cycles until ``seconds`` and ``min_requests`` are reached.

    Whole cycles keep the request mix identical from run to run, so the
    latency percentiles do not depend on where the clock ran out.
    ``between`` is called after each cycle with the loop time so far;
    ``clock`` is marked before each request and after the last one.
    Neither one's time counts toward ``seconds`` or in ``wall_s``.
    """
    served = Served()
    paused = 0.0
    start = time.perf_counter()

    def pause(action: Callable[[float], object]) -> None:
        nonlocal paused
        begin = time.perf_counter()
        action(begin - start - paused)
        paused += time.perf_counter() - begin

    def mark(loop_s: float) -> None:
        served.marks_s.append(loop_s)
        clock.mark()

    with ServeClient(url, timeout=CLIENT_TIMEOUT_S) as client:
        c = 0
        while (
            c == 0
            or time.perf_counter() - start - paused < seconds
            or served.attempted < min_requests
        ):
            for request in cycle(c):
                if clock is not None:
                    pause(mark)
                send(client, request, served)
            c += 1
            if between is not None:
                pause(between)
        if clock is not None:
            pause(mark)
    served.wall_s = time.perf_counter() - start - paused
    return served
