"""Local cluster lifecycle: N worker processes behind one router.

:class:`ShardCluster` is what ``repro shard serve --shards N`` runs:

1. **rebalance first** — before any worker serves a byte, every stored
   entry under the partition root is re-homed to its ring owner
   (:func:`repro.shard.partition.rebalance`).  This is the restart/
   resize half of warm handoff: a store written by a 1-shard cluster
   (or a differently-sized one) serves from cache on the new layout,
   re-simulating nothing;
2. **spawn workers** — one ``repro shard worker`` subprocess per shard
   (each its own process pool, store partition and registry), wait for
   every ``/healthz``;
3. **route** — run the :class:`~repro.shard.router.ShardRouter` in the
   foreground with this cluster's ``stop_worker`` wired in, so
   ``POST /admin/drain`` (→ ``repro shard drain``) performs the full
   park → stop → rebalance → reroute handoff;
4. **drain on SIGTERM/SIGINT** — the router drains its connections,
   then every worker is SIGTERMed and waited on (their own drains
   flush in-flight work to their partitions); everything exits 0.

Workers bind pre-probed free ports on the loopback interface; the
router is the only advertised address.  This is deliberately a *local*
cluster (N processes, one host) — the router/worker protocol is plain
HTTP, so pointing ``backends`` at remote hosts is configuration, not
new code, but process supervision here covers the single-host case the
benchmarks and tests exercise.
"""

from __future__ import annotations

import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

from repro.serve.client import ServeClient, ServeError
from repro.shard.partition import partition_dir, rebalance, shard_ids
from repro.shard.ring import HashRing
from repro.shard.router import ShardRouter
from repro.util.log import get_logger

__all__ = ["ShardCluster"]

_LOG = get_logger("shard.cluster")

#: How long every worker gets to answer ``/healthz`` after spawning.
STARTUP_TIMEOUT_S = 60.0
#: How long a SIGTERMed worker gets to drain before it is killed.
STOP_TIMEOUT_S = 60.0


def _free_port(host: str) -> int:
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


class ShardCluster:
    """N local shard workers plus the front router, as one unit."""

    def __init__(
        self,
        shards: int,
        root: str | pathlib.Path,
        host: str = "127.0.0.1",
        port: int = 0,
        workers_per_shard: int = 1,
        max_queue: int = 64,
        max_batch: int = 8,
        request_timeout_s: float = 300.0,
        max_inflight: int = 64,
        default_scale: int = 0,
        cache_max_bytes: int | None = None,
        engine: str = "",
        registry=None,
        tracer=None,
    ):
        self.shard_ids = shard_ids(shards)
        self.root = pathlib.Path(root)
        self.host = host
        self.workers_per_shard = workers_per_shard
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.request_timeout_s = request_timeout_s
        self.default_scale = default_scale
        self.cache_max_bytes = cache_max_bytes
        # Keys stamp the process-default engine (key schema v3), so the
        # router and every worker must agree on it or routing digests
        # would diverge from execution digests.
        self.engine = engine
        self.ring = HashRing(self.shard_ids)
        self._procs: dict[str, subprocess.Popen] = {}
        self.router = ShardRouter(
            ring=self.ring,
            backends={},  # filled by start()
            host=host,
            port=port,
            store_root=self.root,
            registry=registry,
            tracer=tracer,
            max_inflight=max_inflight,
            request_timeout_s=request_timeout_s,
            default_scale=default_scale,
            stop_worker=self.stop_worker,
        )

    # -- worker processes ---------------------------------------------------------

    def _worker_command(self, shard: str, port: int) -> list[str]:
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "shard",
            "worker",
            "--shard-id",
            shard,
            "--root",
            str(self.root),
            "--host",
            self.host,
            "--port",
            str(port),
            "--workers",
            str(self.workers_per_shard),
            "--max-queue",
            str(self.max_queue),
            "--max-batch",
            str(self.max_batch),
            "--request-timeout",
            str(self.request_timeout_s),
        ]
        if self.default_scale:
            cmd += ["--scale", str(self.default_scale)]
        if self.cache_max_bytes is not None:
            cmd += ["--cache-max-bytes", str(self.cache_max_bytes)]
        if self.engine:
            cmd += ["--engine", self.engine]
        return cmd

    def start(self) -> None:
        """Rebalance, spawn every worker, wait for healthy, arm the router."""
        self.root.mkdir(parents=True, exist_ok=True)
        for shard in self.shard_ids:
            partition_dir(self.root, shard).mkdir(parents=True, exist_ok=True)
        moved = rebalance(self.root, self.ring)
        if moved:
            _LOG.info("startup rebalance moved %d warm entr%s",
                      moved, "y" if moved == 1 else "ies")
        backends: dict[str, tuple[str, int]] = {}
        for shard in self.shard_ids:
            port = _free_port(self.host)
            proc = subprocess.Popen(self._worker_command(shard, port))
            self._procs[shard] = proc
            backends[shard] = (self.host, port)
            _LOG.info("spawned %s (pid %d) on %s:%d", shard, proc.pid, self.host, port)
        self.router.backends.update(backends)
        self._wait_healthy()

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        for shard, (host, port) in sorted(self.router.backends.items()):
            while True:
                proc = self._procs.get(shard)
                if proc is not None and proc.poll() is not None:
                    raise RuntimeError(
                        f"{shard} exited with {proc.returncode} during startup"
                    )
                try:
                    with ServeClient(f"http://{host}:{port}", timeout=5.0) as client:
                        client.health()
                    break
                except (OSError, ServeError):
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{shard} never became healthy")
                time.sleep(0.05)

    def stop_worker(self, shard: str) -> int:
        """SIGTERM one worker and wait out its graceful drain."""
        proc = self._procs.pop(shard, None)
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                _LOG.warning("%s ignored SIGTERM for %.0fs; killing", shard, STOP_TIMEOUT_S)
                proc.kill()
                proc.wait(timeout=10.0)
        if proc.returncode != 0:
            _LOG.warning("%s exited with %d", shard, proc.returncode)
        return proc.returncode or 0

    def stop(self) -> None:
        """Drain every remaining worker (cluster shutdown path)."""
        for shard in list(self._procs):
            self.stop_worker(shard)

    # -- foreground serving -------------------------------------------------------

    def serve_forever(self, install_signals: bool = True) -> int:
        """Start workers, run the router until drained, stop workers.

        The single blocking call behind ``repro shard serve``; returns
        the process exit code (0 = everything drained cleanly).
        """
        try:
            self.start()
            code = self.router.serve_forever(install_signals=install_signals)
        finally:
            # Covers a failed start() too — no orphaned workers.
            self.stop()
        return code

    @property
    def port(self) -> int:
        return self.router.port

    def __repr__(self) -> str:
        return (
            f"ShardCluster({len(self.shard_ids)} shards, root={self.root}, "
            f"router={self.host}:{self.router.port})"
        )
