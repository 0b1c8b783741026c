"""Benchmark for the sharded serving tier: 1 shard vs 3, same load.

Spins up real :class:`~repro.shard.cluster.ShardCluster` deployments —
worker *subprocesses* behind the router, exactly what ``repro shard
serve`` runs — and drives the same closed-loop cold load (every key
distinct, so every request simulates) through each:

* **1 shard** — the single-server baseline, all simulations serial;
* **3 shards** — the ring spreads the keys, three worker processes
  simulate concurrently.

The record has one row per key (id ``hf/original``) with its digest,
and its ``speedup`` is 3-shard over 1-shard throughput.  Its host block
carries ``cpu_count`` because the speedup claim is a *parallelism*
claim: on a single-core runner three workers time-share one core and
the ratio is noise.  ``gate.py`` therefore always enforces digest
identity (routing must never change results) but enforces the speedup
floor only when the measuring host has ``min_cores``.

Two entry points:

* ``pytest benchmarks/bench_shard.py --benchmark-only`` — the usual
  table via ``report_sink``;
* ``python benchmarks/bench_shard.py -o BENCH_shard.json`` —
  standalone, writing the benchmark record the CI perf-gate job checks
  with ``gate.py`` against the pinned copy.
"""

from __future__ import annotations

import argparse
import threading
import time
from typing import Any

import gate
from repro.serve.client import ServeClient

SCALE = 8
CLIENTS = 6
WORKLOADS = (
    "hf",
    "sar",
    "contour",
    "astro",
    "e_elem",
    "apsi",
    "madbench2",
    "wupwise",
)
VERSIONS = ("original", "intra", "inter")
KEYS = [(w, v) for w in WORKLOADS for v in VERSIONS]  # 24 distinct keys

#: Perf-gate bounds: 3 shards must reach 2x one shard, on >= 3 cores.
GATE = {"min_speedup": 2, "min_cores": 3}


def _closed_loop(url: str) -> tuple[float, dict[tuple, str]]:
    """Drain KEYS through CLIENTS closed-loop threads; returns wall, digests."""
    pending = list(KEYS)
    lock = threading.Lock()
    digests: dict[tuple, str] = {}
    errors: list[Exception] = []

    def worker():
        with ServeClient(url, timeout=300.0) as client:
            while True:
                with lock:
                    if not pending:
                        return
                    key = pending.pop()
                try:
                    resp = client.experiment(key[0], key[1], scale=SCALE)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    digests[key] = resp.digest

    threads = [
        threading.Thread(target=worker, daemon=True) for _ in range(CLIENTS)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(600.0)
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    assert len(digests) == len(KEYS), "a load thread died early"
    return wall, digests


def _run_cluster_pass(shards: int, root) -> dict[str, Any]:
    from repro.shard.cluster import ShardCluster

    cluster = ShardCluster(
        shards=shards, root=root, port=0, default_scale=SCALE
    )
    cluster.start()
    router_thread = threading.Thread(
        target=lambda: cluster.router.serve_forever(install_signals=False),
        name=f"bench-router-{shards}",
        daemon=True,
    )
    router_thread.start()
    try:
        assert cluster.router.ready.wait(60.0), "router never became ready"
        wall, digests = _closed_loop(f"http://127.0.0.1:{cluster.port}")
    finally:
        cluster.router.request_shutdown()
        router_thread.join(60.0)
        cluster.stop()
    return {
        "shards": shards,
        "requests": len(KEYS),
        "seconds": round(wall, 3),
        "rps": round(len(KEYS) / wall, 2),
        "digests": digests,
    }


def run_bench(tmp_root) -> dict[str, Any]:
    import pathlib

    tmp_root = pathlib.Path(tmp_root)
    single = _run_cluster_pass(1, tmp_root / "store-1")
    triple = _run_cluster_pass(3, tmp_root / "store-3")
    if single["digests"] != triple["digests"]:
        raise AssertionError(
            "sharding changed results: 1-shard and 3-shard digests differ"
        )
    rows = [
        {"id": f"{w}/{v}", "digest": single["digests"][(w, v)]}
        for w, v in KEYS
    ]
    for p in (single, triple):
        del p["digests"]
    return gate.record(
        "repro-bench-shard",
        GATE,
        rows,
        scale=SCALE,
        clients=CLIENTS,
        passes=[single, triple],
        speedup=round(triple["rps"] / single["rps"], 3),
    )


# -- pytest entry -------------------------------------------------------------------


def test_shard_scale_out_bench(benchmark, report_sink, tmp_path):
    from repro.experiments.report import ExperimentReport

    doc = benchmark.pedantic(
        lambda: run_bench(tmp_path), rounds=1, iterations=1
    )
    rows = [
        [str(p["shards"]), str(p["requests"]), f"{p['seconds']:.2f}",
         f"{p['rps']:.1f}"]
        for p in doc["passes"]
    ]
    report_sink(
        ExperimentReport(
            "bench shard",
            f"cold closed loop, {doc['clients']} clients, "
            f"{len(doc['rows'])} distinct keys (scale {doc['scale']}, "
            f"{doc['host']['cpu_count']} cores)",
            ["shards", "requests", "s", "req/s"],
            rows,
            summary={"speedup": doc["speedup"]},
        )
    )


# -- standalone entry ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_shard.json",
        help="where to write the benchmark record",
    )
    args = parser.parse_args(argv)
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-shard-") as td:
        doc = run_bench(td)
    gate.write_record(args.output, doc)
    for p in doc["passes"]:
        print(
            f"{p['shards']} shard(s): {p['requests']} requests in "
            f"{p['seconds']:.2f}s = {p['rps']:.1f} req/s"
        )
    print(
        f"speedup {doc['speedup']:.2f}x on {doc['host']['cpu_count']} core(s) "
        f"-> {args.output}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
