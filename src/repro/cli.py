"""Command-line driver: ``repro <command>`` or ``python -m repro``.

Regenerates any of the paper's tables/figures from the shipped harness
and drives the trace and telemetry subsystems:

.. code-block:: console

   $ repro table2
   $ repro figure11
   $ repro all --scale 4   # every experiment, in paper order
   $ repro all --workers 4 --cache ~/.cache/repro   # parallel + cached
   $ repro cache stats
   $ repro cache gc --max-bytes 50000000
   $ repro suite           # raw per-(workload, version) metrics
   $ repro serve --port 8080 --workers 4 --cache ~/.cache/repro
   $ repro request --url http://127.0.0.1:8080 --workload hf --scale 4
   $ repro table2 --scale 16 --telemetry run.json
   $ repro metrics show run.json
   $ repro metrics export run.json -o run.prom
   $ repro metrics diff run_a.json run_b.json
   $ repro trace record --workload hf -o hf.trace.npz
   $ repro trace replay hf.trace.npz --cache-elems 2048,3072,12288
   $ repro trace diff --workload hf -a original -b inter+sched
   $ repro table2 --trace spans.jsonl      # one span tree for the run
   $ repro serve --trace --span-log spans.jsonl
   $ repro obs spans spans.jsonl
   $ repro obs slo --url http://127.0.0.1:8080
   $ repro obs export spans.jsonl -o flame.json   # chrome://tracing
   $ repro obs tail spans.jsonl -f
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Callable

from repro.experiments import config as config_mod
from repro.experiments import discussion, explain
from repro.experiments.harness import run_suite
from repro.experiments.registry import PAPER_EXPERIMENTS
from repro.simulator.runner import VERSIONS
from repro.util.log import configure_logging, get_logger
from repro.util.tables import format_table

__all__ = ["main", "EXPERIMENTS"]

_LOG = get_logger("cli")

#: Figure/table experiments in paper order (the ``all`` command's order):
#: each registered experiment's ``run``.
EXPERIMENTS = {name: module.run for name, module in PAPER_EXPERIMENTS.items()}


def _fail(message: str) -> int:
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _config_from(args: argparse.Namespace):
    """Scaled config if ``--scale`` was given, else None (defaults)."""
    scale = getattr(args, "scale", 0)
    return config_mod.scaled_config(scale) if scale else None


def _default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    return os.environ.get("REPRO_CACHE_DIR") or os.path.expanduser(
        "~/.cache/repro"
    )


def _cache_max_bytes(args: argparse.Namespace) -> int | None:
    """``--cache-max-bytes``, else ``$REPRO_CACHE_MAX_BYTES``, else None.

    Threaded into every :class:`ResultStore` the CLI opens, so one
    environment variable caps the store for cron jobs and CI without
    touching each command line.  An environment value that is not a
    positive integer is ignored with a warning.
    """
    value = getattr(args, "cache_max_bytes", None)
    if value is not None:
        return value
    env = os.environ.get("REPRO_CACHE_MAX_BYTES", "")
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value <= 0:
        _LOG.warning("ignoring REPRO_CACHE_MAX_BYTES=%r: not a positive integer", env)
        return None
    return value


def _execution(args: argparse.Namespace):
    """The execution context the command asks for, else a null context.

    ``--cache DIR`` installs a persistent :class:`ResultStore`;
    ``--workers N`` (N > 1) a process-pool executor.  ``--workers``
    without ``--cache`` still gets an in-memory store so a run dedupes
    its own repeated (workload, config, version) triples.  Without
    either flag the command runs exactly as before.
    """
    workers = getattr(args, "workers", 0)
    cache = getattr(args, "cache", "")
    if args.command in ("serve", "shard") or (not workers and not cache):
        # serve/shard own their executor/store wiring (they outlive one
        # call); the engine default still applies to them.
        return contextlib.nullcontext()
    from repro.exec import (
        ExperimentExecutor,
        MemoryStore,
        ResultStore,
        use_execution,
    )

    executor = ExperimentExecutor(workers=workers) if workers > 1 else None
    store = (
        ResultStore(cache, size_cap_bytes=_cache_max_bytes(args))
        if cache
        else MemoryStore()
    )
    args._store = store
    return use_execution(executor=executor, store=store)


def _invoke(args: argparse.Namespace) -> int:
    """Run the command: the CLI's one error boundary.

    An ``OSError`` or ``ValueError`` from the command (an unusable
    path, a malformed input file, an out-of-range value) becomes
    ``repro: error: ...`` and exit 2, with the traceback logged at
    debug level (``-v``).  Handlers catch only what they can add
    context to.
    """
    engine = getattr(args, "engine", "")
    if engine:
        from repro.simulator.engines import set_default_engine

        set_default_engine(engine)
    try:
        with _execution(args):
            return args.func(args)
    except BrokenPipeError:
        raise  # main() exits quietly when stdout closes early
    except (OSError, ValueError) as exc:
        _LOG.debug("repro %s failed", args.command, exc_info=True)
        return _fail(str(exc))


def _show_report(args: argparse.Namespace, report, gap: bool = False) -> None:
    """Print a report (``gap``: then a blank line); note it for the manifest."""
    reports = getattr(args, "_reports", None)
    if reports is not None:
        reports.append(report)
    print(report.render())
    if gap:
        print()


# -- experiment commands ------------------------------------------------------------


def _cmd_experiment(args: argparse.Namespace) -> int:
    _show_report(args, EXPERIMENTS[args.command](_config_from(args)))
    return 0


def _cmd_discussion(args: argparse.Namespace) -> int:
    for report in discussion.run(_config_from(args)):
        _show_report(args, report, gap=True)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    config = _config_from(args)
    from repro.exec import execute_plan, get_execution, plan_all

    ctx = get_execution()
    if ctx.executor is not None or ctx.store is not None:
        # Pre-execute one deduplicated plan covering every suite sweep
        # below: Figure 10/11 share all their triples, the sweeps share
        # the default point, and the figures then hit the store only.
        plan = plan_all(config)
        _LOG.info(
            "prewarming %d unique tasks (%d duplicates deduped)",
            len(plan),
            plan.duplicates,
        )
        from repro.exec.progress import ProgressReporter

        reporter = ProgressReporter(label="prewarm")
        try:
            execute_plan(plan, progress=reporter)
        finally:
            reporter.close()
    for name in EXPERIMENTS:
        _show_report(args, EXPERIMENTS[name](config), gap=True)
    for report in discussion.run(config):
        _show_report(args, report, gap=True)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    try:
        report = explain.run(args.workload, _config_from(args))
    except KeyError as exc:
        return _fail(str(exc.args[0]))
    _show_report(args, report)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    config = _config_from(args) or config_mod.DEFAULT_CONFIG
    results = run_suite(config)
    if args.json:
        from repro.simulator.serialization import save_results_json

        save_results_json(args.json, results)
        _LOG.info("raw results written to %s", args.json)
    headers = ["application", "version", "L1", "L2", "L3", "io (ms)", "exec (ms)"]
    rows = []
    for wname, per_version in results.items():
        for v in VERSIONS:
            r = per_version[v]
            rates = r.sim.miss_rates()
            rows.append(
                [
                    wname,
                    v,
                    f"{rates['L1']:.3f}",
                    f"{rates['L2']:.3f}",
                    f"{rates['L3']:.3f}",
                    f"{r.io_latency_ms:.0f}",
                    f"{r.execution_time_ms:.0f}",
                ]
            )
    print(format_table(headers, rows, title="Suite: raw metrics"))
    return 0


# -- serve commands -----------------------------------------------------------------


@contextlib.contextmanager
def _server_observers(args: argparse.Namespace):
    """``(registry, tracer)`` for a server; the tracer only when asked.

    ``--trace`` or ``--span-log`` turns span tracing on; the tracer is
    closed, flushing its span log, when the server returns.
    """
    from repro.obs import Tracer
    from repro.telemetry import MetricsRegistry, declare_pipeline_metrics

    registry = MetricsRegistry()
    declare_pipeline_metrics(registry)
    tracer = None
    if args.trace or args.span_log:
        tracer = Tracer(capacity=args.span_ring, log_path=args.span_log or None)
    try:
        yield registry, tracer
    finally:
        if tracer is not None:
            tracer.close()


def _ask_server(args: argparse.Namespace, call: Callable):
    """``call(client)`` against ``--url``; None once a failure is reported.

    Typed answers (``ServeError``) and transport failures (``OSError``)
    are reported as ``<url>: ...``, tagged with the request id the
    server stamped on the answer, if any.
    """
    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.url, timeout=args.timeout)
    try:
        return call(client)
    except (ServeError, OSError) as exc:
        request_id = getattr(exc, "request_id", "")
        tag = f" [request {request_id}]" if request_id else ""
        _fail(f"{args.url}: {exc}{tag}")
        return None
    finally:
        client.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.exec import ExperimentExecutor, MemoryStore, ResultStore
    from repro.serve import MappingServer

    executor = (
        ExperimentExecutor(workers=args.workers) if args.workers > 1 else None
    )
    # Always attach a store: without one, a warm key would re-simulate
    # the moment its in-flight window closes.
    store = (
        ResultStore(args.cache, size_cap_bytes=_cache_max_bytes(args))
        if args.cache
        else MemoryStore()
    )
    with _server_observers(args) as (registry, tracer):
        if tracer is not None:
            _LOG.info(
                "span tracing on (ring=%d%s); /debugz has the live view",
                args.span_ring,
                f", log={args.span_log}" if args.span_log else "",
            )
        server = MappingServer(
            host=args.host,
            port=args.port,
            executor=executor,
            store=store,
            registry=registry,
            tracer=tracer,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            request_timeout_s=args.request_timeout,
            default_scale=args.scale,
        )
        return server.serve_forever()


def _cmd_request(args: argparse.Namespace) -> int:
    if args.scenario:
        target = {"scenario": args.scenario}
    else:
        target = {"workload": args.workload, "version": args.mapper}
    resp = _ask_server(
        args,
        lambda client: client.experiment(
            scale=args.scale, request_id=args.request_id, retries=args.retries, **target
        ),
    )
    if resp is None:
        return 2
    if args.json:
        _print_json(resp.doc)
        return 0
    from repro.simulator.serialization import result_from_dict

    result = result_from_dict(resp.result)
    what = args.scenario or f"{args.workload}/{args.mapper}"
    _print_sim_summary(
        result.sim,
        f"{what} via {args.url} "
        f"({resp.source or 'unknown'}, batch={resp.batch_size})",
    )
    shard = f"   shard: {resp.shard}" if resp.shard else ""
    print(f"  digest: {resp.digest[:12]}   request id: {resp.request_id}{shard}")
    return 0


# -- shard commands -----------------------------------------------------------------


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    from repro.shard.cluster import ShardCluster

    if not args.cache:
        return _fail(
            "shard serve requires --cache DIR: the partition root is the "
            "warm-handoff contract (workers re-home its entries on resize)"
        )
    with _server_observers(args) as (registry, tracer):
        cluster = ShardCluster(
            shards=args.shards,
            root=args.cache,
            host=args.host,
            port=args.port,
            workers_per_shard=max(1, args.workers),
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            request_timeout_s=args.request_timeout,
            max_inflight=args.max_inflight,
            default_scale=args.scale,
            cache_max_bytes=_cache_max_bytes(args),
            engine=args.engine,
            registry=registry,
            tracer=tracer,
        )
        try:
            return cluster.serve_forever()
        except RuntimeError as exc:
            return _fail(str(exc))


def _cmd_shard_worker(args: argparse.Namespace) -> int:
    from repro.shard.worker import build_worker

    server = build_worker(
        shard_id=args.shard_id,
        root=args.root,
        host=args.host,
        port=args.port,
        workers=max(1, args.workers),
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        request_timeout_s=args.request_timeout,
        default_scale=args.scale,
        cache_max_bytes=_cache_max_bytes(args),
    )
    return server.serve_forever()


def _cmd_shard_status(args: argparse.Namespace) -> int:
    doc = _ask_server(args, lambda client: client.statusz())
    if doc is None:
        return 2
    if args.json or doc.get("record") != "repro-shard-status":
        _print_json(doc)
        return 0
    ring = doc["ring"]
    router = doc["router"]
    totals = doc["totals"]
    members = ", ".join(ring["members"]) or "(none)"
    print(
        f"cluster: {len(ring['members'])} shard(s) [{members}] "
        f"vnodes={ring['vnodes']}"
    )
    inflight = router["inflight"]
    total_inflight = (
        sum(inflight.values()) if isinstance(inflight, dict) else inflight
    )
    parked = router["parked"]
    parked_n = len(parked) if isinstance(parked, list) else parked
    print(
        f"  router: inflight {total_inflight} "
        f"(cap {router['max_inflight']}/shard), parked {parked_n}, "
        f"rejected {router['rejected']}, drains {router['drains']}"
    )
    print(
        f"  totals: {totals['store_entries']} stored entries, "
        f"{totals['simulations']} simulations, {totals['active']} active"
    )
    for sid, sdoc in sorted(doc["shards"].items()):
        if not sdoc:
            print(f"  {sid}: UNREACHABLE")
            continue
        admission = sdoc["admission"]
        store = sdoc.get("store") or {}
        print(
            f"  {sid}: {store.get('entries', 0)} entries, "
            f"active {admission['active']}/{admission['max_queue']}, "
            f"simulations {sdoc['backend']['simulations']}"
        )
    return 0


def _cmd_shard_drain(args: argparse.Namespace) -> int:
    doc = _ask_server(args, lambda client: client.admin_drain(args.shard))
    if doc is None:
        return 2
    if args.json:
        _print_json(doc)
        return 0
    members = ", ".join(doc.get("members", [])) or "(none)"
    print(
        f"drained {doc.get('shard')}: moved {doc.get('moved_entries', 0)} "
        f"warm entr{'y' if doc.get('moved_entries') == 1 else 'ies'}; "
        f"remaining members [{members}]"
    )
    return 0


# -- cache commands -----------------------------------------------------------------


def _open_store(args: argparse.Namespace):
    from repro.exec import ResultStore

    return ResultStore(
        args.cache or _default_cache_dir(),
        size_cap_bytes=_cache_max_bytes(args),
    )


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    store = _open_store(args)
    s = store.stats()
    rows = [
        ["directory", str(store.root)],
        ["entries", s.entries],
        ["results", s.results],
        ["reports", s.reports],
        ["bytes", s.bytes],
    ]
    print(format_table(["field", "value"], rows, title="Result store"))
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if args.max_bytes is None and store.size_cap_bytes is None:
        return _fail(
            "no byte budget: pass --max-bytes / --cache-max-bytes "
            "or set $REPRO_CACHE_MAX_BYTES"
        )
    before = store.stats()
    evicted = store.gc(args.max_bytes)
    after = store.stats()
    print(
        f"evicted {evicted} entr{'y' if evicted == 1 else 'ies'} "
        f"({before.bytes - after.bytes} bytes); "
        f"{after.entries} entries ({after.bytes} bytes) remain"
    )
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    store = _open_store(args)
    removed = store.clear()
    print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} from {store.root}")
    return 0


# -- campaign commands --------------------------------------------------------------


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    import pathlib

    from repro.campaign import load_campaign_file, render_report, run_campaign
    from repro.exec.progress import ProgressReporter

    spec = load_campaign_file(args.spec)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reporter = ProgressReporter(label="cells")
    try:
        run = run_campaign(
            spec,
            base_config=_config_from(args),
            manifest_path=out / "manifest.json",
            progress=reporter,
            chunk_size=args.chunk_size,
        )
    finally:
        reporter.close()
    (out / "report.json").write_text(
        json.dumps(run.report, indent=2, sort_keys=True) + "\n"
    )
    (out / "report.md").write_text(render_report(run.report))
    manifest = run.manifest
    statuses = ", ".join(
        f"{status}: {n}" for status, n in run.report["statuses"].items()
    )
    print(
        f"campaign {spec.name!r}: {manifest['total_cells']} cells "
        f"({statuses}) in {manifest['wall_clock_s']}s "
        f"({manifest['cells_per_s']} cells/s)"
    )
    exp = manifest.get("expansion", {})
    if exp.get("excluded") or exp.get("duplicates"):
        print(
            f"  expansion: {exp.get('excluded', 0)} excluded, "
            f"{exp.get('duplicates', 0)} duplicate keys collapsed"
        )
    print(f"manifest digest: {manifest['digest']}")
    print(f"report digest: {run.report['digest']}")
    print(f"outputs -> {out}/manifest.json, report.json, report.md")
    if run.failed:
        print(
            f"FAILED cells ({len(run.failed)}): {', '.join(run.failed[:10])}"
            + (" …" if len(run.failed) > 10 else ""),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import load_manifest

    doc = load_manifest(args.manifest)
    counts: dict[str, int] = {}
    for cell in doc.get("cells", {}).values():
        status = cell.get("status", "pending")
        counts[status] = counts.get(status, 0) + 1
    rows = [
        ["campaign", doc.get("name", "")],
        ["status", doc.get("status", "")],
        ["fingerprint", doc.get("fingerprint", "")[:16]],
        ["cells", f"{doc.get('completed', 0)}/{doc.get('total_cells', 0)}"],
    ]
    for status in ("cached", "simulated", "failed", "pending"):
        if counts.get(status):
            rows.append([f"  {status}", counts[status]])
    if doc.get("wall_clock_s") is not None:
        rows.append(["wall clock", f"{doc['wall_clock_s']}s"])
        rows.append(["cells/s", doc.get("cells_per_s")])
    events = doc.get("events", [])
    rows.append(["exec events", len(events)])
    store = doc.get("store", {})
    for phase_name in ("before", "after"):
        if phase_name in store:
            s = store[phase_name]
            rows.append(
                [
                    f"store {phase_name}",
                    f"{s.get('entries', 0)} entries, {s.get('bytes', 0)} bytes",
                ]
            )
    print(format_table(["field", "value"], rows, title="Campaign"))
    for event in events:
        kind = event.get("kind", "?")
        detail = ", ".join(
            f"{k}={v}" for k, v in sorted(event.items()) if k != "kind"
        )
        print(f"  event: {kind}" + (f" ({detail})" if detail else ""))
    failed = [
        label
        for label, cell in sorted(doc.get("cells", {}).items())
        if cell.get("status") == "failed"
    ]
    for label in failed:
        print(f"  failed: {label}")
    return 1 if failed else 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import build_report, load_manifest, render_report

    report = build_report(load_manifest(args.manifest))
    if args.json:
        _print_json(report)
    else:
        print(render_report(report))
    print(f"report digest: {report['digest']}", file=sys.stderr)
    return 0


def _cmd_campaign_diff(args: argparse.Namespace) -> int:
    from repro.campaign import diff_manifests, load_manifest, render_diff

    diff = diff_manifests(
        load_manifest(args.manifest_a), load_manifest(args.manifest_b)
    )
    print(render_diff(diff))
    return 0 if diff["identical"] else 1


# -- metrics commands ---------------------------------------------------------------


def _render_phase_tree(nodes: list, depth: int = 0) -> list[str]:
    lines = []
    for node in nodes:
        calls = node.get("calls", 1)
        suffix = f"  (x{calls})" if calls > 1 else ""
        lines.append(
            f"  {'  ' * depth}{node['name']:<{30 - 2 * depth}}"
            f"{node['elapsed_s']:9.3f} s{suffix}"
        )
        lines.extend(_render_phase_tree(node.get("children", []), depth + 1))
    return lines


def _cmd_metrics_show(args: argparse.Namespace) -> int:
    from repro.telemetry import load_manifest

    doc = load_manifest(args.manifest)
    versions = doc.get("versions", {})
    print(f"manifest: {args.manifest}")
    print(f"  command: {doc.get('command') or '-'}")
    print(f"  git commit: {doc.get('git_commit') or '-'}")
    print(
        "  versions: "
        + ", ".join(f"{k} {v}" for k, v in sorted(versions.items()))
    )
    if doc.get("seed") is not None:
        print(f"  seed: {doc['seed']}")
    phases = doc.get("phases", [])
    if phases:
        print("phases:")
        print("\n".join(_render_phase_tree(phases)))
    metrics = doc.get("metrics", {})
    for kind in ("counter", "gauge"):
        rows = [
            [e["name"], _labels_str(e.get("labels", {})), f"{e['value']:g}"]
            for e in metrics.get(f"{kind}s", [])
        ]
        if rows:
            print(format_table([kind, "labels", "value"], rows))
    hist_rows = [
        [
            e["name"],
            _labels_str(e.get("labels", {})),
            e["count"],
            f"{e['sum']:g}",
            f"{e.get('mean', 0.0):g}",
            f"{e.get('max', 0.0):g}",
        ]
        for e in metrics.get("histograms", [])
    ]
    if hist_rows:
        print(
            format_table(
                ["histogram", "labels", "count", "sum", "mean", "max"], hist_rows
            )
        )
    for report in doc.get("reports", []):
        if report.get("summary"):
            pairs = ", ".join(
                f"{k}={v:.3f}" for k, v in report["summary"].items()
            )
            print(f"  {report['experiment_id']}: {pairs}")
    return 0


def _labels_str(labels: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def _cmd_metrics_export(args: argparse.Namespace) -> int:
    from repro.telemetry import load_manifest, manifest_to_prometheus

    text = manifest_to_prometheus(load_manifest(args.manifest))
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text)
        _LOG.info("prometheus exposition -> %s", args.out)
    else:
        print(text, end="")
    return 0


def _cmd_metrics_diff(args: argparse.Namespace) -> int:
    from repro.telemetry import diff_manifests, load_manifest

    diff = diff_manifests(
        load_manifest(args.manifest_a), load_manifest(args.manifest_b)
    )
    print(diff.render())
    return 0


def _cmd_metrics_validate(args: argparse.Namespace) -> int:
    import pathlib

    from repro.telemetry import validate_manifest

    try:
        doc = json.loads(pathlib.Path(args.manifest).read_text())
    except ValueError as exc:
        return _fail(f"{args.manifest}: not valid JSON ({exc})")
    problems = validate_manifest(doc)
    if problems:
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return _fail(f"{args.manifest}: {len(problems)} schema problem(s)")
    print(f"{args.manifest}: valid run manifest")
    return 0


# -- trace commands -----------------------------------------------------------------


def _print_sim_summary(sim, title: str) -> None:
    rows = [
        [name, st.accesses, st.hits, st.misses, f"{st.miss_rate:.3f}"]
        for name, st in sim.level_stats.items()
    ]
    print(format_table(["level", "accesses", "hits", "misses", "miss rate"],
                       rows, title=title))
    print(
        f"  io latency: {sim.io_latency_ms:.1f} ms   "
        f"execution: {sim.execution_time_ms:.1f} ms   "
        f"disk reads/writes: {sim.disk_reads}/{sim.disk_writes}"
    )


def _replayed_events(artifact) -> tuple[list, dict]:
    """Replay an artifact under a recorder: its events and their metadata."""
    from repro.trace import MemoryRecorder, replay

    rec = MemoryRecorder()
    replay(artifact, recorder=rec)
    meta = {"workload": artifact.workload, "mapper_version": artifact.mapper_version}
    return rec.events, meta


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.trace import record, save_artifact, write_events_jsonl

    config = _config_from(args)
    try:
        artifact = record(args.workload, config, args.mapper)
    except KeyError as exc:
        return _fail(str(exc.args[0]))
    save_artifact(args.out, artifact)
    _LOG.info(
        "recorded %s/%s: %d clients, %d requests -> %s (format v%d)",
        artifact.workload,
        artifact.mapper_version,
        artifact.num_clients,
        artifact.total_requests(),
        args.out,
        artifact.format_version,
    )
    if args.events:
        events, meta = _replayed_events(artifact)
        n = write_events_jsonl(args.events, events, meta=meta)
        _LOG.info("%d events -> %s", n, args.events)
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.trace import load_artifact, write_chrome_trace, write_events_jsonl

    artifact = load_artifact(args.artifact)
    events, meta = _replayed_events(artifact)
    level_names = artifact.config.build_hierarchy().level_names()
    if args.format == "chrome":
        write_chrome_trace(args.out, events, level_names, meta)
    else:
        write_events_jsonl(args.out, events, meta)
    _LOG.info("%d events (%s) -> %s", len(events), args.format, args.out)
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from repro.trace import load_artifact, replay, with_cache_overrides

    artifact = load_artifact(args.artifact)
    config = None
    if args.cache_elems or args.policy:
        cache_elems = None
        if args.cache_elems:
            try:
                parts = tuple(int(p) for p in args.cache_elems.split(","))
            except ValueError:
                return _fail(f"--cache-elems expects l1,l2,l3 integers, got {args.cache_elems!r}")
            if len(parts) != 3:
                return _fail("--cache-elems expects exactly three comma-separated sizes")
            cache_elems = parts
        config = with_cache_overrides(artifact, cache_elems, args.policy or None)
    sim = replay(artifact, config=config, prefetch_degree=args.prefetch_degree)
    _print_sim_summary(
        sim, f"Replay: {artifact.workload}/{artifact.mapper_version}"
    )
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.trace import diff_artifacts, load_artifact, record

    if args.artifacts and len(args.artifacts) == 2:
        art_a = load_artifact(args.artifacts[0])
        art_b = load_artifact(args.artifacts[1])
    elif args.artifacts:
        return _fail("diff takes exactly two artifact paths (or --workload mode)")
    elif args.workload:
        config = _config_from(args)
        try:
            art_a = record(args.workload, config, args.version_a)
            art_b = record(args.workload, config, args.version_b)
        except KeyError as exc:
            return _fail(str(exc.args[0]))
    else:
        return _fail("diff needs two artifact paths or --workload")
    print(diff_artifacts(art_a, art_b, top_n=args.top).render())
    return 0


# -- scenario commands --------------------------------------------------------------


def _load_scenario(ref: str):
    """Resolve a scenario named on the command line (name or spec file)."""
    from repro.scenario import get_scenario, load_spec_file

    if ref.endswith((".json", ".yaml", ".yml")):
        return load_spec_file(ref)
    return get_scenario(ref)


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    from repro.scenario import get_scenario, scenario_names

    rows = []
    for name in scenario_names():
        spec = get_scenario(name)
        rows.append([name, spec.kind, spec.description or "-"])
    print(format_table(["name", "kind", "description"], rows,
                       title="Registered scenarios"))
    return 0


def _cmd_scenario_show(args: argparse.Namespace) -> int:
    from repro.scenario import spec_to_dict

    try:
        spec = _load_scenario(args.scenario)
    except KeyError as exc:
        return _fail(str(exc.args[0]))
    _print_json(spec_to_dict(spec))
    return 0


def _cmd_scenario_validate(args: argparse.Namespace) -> int:
    from repro.scenario import scenario_names

    problems = 0
    for ref in [args.scenario] if args.scenario else scenario_names():
        try:
            spec = _load_scenario(ref)
            spec.deep_validate()
        except (KeyError, OSError, ValueError) as exc:
            problems += 1
            msg = exc.args[0] if isinstance(exc, KeyError) else exc
            print(f"  {ref}: INVALID ({msg})", file=sys.stderr)
        else:
            print(f"  {spec.name}: ok ({spec.kind})")
    if problems:
        return _fail(f"{problems} invalid scenario(s)")
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.scenario import result_digest, run_scenario
    from repro.scenario.runner import scenario_key

    config = _config_from(args) or config_mod.DEFAULT_CONFIG
    version = args.mapper or None
    try:
        spec = _load_scenario(args.scenario)
        spec.deep_validate()
        if args.policies:
            parts = tuple(p.strip() for p in args.policies.split(","))
            if len(parts) != 3:
                return _fail("--policies expects l1,l2,l3 policy names")
            spec = dc_replace(spec, policies=parts)
        key = scenario_key(spec, config, version)
        result = run_scenario(spec, config, version)
    except KeyError as exc:
        return _fail(str(exc.args[0]))
    _print_sim_summary(
        result.sim, f"Scenario {spec.name} ({spec.kind}) as {key.workload}/{key.version}"
    )
    print(f"  key: {key.digest[:12]}   result digest: {result_digest(result)}")
    return 0


# -- obs commands -------------------------------------------------------------------


def _obs_spans_from(args: argparse.Namespace):
    """Spans from the positional JSONL path or a server's /debugz.

    With ``--trace ID``, only that request's spans.
    """
    from repro.obs import Span, read_spans_jsonl

    if args.url:
        from repro.serve import ServeClient

        with ServeClient(args.url) as client:
            doc = client.debugz()
        spans = [Span.from_dict(d) for d in doc.get("recent", [])]
    else:
        spans = read_spans_jsonl(args.spans)
    trace = getattr(args, "trace", "")
    return [s for s in spans if s.trace_id == trace] if trace else spans


def _span_attrs_str(attrs: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))


def _render_span_tree(nodes: list, depth: int = 0) -> list[str]:
    lines = []
    for node in nodes:
        s = node["span"]
        pad = "  " * depth
        attrs = _span_attrs_str(s.attrs)
        lines.append(
            f"  {pad}{s.name:<{max(34 - 2 * depth, len(s.name) + 1)}}"
            f"{s.elapsed_s * 1e3:10.3f} ms  pid={s.pid}"
            + (f"  {attrs}" if attrs else "")
        )
        lines.extend(_render_span_tree(node["children"], depth + 1))
    return lines


def _cmd_obs_spans(args: argparse.Namespace) -> int:
    from repro.obs import build_trees

    spans = _obs_spans_from(args)
    if not spans:
        print("no spans" + (f" for trace {args.trace}" if args.trace else ""))
        return 0
    trees = build_trees(spans)
    if args.last:
        trees = trees[-args.last :]
    for tree in trees:
        root = tree["span"]
        print(f"trace {root.trace_id}:")
        print("\n".join(_render_span_tree([tree])))
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    from repro.obs import render_slo, slo_report

    if args.url:
        # The server aggregates over its whole ring; use that directly
        # rather than the 50-span "recent" window.
        from repro.serve import ServeClient, ServeError

        try:
            with ServeClient(args.url) as client:
                report = client.debugz().get("slo", {})
        except (ServeError, OSError) as exc:
            return _fail(f"{args.url}: {exc}")
    else:
        report = slo_report(_obs_spans_from(args), top=args.top)
    if args.json:
        _print_json(report)
    else:
        print(render_slo(report))
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs import spans_to_chrome, write_chrome_spans

    spans = _obs_spans_from(args)
    write_chrome_spans(args.out, spans, meta={"source": args.spans or "debugz"})
    n = len(spans_to_chrome(spans)["traceEvents"])
    _LOG.info("%d spans (%d trace events) -> %s", len(spans), n, args.out)
    print(f"{len(spans)} spans -> {args.out} (open in chrome://tracing)")
    return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    from repro.obs import Span

    def emit(line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            s = Span.from_dict(json.loads(line))
        except (ValueError, KeyError, TypeError):
            return
        attrs = _span_attrs_str(s.attrs)
        print(
            f"{s.start_unix:.6f} {s.trace_id} {s.name:<28}"
            f"{s.elapsed_s * 1e3:10.3f} ms  pid={s.pid}"
            + (f"  {attrs}" if attrs else "")
        )

    with open(args.spans) as fh:
        lines = fh.readlines()
        for line in lines[-args.last :] if args.last else lines:
            emit(line)
        if not args.follow:
            return 0
        try:
            while True:
                line = fh.readline()
                if line:
                    emit(line)
                else:
                    time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


# -- parser -------------------------------------------------------------------------


def _arg(*flags: str, **kwargs) -> tuple:
    """One ``add_argument`` call, as data."""
    return flags, kwargs


#: Option groups shared by several commands, each declared once.  Every
#: command takes ``log``; a :data:`COMMANDS` row names the others.
FLAG_GROUPS = {
    "log": (
        _arg(
            "--log-level",
            default="info",
            choices=("debug", "info", "warning", "error"),
            help="logging verbosity on stderr (default: info)",
        ),
        _arg(
            "-v",
            "--verbose",
            action="store_true",
            help="shorthand for --log-level debug",
        ),
    ),
    "scale": (
        _arg(
            "--scale",
            type=int,
            default=0,
            help="run at a reduced topology (e.g. 4 => 16 clients); 0 = default",
        ),
    ),
    "telemetry": (
        _arg(
            "--telemetry",
            default="",
            metavar="PATH",
            help="collect metrics/phase timings and write a JSON run manifest here",
        ),
        _arg(
            "--trace",
            default="",
            metavar="PATH",
            help="trace the run as one span tree and write span JSONL here (view with "
            "'repro obs')",
        ),
    ),
    "engine": (
        _arg(
            "--engine",
            default="",
            choices=("reference", "fast"),
            help="simulation engine: 'fast' (vectorized, default) or 'reference' "
            "(scalar oracle)",
        ),
    ),
    "exec": (
        _arg(
            "--workers",
            type=int,
            default=0,
            metavar="N",
            help="run simulations on a process pool of N workers (0/1 = serial)",
        ),
        _arg(
            "--cache",
            default="",
            metavar="DIR",
            help="content-addressed result store directory (reused across runs)",
        ),
        _arg(
            "--cache-max-bytes",
            type=int,
            default=None,
            metavar="N",
            help="LRU-evict the store past this size after each write (default: "
            "$REPRO_CACHE_MAX_BYTES, else unbounded)",
        ),
    ),
    "serving": (
        _arg("--host", default="127.0.0.1", help="bind address"),
        _arg(
            "--max-queue",
            type=int,
            default=64,
            metavar="N",
            help="admitted experiment requests before 429 backpressure (default: 64)",
        ),
        _arg(
            "--max-batch",
            type=int,
            default=8,
            metavar="N",
            help="micro-batch size fed to the backend executor (default: 8)",
        ),
        _arg(
            "--request-timeout",
            type=float,
            default=300.0,
            metavar="S",
            help="per-request timeout in seconds (default: 300)",
        ),
    ),
    "span-tracing": (
        _arg(
            "--trace",
            action="store_true",
            help="enable span tracing (per-request trees on /debugz; off by default)",
        ),
        _arg(
            "--span-log",
            default="",
            metavar="PATH",
            help="also append finished spans as JSONL here (implies --trace)",
        ),
        _arg(
            "--span-ring",
            type=int,
            default=4096,
            metavar="N",
            help="in-memory span ring capacity (default: 4096)",
        ),
    ),
    "store": (
        _arg(
            "--cache",
            default="",
            metavar="DIR",
            help="store directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
        ),
        _arg(
            "--cache-max-bytes",
            type=int,
            default=None,
            metavar="N",
            help="treat the store as capped at this size (default: "
            "$REPRO_CACHE_MAX_BYTES)",
        ),
    ),
    "span-source": (
        _arg(
            "spans",
            nargs="?",
            default="",
            help="span JSONL file (from --trace / --span-log); or use --url",
        ),
        _arg(
            "--url",
            default="",
            metavar="URL",
            help="read spans from a running server's /debugz instead of a file",
        ),
    ),
}

#: What a paper experiment takes: scale, telemetry, execution, engine.
_EXPERIMENT = ("scale", "telemetry", "exec", "engine")


class Command:
    """One leaf command, ``repro <path>``: handler, help, flag groups, own arguments."""

    def __init__(self, path: str, func: Callable, help: str, groups=(), *args):
        self.path, self.func, self.help = path, func, help
        self.groups, self.args = groups, args


#: Help for each command group (``repro shard ...``), in listing order.
GROUP_HELP = {
    "shard": "consistent-hash sharded serving tier (router + N workers)",
    "cache": "inspect and maintain the on-disk result store",
    "metrics": "inspect, export, diff and validate run manifests",
    "trace": "event tracing, record/replay, mapping diffs",
    "obs": "span traces: request trees, SLO report, Chrome export",
    "scenario": "declarative scenarios: registry, generators, traces",
    "campaign": "resumable experiment campaigns: matrix specs, manifests, reports",
}

_URL = "http://127.0.0.1:8080"

#: Every leaf command, in ``repro --help`` order.
COMMANDS = (
    *(
        Command(name, _cmd_experiment, f"regenerate {name}", _EXPERIMENT)
        for name in EXPERIMENTS
    ),
    Command(
        "discussion", _cmd_discussion, "the §5.4/§6 discussion analyses", _EXPERIMENT
    ),
    Command("all", _cmd_all, "every experiment, in paper order", _EXPERIMENT),
    Command(
        "explain",
        _cmd_explain,
        "miss-source attribution for one workload",
        _EXPERIMENT,
        _arg("--workload", default="hf", help="workload to analyse (default: hf)"),
    ),
    Command(
        "suite",
        _cmd_suite,
        "raw per-(workload, version) metrics",
        _EXPERIMENT,
        _arg("--json", default="", help="also dump raw results to this JSON file"),
    ),
    Command(
        "serve",
        _cmd_serve,
        "long-lived mapping service (HTTP, coalescing, backpressure)",
        ("scale", "exec", "engine", "serving", "span-tracing"),
        _arg("--port", type=int, default=8080, help="bind port (0 = ephemeral)"),
    ),
    Command(
        "request",
        _cmd_request,
        "send one experiment request to a running mapping service",
        ("scale",),
        _arg("--url", default=_URL, help="service base URL"),
        _arg("--workload", default="hf", help="suite workload (default: hf)"),
        _arg(
            "--mapper",
            default="inter+sched",
            choices=VERSIONS,
            help="mapping version to request (default: inter+sched)",
        ),
        _arg(
            "--scenario",
            default="",
            help="request a registered scenario instead of --workload/--mapper",
        ),
        _arg("--timeout", type=float, default=600.0, help="client timeout in seconds"),
        _arg("--json", action="store_true", help="print the raw response document"),
        _arg(
            "--request-id",
            default="",
            metavar="ID",
            help="supply the correlation id instead of letting the server generate one",
        ),
        _arg(
            "--retries",
            type=int,
            default=0,
            metavar="N",
            help="on 429/503 honor Retry-After and retry up to N times with capped "
            "jittered exponential backoff (default: 0 = fail fast)",
        ),
    ),
    Command(
        "shard serve",
        _cmd_shard_serve,
        "run a local cluster: N shard workers behind one router",
        ("scale", "exec", "engine", "serving", "span-tracing"),
        _arg(
            "--shards",
            type=int,
            default=3,
            metavar="N",
            help="number of shard workers to spawn (default: 3)",
        ),
        _arg("--port", type=int, default=8080, help="router bind port (0 = ephemeral)"),
        _arg(
            "--max-inflight",
            type=int,
            default=64,
            metavar="N",
            help="router-side in-flight requests per shard before 429 (default: 64)",
        ),
    ),
    Command(
        "shard worker",
        _cmd_shard_worker,
        "run one shard worker over its store partition (internal: spawned by 'shard "
        "serve')",
        ("scale", "engine", "serving"),
        _arg("--shard-id", required=True, help="ring member id (shard-<n>)"),
        _arg("--root", required=True, metavar="DIR", help="cluster partition root"),
        _arg("--port", type=int, default=0, help="bind port (0 = ephemeral)"),
        _arg(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="process-pool workers for this shard (0/1 = serial)",
        ),
        _arg("--cache-max-bytes", type=int, default=None, metavar="N"),
    ),
    Command(
        "shard status",
        _cmd_shard_status,
        "cluster-wide status from a running router",
        (),
        _arg("--url", default=_URL, help="router base URL"),
        _arg("--timeout", type=float, default=30.0, help="client timeout in seconds"),
        _arg("--json", action="store_true", help="print the raw status document"),
    ),
    Command(
        "shard drain",
        _cmd_shard_drain,
        "gracefully remove one shard: park, stop, rebalance, reroute",
        (),
        _arg("--shard", required=True, help="member to drain (shard-<n>)"),
        _arg("--url", default=_URL, help="router base URL"),
        _arg(
            "--timeout",
            type=float,
            default=120.0,
            help="client timeout in seconds (drain waits out in-flight work)",
        ),
        _arg("--json", action="store_true", help="print the raw drain document"),
    ),
    Command(
        "cache stats", _cmd_cache_stats, "entry counts and on-disk size", ("store",)
    ),
    Command(
        "cache gc",
        _cmd_cache_gc,
        "evict least-recently-used entries down to a byte budget",
        ("store",),
        _arg(
            "--max-bytes",
            type=int,
            default=None,
            help="evict least-recently-used entries until the store fits this size "
            "(default: --cache-max-bytes / $REPRO_CACHE_MAX_BYTES)",
        ),
    ),
    Command("cache clear", _cmd_cache_clear, "remove every store entry", ("store",)),
    Command(
        "metrics show",
        _cmd_metrics_show,
        "summarise a run manifest",
        (),
        _arg("manifest", help="manifest path written by --telemetry"),
    ),
    Command(
        "metrics export",
        _cmd_metrics_export,
        "export a manifest as Prometheus text exposition",
        (),
        _arg("manifest", help="manifest path written by --telemetry"),
        _arg("-o", "--out", default="-", help="output path ('-' for stdout, default)"),
    ),
    Command(
        "metrics diff",
        _cmd_metrics_diff,
        "compare two run manifests",
        (),
        _arg("manifest_a", help="baseline manifest"),
        _arg("manifest_b", help="comparison manifest"),
    ),
    Command(
        "metrics validate",
        _cmd_metrics_validate,
        "schema-check a run manifest",
        (),
        _arg("manifest", help="manifest path to validate"),
    ),
    Command(
        "trace record",
        _cmd_trace_record,
        "record a workload artifact",
        ("scale",),
        _arg("--workload", default="hf", help="suite workload (default: hf)"),
        _arg(
            "--mapper",
            default="inter+sched",
            choices=VERSIONS,
            help="mapping version to record (default: inter+sched)",
        ),
        _arg("-o", "--out", required=True, help="artifact output path (.npz)"),
        _arg(
            "--events", default="", help="also write the event trace to this JSONL file"
        ),
    ),
    Command(
        "trace export",
        _cmd_trace_export,
        "export an artifact's event trace",
        (),
        _arg("artifact", help="recorded artifact path"),
        _arg(
            "--format",
            default="chrome",
            choices=("chrome", "jsonl"),
            help="chrome://tracing JSON (default) or raw JSONL events",
        ),
        _arg("-o", "--out", required=True, help="output path"),
    ),
    Command(
        "trace replay",
        _cmd_trace_replay,
        "re-simulate an artifact (optionally under what-if overrides)",
        ("engine",),
        _arg("artifact", help="recorded artifact path"),
        _arg(
            "--prefetch-degree", type=int, default=None, help="override prefetch degree"
        ),
        _arg(
            "--cache-elems",
            default="",
            help="override per-node cache sizes, e.g. 2048,3072,12288",
        ),
        _arg("--policy", default="", help="override replacement policy"),
    ),
    Command(
        "trace diff",
        _cmd_trace_diff,
        "diff two traces of one workload",
        ("scale",),
        _arg(
            "artifacts", nargs="*", help="two recorded artifact paths (same workload)"
        ),
        _arg("--workload", default="", help="record-and-diff mode: suite workload"),
        _arg(
            "-a",
            "--version-a",
            default="original",
            choices=VERSIONS,
            help="baseline mapping version (default: original)",
        ),
        _arg(
            "-b",
            "--version-b",
            default="inter+sched",
            choices=VERSIONS,
            help="comparison mapping version (default: inter+sched)",
        ),
        _arg("--top", type=int, default=10, help="top-N chunk movers to report"),
    ),
    Command(
        "obs spans",
        _cmd_obs_spans,
        "render per-request span trees",
        ("span-source",),
        _arg("--trace", default="", metavar="ID", help="only this request id's tree"),
        _arg("--last", type=int, default=0, metavar="N", help="only the last N trees"),
    ),
    Command(
        "obs slo",
        _cmd_obs_slo,
        "per-stage p50/p95/p99 latency report",
        ("span-source",),
        _arg("--top", type=int, default=5, metavar="N", help="slowest roots to list"),
        _arg("--json", action="store_true", help="print the report document as JSON"),
    ),
    Command(
        "obs export",
        _cmd_obs_export,
        "export spans as chrome://tracing JSON",
        ("span-source",),
        _arg("--trace", default="", metavar="ID", help="only this request id's spans"),
        _arg("-o", "--out", required=True, help="Chrome-trace output path"),
    ),
    Command(
        "obs tail",
        _cmd_obs_tail,
        "print spans from a span log as lines",
        (),
        _arg("spans", help="span JSONL log (e.g. serve --span-log)"),
        _arg("-f", "--follow", action="store_true", help="keep watching for new spans"),
        _arg(
            "--last",
            type=int,
            default=20,
            metavar="N",
            help="existing spans to print first (default: 20; 0 = all)",
        ),
        _arg(
            "--interval",
            type=float,
            default=0.5,
            metavar="S",
            help="poll interval when following (default: 0.5s)",
        ),
    ),
    Command("scenario list", _cmd_scenario_list, "list registered scenarios"),
    Command(
        "scenario show",
        _cmd_scenario_show,
        "print one scenario's spec document as JSON",
        (),
        _arg("scenario", help="registered name or spec file (.json/.yaml)"),
    ),
    Command(
        "scenario validate",
        _cmd_scenario_validate,
        "validate scenarios (all built-ins when none is named)",
        (),
        _arg(
            "scenario",
            nargs="?",
            default="",
            help="registered name or spec file; default: every registered scenario",
        ),
    ),
    Command(
        "scenario run",
        _cmd_scenario_run,
        "execute one scenario through the exec runtime",
        _EXPERIMENT,
        _arg("scenario", help="registered name or spec file (.json/.yaml)"),
        _arg(
            "--mapper",
            default="",
            choices=("",) + VERSIONS,
            help="mapper version override (workload-kind scenarios only)",
        ),
        _arg(
            "--policies",
            default="",
            metavar="L1,L2,L3",
            help="per-level replacement policies, leaf first (e.g. lru,rrip,arc)",
        ),
    ),
    Command(
        "campaign run",
        _cmd_campaign_run,
        "execute a campaign spec; write manifest + comparison report",
        _EXPERIMENT,
        _arg("spec", help="campaign spec file (.json/.yaml)"),
        _arg(
            "-o",
            "--out",
            required=True,
            metavar="DIR",
            help="output directory for manifest.json, report.json, report.md",
        ),
        _arg(
            "--chunk-size",
            type=int,
            default=16,
            metavar="N",
            help="cells per manifest checkpoint (default: 16)",
        ),
    ),
    Command(
        "campaign status",
        _cmd_campaign_status,
        "summarise a (possibly still-running) campaign manifest",
        (),
        _arg("manifest", help="manifest.json path or its directory"),
    ),
    Command(
        "campaign report",
        _cmd_campaign_report,
        "regenerate the comparison report from a manifest",
        (),
        _arg("manifest", help="manifest.json path or its directory"),
        _arg("--json", action="store_true", help="print the report document as JSON"),
    ),
    Command(
        "campaign diff",
        _cmd_campaign_diff,
        "compare two campaign manifests cell by cell",
        (),
        _arg("manifest_a", help="baseline manifest.json (or directory)"),
        _arg("manifest_b", help="comparison manifest.json (or directory)"),
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser, built by walking :data:`COMMANDS`."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Computation Mapping for Multi-Level "
            "Storage Cache Hierarchies' (HPDC 2010)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = {
        "": parser.add_subparsers(dest="command", required=True, metavar="command")
    }
    for command in COMMANDS:
        group, _, name = command.path.rpartition(" ")
        if group not in subparsers:
            group_parser = subparsers[""].add_parser(group, help=GROUP_HELP[group])
            subparsers[group] = group_parser.add_subparsers(
                dest=f"{group}_command", required=True, metavar="action"
            )
        p = subparsers[group].add_parser(name, help=command.help)
        shared = [a for g in ("log",) + command.groups for a in FLAG_GROUPS[g]]
        for flags, kwargs in shared + list(command.args):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=command.func)
    return parser


def _run_with_telemetry(args: argparse.Namespace, argv: list[str] | None) -> int:
    """Execute the command inside a live registry; write the manifest."""
    from repro.telemetry import (
        MetricsRegistry,
        build_manifest,
        declare_pipeline_metrics,
        save_manifest,
        use_registry,
    )

    registry = MetricsRegistry()
    declare_pipeline_metrics(registry)
    args._reports = []
    with use_registry(registry):
        status = _invoke(args)
    if status != 0:
        return status
    config = _config_from(args) or config_mod.DEFAULT_CONFIG
    store = getattr(args, "_store", None)
    meta = {"result_store": store.stats().as_dict()} if store is not None else None
    doc = build_manifest(
        registry,
        config=config,
        command=args.command,
        argv=list(argv) if argv is not None else sys.argv[1:],
        reports=args._reports,
        meta=meta,
    )
    try:
        save_manifest(args.telemetry, doc)
    except OSError as exc:
        return _fail(str(exc))
    _LOG.info("run manifest -> %s", args.telemetry)
    return status


def _run_traced(args: argparse.Namespace, run) -> int:
    """Wrap a command in one span tree when ``--trace PATH`` was given.

    The whole invocation becomes a single trace rooted at
    ``cli.<command>`` — the CLI analogue of a serve request id — with
    a span per :func:`~repro.telemetry.phase` (and any pool workers'
    repatriated spans) underneath; the finished spans land at PATH as
    JSONL for ``repro obs``.  Only the telemetry group's ``--trace``
    is a path: serve's is a switch the server handles itself, and the
    ``obs`` commands' is a request id to filter by.
    """
    trace_path = args.trace if hasattr(args, "telemetry") else ""
    if not trace_path:
        return run()
    from repro.obs import Tracer, new_request_id, span, use_tracer, write_spans_jsonl

    request_id = new_request_id()
    tracer = Tracer(capacity=65536)
    with use_tracer(tracer):
        with span(f"cli.{args.command}", trace_id=request_id):
            status = run()
    try:
        n = write_spans_jsonl(trace_path, tracer.spans())
    except OSError as exc:
        return _fail(str(exc))
    _LOG.info("%d spans for request %s -> %s", n, request_id, trace_path)
    print(f"  trace: {request_id} ({n} spans) -> {trace_path}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    level = "debug" if getattr(args, "verbose", False) else getattr(
        args, "log_level", "info"
    )
    configure_logging(level)
    for flag in ("cache_max_bytes", "max_bytes"):
        budget = getattr(args, flag, None)
        if budget is not None and budget <= 0:
            return _fail(
                f"--{flag.replace('_', '-')} must be a positive byte count, "
                f"got {budget}"
            )
    start = time.perf_counter()
    try:
        if getattr(args, "telemetry", ""):
            status = _run_traced(args, lambda: _run_with_telemetry(args, argv))
        else:
            status = _run_traced(args, lambda: _invoke(args))
    except BrokenPipeError:
        # stdout closed early (e.g. piped into head): exit quietly like a
        # well-behaved filter.  Point stdout at devnull so the interpreter's
        # shutdown flush doesn't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    _LOG.info("[%.1fs]", time.perf_counter() - start)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
