"""The three workloads, each in an untraced and a traced form.

Untraced runs give the end-to-end metrics: they load the real stack
and time what a user would see, and sample the set-up time in fresh
interpreters between the timed loop's cycles (see :class:`SetupProbes`).
Traced runs give the per-layer metrics: they replay the same generated
inputs layer by layer under benchmark spans (see
:mod:`perfbench.replay`), alternating traced and untraced replays of
identical work to measure the tracing overhead.
"""

from __future__ import annotations

import contextlib
import math
import pathlib
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.campaign.manifest import ManifestWriter
from repro.campaign.matrix import expand_campaign
from repro.campaign.runner import DEFAULT_CHUNK_SIZE, run_campaign
from repro.exec.executor import ExperimentExecutor
from repro.exec.store import ResultStore
from repro.scenario.runner import run_scenario
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import encode_doc, parse_request, response_doc
from repro.shard.partition import partition_dir
from repro.simulator.engines import get_default_engine, set_default_engine
from repro.simulator.runner import run_experiment
from repro.simulator.serialization import result_to_dict
from repro.telemetry import MetricsRegistry, declare_pipeline_metrics, thread_registry
from repro.util.fingerprint import config_from_fingerprint
from repro.workloads.suite import get_workload

from perfbench import inputs
from perfbench.hostspeed import CAL_REF_S, HostClock, scaled_wall
from perfbench.inputs import Request, pin_label, result_digest
from perfbench.replay import REPLAY_STEPS, replay_request, replay_task, span_metrics
from perfbench.spans import LayerSpans, format_table, layer_table, percentile
from perfbench.stack import CLIENT_TIMEOUT_S, SHARD, Stack, cycles_loop

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60.0
SETUP_PROBE = pathlib.Path(__file__).with_name("setup_probe.py")
#: Requests (cells) a timed loop completes at least, so that latency_ms.p90
#: has at least 10 samples beyond it even when the host runs slow.
MIN_LATENCY_SAMPLES = 100
SWEEP_WORKERS = 2
#: Kernel runs per host-speed mark between two sweep passes.
SWEEP_MARK_RUNS = 5


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: pathlib.Path
    _dirs: int = 0

    def fresh_dir(self, name: str) -> pathlib.Path:
        self._dirs += 1
        path = self.workdir / f"{name}-{self._dirs}"
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Correctness failures; any entry fails the run.
    problems: list[str] = field(default_factory=list)
    record: dict[str, Any] = field(default_factory=dict)


# -- shared helpers ---------------------------------------------------------------


class SetupProbes:
    """``setup_s`` samples, each importing the program and setting up afresh.

    A fresh interpreter per sample makes work moved into import time or
    into start-up show; see ``setup_probe.py`` for what one sample does.
    The host's speed drifts on a 3-30 s scale, so samples taken back
    to back all see one speed: :meth:`between` is called between a
    timed loop's cycles and takes one sample per ``seconds /
    SETUP_REPEATS`` of loop time, spreading them over the whole run.
    Each sample is also scaled to the reference host speed by the
    kernel the probe times right after its set-up (see
    :mod:`perfbench.hostspeed`).
    """

    def __init__(self, ctx: Context, workload: str):
        self.ctx = ctx
        self.workload = workload
        self.samples: list[float] = []
        self.unscaled: list[float] = []

    def sample(self) -> None:
        done = subprocess.run(
            [sys.executable, str(SETUP_PROBE), self.workload, str(self.ctx.seed),
             str(self.ctx.fresh_dir("setup"))],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
        elapsed, kernel = (float(x) for x in done.stdout.split()[-2:])
        self.unscaled.append(elapsed)
        self.samples.append(elapsed * CAL_REF_S / kernel)

    def between(self, loop_s: float) -> None:
        due = len(self.samples) * self.ctx.seconds / SETUP_REPEATS
        if len(self.samples) < SETUP_REPEATS and loop_s >= due:
            self.sample()

    def median(self) -> float:
        """The median sample, after topping up to ``SETUP_REPEATS``."""
        while len(self.samples) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.samples)


def peak_rss_mb(children_kib: int = 0) -> float:
    """Peak RSS of this process plus ``children_kib`` (ru_maxrss is KiB)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kib) / 1024.0


def latency_metrics(
    latencies_s: list[float], ok: int, attempted: int, wall_s: float, children_kib: int = 0
):
    """End-to-end metrics of a loop, plus the sample counts behind them."""
    ms = [1000.0 * x for x in latencies_s]
    p90 = percentile(ms, 90)
    metrics = {
        "ops_per_s": ok / wall_s,
        "latency_ms.p50": statistics.median(ms),
        "latency_ms.p90": p90,
        "ok_frac": ok / attempted,
        "peak_rss_mb": peak_rss_mb(children_kib),
    }
    samples = {"latency": len(ms), "beyond_p90": sum(1 for x in ms if x > p90)}
    return metrics, samples


def unscaled_record(unscaled: dict[str, float], probes: SetupProbes) -> dict[str, Any]:
    """The timings before host-speed scaling, for the run record."""
    record = {k: unscaled[k] for k in ("ops_per_s", "latency_ms.p50", "latency_ms.p90")}
    record["setup_s"] = statistics.median(probes.unscaled)
    record["setup_s_samples"] = probes.unscaled
    return record


def geomean_gain_pct(ratios: list[float]) -> float:
    """``(1 - geomean(variant / baseline)) * 100``: how much lower the variant is."""
    return 100.0 * (1.0 - math.exp(statistics.fmean(math.log(r) for r in ratios)))


def paper_gains(variant: dict[str, dict], baseline: dict[str, dict]) -> dict[str, float]:
    """The paper's headline: inter+sched's gain over ``original``, geomean over workloads."""
    return {
        "sim.io_gain_pct": geomean_gain_pct(
            [variant[w]["sim"]["io_latency_ms"] / baseline[w]["sim"]["io_latency_ms"]
             for w in inputs.SUITE]
        ),
        "sim.exec_gain_pct": geomean_gain_pct(
            [variant[w]["sim"]["execution_time_ms"] / baseline[w]["sim"]["execution_time_ms"]
             for w in inputs.SUITE]
        ),
    }


def gains_or_problem(compute: Callable[[], dict[str, float]], problems: list[str]) -> dict:
    """The gain metrics, or a problem when a result they need is missing."""
    try:
        return compute()
    except (KeyError, statistics.StatisticsError) as exc:
        problems.append(f"missing results to compute the gains from: {exc}")
        return {}


def check_pin(pins: dict[str, str], label: str, doc: dict, problems: list[str]) -> None:
    digest = result_digest(doc)
    if digest != pins[label]:
        problems.append(f"{label}: digest {digest[:16]} != pinned {pins[label][:16]}")


def suite_originals(seed: int, pins: dict[str, str], problems: list[str]) -> dict[str, dict]:
    """``original`` results at cycle 0's config, computed in-process and checked."""
    config = inputs.salted_config(seed, 0)
    out = {}
    for w in inputs.SUITE:
        out[w] = result_to_dict(run_experiment(get_workload(w), config, "original"))
        check_pin(pins, pin_label("default", w, "original"), out[w], problems)
    return out


def check_responses(served, pins: dict[str, str] | None, problems: list[str]) -> None:
    """Each kept response answers its own key; suite results match their pins."""
    for request, response in served.responses:
        if response.doc.get("digest") != request.task().key.digest:
            problems.append(f"{request.label}: response names another key")
        if pins is not None:
            w, v = request.body["workload"], request.body["version"]
            check_pin(pins, pin_label("default", w, v), response.result, problems)


@contextlib.contextmanager
def default_engine(name: str):
    previous = get_default_engine()
    set_default_engine(name)
    try:
        yield
    finally:
        set_default_engine(previous)


def serving_stack(ctx: Context) -> Stack:
    return Stack(ctx.fresh_dir("stack"))


def serve_cold(
    ctx: Context, workload: str, cycle: Callable[[int, int], list[Request]], pins
) -> tuple[Outcome, Any]:
    """Whole cycles of fresh keys through a new stack, set-up probes between.

    Returns the outcome so far (end-to-end metrics, key and pin checks)
    and what was served, for the workload's own checks and gains.
    """
    probes = SetupProbes(ctx, workload)
    clock = HostClock()
    stack = serving_stack(ctx)
    try:
        served = cycles_loop(
            stack.url,
            lambda c: cycle(ctx.seed, c),
            ctx.seconds,
            MIN_LATENCY_SAMPLES,
            probes.between,
            clock,
        )
    finally:
        stack.stop()
    factors = clock.factors()
    metrics, samples = latency_metrics(
        [x * f for x, f in zip(served.latencies_s, factors)],
        served.ok,
        served.attempted,
        scaled_wall(served.marks_s, factors),
    )
    unscaled, _ = latency_metrics(
        served.latencies_s, served.ok, served.attempted, served.wall_s
    )
    metrics["setup_s"] = probes.median()
    problems: list[str] = []
    check_responses(served, pins, problems)
    if served.sources.get("simulated", 0) != served.ok:
        problems.append(f"cold requests not all simulated: {dict(served.sources)}")
    record = {
        "connections": 1,
        "samples": samples,
        "setup_s_samples": probes.samples,
        "unscaled": unscaled_record(unscaled, probes),
        "host_speed": clock.record(),
        "sources": dict(served.sources),
        "errors": served.errors[:5],
        "wall_s": served.wall_s,
    }
    return Outcome(metrics, served.attempted, len(served.errors), problems, record), served


# -- cold-map ---------------------------------------------------------------------


def cold_map(ctx: Context) -> Outcome:
    pins = inputs.load_pins()
    outcome, served = serve_cold(ctx, "cold-map", inputs.cold_map_cycle, pins)
    scheduled = {
        r.body["workload"]: resp.result
        for r, resp in served.responses
        if r.body["version"] == "inter+sched"
    }
    originals = suite_originals(ctx.seed, pins, outcome.problems)
    outcome.metrics.update(
        gains_or_problem(lambda: paper_gains(scheduled, originals), outcome.problems)
    )
    return outcome


# -- cold-policy ------------------------------------------------------------------


def policy_gains(results: dict[tuple[int, str], dict]) -> dict[str, float]:
    """Geomean gain of the ARC/RRIP variants over LRU, over every served cycle."""
    ratios: dict[str, list[float]] = {"io_latency_ms": [], "execution_time_ms": []}
    for (cycle, label), doc in results.items():
        scenario, policy = label.split("/")
        base = results.get((cycle, f"{scenario}/lru"))
        if policy == "lru" or base is None:
            continue
        for key, values in ratios.items():
            values.append(doc["sim"][key] / base["sim"][key])
    return {
        "sim.io_gain_pct": geomean_gain_pct(ratios["io_latency_ms"]),
        "sim.exec_gain_pct": geomean_gain_pct(ratios["execution_time_ms"]),
    }


def rederive_reference(requests: list[Request]) -> dict[tuple[int, str], dict]:
    """Each scenario request recomputed in-process on the reference engine."""
    with default_engine("reference"):
        return {
            (r.cycle, r.label): result_to_dict(
                run_scenario(r.body["scenario"], config_from_fingerprint(r.body["config"]))
            )
            for r in requests
        }


def cold_policy(ctx: Context) -> Outcome:
    outcome, served = serve_cold(ctx, "cold-policy", inputs.cold_policy_cycle, None)
    problems = outcome.problems
    results = {(r.cycle, r.label): resp.result for r, resp in served.responses}
    # The reference engine is the fast engine's oracle; re-deriving the
    # first and the last cycle bounds the check's cost while covering
    # every scenario x policy cell twice.
    last = max((cycle for cycle, _ in results), default=0)
    chosen = [r for r, _ in served.responses if r.cycle in (0, last)]
    for key, doc in rederive_reference(chosen).items():
        if result_digest(doc) != result_digest(results[key]):
            problems.append(f"cycle {key[0]} {key[1]}: served result != reference engine")
    outcome.metrics.update(gains_or_problem(lambda: policy_gains(results), problems))
    outcome.record["rederived"] = len(chosen)
    return outcome


# -- campaign-sweep ---------------------------------------------------------------


@dataclass
class SweepPass:
    cells: int
    wall_s: float
    cell_latencies_s: list[float]
    results: dict[str, dict]  # pin label -> result doc
    failed: list[str]
    #: The same timings scaled to the reference host speed, chunk by chunk.
    scaled_wall_s: float = 0.0
    scaled_latencies_s: list[float] = field(default_factory=list)
    kernel_samples_s: list[float] = field(default_factory=list)


def sweep_pass(ctx: Context, spec, executor, cycle: int) -> SweepPass:
    """One ``run_campaign`` pass into a fresh store; results read back after.

    The host's speed is marked before each chunk's batch, while no pool
    runs, and once after the pass; a mark's own time counts nowhere.
    """
    out_dir = ctx.fresh_dir("sweep")
    store = ResultStore(out_dir / "store")
    clock = HostClock()
    ticks: dict[int, float] = {}
    marks: list[float] = []
    paused = 0.0
    start = time.perf_counter()

    def now() -> float:
        return time.perf_counter() - paused

    def progress(done: int, total: int) -> None:
        ticks.setdefault(done, now())

    batch = executor.run_payloads

    def marked_batch(*args, **kwargs):
        nonlocal paused
        marks.append(now() - start)
        paused += clock.mark(SWEEP_MARK_RUNS)
        return batch(*args, **kwargs)

    ticks[0] = start
    executor.run_payloads = marked_batch
    try:
        run = run_campaign(
            spec,
            base_config=inputs.salted_config(ctx.seed, cycle),
            manifest_path=out_dir / "manifest.json",
            executor=executor,
            store=store,
            progress=progress,
        )
    finally:
        executor.run_payloads = batch
    wall_s = now() - start
    clock.mark(SWEEP_MARK_RUNS)
    # A chunk's stretch runs from its mark to the next; the first one
    # also holds the pass's set-up before the first batch.
    factors = clock.factors()
    bounds = [0.0] + marks[1:] + [wall_s]
    # A cell's latency runs from its chunk's start (the previous chunk's
    # last result) to its own result, as a progress watcher sees it.
    chunk = DEFAULT_CHUNK_SIZE
    n = len(run.plan.cells)
    done = [i for i in range(n) if i + 1 in ticks]
    latencies = [ticks[i + 1] - ticks[(i // chunk) * chunk] for i in done]
    tasks = {t.key.digest: t for t in run.plan.plan.tasks}
    results = {}
    for cell in run.plan.cells:
        result = store.get(tasks[cell.key_digest].key)
        if result is not None:
            label = pin_label(cell.coord("config"), cell.workload, cell.version)
            results[label] = result_to_dict(result)
    return SweepPass(
        n,
        wall_s,
        latencies,
        results,
        list(run.failed),
        scaled_wall(bounds, factors),
        [x * factors[min(i // chunk, len(factors) - 1)] for x, i in zip(latencies, done)],
        clock.samples,
    )


def check_sweep(p: SweepPass, pins: dict[str, str], problems: list[str]) -> None:
    for label in p.failed:
        problems.append(f"campaign cell failed: {label}")
    for label in pins:
        if label not in p.results:
            problems.append(f"{label}: no result in the store")
        else:
            check_pin(pins, label, p.results[label], problems)


def sweep_gains(p: SweepPass) -> dict[str, float]:
    def versions(v: str) -> dict[str, dict]:
        return {w: p.results[pin_label("default", w, v)] for w in inputs.SUITE}

    return paper_gains(versions("inter+sched"), versions("original"))


def sweep_setup(ctx: Context):
    """What ``repro campaign run`` does before its first cell: parse, expand, pool config."""
    spec = inputs.sweep_spec()
    expand_campaign(spec, inputs.salted_config(ctx.seed, 0))
    return spec, ExperimentExecutor(workers=SWEEP_WORKERS)


def campaign_sweep(ctx: Context) -> Outcome:
    probes = SetupProbes(ctx, "campaign-sweep")
    spec, executor = sweep_setup(ctx)
    passes: list[SweepPass] = []
    while (
        sum(p.wall_s for p in passes) < ctx.seconds
        or sum(p.cells for p in passes) < MIN_LATENCY_SAMPLES
    ):
        passes.append(sweep_pass(ctx, spec, executor, len(passes)))
        if len(passes) == 1:
            # Until the first probe the pool's workers are the only children.
            pool_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        probes.between(sum(p.wall_s for p in passes))
    pins = inputs.load_pins()
    problems: list[str] = []
    for p in passes:
        check_sweep(p, pins, problems)
    cells = sum(p.cells for p in passes)
    ok = cells - sum(len(p.failed) for p in passes)
    metrics, samples = latency_metrics(
        [x for p in passes for x in p.scaled_latencies_s],
        ok,
        cells,
        sum(p.scaled_wall_s for p in passes),
        pool_kib,
    )
    unscaled, _ = latency_metrics(
        [x for p in passes for x in p.cell_latencies_s],
        ok,
        cells,
        sum(p.wall_s for p in passes),
        pool_kib,
    )
    metrics.update(gains_or_problem(lambda: sweep_gains(passes[0]), problems))
    metrics["setup_s"] = probes.median()
    record = {
        "workers": SWEEP_WORKERS,
        "samples": samples,
        "setup_s_samples": probes.samples,
        "unscaled": unscaled_record(unscaled, probes),
        "host_speed": HostClock([x for p in passes for x in p.kernel_samples_s]).record(),
        "passes": len(passes),
        "cells_per_pass": passes[0].cells,
        "executor_events": executor.pop_events()[:5],
    }
    return Outcome(metrics, cells, cells - ok, problems, record)


# -- traced runs ------------------------------------------------------------------

PER_LAYER_EXTRAS = (
    "serve.server.ms",
    "shard.router.hop_ms",
    "serve.coalesced",
    "exec.executor.overhead_ms_per_cell",
    "campaign.manifest_ms",
)


@dataclass
class Replays:
    """Alternating traced/untraced replays of identical work."""

    spans: LayerSpans = field(default_factory=LayerSpans)
    traced_s: float = 0.0
    untraced_s: float = 0.0
    #: Untraced wall time per replayed item, in replay order.
    untraced_items_s: list[float] = field(default_factory=list)
    rounds: int = 0

    def run(self, items: list, replay_one: Callable, patches=()) -> list:
        """Replay ``items`` traced and untraced (order alternates by round)."""
        off = LayerSpans(enabled=False)
        outputs: list = []
        for traced in ((True, False) if self.rounds % 2 == 0 else (False, True)):
            start = time.perf_counter()
            if traced:
                with self.spans.patched(patches):
                    outputs = [replay_one(self.spans, item) for item in items]
                self.traced_s += time.perf_counter() - start
            else:
                for item in items:
                    t0 = time.perf_counter()
                    replay_one(off, item)
                    self.untraced_items_s.append(time.perf_counter() - t0)
                self.untraced_s += time.perf_counter() - start
        self.rounds += 1
        return outputs

    @property
    def overhead_pct(self) -> float:
        return 100.0 * (self.traced_s / self.untraced_s - 1.0)


def design_claims(title: str, table: dict[str, Any], metrics: dict[str, float]) -> list[dict]:
    """The workload-design claims a traced run confirms or reports as missed."""
    rows = table["rows"]

    def share(prefix: str) -> float:
        return sum(r["share"] for name, r in rows.items() if name.startswith(prefix))

    claims = {
        "cold-map": [
            ("core.* share of wall", share("core."), ">=", 0.75),
            ("re-read exec.store.hit_frac", metrics["exec.store.hit_frac"], ">=", 1.0),
            # One coalesced copy per duplicate pair (one per suite workload).
            ("serve.coalesced", metrics["serve.coalesced"], ">=", len(inputs.SUITE)),
        ],
        "cold-policy": [
            ("simulator.simulate share of wall", share("simulator.simulate"), ">=", 0.5)
        ],
    }.get(title, [])
    if title in ("cold-map", "cold-policy"):
        claims.append(("unattributed_frac", table["unattributed_frac"], "<=", 0.05))
    return [
        {
            "claim": name,
            "value": value,
            "want": f"{op} {bound}",
            "met": value >= bound if op == ">=" else value <= bound,
        }
        for name, value, op, bound in claims
    ]


def layer_outcome(
    replays: Replays, attempted: int, problems: list[str], extra: dict[str, float], title: str,
    tables: dict[str, Any] | None = None,
) -> Outcome:
    spans = replays.spans.spans()
    table = layer_table(spans, replays.traced_s)
    metrics = span_metrics(spans)
    metrics.update({name: 0.0 for name in PER_LAYER_EXTRAS})
    metrics.update(extra)
    metrics["obs.tracing_overhead_pct"] = replays.overhead_pct
    metrics["unattributed_frac"] = table["unattributed_frac"]
    all_tables = {"replay": table, **(tables or {})}
    claims = design_claims(title, table, metrics)
    text = [format_table(f"{title} {name}", t) for name, t in all_tables.items()]
    text.append(f"{title} tracing overhead {replays.overhead_pct:.1f}%")
    text += [
        f"{title} design {'MET' if c['met'] else 'MISSED'}: "
        f"{c['claim']} = {c['value']:.3f} (want {c['want']})"
        for c in claims
    ]
    record = {
        "tables": all_tables,
        "design": claims,
        "rounds": replays.rounds,
        "traced_s": replays.traced_s,
        "untraced_s": replays.untraced_s,
        "text": "\n".join(text),
    }
    return Outcome(metrics, attempted, 0, problems, record)


def replay_cycles(
    ctx: Context, cycle: Callable[[int], list[Request]], check: Callable, seconds: float
) -> tuple[Replays, int]:
    """Replay whole cycles (traced and untraced) until ``seconds`` have passed."""
    registry = MetricsRegistry()
    declare_pipeline_metrics(registry)
    replays, attempted = Replays(), 0
    start = time.perf_counter()
    with thread_registry(registry):
        while replays.rounds == 0 or time.perf_counter() - start < seconds:
            requests = cycle(replays.rounds)
            bodies = [r.encoded() for r in requests]
            # The traced and the untraced replay each get a fresh store.
            stores = {traced: ResultStore(ctx.fresh_dir("replay")) for traced in (True, False)}

            def one(sp: LayerSpans, i: int):
                return replay_request(sp, bodies[i], stores[sp.enabled], registry)

            outputs = replays.run(list(range(len(requests))), one, REPLAY_STEPS)
            for request, (task, doc) in zip(requests, outputs):
                check(request, task, doc)
            attempted += len(requests)
    return replays, attempted


def cold_policy_traced(ctx: Context) -> Outcome:
    # Serve cycle 0 through the stack first: the replay must reproduce it.
    stack = serving_stack(ctx)
    try:
        served = cycles_loop(stack.url, lambda c: inputs.cold_policy_cycle(ctx.seed, c), 0)
    finally:
        stack.stop()
    problems = list(served.errors)
    want = {(r.cycle, r.label): result_digest(resp.result) for r, resp in served.responses}

    def check(request: Request, task, doc) -> None:
        key = (request.cycle, request.label)
        if key in want and want[key] != result_digest(doc):
            problems.append(f"{request.label}: replay digest != served digest")

    replays, attempted = replay_cycles(
        ctx, lambda c: inputs.cold_policy_cycle(ctx.seed, c), check, ctx.seconds
    )
    return layer_outcome(replays, attempted, problems, {}, "cold-policy")


#: Share of a traced ``cold-map`` run spent on the replay; the rest
#: re-reads the keys it served, for the read path's layers.
COLD_MAP_REPLAY_SHARE = 0.7


def duplicate_pairs(
    url: str, requests: list[Request], pins: dict[str, str], problems: list[str]
) -> Counter:
    """Each request sent twice at once, over two connections to ``url``.

    Both copies pass the router's admission; the later one reaches the
    worker while the first one's mapping is in flight, so the coalescer
    answers it from the same computation.  Returns the sources served.
    """
    sources: Counter = Counter()

    def send(client: ServeClient, request: Request, barrier: threading.Barrier):
        barrier.wait()
        return client.experiment(**request.body)

    with ServeClient(url, timeout=CLIENT_TIMEOUT_S) as first, \
            ServeClient(url, timeout=CLIENT_TIMEOUT_S) as second, \
            ThreadPoolExecutor(2) as pool:
        for request in requests:
            barrier = threading.Barrier(2, timeout=CLIENT_TIMEOUT_S)
            futures = [pool.submit(send, c, request, barrier) for c in (first, second)]
            try:
                responses = [f.result() for f in futures]
            except (ServeError, OSError, threading.BrokenBarrierError) as exc:
                problems.append(f"{request.label}: duplicate pair: {type(exc).__name__}: {exc}")
                continue
            if responses[0].body != responses[1].body:
                problems.append(f"{request.label}: duplicate pair answered differently")
            w, v = request.body["workload"], request.body["version"]
            check_pin(pins, pin_label("default", w, v), responses[0].result, problems)
            sources.update(r.source for r in responses)
    return sources


def warm_reads(ctx: Context, seconds: float, pins: dict[str, str]):
    """The read path: keys just served, re-read direct, routed and locally.

    Serves one ``cold-map`` cycle through a fresh stack, and the next
    cycle's ``inter+sched`` requests as duplicate pairs (the coalescer's
    load).  Then re-reads each key of the first cycle straight from the
    worker, through the router, and through the worker's own steps run
    here (parse, store get, serialization, encode) until ``seconds``
    have passed.  Returns the replays, the derived read-path metrics,
    the duplicate pairs' sources and any problems.
    """
    requests = inputs.cold_map_cycle(ctx.seed, 0)
    bodies = [r.encoded() for r in requests]
    problems: list[str] = []
    rows: list[dict[str, float]] = []
    replays = Replays()
    stack = serving_stack(ctx)
    try:
        served = cycles_loop(stack.url, lambda c: requests, 0)
        problems += served.errors
        check_responses(served, pins, problems)
        warm = {r.label: response.body for r, response in served.responses}
        pairs = [
            r for r in inputs.cold_map_cycle(ctx.seed, 1) if r.body["version"] == "inter+sched"
        ]
        pair_sources = duplicate_pairs(stack.url, pairs, pins, problems)
        store = ResultStore(partition_dir(stack.router.store_root, SHARD))
        simulated_before = stack.counter("simulator.simulations")
        with ServeClient(stack.direct_url, timeout=CLIENT_TIMEOUT_S) as direct, \
                ServeClient(stack.url, timeout=CLIENT_TIMEOUT_S) as routed:

            def one(sp: LayerSpans, i: int) -> None:
                request, t = requests[i], {}
                for name, client in (("serve.direct", direct), ("shard.routed", routed)):
                    start = time.perf_counter()
                    with sp(name):
                        response = client.experiment(**request.body)
                    t[name] = time.perf_counter() - start
                    if response.body != warm.get(request.label):
                        problems.append(f"{request.label}: {name} body differs from first answer")
                start = time.perf_counter()
                with sp("serve.protocol.parse"):
                    task = parse_request(bodies[i]).to_task()
                with sp("exec.store.get") as attrs:
                    cached = store.get(task.key)
                    attrs["hit"] = cached is not None
                if cached is None:
                    problems.append(f"{request.label}: not in the store")
                    return
                with sp("exec.serialize"):
                    doc = result_to_dict(cached)
                with sp("serve.protocol.encode"):
                    body = encode_doc(response_doc(task.key, doc))
                t["local"] = time.perf_counter() - start
                if body != warm.get(request.label):
                    problems.append(f"{request.label}: local read differs from served body")
                if sp.enabled:
                    rows.append(t)

            start = time.perf_counter()
            while replays.rounds == 0 or time.perf_counter() - start < seconds:
                replays.run(list(range(len(requests))), one)
        simulated = stack.counter("simulator.simulations") - simulated_before
        coalesced = stack.counter("serve.coalesced")
    finally:
        stack.stop()
    if simulated:
        problems.append(f"re-reads ran {simulated} simulations")
    derived = {
        # The worker's own share of a direct round trip: everything but
        # the store read, serialization and protocol it performs.
        "serve.server.ms": 1000.0
        * statistics.median(r["serve.direct"] - r["local"] for r in rows),
        "shard.router.hop_ms": 1000.0
        * statistics.median(r["shard.routed"] - r["serve.direct"] for r in rows),
        "serve.coalesced": float(coalesced),
    }
    return replays, derived, pair_sources, problems


def cold_map_traced(ctx: Context) -> Outcome:
    pins = inputs.load_pins()
    problems: list[str] = []

    def check(request: Request, task, doc) -> None:
        w, v = request.body["workload"], request.body["version"]
        check_pin(pins, pin_label("default", w, v), doc, problems)

    start = time.perf_counter()
    replays, attempted = replay_cycles(
        ctx,
        lambda c: inputs.cold_map_cycle(ctx.seed, c),
        check,
        COLD_MAP_REPLAY_SHARE * ctx.seconds,
    )
    reads, derived, pair_sources, read_problems = warm_reads(
        ctx, ctx.seconds - (time.perf_counter() - start), pins
    )
    reads_spans = reads.spans.spans()
    # The read path's store get is the hit path; the replay's is a miss.
    read_metrics = span_metrics(reads_spans)
    derived["exec.store.get_ms"] = read_metrics["exec.store.get_ms"]
    derived["exec.store.hit_frac"] = read_metrics["exec.store.hit_frac"]
    outcome = layer_outcome(
        replays, attempted, problems + read_problems, derived, "cold-map",
        {"reads": layer_table(reads_spans, reads.traced_s)},
    )
    outcome.record["reads_overhead_pct"] = reads.overhead_pct
    outcome.record["duplicate_pair_sources"] = dict(pair_sources)
    return outcome


def campaign_sweep_traced(ctx: Context) -> Outcome:
    start = time.perf_counter()
    spec, executor = sweep_setup(ctx)
    pool = LayerSpans()
    executor.run_payloads = pool.wrap(
        executor.run_payloads, "exec.executor.batch", lambda outs: {"cells": len(outs)}
    )
    with pool.patched([(ManifestWriter, "save", "campaign.manifest")]):
        p = sweep_pass(ctx, spec, executor, 0)
    pool_wall = p.wall_s
    pins = inputs.load_pins()
    problems: list[str] = []
    check_sweep(p, pins, problems)

    # The same cells again, in-process and one at a time, layer by layer.
    plan = expand_campaign(spec, inputs.salted_config(ctx.seed, 0))
    tasks = {t.key.digest: t for t in plan.plan.tasks}
    cells = [(cell, tasks[cell.key_digest]) for cell in plan.cells]
    registry = MetricsRegistry()
    declare_pipeline_metrics(registry)
    replays = Replays()
    with thread_registry(registry):
        while replays.rounds == 0 or time.perf_counter() - start < ctx.seconds:
            stores = {traced: ResultStore(ctx.fresh_dir("replay")) for traced in (True, False)}

            def one(sp: LayerSpans, i: int) -> dict:
                return replay_task(sp, cells[i][1], stores[sp.enabled], registry)

            docs = replays.run(list(range(len(cells))), one, REPLAY_STEPS)
            for (cell, _), doc in zip(cells, docs):
                label = pin_label(cell.coord("config"), cell.workload, cell.version)
                check_pin(pins, label, doc, problems)

    pool_spans = pool.spans()
    pool_cell_s = SWEEP_WORKERS * sum(
        s.elapsed_s for s in pool_spans if s.name == "exec.executor.batch"
    )
    in_process_cell_s = sum(replays.untraced_items_s) / replays.rounds
    extra = {
        # Pool time the two workers spent beyond the cells' own in-process
        # run time: start-up, pickling and waiting at each chunk's barrier.
        "exec.executor.overhead_ms_per_cell": 1000.0
        * (pool_cell_s - in_process_cell_s) / len(cells),
        "campaign.manifest_ms": 1000.0 * statistics.median(
            s.elapsed_s for s in pool_spans if s.name == "campaign.manifest"
        ),
    }
    return layer_outcome(
        replays, replays.rounds * len(cells), problems, extra, "campaign-sweep",
        {"pool": layer_table(pool_spans, pool_wall)},
    )


#: What one set-up is, per workload: (set up, tear down).
SETUPS = {
    "cold-map": (serving_stack, Stack.stop),
    "cold-policy": (serving_stack, Stack.stop),
    "campaign-sweep": (sweep_setup, lambda spec_executor: None),
}

WORKLOADS = {
    "cold-map": (cold_map, cold_map_traced),
    "cold-policy": (cold_policy, cold_policy_traced),
    "campaign-sweep": (campaign_sweep, campaign_sweep_traced),
}
