"""Campaign execution: chunked, resumable, manifest-backed.

:func:`run_campaign` drives one expanded campaign through the exec
runtime in chunks.  The ordering discipline that makes a ``kill -9``
harmless: each chunk's results reach the result store *inside*
:func:`~repro.exec.plan.execute_plan` (store.put per simulation),
and only then does the manifest — rewritten atomically after the
chunk — mention them.  A restart re-expands the same spec to the same
keys, finds every completed cell warm in the store, and simulates only
what the kill actually lost: at most one chunk, usually less.

Resumability is therefore a property of the *store*, not of campaign
bookkeeping; the manifest merely records what happened.  A campaign
run with no persistent store still works — it just re-simulates from
scratch when restarted.

One chunk is one :func:`~repro.exec.plan.execute_plan` batch, so cells
of a chunk that share a mapping map once; every chunk runs on the one
process pool the executor keeps for the whole campaign.

Failures degrade per cell: when a chunk's batch raises, the chunk is
re-run cell by cell — store hits return instantly, innocent cells
re-simulate — and only the cells that fail in isolation are marked
``failed``, so one poisoned cell cannot abort (or take down the rest
of) a thousand-cell run.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.campaign.collectors import Collector, cell_summary, make_collectors
from repro.campaign.manifest import ManifestWriter, new_manifest
from repro.campaign.matrix import CampaignCell, CampaignPlan, expand_campaign
from repro.campaign.report import build_report
from repro.campaign.spec import CampaignSpec, campaign_fingerprint, campaign_to_dict
from repro.exec.context import get_execution
from repro.exec.executor import ExperimentExecutor
from repro.exec.plan import execute_plan
from repro.scenario.runner import result_digest
from repro.util.log import get_logger

__all__ = ["CampaignRun", "run_campaign"]

_LOG = get_logger("campaign.runner")

#: Cells per manifest checkpoint.  Small enough that a kill loses
#: little bookkeeping, large enough that manifest rewrites stay a
#: rounding error next to simulation time.
DEFAULT_CHUNK_SIZE = 16


@dataclass
class CampaignRun:
    """Everything one :func:`run_campaign` call produced."""

    spec: CampaignSpec
    plan: CampaignPlan
    manifest: dict[str, Any]
    report: dict[str, Any]
    collectors: list[Collector] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed


def _chunks(cells: list[CampaignCell], size: int):
    for i in range(0, len(cells), size):
        yield cells[i : i + size]


def run_campaign(
    spec: CampaignSpec,
    base_config=None,
    manifest_path=None,
    executor=None,
    store=None,
    progress: Callable[[int, int], None] | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> CampaignRun:
    """Execute a campaign spec end to end; returns the full outcome.

    ``executor``/``store`` default from the active execution context
    (as :func:`~repro.exec.plan.execute_plan` does); ``base_config``
    overrides the spec's own ``scale``; ``manifest_path`` (file or
    directory) enables the incrementally-persisted manifest;
    ``progress(done, total)`` sees campaign-wide cell counts.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    started = time.monotonic()
    ctx = get_execution()
    executor = executor or ctx.executor or ExperimentExecutor()
    store = store if store is not None else ctx.store

    plan = expand_campaign(spec, base_config)
    spec_doc = campaign_to_dict(spec)
    writer = ManifestWriter(
        new_manifest(spec_doc, campaign_fingerprint(spec)), manifest_path
    )
    writer.doc["expansion"] = {
        "cells": len(plan.cells),
        "excluded": plan.excluded,
        "duplicates": plan.duplicates,
    }
    if store is not None and hasattr(store, "stats"):
        writer.doc["store"]["before"] = dataclasses.asdict(store.stats())
    writer.set_cells(
        {
            cell.label: {
                "key": cell.key_digest,
                "coords": dict(cell.coords),
                "workload": cell.workload,
                "version": cell.version,
                "status": "pending",
            }
            for cell in plan.cells
        }
    )
    writer.save()

    collectors = make_collectors(spec.collectors)
    task_by_digest = {t.key.digest: t for t in plan.plan.tasks}
    total = len(plan.cells)
    completed = 0
    failed: list[str] = []

    # One process pool for the whole campaign, not one per chunk.
    with executor:
        for chunk in _chunks(plan.cells, chunk_size):
            tasks = [task_by_digest[c.key_digest] for c in chunk]
            outcomes: dict[str, str] = {}
            chunk_progress = None
            if progress is not None:
                base = completed

                def chunk_progress(done: int, _t: int) -> None:
                    progress(base + done, total)

            try:
                results = execute_plan(
                    tasks,
                    executor=executor,
                    store=store,
                    progress=chunk_progress,
                    outcomes=outcomes,
                )
            except Exception as exc:  # noqa: BLE001 - one bad cell must not
                # abort the campaign.  The pool path surfaces TaskError after
                # its bounded retries; the serial path raises the original
                # failure directly — both degrade the same way here.  Groups
                # that landed before the failure are already in the store;
                # the rest of the batch is lost, so re-run the chunk cell by
                # cell: store hits come back instantly, innocent cells that
                # had not landed re-simulate, and only the truly poisoned
                # ones fail.
                _LOG.warning("chunk failed (%s); isolating cells", exc)
                results = {}
                for cell in chunk:
                    try:
                        results.update(
                            execute_plan(
                                [task_by_digest[cell.key_digest]],
                                executor=executor,
                                store=store,
                                outcomes=outcomes,
                            )
                        )
                    except Exception as cell_exc:  # noqa: BLE001
                        failed.append(cell.label)
                        writer.update_cell(
                            cell.label, status="failed", error=str(cell_exc)
                        )
            for cell in chunk:
                result = results.get(cell.key_digest)
                if result is None:
                    continue
                writer.update_cell(
                    cell.label,
                    status=outcomes.get(cell.key_digest, "simulated"),
                    digest=result_digest(result),
                    summary=cell_summary(result),
                )
                for collector in collectors:
                    collector.add(cell, result)
            writer.add_events(executor.pop_events())
            completed += len(chunk)
            if progress is not None:
                progress(completed, total)
            writer.save()

    writer.doc["collectors"] = {c.name: c.summary() for c in collectors}
    if store is not None and hasattr(store, "stats"):
        writer.doc["store"]["after"] = dataclasses.asdict(store.stats())
    writer.finish(
        "failed" if failed else "complete", time.monotonic() - started
    )
    writer.save()
    report = build_report(writer.doc)
    return CampaignRun(
        spec=spec,
        plan=plan,
        manifest=writer.doc,
        report=report,
        collectors=collectors,
        failed=failed,
    )
