"""Differential: a group payload maps once and still gives every cell its own result.

Cells that share a :class:`~repro.exec.keys.MappingKey` travel as one
group payload; the worker prepares the mapping once and simulates each
cell on its own freshly built hierarchy.  Hypothesis draws a group of
configs differing in everything outside the key — cache capacities,
per-level policies from {lru, fifo, arc, rrip}, write-back, prefetch
degree 0–3 and the seed — and checks each cell's ``result_to_dict``
against a per-cell ``run_experiment``.  Only ``mapping_time_s`` may
differ: the group reports its one measured mapping time.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.exec.executor import group_payload, run_payload, task_payload
from repro.exec.keys import mapping_key
from repro.experiments.config import scaled_config
from repro.simulator.runner import VERSIONS, run_experiment
from repro.simulator.serialization import result_to_dict
from repro.workloads.suite import get_workload, workload_names

BASE = scaled_config(16)
POLICIES = ["lru", "fifo", "arc", "rrip"]


def _strip(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "mapping_time_s"}


cell_configs = st.builds(
    lambda caches, policies, writeback, prefetch, seed: dataclasses.replace(
        BASE,
        cache_elems=caches,
        policies=policies,
        writeback=writeback,
        prefetch_degree=prefetch,
        seed=seed,
    ),
    caches=st.tuples(*[st.integers(64, 4096)] * 3),
    policies=st.tuples(*[st.sampled_from(POLICIES)] * 3),
    writeback=st.booleans(),
    prefetch=st.integers(0, 3),
    seed=st.integers(0, 2**31 - 1),
)


@settings(max_examples=25, deadline=None)
@given(
    workload=st.sampled_from(workload_names()),
    version=st.sampled_from(VERSIONS),
    configs=st.lists(cell_configs, min_size=2, max_size=4),
)
def test_group_payload_matches_per_cell_runs(workload, version, configs):
    assert len({mapping_key(workload, c, version) for c in configs}) == 1
    out = run_payload(
        group_payload([task_payload(workload, c, version) for c in configs])
    )
    wl = get_workload(workload)
    expected = [
        _strip(result_to_dict(run_experiment(wl, c, version))) for c in configs
    ]
    assert [_strip(doc) for doc in out["results"]] == expected
    # One mapping, so one measured mapping time for every cell.
    assert len({doc["mapping_time_s"] for doc in out["results"]}) == 1
