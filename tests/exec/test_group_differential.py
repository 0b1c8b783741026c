"""Differential: a group payload prepares once and still gives every cell its own result.

Cells that share a :func:`~repro.exec.keys.group_key` travel as one
group payload; the worker builds the nest once, computes ``inter`` and
``inter+sched``'s Fig. 5 distribution once, finalizes each
:class:`~repro.exec.keys.MappingKey`'s mapping once and simulates each
cell on its own freshly built hierarchy.  Hypothesis draws groups of
configs differing in everything outside the key — cache capacities,
per-level policies from {lru, fifo, arc, rrip}, write-back, prefetch
degree 0–3 and the seed — plus mixed ``{inter, inter+sched}`` groups
with ``alpha``/``beta`` drawn per cell, and checks each cell's
``result_to_dict`` against a per-cell ``run_experiment``.  Only
``mapping_time_s`` may differ, and it is one time per ``MappingKey``.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.executor import group_payload, run_payload, task_payload
from repro.exec.keys import group_key, mapping_key
from repro.experiments.config import scaled_config
from repro.simulator.runner import VERSIONS, run_cells, run_experiment
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

#: ``(version, config)`` cells of the inter family, Fig. 15 weights per cell.
inter_cells = st.tuples(
    st.sampled_from(["inter", "inter+sched"]),
    st.builds(
        lambda config, alpha, beta: dataclasses.replace(config, alpha=alpha, beta=beta),
        cell_configs,
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.sampled_from([0.0, 0.5, 0.75]),
    ),
)


def _check_group(workload: str, cells: list[tuple[str, object]]) -> None:
    assert len({group_key(workload, c, v) for v, c in cells}) == 1
    out = run_payload(group_payload([task_payload(workload, c, v) for v, c in cells]))
    wl = get_workload(workload)
    expected = [_strip(result_to_dict(run_experiment(wl, c, v))) for v, c in cells]
    assert [_strip(doc) for doc in out["results"]] == expected
    # One mapping per MappingKey, so one measured mapping time for each.
    times: dict = {}
    for (v, c), doc in zip(cells, out["results"]):
        times.setdefault(mapping_key(workload, c, v), set()).add(doc["mapping_time_s"])
    assert all(len(t) == 1 for t in times.values())


@settings(max_examples=25, deadline=None)
@given(
    workload=st.sampled_from(workload_names()),
    version=st.sampled_from(VERSIONS),
    configs=st.lists(cell_configs, min_size=2, max_size=4),
)
def test_group_payload_matches_per_cell_runs(workload, version, configs):
    assert len({mapping_key(workload, c, version) for c in configs}) == 1
    _check_group(workload, [(version, c) for c in configs])


@settings(max_examples=25, deadline=None)
@given(
    workload=st.sampled_from(workload_names()),
    cells=st.lists(inter_cells, min_size=2, max_size=4),
)
def test_mixed_inter_groups_match_per_cell_runs(workload, cells):
    _check_group(workload, cells)


def test_cells_of_two_groups_are_rejected():
    wl = get_workload("hf")
    for versions in (("inter", "intra"), ("original", "intra")):
        with pytest.raises(ValueError, match="one group key"):
            run_cells(wl, [(v, BASE, {}) for v in versions])
    with pytest.raises(ValueError, match="one group key"):
        run_cells(
            wl,
            [
                ("inter", BASE, {}),
                ("inter+sched", dataclasses.replace(BASE, balance_threshold=0.25), {}),
            ],
        )
