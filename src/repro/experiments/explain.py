"""Explain a mapping's win: footprint, reuse and sharing attribution.

For one workload, breaks the Inter-processor scheme's advantage over the
Original mapping into the three miss sources the analysis package
measures:

* **compulsory** — per-client footprints (distinct chunks requested);
* **capacity** — the reuse-distance profile of the slowest client's
  request stream against the private cache size;
* **sharing** — how much pairwise chunk sharing sits below shared
  caches (the paper's two rules, §3).
"""

from __future__ import annotations

from repro.analysis.footprint import mapping_footprints
from repro.analysis.reuse import reuse_distance_profile
from repro.analysis.sharing import mapping_affinity_quality
from repro.experiments.config import DEFAULT_CONFIG, SystemConfig
from repro.experiments.report import ExperimentReport
from repro.simulator.runner import prepare_mappings
from repro.simulator.streams import build_client_streams
from repro.workloads.suite import get_workload

__all__ = ["run"]


def run(
    workload_name: str = "hf", config: SystemConfig | None = None
) -> ExperimentReport:
    config = config or DEFAULT_CONFIG
    workload = get_workload(workload_name)
    hierarchy = config.build_hierarchy()
    l1_chunks = config.capacity_chunks(0)

    rows = []
    for prepared in prepare_mappings(
        workload, config, ("original", "inter", "inter+sched")
    ):
        mapping, nest, data_space = (
            prepared.mapping, prepared.nest, prepared.data_space
        )

        footprints = mapping_footprints(mapping, nest, data_space)
        total_fp = sum(footprints.values())
        max_fp = max(footprints.values())

        streams = build_client_streams(
            mapping, nest, data_space, chunk_matrix=prepared.chunk_matrix
        )
        longest = max(streams.values(), key=len)
        profile = reuse_distance_profile(longest)
        l1_hit = profile.hit_rate(l1_chunks)

        quality = mapping_affinity_quality(mapping, nest, data_space, hierarchy)
        rows.append(
            [
                prepared.version,
                total_fp,
                max_fp,
                f"{l1_hit:.2f}",
                f"{quality.sibling_sharing:.1f}",
                f"{quality.stranger_sharing:.1f}",
            ]
        )

    return ExperimentReport(
        f"Explain ({workload_name})",
        "Miss-source attribution per mapping version",
        [
            "version",
            "total footprint",
            "max client footprint",
            f"L1 hit rate (Mattson, C={l1_chunks})",
            "sibling sharing",
            "stranger sharing",
        ],
        rows,
        notes=[
            "footprint = compulsory misses; Mattson hit rate = capacity"
            " behaviour of the slowest client's stream;",
            "sibling vs stranger sharing = how much data sharing sits below"
            " shared caches (paper §3's two rules)",
        ],
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
