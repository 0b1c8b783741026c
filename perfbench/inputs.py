"""Seeded inputs of the benchmark workloads and the pinned result digests.

Every input derives from the workload seed alone.  The seed never
reaches the program as a switch: it salts ``SystemConfig.seed`` of each
generated request, so every cold request names an ``ExperimentKey``
that no earlier run (or other seed) has produced.  For the eight suite
workloads the salt changes nothing but the key — their results do not
depend on ``SystemConfig.seed`` — so their digests can be pinned in
``digests.json``.  The generated scenarios draw their traces from the
salt, so ``cold-policy`` results differ per seed and are re-derived
instead of pinned.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from dataclasses import dataclass
from typing import Any

from repro.campaign.spec import CampaignSpec, campaign_from_dict
from repro.experiments.config import SystemConfig, scaled_config
from repro.serve.protocol import encode_doc, parse_request, request_doc
from repro.util.fingerprint import canonical_json, config_fingerprint

SCALE = 8
SUITE = ("hf", "sar", "contour", "astro", "e_elem", "apsi", "madbench2", "wupwise")
#: Versions whose mapper does work; ``original`` is the blocked baseline.
MAP_VERSIONS = ("intra", "inter", "inter+sched")
SWEEP_VERSIONS = ("original",) + MAP_VERSIONS
SCENARIOS = ("zipf-hot", "zipf-uniform", "onoff-bursty")
#: Per-level policy variants of ``cold-policy`` (``None`` = the default LRU).
POLICIES = (
    ("lru", None),
    ("arc-l2", ("lru", "arc", "lru")),
    ("rrip-l2l3", ("lru", "rrip", "rrip")),
)
#: The ``campaign-sweep`` configs axis.
SWEEP_CONFIGS = (
    {"name": "default"},
    {"name": "wb-pf2", "writeback": True, "prefetch_degree": 2},
)

DIGESTS_PATH = pathlib.Path(__file__).with_name("digests.json")


def salt(seed: int, cycle: int) -> int:
    """The ``SystemConfig.seed`` of cycle ``cycle`` of a run seeded ``seed``."""
    h = hashlib.sha256(f"perfbench/{seed}/{cycle}".encode()).digest()
    return int.from_bytes(h[:6], "big")


def salted_config(seed: int, cycle: int) -> SystemConfig:
    return scaled_config(SCALE, seed=salt(seed, cycle))


@dataclass(frozen=True)
class Request:
    """One generated request: its cycle, a label naming its cell, its body."""

    cycle: int
    label: str
    #: Keyword arguments of ``ServeClient.experiment`` / ``request_doc``.
    body: dict[str, Any]

    def encoded(self) -> bytes:
        return encode_doc(request_doc(**self.body))

    def task(self):
        """The ``ExperimentTask`` the server builds from this request."""
        return parse_request(self.encoded()).to_task()


def _shuffled(requests: list[Request], seed: int, cycle: int) -> list[Request]:
    random.Random(f"perfbench/order/{seed}/{cycle}").shuffle(requests)
    return requests


def cold_map_cycle(seed: int, cycle: int) -> list[Request]:
    """8 suite workloads x the three mapped versions, one fresh salt."""
    config = config_fingerprint(salted_config(seed, cycle))
    return _shuffled(
        [
            Request(cycle, f"{w}/{v}", {"workload": w, "version": v, "config": config})
            for w in SUITE
            for v in MAP_VERSIONS
        ],
        seed,
        cycle,
    )


def cold_policy_cycle(seed: int, cycle: int) -> list[Request]:
    """3 generated scenarios x 3 per-level policy variants, one fresh salt."""
    base = salted_config(seed, cycle)
    requests = []
    for scenario in SCENARIOS:
        for name, levels in POLICIES:
            config = base.with_policies(*levels) if levels else base
            requests.append(
                Request(
                    cycle,
                    f"{scenario}/{name}",
                    {"scenario": scenario, "config": config_fingerprint(config)},
                )
            )
    return _shuffled(requests, seed, cycle)


def sweep_spec() -> CampaignSpec:
    """8 workloads x 4 versions x {default, write-back + prefetch 2}."""
    return campaign_from_dict(
        {
            "record": "repro-campaign",
            "spec_version": 1,
            "name": "perfbench-sweep",
            "scale": SCALE,
            "axes": {
                "scenarios": list(SUITE),
                "versions": list(SWEEP_VERSIONS),
                "configs": [dict(c) for c in SWEEP_CONFIGS],
            },
            "baseline": {"axis": "version", "value": "original"},
            "collectors": ["hit-rates", "latency", "footprint"],
        }
    )


def result_digest(result_doc: dict[str, Any]) -> str:
    """SHA-256 of a response ``result`` minus the host-timed field."""
    doc = {k: v for k, v in result_doc.items() if k != "mapping_time_s"}
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def pin_label(config_name: str, workload: str, version: str) -> str:
    return f"{config_name}/{workload}/{version}"


def load_pins() -> dict[str, str]:
    """``{config/workload/version: result digest}`` for every suite cell."""
    doc = json.loads(DIGESTS_PATH.read_text())
    if doc.get("scale") != SCALE:
        raise ValueError(f"{DIGESTS_PATH.name} pins scale {doc.get('scale')}, not {SCALE}")
    return dict(doc["digests"])
