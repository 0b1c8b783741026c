"""End-to-end compilation: nest + hierarchy → per-client restructured code.

Mirrors what the paper's Phoenix pass emits: for every client node, the
iteration chunks assigned to it (Fig. 5), in schedule order (Fig. 15
when enabled), each enumerated by an Omega-``codegen``-style loop band
(§4.2: "generate the code that enumerates the iterations in those
chunks"), with ``wait_for(...)`` synchronisation directives inserted
before chunks that consume another client's values (§5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.emit import render_statement
from repro.core.dependences import _dependence_rank_pairs
from repro.core.mapper import InterProcessorMapper
from repro.core.mapping import Mapping
from repro.hierarchy.topology import CacheHierarchy
from repro.polyhedral.arrays import DataSpace
from repro.polyhedral.codegen import generate_bands, render_code
from repro.polyhedral.nest import LoopNest
from repro.telemetry import get_registry, phase
from repro.util.rng import make_rng

__all__ = ["CompiledProgram", "compile_nest"]


@dataclass
class CompiledProgram:
    """The compiler's output artifact."""

    nest: LoopNest
    mapping: Mapping
    #: client id -> restructured pseudo-C listing.
    client_code: dict[int, str]
    #: client id -> producer clients it synchronises with, per chunk.
    sync_directives: dict[int, list[str]] = field(default_factory=dict)
    compile_time_s: float = 0.0

    @property
    def num_clients(self) -> int:
        return len(self.client_code)

    def total_sync_directives(self) -> int:
        return sum(len(v) for v in self.sync_directives.values())

    def listing(self) -> str:
        """The whole program: every client's code, annotated."""
        parts = []
        for c in sorted(self.client_code):
            parts.append(f"// ===== client node {c} =====")
            parts.append(self.client_code[c])
        return "\n".join(parts)

    def __repr__(self) -> str:
        return (
            f"CompiledProgram(nest={self.nest.name!r}, "
            f"clients={self.num_clients}, "
            f"syncs={self.total_sync_directives()})"
        )


def _chunk_producers(
    mapping: Mapping, nest: LoopNest
) -> dict[int, dict[int, set[int]]]:
    """client -> {schedule position -> producer clients to wait for}.

    A chunk waits for every *other* client that owns a producer
    iteration of one of its iterations (uniform dependences only —
    non-uniform nests must be serialised upstream).
    """
    if mapping.distribution is None or mapping.schedule is None:
        return {}
    owner = mapping.client_of_iteration(nest.num_iterations)
    pairs = _dependence_rank_pairs(nest)
    if not pairs:
        return {}
    # rank -> producing client for each dependence (vectorised per dep).
    waits: dict[int, dict[int, set[int]]] = {}
    pool = mapping.distribution.pool
    for c, order in mapping.schedule.items():
        for pos, m in enumerate(order):
            ranks = pool[m].iterations
            need: set[int] = set()
            for src, dst in pairs:
                # dst ranks inside this chunk whose src is foreign.
                mask = np.isin(dst, ranks)
                if not mask.any():
                    continue
                foreign = owner[src[mask]]
                need.update(int(x) for x in foreign[foreign != c])
            if need:
                waits.setdefault(c, {})[pos] = need
    return waits


def compile_nest(
    nest: LoopNest,
    data_space: DataSpace,
    hierarchy: CacheHierarchy,
    mapper: InterProcessorMapper | None = None,
) -> CompiledProgram:
    """Compile one parallel nest for the given storage cache hierarchy."""
    with phase("compile") as total:
        mapper = mapper or InterProcessorMapper(schedule=True)
        mapping = mapper.map(nest, data_space, hierarchy, make_rng(0))
        mapping.validate(nest.num_iterations)

        with phase("codegen"):
            names = [b.name for b in nest.space.bounds]
            body = render_statement(nest, names)
            waits = _chunk_producers(mapping, nest)

            client_code: dict[int, str] = {}
            sync_directives: dict[int, list[str]] = {}
            assert mapping.schedule is not None and mapping.distribution is not None
            pool = mapping.distribution.pool
            for c, order in mapping.schedule.items():
                lines: list[str] = []
                directives: list[str] = []
                for pos, m in enumerate(order):
                    chunk = pool[m]
                    lines.append(
                        f"// iteration chunk {m} "
                        f"({chunk.size} iterations, chunks {list(chunk.chunk_ids)})"
                    )
                    for producer in sorted(waits.get(c, {}).get(pos, ())):
                        directive = f"wait_for(client_{producer});"
                        lines.append(directive)
                        directives.append(directive)
                    points = nest.space.delinearize(chunk.iterations)
                    bands = generate_bands(points)
                    lines.append(render_code(bands, names, body=body))
                client_code[c] = "\n".join(lines) if lines else "// (no work)"
                if directives:
                    sync_directives[c] = directives

        program = CompiledProgram(
            nest=nest,
            mapping=mapping,
            client_code=client_code,
            sync_directives=sync_directives,
        )
        get_registry().counter("compiler.sync_directives").inc(
            program.total_sync_directives()
        )
    program.compile_time_s = total.elapsed
    return program
