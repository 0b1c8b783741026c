"""Every definition in ``src/repro`` has a caller outside the tests.

An AST scan: each ``def``/``class`` in ``src/repro`` must be used as an
identifier somewhere in ``src/``, ``benchmarks/``, ``perfbench/`` or
``examples/``, outside its own definition.  A use is a name, an
attribute, an import outside a package ``__init__``, or a string equal
to the name (the ``ENDPOINTS`` handler tables dispatch by name, and a
module's own ``__all__`` declares its public functions).  A package
``__init__`` re-export — its imports and its ``__all__`` — does not
count, and neither do the tests.

The scan matches by bare name, so a method shares its uses with every
other definition of that name; it finds dead code, it does not prove
liveness.  Dunder methods are called by the language and are skipped.

``KEEP`` lists the definitions that only tests call on purpose: each
serves other tests as an oracle, a checker or the paper's notation.
"""

import ast
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
CALLER_TREES = ("src", "benchmarks", "perfbench", "examples")

#: Test-only definitions kept on purpose, each with its reason.
KEEP = {
    "hierarchy/cache.py:ChunkCache.resident_chunks":
        "feeds the machine digest of the simulator goldens",
    "util/bitset.py:Tag.from_bitstring":
        "the paper writes tags as bit strings; the Tag.dot tests build tags with it",
    "util/bitset.py:Tag.to_vector":
        "oracle for the chunk-incidence tests",
    "polyhedral/transforms.py:permute_iterations":
        "oracle for the Intra-processor differential",
    "polyhedral/transforms.py:tile_iterations":
        "oracle for the Intra-processor differential",
    "polyhedral/iterspace.py:IterationSpace.from_extents":
        "builds the iteration spaces of the differentials",
    "polyhedral/references.py:ArrayRef.from_matrix":
        "the paper's access-matrix form R(i) = Q·i + q; tests build references with it",
    "core/chunking.py:IterationChunkSet.validate_partition":
        "checker: the chunks partition the nest's iterations",
    "core/clustering.py:DistributionResult.validate_partition":
        "checker: the distribution partitions the iteration chunks",
    "telemetry/registry.py:Histogram.bucket_counts":
        "checker for the histogram tests",
    "trace/recorder.py:MemoryRecorder.hit_level_counts":
        "checker for the recorded-trace tests",
    "trace/recorder.py:MemoryRecorder.of_kind":
        "checker for the recorded-trace tests",
    "storage/striping.py:StripingLayout.chunks_on_node":
        "checker for the striping tests",
    "experiments/report.py:ExperimentReport.row_dict":
        "checker for the report tests",
    "core/graph.py:AffinityGraph.is_complete":
        "checker for the paper-example affinity graph",
    "hierarchy/stats.py:CacheStats.capacity_misses":
        "checker for the cache-statistics tests",
    "polyhedral/nest.py:LoopNest.arrays_referenced":
        "checker for the workload tests",
}


def _definitions(path, tree):
    """``(qualname, name, first line, last line)`` of every def/class."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append(
                    (prefix + child.name, child.name, child.lineno, child.end_lineno)
                )
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _reexports(tree):
    """Node ids of a package ``__init__``'s imports and ``__all__`` list."""
    skip = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.add(id(node))
            skip.update(id(alias) for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skip.update(id(n) for n in ast.walk(node.value))
    return skip


_NAME_OF = {
    ast.Name: lambda node: node.id,
    ast.Attribute: lambda node: node.attr,
    ast.alias: lambda node: node.name.rsplit(".", 1)[-1],
    ast.Constant: lambda node: node.value if isinstance(node.value, str) else None,
}


def _scan():
    """Definitions in ``src/repro`` and every use of their names."""
    src = REPO / "src" / "repro"
    trees = [
        (path, ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for tree_name in CALLER_TREES
        for path in sorted((REPO / tree_name).rglob("*.py"))
    ]
    definitions = [
        (path.relative_to(src).as_posix(), *d)
        for path, tree in trees
        if src in path.parents
        for d in _definitions(path, tree)
    ]
    names = {d[2] for d in definitions}
    uses = {}
    for path, tree in trees:
        skip = _reexports(tree) if path.name == "__init__.py" else ()
        for node in ast.walk(tree):
            name_of = _NAME_OF.get(type(node))
            if name_of is None or id(node) in skip:
                continue
            name = name_of(node)
            if name in names:
                uses.setdefault(name, []).append((path, getattr(node, "lineno", 0)))
    return definitions, uses


DEFINITIONS, USES = _scan()


def _uncalled():
    out = []
    for rel, qualname, name, first, last in DEFINITIONS:
        if name.startswith("__") and name.endswith("__"):
            continue
        own = REPO / "src" / "repro" / rel
        if not any(
            not (path == own and first <= line <= last)
            for path, line in USES.get(name, ())
        ):
            out.append(f"{rel}:{qualname}")
    return out


def test_every_definition_has_a_caller_outside_the_tests():
    uncalled = [key for key in _uncalled() if key not in KEEP]
    assert not uncalled, (
        "only tests call these; delete them (and their subject tests) "
        f"or add them to KEEP with a reason: {uncalled}"
    )


@pytest.mark.parametrize("key", sorted(KEEP))
def test_kept_definition_still_exists(key):
    assert key in {f"{rel}:{qualname}" for rel, qualname, *_ in DEFINITIONS}, key
