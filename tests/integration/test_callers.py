"""Every definition and every optional parameter in ``src/repro`` has a
caller outside the tests.

Two AST scans over ``src/``, ``benchmarks/``, ``perfbench/`` and
``examples/`` (the tests never count):

* Each ``def``/``class`` in ``src/repro`` must be used as an identifier
  outside its own definition.  A use is a name, an attribute, an import
  outside a package ``__init__``, or a string equal to the name (the
  ``ENDPOINTS`` handler tables dispatch by name).  A module's
  ``__all__`` declares a name, it does not use it, and a package
  ``__init__``'s imports only re-export; neither counts.
* Each defaulted parameter of a function or method in ``src/repro``
  must be passed by some call of that name (the class name for
  ``__init__``; ``super().__init__`` calls the bases): by keyword, by
  ``**``, or by passing that many positional arguments.

Both scans match by bare name, so a method shares its uses with every
other definition of that name; they find dead code, they do not prove
liveness.  Dunder methods other than ``__init__`` are called by the
language and are skipped.

``KEEP`` lists the definitions and ``KEEP_PARAMS`` the parameters that
only tests use on purpose, each with its reason: an oracle, a checker,
the paper's notation, or a seam through which tests inject a fake or a
fault.
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
    "polyhedral/codegen.py:enumerate_bands":
        "oracle: parsing the emitted loop bands back must recover every iteration",
    "trace/export.py:read_events_jsonl":
        "oracle: reads the `--events` file the CLI trace tests check",
    "scenario/traces.py:export_trace_csv":
        "writes the CSV traces the trace-loader and trace-scenario tests read",
    "scenario/traces.py:export_trace_jsonl":
        "writes the JSONL traces the trace-loader and trace-scenario tests read",
}

#: Optional parameters only tests pass on purpose, each with its reason.
KEEP_PARAMS = {
    "core/baselines.py:IntraProcessorMapper.__init__(tile_candidates)":
        "the Intra differential draws tile sets against the scalar reference",
    "core/clustering.py:flat_distribution(balance_threshold)":
        "benchmarks/bench_ablation.py passes it positionally through a function argument",
    "exec/executor.py:ExperimentExecutor.__init__(task_timeout_s)":
        "safety code: the timeout tests arm a tiny timeout to reach the timeout path",
    "exec/executor.py:ExperimentExecutor.__init__(retries)":
        "fault tests bound the retries a crashing task gets",
    "exec/executor.py:ExperimentExecutor.__init__(backoff_s)":
        "safety code: fault tests retry without sleeping",
    "exec/executor.py:ExperimentExecutor.__init__(mp_context)":
        "fault tests inject an unusable start method and pin `fork` for worker kills",
    "exec/progress.py:ProgressReporter.__init__(stream)":
        "tests substitute a fake stream for stderr",
    "exec/progress.py:ProgressReporter.__init__(min_interval_s)":
        "tests substitute a zero interval for the throttle",
    "util/log.py:configure_logging(stream)":
        "tests substitute a fake stream for stderr",
    "hierarchy/topology.py:uniform_hierarchy(policy)":
        "the policy differential draws one replacement policy per level",
    "polyhedral/references.py:ArrayRef.from_matrix(is_write)":
        "the paper's access-matrix form; the dependence tests build writes with it",
    "polyhedral/references.py:ArrayRef.identity(offsets)":
        "the uniform reference A[i0+o0, ...]; the reference tests build shifted ones",
    "shard/ring.py:HashRing.__init__(vnodes)":
        "the ring tests show more virtual nodes tighten the load spread",
    "trace/replay.py:record(sync_counts)":
        "the artifact format carries sync counts; the round-trip test records a synchronised run",
    "trace/replay.py:replay(hierarchy)":
        "the engine-equivalence differential replays one artifact on drawn hierarchies",
    "trace/replay.py:replay(filesystem)":
        "the engine-equivalence differential replays one artifact on drawn filesystems",
    "trace/replay.py:replay(engine)":
        "the engine-equivalence differential replays one artifact on both engines",
}


def _definitions(tree):
    """``(qualname, node, enclosing class)`` of every def/class."""
    found = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + child.name, child, cls))
                inner = child if isinstance(child, ast.ClassDef) else None
                visit(child, prefix + child.name + ".", inner)
            else:
                visit(child, prefix, cls)

    visit(tree, "", None)
    return found


def _declarations(tree, package_init):
    """Node ids of a module's ``__all__`` list, plus a package
    ``__init__``'s imports: they declare and re-export, they do not use."""
    skip = set()
    for node in tree.body:
        if package_init and isinstance(node, (ast.Import, ast.ImportFrom)):
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


def _is_super_init(node):
    """``super().__init__(...)``: a call of the enclosing class's bases."""
    func = getattr(node, "func", None)
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
    )


def _scan():
    """Definitions in ``src/repro``, every use of their names, and every
    call by callee name."""
    src = REPO / "src" / "repro"
    trees = [
        (path, ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for tree_name in CALLER_TREES
        for path in sorted((REPO / tree_name).rglob("*.py"))
    ]
    definitions = [
        (path.relative_to(src).as_posix(), path, *d)
        for path, tree in trees
        if src in path.parents
        for d in _definitions(tree)
    ]
    names = {d[3].name for d in definitions}
    uses, calls = {}, {}
    for path, tree in trees:
        skip = _declarations(tree, path.name == "__init__.py")
        for node in ast.walk(tree):
            name_of = _NAME_OF.get(type(node))
            if name_of is not None and id(node) not in skip:
                name = name_of(node)
                if name in names:
                    uses.setdefault(name, []).append((path, getattr(node, "lineno", 0)))
            if isinstance(node, ast.Call) and type(node.func) in _NAME_OF:
                calls.setdefault(_NAME_OF[type(node.func)](node.func), []).append(node)
            elif isinstance(node, ast.ClassDef):
                for call in filter(_is_super_init, ast.walk(node)):
                    for base in node.bases:
                        if type(base) in _NAME_OF:
                            calls.setdefault(_NAME_OF[type(base)](base), []).append(call)
    return definitions, uses, calls


DEFINITIONS, USES, CALLS = _scan()


def _uncalled():
    out = []
    for rel, path, qualname, node, _ in DEFINITIONS:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(
            not (where == path and node.lineno <= line <= node.end_lineno)
            for where, line in USES.get(name, ())
        ):
            out.append(f"{rel}:{qualname}")
    return out


def _defaulted(node, cls):
    """``(name, positional slot or None)`` of a function's defaulted
    parameters; the slot counts call arguments, so a bound method's
    ``self``/``cls`` takes none."""
    args = node.args
    positional = args.posonlyargs + args.args
    bound = cls is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
    )
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passed(call, name, slot):
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if slot is None:
        return False
    return len(call.args) > slot or any(isinstance(a, ast.Starred) for a in call.args)


def _unpassed():
    out = []
    for rel, _, qualname, node, cls in DEFINITIONS:
        if isinstance(node, ast.ClassDef):
            continue
        if node.name == "__init__":
            callee = cls.name if cls is not None else None
        elif node.name.startswith("__") and node.name.endswith("__"):
            continue
        else:
            callee = node.name
        for name, slot in _defaulted(node, cls):
            if not any(_passed(c, name, slot) for c in CALLS.get(callee, ())):
                out.append(f"{rel}:{qualname}({name})")
    return out


def test_every_definition_has_a_caller_outside_the_tests():
    uncalled = [key for key in _uncalled() if key not in KEEP]
    assert not uncalled, (
        "only tests call these; delete them (and their subject tests) "
        f"or add them to KEEP with a reason: {uncalled}"
    )


def test_every_optional_parameter_is_passed_outside_the_tests():
    unpassed = [key for key in _unpassed() if key not in KEEP_PARAMS]
    assert not unpassed, (
        "no caller outside the tests passes these; fold each into its "
        f"default or add it to KEEP_PARAMS with a reason: {unpassed}"
    )


@pytest.mark.parametrize("key", sorted(KEEP))
def test_kept_definition_still_exists(key):
    assert key in {f"{rel}:{qualname}" for rel, _, qualname, *_ in DEFINITIONS}, key


@pytest.mark.parametrize("key", sorted(KEEP_PARAMS))
def test_kept_parameter_still_exists(key):
    params = {
        f"{rel}:{qualname}({name})"
        for rel, _, qualname, node, cls in DEFINITIONS
        if not isinstance(node, ast.ClassDef)
        for name, _ in _defaulted(node, cls)
    }
    assert key in params, key
