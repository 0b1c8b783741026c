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

The definition scan resolves a member by class where the receiver's
class is known: ``self``/``cls`` in a method, a class name, a
parameter annotated with a class, or a name assigned a constructor
call.  ``x.m`` then counts for the ``m`` that ``x``'s class or its
nearest base defines, and a method is only ever reached through an
attribute or a string, never by a bare name.  Any other attribute falls
back to the bare name, and the parameter scan matches by bare name
only, so both find dead code, they do not prove liveness.  Dunder
methods other than ``__init__`` are called by the language and are
skipped.

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
    "core/graph.py:AffinityGraph.neighbours":
        "checker for the affinity-graph tests: the nodes that share a chunk",
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
    "polyhedral/references.py:ArrayRef.identity":
        "the uniform reference A[i0+o0, ...]; the array and reference tests build references with it",
    "exec/keys.py:ExperimentKey.from_dict":
        "inverse of as_dict: the key round-trip test checks the dict form carries every field",
    "serve/client.py:ServeClient.batch":
        "the client of the server's batch endpoint; the pool and router tests drive that endpoint with it",
    "trace/diff.py:TraceDiff.is_empty":
        "checker for the trace-diff tests",
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


def _class_index(definitions):
    """Class name -> (names its body defines, its base names)."""
    index = {}
    for *_, node, _ in definitions:
        if isinstance(node, ast.ClassDef):
            members, bases = index.setdefault(node.name, (set(), []))
            members.update(
                c.name
                for c in node.body
                if isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            )
            bases += [_NAME_OF[type(b)](b) for b in node.bases if type(b) in _NAME_OF]
    return index


def _owner(index, cls, attr):
    """The class that defines ``attr`` for an instance of ``cls``: ``cls``
    or its nearest base, or None when no known class does."""
    todo, seen = [cls], set()
    while todo:
        c = todo.pop(0)
        if c in index and c not in seen:
            seen.add(c)
            members, bases = index[c]
            if attr in members:
                return c
            todo += bases
    return None


def _class_of(annotation, index):
    """The class an annotation names: ``C``, ``mod.C``, ``"C"``,
    ``C | None``, ``Optional[C]``."""
    node = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp):
        return _class_of(node.left, index) or _class_of(node.right, index)
    if isinstance(node, ast.Subscript):
        return _class_of(node.slice, index)
    name = _NAME_OF[type(node)](node) if type(node) in (ast.Name, ast.Attribute) else None
    return name if name in index else None


def _receivers(func, cls, index):
    """Local names of ``func`` whose class is known: ``self``/``cls`` of
    a method, parameters annotated with a class, and names assigned a
    constructor call."""
    args = func.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    env = {a.arg: c for a in params if (c := _class_of(a.annotation, index))}
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list
    )
    if cls is not None and params and not static:
        env[params[0].arg] = cls.name
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            c = _class_of(node.value.func, index)
            for target in node.targets:
                if c and isinstance(target, ast.Name):
                    env[target.id] = c
    return env


def _scan():
    """Definitions in ``src/repro``, every use of their names (bare, or
    ``(class, member)`` where resolved), and every call by callee name."""
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
    index = _class_index(definitions)
    uses, calls = {}, {}

    def visit(node, path, skip, env, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, skip, env, child)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, skip, {**env, **_receivers(child, cls, index)}, None)
                continue
            name_of = _NAME_OF.get(type(child))
            if name_of is not None and id(child) not in skip:
                name = name_of(child)
                if name in names:
                    site = (path, getattr(child, "lineno", 0))
                    value = getattr(child, "value", None)
                    receiver = None
                    if isinstance(child, ast.Attribute) and isinstance(value, ast.Name):
                        receiver = env.get(value.id, value.id if value.id in index else None)
                    owner = receiver and _owner(index, receiver, name)
                    key = (owner, name) if owner else name
                    uses.setdefault(key, []).append((*site, type(child)))
            visit(child, path, skip, env, cls)

    for path, tree in trees:
        skip = _declarations(tree, path.name == "__init__.py")
        visit(tree, path, skip, {}, None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and type(node.func) in _NAME_OF:
                calls.setdefault(_NAME_OF[type(node.func)](node.func), []).append(node)
            elif isinstance(node, ast.ClassDef):
                for call in filter(_is_super_init, ast.walk(node)):
                    for base in node.bases:
                        if type(base) in _NAME_OF:
                            calls.setdefault(_NAME_OF[type(base)](base), []).append(call)
    return definitions, index, uses, calls


DEFINITIONS, INDEX, USES, CALLS = _scan()


def _ancestors(cls):
    """``cls`` and every base class it reaches in ``src/repro``."""
    todo, seen = [cls], []
    while todo:
        c = todo.pop(0)
        if c in INDEX and c not in seen:
            seen.append(c)
            todo += INDEX[c][1]
    return seen


def _uncalled():
    out = []
    for rel, path, qualname, node, cls in DEFINITIONS:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        sites = USES.get(name, [])
        if cls is not None and not isinstance(node, ast.ClassDef):
            # A method is reached through an attribute: a resolved one on
            # its class or a base it overrides, or an unresolved one.
            sites = [s for s in sites if s[2] is not ast.Name] + [
                s for c in _ancestors(cls.name) for s in USES.get((c, name), ())
            ]
        if not any(
            not (where == path and node.lineno <= line <= node.end_lineno)
            for where, line, _ in sites
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
