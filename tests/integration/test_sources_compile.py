"""Every Python source under ``src/`` and ``benchmarks/`` compiles.

Most benchmark scripts are run, not imported, by the test suite, so a
syntax error in one would otherwise surface only when someone runs it.
Sources are compiled in memory: nothing is written to the tree.
"""

import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("top", ["src", "benchmarks"])
def test_every_source_compiles(top):
    paths = sorted((REPO / top).rglob("*.py"))
    assert paths
    errors = []
    for path in paths:
        try:
            compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)
        except SyntaxError as exc:
            errors.append(f"{path.relative_to(REPO)}:{exc.lineno}: {exc.msg}")
    assert errors == []
