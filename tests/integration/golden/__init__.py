"""CLI surface golden: every leaf command's options, pinned as data.

For each leaf command of ``repro`` (``table2``, ``trace record``, ...)
the golden lists every argument the parser accepts, inherited ones
included, one JSON line each, with the attributes a user can observe:
option strings, dest, default, type name, choices, nargs, required,
metavar and help.  The structure is compared rather than ``--help``
text, because argparse formats help differently across Python versions.

Regenerate with ``PYTHONPATH=src python tests/integration/golden/regenerate.py``
only after an *intentional* CLI change; an unintended change to a flag
is exactly what the golden exists to catch.
"""

import argparse
import json
import pathlib

CLI_SURFACE_PATH = pathlib.Path(__file__).resolve().parent / "cli_surface.json"


def _option(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "type": None if action.type is None else action.type.__name__,
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
    }


def cli_surface() -> dict:
    """``{"table2": [option, ...], "trace record": [...], ...}``.

    Positionals keep their parser order, which is part of the surface;
    options follow, sorted by their option strings, so regrouping how
    the parser declares them is not a change.
    """
    from repro.cli import _build_parser

    surface: dict = {}

    def walk(parser: argparse.ArgumentParser, path: list[str]) -> None:
        subparsers = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        if not subparsers:
            actions = sorted(
                (a for a in parser._actions if not isinstance(a, argparse._HelpAction)),
                key=lambda a: (bool(a.option_strings), a.option_strings),
            )
            surface[" ".join(path)] = [_option(a) for a in actions]
        for action in subparsers:
            for name, sub in action.choices.items():
                walk(sub, path + [name])

    walk(_build_parser(), [])
    return surface


def load_cli_surface() -> dict:
    with open(CLI_SURFACE_PATH, encoding="utf-8") as f:
        return json.load(f)["commands"]
