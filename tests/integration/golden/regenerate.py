"""Regenerate the pinned CLI surface.

Usage::

    PYTHONPATH=src python tests/integration/golden/regenerate.py

Walks every leaf command of ``repro`` and writes its options to
``tests/integration/golden/cli_surface.json``.  Run this only after an
intentional CLI change, and say so in the commit: a change here is a
change to the user-facing surface.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[3]))

from tests.integration.golden import CLI_SURFACE_PATH, cli_surface  # noqa: E402


def main() -> int:
    commands = cli_surface()
    # One line per option, so a diff names exactly the options that moved.
    blocks = []
    for name in sorted(commands):
        lines = ",\n".join(
            "      " + json.dumps(opt, sort_keys=True) for opt in commands[name]
        )
        blocks.append(f"    {json.dumps(name)}: [\n{lines}\n    ]")
    body = ",\n".join(blocks)
    with open(CLI_SURFACE_PATH, "w", encoding="utf-8") as f:
        f.write(
            '{\n  "record": "repro-cli-surface",\n'
            f'  "commands": {{\n{body}\n  }}\n}}\n'
        )
    options = sum(len(opts) for opts in commands.values())
    print(f"wrote {CLI_SURFACE_PATH} ({len(commands)} commands, {options} options)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
