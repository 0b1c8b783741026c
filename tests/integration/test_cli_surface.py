"""The CLI surface is pinned: every leaf command, every option.

``tests/integration/golden/cli_surface.json`` records each option's
strings, dest, default, type, choices, nargs, required flag, metavar
and help for all leaf commands.  A refactor of how the parser is built
must leave this structure unchanged; a deliberate CLI change
regenerates the golden (see ``tests/integration/golden``).
"""

import pytest

from tests.integration.golden import cli_surface, load_cli_surface

PINNED = load_cli_surface()
SURFACE = cli_surface()


def test_same_commands():
    assert sorted(SURFACE) == sorted(PINNED)


@pytest.mark.parametrize("command", sorted(PINNED))
def test_command_options_match_golden(command):
    assert SURFACE.get(command) == PINNED[command], command
