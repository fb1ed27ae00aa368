"""Every ``fdpctl`` command in the README's sh blocks parses.

The commands are only parsed, not run: a flag deleted from the parser but
left in the README fails here, in the tier-1 run.
"""

import re
import shlex
from pathlib import Path

import pytest

from fdpctl import cli

ROOT = Path(__file__).resolve().parents[1]


def readme_commands() -> list:
    """The argv of each README sh line that starts with ``fdpctl``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.split()[:1] == ["fdpctl"]:
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_has_commands():
    assert len(readme_commands()) >= 1


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    cli._build_parser().parse_args(argv)

