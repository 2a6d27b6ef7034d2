"""The README's `circle-lab` commands parse with the CLI parser, and its
subcommand list names the registered commands in order.

Run as a script, this module prints each README command line (pipes kept)
so a shell can run them at their stated sizes:

    python tests/test_readme.py > readme.sh && bash -e -o pipefail readme.sh
"""

import re
import shlex
from pathlib import Path

import pytest

from circle_lab.cli import _COMMANDS, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands(text: str) -> list[str]:
    """Every README line that starts with `circle-lab`, with backslash
    continuations joined and trailing comments dropped."""
    joined = re.sub(r"\\\n\s*", "", text)
    return [
        re.sub(r"\s+#.*", "", line)
        for line in joined.splitlines()
        if line.startswith("circle-lab ")
    ]


COMMANDS = readme_commands(README.read_text())


def test_readme_has_commands():
    assert len(COMMANDS) >= 15
    assert any(" | " in line for line in COMMANDS)


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    for stage in line.split("|"):
        argv = shlex.split(stage)
        assert argv[0] == "circle-lab"
        args = build_parser().parse_args(argv[1:])
        assert args.command in _COMMANDS


def test_readme_lists_every_subcommand():
    listed = re.search(r"Subcommands: (.*?)\.\n", README.read_text(), re.S).group(1)
    assert re.findall(r"`([a-z0-9-]+)`", listed) == list(_COMMANDS)


if __name__ == "__main__":
    print("\n".join(COMMANDS))
