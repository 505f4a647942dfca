"""The `$ ratclass ...` examples in README.md, run through cli.main.

Each command line in a fenced block is followed by the output it
prints, up to the next command or a blank line; the output must match
byte for byte.
"""

import pathlib
import shlex

import pytest

from ratclass.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(argv, expected stdout) for each `$ ratclass` line in a block."""
    out = []
    fenced = False
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
            current = None
            continue
        if not fenced:
            continue
        if line.startswith("$ ratclass "):
            current = [shlex.split(line[len("$ ratclass "):]), []]
            out.append(current)
        elif not line.strip():
            current = None
        elif current is not None:
            current[1].append(line + "\n")
    return [(argv, "".join(lines)) for argv, lines in out]


EXAMPLES = readme_examples()


def test_readme_has_every_subcommand():
    assert {argv[0] for argv, _ in EXAMPLES} == {
        "classify", "ramify", "equiv", "orbits", "verify", "canon"}


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example(capsys, argv, expected):
    code = main(argv)
    out = capsys.readouterr().out
    assert out == expected
    assert code == 0
