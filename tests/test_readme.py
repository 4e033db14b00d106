"""The README's CLI examples print exactly what the README shows."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from cableslopes.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _cli_examples():
    """(argv, expected stdout) for each example in the README's CLI
    block and in every other code block that starts with a command."""
    text = README.read_text(encoding="utf-8")
    assert re.search(r"^## CLI\n\n```\ncableslopes ", text, re.M)
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", text, re.S | re.M):
        if not block.startswith("cableslopes "):
            continue
        for para in block.strip().split("\n\n"):
            command, *output = para.split("\n")
            argv = shlex.split(command)
            assert argv[0] == "cableslopes"
            examples.append((argv[1:],
                             "".join(line + "\n" for line in output)))
    return examples


EXAMPLES = _cli_examples()


def test_block_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[" ".join(a) for a, _ in EXAMPLES])
def test_example_output(argv, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert out.getvalue() == expected
