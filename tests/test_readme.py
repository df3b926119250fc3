"""README's Python examples run as written and print what they promise.

Each ``print`` in a Python block of README.md carries its expected
output as a comment, on its own line or on the line below. The blocks
run in order, in one namespace per block, in a directory where
``basis.json`` has been written by the command line first, as README's
basis example assumes.
"""

import contextlib
import io
import re
from pathlib import Path

from eqlines.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                      re.DOTALL | re.MULTILINE)


def _expected_prints(block):
    """The commented output of each print in the block, in order."""
    lines = block.splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        _, sep, comment = line.partition("  # ")
        if not sep:
            comment = lines[i + 1].removeprefix("# ")
        out.append(comment.strip())
    return out


def test_readme_python_examples(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--kind", "wh", "--d", "2", "--out", "system.json"]) == 0
        assert main(["groebner", "--in", "system.json", "--order", "lex",
                     "--out", "basis.json"]) == 0
    blocks = _python_blocks()
    assert len(blocks) == 3
    for block in blocks:
        expected = _expected_prints(block)
        assert expected
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(compile(block, str(README), "exec"), {})
        assert printed.getvalue().splitlines() == expected, block
