"""The README's Python examples run as written, so an API change shows here."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
# (first line number, source) of each ```python block
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"line{n}" for n, _ in BLOCKS])
def test_readme_python_block_runs(line, source):
    # pad with blank lines so a traceback names the README's own line numbers
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {})
