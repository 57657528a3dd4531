"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks():
    """The ```python blocks of the README's "Library use" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_use_examples_run(capsys):
    blocks = library_use_blocks()
    assert len(blocks) == 2
    namespace = {}  # shared, as in one session: the second block reuses imports
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    cell, sweep = capsys.readouterr().out.splitlines()
    assert cell.startswith("cayley ")  # as the text after the first block says
    assert sweep.startswith("[")
