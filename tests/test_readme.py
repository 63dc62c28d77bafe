"""The README's quick example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_example_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Quick example:\n\n```python\n(.*?)```", text, re.S).group(1)
    # each print line ends with a '# ' comment holding the line it prints
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected == ["2 2", "True"]
