"""The Python examples of README.md print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"
_PRINT = re.compile(r"^print\(.*\)\s+# (.*)$")


def test_readme_python_blocks_print_their_comments():
    """Every ```python block runs, in order and in one namespace, and the
    lines it prints are the trailing `# ...` comments of its print calls."""
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, namespace)
        expected = [m[1] for m in map(_PRINT.match, block.splitlines()) if m]
        assert expected and out.getvalue().splitlines() == expected, block
