"""The README's library example runs against the current API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_commented_results():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert len(comments) == 3
    assert out.getvalue().splitlines() == comments
