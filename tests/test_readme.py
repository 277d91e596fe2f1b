"""README's Library snippet runs as written, so the documented API cannot drift."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs():
    (snippet,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    exec(compile(snippet, str(README), "exec"), {"__name__": "readme_snippet"})
