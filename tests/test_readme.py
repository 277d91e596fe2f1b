"""README stays true to the code: its Library snippet runs as written, and
every verdict check is documented where readers look for it."""

import re
from pathlib import Path

from localcert import verifier

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs():
    (snippet,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    exec(compile(snippet, str(README), "exec"), {"__name__": "readme_snippet"})


def test_every_check_is_documented():
    """Each CHECK_* name has a row in the verifier docstring's check list and
    appears in both verdict formats, the docstring's and README's."""
    checks = {value for name, value in vars(verifier).items() if name.startswith("CHECK_")}
    doc = verifier.__doc__
    rows = set(re.findall(r"^  (\w+) ", doc, re.M))
    (doc_format,) = re.findall(r"Verdict report\s+format:\n(.*)", doc, re.S)
    (readme_format,) = re.findall(r"^- verdict \(.*?(?=^- |\Z)", README.read_text(), re.S | re.M)
    assert checks == rows
    for check in checks:
        assert re.search(rf"\b{check}\b", doc_format), check
        assert f"`{check}`" in readme_format, check
