"""The package computes exactly: no float literal, float() call or float-valued math function.

Ratios, thresholds and distances are integers or Fractions; a float heap key
or threshold would order ties and near-ties by rounding.  This parses every
module of the package and names each offending node.
"""

import ast
from pathlib import Path

import pytest

import localcert

FLOAT_MATH = {"log", "log2", "log10", "sqrt", "exp", "fsum"}
MODULES = sorted(Path(localcert.__file__).parent.glob("*.py"))


def float_uses(source: str) -> list[str]:
    """Each float literal, float(...) call and call of a FLOAT_MATH function, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call):
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id == "math" else None)
            if name == "float" or name in FLOAT_MATH:
                found.append((node, f"call of {ast.unparse(f)}"))
    found.sort(key=lambda item: (item[0].lineno, item[0].col_offset))
    return [f"line {node.lineno}: {what}" for node, what in found]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_module_uses_no_floats(path):
    assert float_uses(path.read_text()) == []


def test_float_guard_names_each_use():
    source = "\n".join([
        "import math",
        "from math import log2",
        "a = 0.5",
        "b = float(3)",
        "c = math.sqrt(2) + math.fsum([1]) + log2(8)",
        "d = math.isqrt(9) + math.lcm(2, 3) + x.log(2) + 7 // 2",
    ])
    assert float_uses(source) == [
        "line 3: float literal 0.5",
        "line 4: call of float",
        "line 5: call of math.sqrt",
        "line 5: call of math.fsum",
        "line 5: call of log2",
    ]
