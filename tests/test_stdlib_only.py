"""The package runs on the standard library alone and computes exactly: every
absolute import names a standard-library module (or `__future__`), and no
float enters, neither as a literal nor through `float(...)`.  Its modules
also keep each other's private names private: no relative import names an
`_`-prefixed name.  Every name the package exports resolves."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import ridertypes

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ridertypes"
ALLOWED = set(sys.stdlib_module_names) | {"__future__"}


def violations(source: str) -> list[str]:
    """Line and reason for every non-stdlib import, private name imported
    from a sibling module, and float in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        found += [f"{node.lineno}: import {m}" for m in modules
                  if m.partition(".")[0] not in ALLOWED]
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [f"{node.lineno}: private {alias.name} from .{node.module or ''}"
                      for alias in node.names if alias.name.startswith("_")]
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{node.lineno}: float literal {node.value!r}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append(f"{node.lineno}: float() call")
    return found


def test_package_is_stdlib_only_and_float_free():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    found = [f"{path.name}:{v}" for path in sources for v in violations(path.read_text())]
    assert found == []


def test_violations_are_caught():
    assert violations("import numpy\n") == ["1: import numpy"]
    assert violations("from scipy.linalg import det\n") == ["1: import scipy.linalg"]
    assert violations("x = 0.5\n") == ["1: float literal 0.5"]
    assert violations("y = float(x)\n") == ["1: float() call"]
    assert violations("import os.path\nfrom .geometry import point\nfrom __future__ import "
                      "annotations\nz = 1e0 if False else 1\n") == ["4: float literal 1.0"]
    assert violations("from .signature import (\n    antipode,\n    _cone_side_patterns,\n)\n"
                      "from . import _x\nfrom re import _compile\n") == [
        "1: private _cone_side_patterns from .signature", "5: private _x from ."]


def test_every_exported_name_resolves():
    missing = [name for name in ridertypes.__all__ if not hasattr(ridertypes, name)]
    assert missing == []
    assert len(set(ridertypes.__all__)) == len(ridertypes.__all__)
