"""Module layout of the varjet package, checked on its source with `ast`.

Every import sits at module level, and no module imports an underscore-
prefixed (private) name from a sibling module: a helper that two modules
need is public in one of them.
"""

import ast
from pathlib import Path

import varjet

SOURCES = sorted(Path(varjet.__file__).parent.glob("*.py"))


def layout_faults(source: str, name: str) -> list[str]:
    tree = ast.parse(source, filename=name)
    faults = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    faults.append(f"{name}:{node.lineno} imports inside {func.name}()")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "varjet"):
            faults += [f"{name}:{node.lineno} imports the private name {alias.name}"
                       for alias in node.names if alias.name.startswith("_")]
    return faults


def test_no_function_level_or_private_sibling_imports():
    assert {"bf.py", "einstein.py", "metric.py", "varcore.py"} <= {p.name for p in SOURCES}
    faults = [f for p in SOURCES for f in layout_faults(p.read_text(), p.name)]
    assert faults == []


def test_layout_guard_flags_both_faults():
    src = ("from .metric import _dginv\n"
           "from varjet.jets import delta\n"
           "def f():\n"
           "    from .varcore import TableAffineSupplier\n")
    assert layout_faults(src, "m.py") == ["m.py:4 imports inside f()",
                                          "m.py:1 imports the private name _dginv"]
