"""Module layout of the varjet package, checked on its source with `ast`.

Every import sits at module level, and no module imports an underscore-
prefixed (private) name from a sibling module: a helper that two modules
need is public in one of them.  Only `metric` inverts a metric row or
takes its determinant: everything else reads g^-1 and rho from its
MetricJet, and rational matrices go through `linalg`.  Only `metric` and
`varcore` import numpy, for their float checks.  Only
`fwd.Jet` defines `deriv`: a function's partials are read from its Jet, and
a total derivative of a partial is `jets.contract(G, stencil, *ids)`.
`varcore.pipeline` has one signature, and no class binds an order offset
(a name ending in `_cap`).  Only `jets` and `poly` evaluate a derivative
of a polynomial: the jet of a polynomial field is `jets.jet_of_section`.
"""

import ast
import inspect
from pathlib import Path

import varjet
from varjet import varcore

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


def matrix_calls(source: str, name: str) -> list[str]:
    """Calls of `mat_inverse` or `mat_det`, by bare name or as an attribute."""
    faults = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Call):
            f = node.func
            callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if callee in ("mat_inverse", "mat_det"):
                faults.append(f"{name}:{node.lineno} calls {callee}")
    return faults


def numpy_imports(source: str, name: str) -> list[str]:
    """Imports of numpy or of a numpy submodule, in either form."""
    faults = []
    for node in ast.walk(ast.parse(source, filename=name)):
        mods = ([a.name for a in node.names] if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        faults += [f"{name}:{node.lineno} imports {m}" for m in mods
                   if m.split(".")[0] == "numpy"]
    return faults


def deriv_methods(source: str, name: str) -> list[str]:
    """Classes that define a `deriv` method."""
    return [f"{name}:{node.name}" for node in ast.walk(ast.parse(source, filename=name))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(f, ast.FunctionDef) and f.name == "deriv" for f in node.body)]


def evals_of_diffs(source: str, name: str) -> list[str]:
    """Calls of `.eval(...)` on the result of a `.diff(...)` call."""
    return [f"{name}:{node.lineno} evaluates a derivative"
            for node in ast.walk(ast.parse(source, filename=name))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "eval" and isinstance(node.func.value, ast.Call)
            and getattr(node.func.value.func, "attr", None) == "diff"]


def cap_bindings(source: str, name: str) -> list[str]:
    """Classes that bind a name ending in `_cap` (an order offset): as a
    class attribute, a method, a local or on an instance."""
    found = []
    for cls in ast.walk(ast.parse(source, filename=name)):
        if isinstance(cls, ast.ClassDef) and any(
                isinstance(node, ast.FunctionDef) and node.name.endswith("_cap")
                or isinstance(getattr(node, "ctx", None), ast.Store)
                and (getattr(node, "id", None) or getattr(node, "attr", "")).endswith("_cap")
                for node in ast.walk(cls)):
            found.append(f"{name}:{cls.name}")
    return found


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


def test_only_metric_inverts_or_takes_determinants():
    faults = [f for p in SOURCES if p.name != "metric.py"
              for f in matrix_calls(p.read_text(), p.name)]
    assert faults == []


def test_matrix_call_guard_flags_both_forms():
    src = ("from .metric import mat_det\n"
           "d = mat_det(m)\n"
           "inv = metric.mat_inverse(m)\n")
    assert matrix_calls(src, "m.py") == ["m.py:2 calls mat_det",
                                         "m.py:3 calls mat_inverse"]


def test_only_metric_and_varcore_import_numpy():
    faults = [f for p in SOURCES if p.name not in ("metric.py", "varcore.py")
              for f in numpy_imports(p.read_text(), p.name)]
    assert faults == []


def test_numpy_guard_flags_both_forms():
    src = ("import numpy as np\n"
           "from numpy.linalg import det\n"
           "import numbers\n"
           "from . import linalg\n")
    assert numpy_imports(src, "m.py") == ["m.py:1 imports numpy",
                                          "m.py:2 imports numpy.linalg"]


def test_only_jet_defines_deriv():
    found = [f for p in SOURCES for f in deriv_methods(p.read_text(), p.name)]
    assert found == ["fwd.py:Jet"]


def test_deriv_guard_flags_a_class_method_only():
    src = ("class _Partials:\n"
           "    def deriv(self, *vars):\n"
           "        return 0\n"
           "def deriv(f):\n"
           "    return f\n")
    assert deriv_methods(src, "m.py") == ["m.py:_Partials"]


def test_only_jets_and_poly_evaluate_polynomial_derivatives():
    faults = [f for p in SOURCES if p.name not in ("jets.py", "poly.py")
              for f in evals_of_diffs(p.read_text(), p.name)]
    assert faults == []


def test_derivative_evaluation_guard_flags_a_chained_call_only():
    src = ("a = p.diff(0).eval(x)\n"
           "b = p.diff(0).diff(1).eval(x)\n"
           "d = p.diff(0)\n"
           "c = d.eval(x) + p.eval(x) + diff(p).eval(x)\n")
    assert evals_of_diffs(src, "m.py") == ["m.py:1 evaluates a derivative",
                                           "m.py:2 evaluates a derivative"]


def test_pipeline_has_one_signature_and_no_supplier_order_offset():
    """`pipeline` takes no switch for the layers it forms, and no class
    declares an order offset: every supplier returns its tables at the
    order of its arguments."""
    params = inspect.signature(varcore.pipeline).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        ("supplier", inspect.Parameter.empty), ("q", inspect.Parameter.empty), ("cap", 1)]
    assert [f for p in SOURCES for f in cap_bindings(p.read_text(), p.name)] == []


def test_cap_guard_flags_every_binding():
    src = ("class A:\n"
           "    seed_cap = 1\n"
           "class B:\n"
           "    def __init__(self):\n"
           "        self.top_cap = 0\n"
           "class C:\n"
           "    def order_cap(self):\n"
           "        return 0\n"
           "class D:\n"
           "    def f(self, s, cap):\n"
           "        return s.top_cap + cap\n")
    assert cap_bindings(src, "m.py") == ["m.py:A", "m.py:B", "m.py:C"]
