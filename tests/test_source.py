"""Checks over the package source itself."""

import ast
import pathlib
import re

import nanopose

SRC = pathlib.Path(nanopose.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts: invariants are raised as errors instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def raise_sites(tree, exc_name, scope=()):
    """The enclosing qualified name of every `raise exc_name(...)` in tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found += raise_sites(node, exc_name, (*scope, node.name))
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == exc_name:
                found.append(".".join(scope))
        found += raise_sites(node, exc_name, scope)
    return found


def package_raise_sites(exc_name):
    """`file:qualified name` of every function in the package raising exc_name."""
    return {f"{path.name}:{site}"
            for path in sorted(SRC.glob("*.py"))
            for site in raise_sites(ast.parse(path.read_text(), str(path)), exc_name)}


def test_requant_contract_stated_once():
    # the requant parameter rule lives in QuantizedGraph.check alone
    assert package_raise_sites("RequantParameterError") == {"quantizer.py:QuantizedGraph.check"}


def test_accumulator_range_checked_once():
    # the int32 accumulator rule lives in the one GEMM every layer runs
    assert package_raise_sites("AccumulatorOverflowError") == {"engine.py:_int_gemm"}


def test_weight_layout_stated_in_graph_only():
    # LayerSpec.weight_shape and .taps own the conv/fc weight layout; audit
    # keeps its own derivation so that a planner bug cannot hide itself
    spelled = {path.name for path in sorted(SRC.glob("*.py"))
               if ".kernel[0] *" in path.read_text() or "*l.kernel" in path.read_text()}
    assert spelled <= {"graph.py", "audit.py"}, spelled


def test_pose_rules_stated_once():
    # the standoff point (x + delta * cos(theta), ...) lives in control.py
    # and the drone/odometry frame rotation (c * x - s * y, ...) in pose.py;
    # the simulator calls them instead of inlining a faster copy
    rules = {"control.py": re.compile(r"delta \* (np\.|math\.)?(cos|sin)\("),
             "pose.py": re.compile(r"\b[cs] \* \w+ [-+] [cs] \* \w+")}
    for home, rule in rules.items():
        spelled = {path.name for path in sorted(SRC.glob("*.py")) if rule.search(path.read_text())}
        assert spelled == {home}, (rule.pattern, spelled)


def test_code_kind_stated_by_dtype_only():
    # a QTensor's dtype is its code kind and range; no module restates it
    # as a (levels, signed) pair
    found = [f"{path.name}:{n}"
             for path in sorted(SRC.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if "QuantParams" in line or "levels=" in line]
    assert not found, f"second statements of the code kind: {found}"
