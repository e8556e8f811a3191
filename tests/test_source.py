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


def sites(tree, match, scope=()):
    """The enclosing qualified name of every node in tree that match accepts."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found += sites(node, match, (*scope, node.name))
            continue
        if match(node):
            found.append(".".join(scope))
        found += sites(node, match, scope)
    return found


def package_sites(match):
    """`file:qualified name` of every function in the package holding a node
    that match accepts."""
    return {f"{path.name}:{site}"
            for path in sorted(SRC.glob("*.py"))
            for site in sites(ast.parse(path.read_text(), str(path)), match)}


def name_of(node):
    return getattr(node, "id", getattr(node, "attr", None))


def package_raise_sites(exc_name):
    """`file:qualified name` of every function in the package raising exc_name."""
    def raises(node):
        if not (isinstance(node, ast.Raise) and node.exc is not None):
            return False
        return name_of(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == exc_name
    return package_sites(raises)


def test_requant_contract_stated_once():
    # the requant parameter rule lives in QuantizedGraph.check alone
    assert package_raise_sites("RequantParameterError") == {"quantizer.py:QuantizedGraph.check"}


def test_accumulator_range_checked_once():
    # the int32 accumulator rule lives in the one GEMM every layer runs
    assert package_raise_sites("AccumulatorOverflowError") == {"engine.py:_int_gemm"}


def test_dynamics_proxy_stated_once():
    # the drone's first-order lags, (command - rate) / t_v or / t_omega, are
    # integrated in run_experiment's tick loop alone, on local floats; no
    # second statement, such as the old step_dynamics on a DroneState, is left
    def lag(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and name_of(node.right) in ("t_v", "t_omega"))
    assert package_sites(lag) == {"simulate.py:run_experiment"}
    left = {path.name for path in sorted(SRC.glob("*.py"))
            if re.search(r"\b(step_dynamics|DroneState)\b", path.read_text())}
    assert not left, left


def test_code_budget_read_by_occupancy_only():
    # the L2 code reservation enters capacity through the occupancy rows
    # alone, which plan, naive_l2_bytes and the plan reader all derive
    assert package_sites(lambda node: name_of(node) == "code_budget_l2") == {
        "planner.py:MemoryHierarchy", "planner.py:MemoryHierarchy.__post_init__",
        "planner.py:DeploymentPlan.occupancy"}


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


def calls_to(*names):
    return package_sites(lambda node: isinstance(node, ast.Call) and name_of(node.func) in names)


def test_graph_field_rule_stated_once():
    # the type rule for a graph's fields lives in infer_shapes alone, which
    # every graph meets when it is built
    assert calls_to("as_int", "as_ints") == {"graph.py:infer_shapes"}


def test_graph_shaped_when_built_only():
    # the field rule runs in NetGraph's constructor alone: a graph cannot
    # change once built, so no planner, analysis or decoder step runs it again
    assert calls_to("infer_shapes") == {"graph.py:NetGraph.__post_init__"}


def test_quantized_graph_checked_when_built_only():
    # QuantizedGraph.check runs in QuantizedGraph's constructor alone: the
    # graph cannot change once built, so neither infer_int nor the qgraph
    # reader or writer checks it again
    assert calls_to("check") == {"quantizer.py:QuantizedGraph.__post_init__"}


def test_plan_records_written_by_templates_only():
    # a plan holds only plain ints and strings, so no record falls back to
    # the generic writer
    assert not calls_to("_indented") & {"planner.py:_Record.write", "planner.py:_tile_json"}


def test_filter_halves_stated_once():
    # the covariance recursion, with its dt**4 and dt**3 process-noise
    # terms, lives in kalman.covariance_step alone and the mean update, the
    # innovation obs - p, in kalman.fuse alone; the simulator runs the
    # filters through the shared gain schedules and builds no Kalman1D
    def noise_term(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and name_of(node.left) == "dt" and getattr(node.right, "value", None) in (3, 4))

    def innovation(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and name_of(node.left) == "obs")
    assert package_sites(noise_term) == {"kalman.py:covariance_step"}
    assert package_sites(innovation) == {"kalman.py:fuse"}
    assert not {site for site in calls_to("Kalman1D") if site.startswith("simulate.py:")}
