import ast
import inspect
from pathlib import Path

import lontraj
from lontraj import cli, experiments, oracle, trajectory


def test_every_exported_name_resolves():
    assert [name for name in lontraj.__all__ if not hasattr(lontraj, name)] == []
    assert len(set(lontraj.__all__)) == len(lontraj.__all__)


def test_no_package_line_is_wider_than_100_columns():
    # Counted in UTF-8 bytes, the widest reading of a line: a "†" takes 3.
    wide = [
        f"{path.name}:{number}"
        for path in sorted(Path(lontraj.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_bytes().splitlines(), 1)
        if len(line) > 100
    ]
    assert wide == []


def test_oracle_does_not_import_the_state_module():
    # The permanent oracle is the exact law the trajectory code is checked
    # against, so it shares none of that code.
    tree = ast.parse(Path(oracle.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {getattr(node, "module", None) for node in imports}
    names = {alias.name for node in imports for alias in node.names}
    assert not {"state", "lontraj.state"} & (modules | names)


def _package_trees():
    for path in sorted(Path(lontraj.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _users(name: str) -> set[tuple[str, str | None]]:
    # (module, innermost enclosing function) of every reference to ``name``
    # in the package, call or not; None for module level.
    users = set()

    def visit(node, module, scope):
        if getattr(node, "id", None) == name or getattr(node, "attr", None) == name:
            users.add((module, scope))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module, tree in _package_trees():
        visit(tree, module, None)
    return users


def test_one_walk_driver_drives_the_click_kernel():
    # The estimators and the dump are reducers over a click-multiset tree's
    # walk, which _accumulate alone hands them; single trajectories walk a
    # root tree, and evolve_clicks starts from any state.
    assert _users("_click") == {("trajectory", "walk"), ("trajectory", "evolve_clicks")}
    assert _users("_click_tree") == {
        ("experiments", "_run"),
        ("trajectory", "run_trajectory"),
        ("trajectory", "sample_click_sequence"),
    }
    assert _users("_walk") == _users("_click_walk") == _users("_tree_size") == set()
    # One inverse CDF picks for the tree's levels and for every click past
    # them, and one helper takes the distinct states a reducer reads.
    assert _users("_pick_detectors") == {("trajectory", "walk"), ("trajectory", "_click")}
    assert _users("_distinct") == {
        ("trajectory", "walk"),
        ("trajectory", "_records"),
        ("experiments", "add"),
    }


def test_the_oracle_owns_the_one_multiset_order():
    # The enumeration and the click-multiset tree's levels come from one
    # level step, and outcome counts are keyed by its inverse, the rank.
    steps = {("oracle", "enumerate_outcomes"), ("trajectory", "_click_tree")}
    assert _users("_next_level") == steps
    assert _users("widths") == {("oracle", "_next_level")}
    assert _users("_outcome_ranks") == {("experiments", "add")}


def test_only_the_chunk_walk_reads_the_group_size():
    # Reducers bound what they hold by the lockstep budget, not by the group.
    assert _users("_group_size") == {("experiments", "_accumulate")}


def test_a_unitary_source_is_checked_only_where_it_is_made():
    # UnitarySource's validation owns the depth bound and the kinds; the CLI
    # relays what it raises.
    assert _users("MAX_DEPTH") == {("unitary", None), ("unitary", "__post_init__")}
    assert _users("_check_depth") == set() and not hasattr(cli, "_check_depth")
    raisers = [
        (module, function.name)
        for module, tree in _package_trees()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Raise)
        and any("unknown unitary source" in str(getattr(c, "value", "")) for c in ast.walk(node))
    ]
    assert raisers == [("unitary", "__post_init__")]


def test_the_unitary_module_owns_the_source_and_its_draws():
    # UnitarySource sits beside the checks and draws it uses, and every
    # estimator takes a source rather than a matrix.
    for name in ("check_unitary", "_haar_stack", "_brickwall_stack", "MAX_DEPTH"):
        assert {module for module, _ in _users(name)} == {"unitary"}, name
    public = [
        function
        for name, function in inspect.getmembers(experiments, inspect.isfunction)
        if function.__module__ == experiments.__name__ and not name.startswith("_")
    ]
    assert lontraj.distribution_comparison in public and lontraj.mixture_entropy_report in public
    assert [f.__name__ for f in public if "u" in inspect.signature(f).parameters] == []


def test_one_click_step_lowers_the_states():
    # Shared and per-trajectory unitaries alike lower through trajectory._click;
    # a fixed unitary's click-multiset tree is built through the same lowering.
    assert _users("_lowered_raw") == {("trajectory", "_click"), ("trajectory", "_click_tree")}


def test_the_lockstep_budget_is_bound_only_beside_the_click_kernel():
    # Importing the name would freeze a copy that a patched budget misses.
    bound = set()
    for module, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            elif isinstance(node, ast.ImportFrom):
                targets = [ast.Name(alias.asname or alias.name) for alias in node.names]
            else:
                continue
            if any(getattr(t, "id", getattr(t, "attr", None)) == "_LOCKSTEP_BUDGET" for t in targets):
                bound.add(module)
    assert bound == {"trajectory"}
    kernels = trajectory._ClickTree.walk, trajectory._click, trajectory._click_tree
    for kernel in (*kernels, trajectory._records):
        assert "budget" not in inspect.signature(kernel).parameters
