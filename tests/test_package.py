import ast
from pathlib import Path

import lontraj
from lontraj import oracle


def test_every_exported_name_resolves():
    assert [name for name in lontraj.__all__ if not hasattr(lontraj, name)] == []
    assert len(set(lontraj.__all__)) == len(lontraj.__all__)


def test_oracle_does_not_import_the_state_module():
    # The permanent oracle is the exact law the trajectory code is checked
    # against, so it shares none of that code.
    tree = ast.parse(Path(oracle.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {getattr(node, "module", None) for node in imports}
    names = {alias.name for node in imports for alias in node.names}
    assert not {"state", "lontraj.state"} & (modules | names)
