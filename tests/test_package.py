"""The package's export list."""

import ast
import types
from pathlib import Path

import connsets

INIT = Path(connsets.__file__)


def test_all_names_exactly_the_public_bindings():
    # Every name ``__init__`` imports or assigns, less the private ones and
    # the modules; the submodules bound as an import's side effect are not
    # statements here.
    bound = set()
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {
        name
        for name in bound
        if not name.startswith("_")
        and not isinstance(getattr(connsets, name), types.ModuleType)
    }
    assert len(set(connsets.__all__)) == len(connsets.__all__)
    assert sorted(connsets.__all__) == sorted(public)
