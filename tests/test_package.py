"""The package's export list."""

import ast
import types
from pathlib import Path

import connsets

INIT = Path(connsets.__file__)
ROOT = Path(__file__).resolve().parents[1]


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


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names ``tree`` imports, other than from ``__future__``, that it never
    reads; a parameter of the same name (a pytest fixture) is a read."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read.add(node.arg)
    return [name for name in imported if name not in read]


def test_every_import_is_read():
    modules = [
        path
        for folder in ("src/connsets", "tests", "demos")
        for path in sorted((ROOT / folder).glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(modules) > 20
    unread = {
        path.relative_to(ROOT).as_posix(): names
        for path in modules
        if (names := _unread_imports(ast.parse(path.read_text())))
    }
    assert unread == {}
