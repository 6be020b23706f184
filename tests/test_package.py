"""The package's export list, and the layers each entry point loads."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import connsets

INIT = Path(connsets.__file__)
ROOT = Path(__file__).resolve().parents[1]


def test_all_names_exactly_the_public_bindings():
    # Every name the lazy table exports or ``__init__`` assigns, less the
    # private ones and the modules.
    bound = set(connsets._HOME)
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {
        name
        for name in bound
        if not name.startswith("_")
        and not isinstance(getattr(connsets, name), types.ModuleType)
    }
    assert len(set(connsets.__all__)) == len(connsets.__all__)
    assert sorted(connsets.__all__) == sorted(public)


def test_every_export_is_its_home_modules_object():
    for name in connsets.__all__:
        home = importlib.import_module(f"connsets.{connsets._HOME[name]}")
        assert getattr(connsets, name) is getattr(home, name), name
    assert set(connsets.__all__) <= set(dir(connsets))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        connsets.nope


def test_star_import_binds_every_export():
    namespace = {}
    exec("from connsets import *", namespace)
    assert [n for n in connsets.__all__ if namespace.get(n) is not getattr(connsets, n)] == []


def _package_modules_after(probe: str) -> list[str]:
    """The package modules a fresh interpreter holds after running ``probe``
    with its stdout discarded."""
    script = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in probe.splitlines())
        + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'connsets'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


_PARSER_ONLY = ["connsets", "connsets.cli", "connsets.errors"]


def test_import_connsets_loads_no_layer():
    assert _package_modules_after("import connsets") == ["connsets"]


def test_building_the_parser_loads_no_layer():
    probe = "import connsets.cli\nconnsets.cli.build_parser()"
    assert _package_modules_after(probe) == _PARSER_ONLY


def test_request_rejected_before_any_work_loads_no_layer():
    probe = (
        "from connsets.cli import main\n"
        "assert main(['verify', 'min', '--n', '6', '--cap', '0']) == 3"
    )
    assert _package_modules_after(probe) == _PARSER_ONLY


def test_count_loads_only_the_layers_it_runs():
    probe = "from connsets.cli import main\nassert main(['count', '--family', 'B:12']) == 0"
    unused = {"canon", "enumeration", "transforms", "verify", "crosscheck"}
    loaded = _package_modules_after(probe)
    assert "connsets.counting" in loaded
    assert not {f"connsets.{layer}" for layer in unused} & set(loaded)


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
