"""No module imports a name it never reads: an import left behind by a
deleted caller fails here, in src/, tests/ and scripts/ alike."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "scripts")
                 for p in (ROOT / d).rglob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import. `import a.b`
    binds `a`; `from __future__` binds nothing."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the strings it lists in
    `__all__`, and the names inside string annotations."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) \
                else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read.update(n.id for n in ast.walk(ast.parse(ann.value))
                            if isinstance(n, ast.Name))
    return read


def test_modules_found():
    assert {p.parent.name for p in MODULES} >= {"gentrieval", "tests",
                                                "scripts"}


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = read_names(tree)
    dead = sorted(f"{name} (line {line})"
                  for name, line in imported_names(tree).items()
                  if name not in read)
    assert not dead, f"imported and never read: {', '.join(dead)}"


@pytest.mark.parametrize("source, dead", [
    ("import os\n", {"os"}),
    ("import os.path\nos.sep\n", set()),
    ("from a import b as c\nb = 1\nprint(b)\n", {"c"}),
    ("from a import b\n__all__ = ['b']\n", set()),
    ("from a import b\ndef f(x: 'b') -> None: pass\n", set()),
    ("from __future__ import annotations\n", set())])
def test_guard_itself(source, dead):
    tree = ast.parse(source)
    assert set(imported_names(tree)) - read_names(tree) == dead
