"""Every error class is raised by something: a class in errors.py that no
module of src/ constructs, as one left behind by a deleted caller would
be, fails here."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gentrieval"
ERRORS = SRC / "errors.py"
BASE = "GentrievalError"


def error_classes() -> list[str]:
    tree = ast.parse(ERRORS.read_text(encoding="utf-8"))
    return [node.name for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name != BASE]


def constructed_names(tree: ast.Module) -> set[str]:
    """The names a module calls, as `X(...)` or `m.X(...)`, or raises bare,
    as `raise X`: each constructs the class it names."""
    made = set()
    for node in ast.walk(tree):
        target = (node.func if isinstance(node, ast.Call)
                  else node.exc if isinstance(node, ast.Raise) else None)
        if isinstance(target, ast.Name):
            made.add(target.id)
        elif isinstance(target, ast.Attribute):
            made.add(target.attr)
    return made


def test_errors_found():
    assert {"ConfigError", "RemoteTimeout", "EmptyRuns"} <= set(
        error_classes())


def test_every_error_class_is_constructed():
    made = set()
    for path in SRC.rglob("*.py"):
        if path != ERRORS:
            made |= constructed_names(ast.parse(path.read_text(
                encoding="utf-8")))
    unmade = [name for name in error_classes() if name not in made]
    assert not unmade, f"never constructed in src/: {', '.join(unmade)}"


@pytest.mark.parametrize("source, made", [
    ("raise A('x')\n", {"A"}),
    ("raise errors.A\n", {"A"}),
    # Built now and raised later, as RemoteModel keeps its last failure.
    ("e = A(str(x))\nraise e\n", {"A", "str", "e"}),
    ("try:\n    pass\nexcept A:\n    pass\n", set()),
    ("from .errors import A\nisinstance(x, A)\n", {"isinstance"})],
    ids=["call", "bare-raise", "built-then-raised", "except-only",
         "isinstance-only"])
def test_guard_itself(source, made):
    assert constructed_names(ast.parse(source)) == made
