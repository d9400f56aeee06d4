"""No module under ``src/repro`` imports a name it never uses, and no
annotation names a name its module never binds.

A stdlib-``ast`` scan stands in for a linter.  A name counts as used
when it is read anywhere in the module, listed in ``__all__``, or named
inside a string annotation (``-> "RunReport"``).  Package
``__init__.py`` files are skipped: their imports are the re-exports.

Under ``from __future__ import annotations`` an annotation is never
evaluated at import time, so a name it lacks fails only later, in
``typing.get_type_hints`` or a type checker.  A name counts as bound
when the module imports, defines or assigns it anywhere, or it is a
builtin.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import except ``__future__``."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a type
                    continue
                used |= _used_names(quoted)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            }
    return used


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted(
        f"line {line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.relative_to(SRC)} imports unused {unused}"


def _bound_names(tree: ast.Module) -> set[str]:
    bound = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
            }
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    return bound


def _annotation_names(node: ast.AST):
    """The names an annotation reads, string annotations included."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            quoted = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return
        yield from _annotation_names(quoted.body)
    elif isinstance(node, ast.Name):
        yield node.id
    else:
        for child in ast.iter_child_nodes(node):
            yield from _annotation_names(child)


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_annotations_name_only_bound_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = _bound_names(tree)
    unbound = sorted(
        f"line {annotation.lineno}: {name}"
        for annotation in _annotations(tree)
        for name in _annotation_names(annotation)
        if name not in bound
    )
    assert not unbound, (
        f"{path.relative_to(SRC)} annotates with unbound names {unbound}"
    )
