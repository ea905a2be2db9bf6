"""Source hygiene: no module in ``src/`` imports a name it never uses.

Uses only the stdlib ``ast`` module.  A module-level import counts as
used when the module references the name anywhere (code, annotations,
string annotations such as ``"IPv4Address | str"``) or lists it in its
``__all__``.  Package ``__init__`` modules are exempt: importing to
re-export is their job.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Module-level imported name -> line number."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_names(annotation: ast.AST) -> set[str]:
    """Names inside an annotation, including quoted forward references."""
    found: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            found |= _annotation_names(quoted)
    return found


def _referenced_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            used |= _annotation_names(annotation)
    return used


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    keep = _referenced_names(tree) | _exported_names(tree)
    return [f"{path.relative_to(SRC)}:{line}: {name}"
            for name, line in sorted(_imported_names(tree).items(),
                                     key=lambda item: item[1])
            if name not in keep]


def test_no_module_in_src_imports_an_unused_name():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {SRC}"
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == [], "unused imports:\n" + "\n".join(unused)


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from os import path, sep\n"
        "import json\n"
        "from typing import Optional\n"
        "__all__ = ['sep']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return json.dumps(x)\n",
        encoding="utf-8")
    tree = ast.parse(module.read_text(encoding="utf-8"))
    keep = _referenced_names(tree) | _exported_names(tree)
    assert set(_imported_names(tree)) - keep == {"path"}
