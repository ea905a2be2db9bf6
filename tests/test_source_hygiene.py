"""Source hygiene: no module in ``src/`` imports a name it never uses.

Uses only the stdlib ``ast`` module.  A module-level import counts as
used when the module references the name anywhere (code, annotations,
string annotations such as ``"IPv4Address | str"``) or lists it in its
``__all__``.  Package ``__init__`` modules are exempt: importing to
re-export is their job.

A function-local import must be used inside its function, and must not
import from a module that the file already imports from at module level:
a deferred import is there to break an import cycle, and a module the
file imports at load time cannot be in one.
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


def _sources(node: ast.AST) -> set[tuple[int, str]]:
    """``(level, module)`` each import statement in ``node`` reads from."""
    if isinstance(node, ast.Import):
        return {(0, alias.name) for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return {(node.level, node.module or "")}
    return set()


def _local_imports(func: ast.AST):
    """Import statements whose nearest enclosing function is ``func``,
    in source order."""
    found, stack = [], list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return sorted(found, key=lambda node: node.lineno)


def local_import_problems(tree: ast.Module, where: str = "") -> list[str]:
    """Function-local imports that are unused, or that repeat a source
    the module already imports from at module level.  A name used only
    by a nested function counts as used: the closure reads it."""
    module_sources = set().union(*(_sources(n) for n in tree.body))
    problems = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        used = _referenced_names(func)
        for node in _local_imports(func):
            prefix = f"{where}{node.lineno}: in {func.name}()"
            for level, module in sorted(_sources(node) & module_sources):
                problems.append(f"{prefix}: {'.' * level}{module} is "
                                f"imported at module level")
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    problems.append(f"{prefix}: {name} unused")
    return problems


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


def test_no_function_in_src_has_a_needless_local_import():
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        problems += local_import_problems(tree, f"{path.relative_to(SRC)}:")
    assert problems == [], "needless function-local imports:\n" + "\n".join(problems)


def test_the_check_sees_a_needless_local_import():
    tree = ast.parse(
        "from os import sep\n"
        "import json\n"
        "def f():\n"
        "    from os import path\n"
        "    import json\n"
        "    from typing import Optional, Any\n"
        "    from collections import deque\n"
        "    def g():\n"
        "        from re import compile\n"
        "        return deque\n"
        "    return path, json, Optional, g, sep\n")
    assert local_import_problems(tree) == [
        "4: in f(): os is imported at module level",
        "5: in f(): json is imported at module level",
        "6: in f(): Any unused",
        "9: in g(): compile unused",
    ]
