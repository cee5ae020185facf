"""Dead-name check over ``src/rosa_lts``, with the standard library's
`ast` only.

Two kinds of name are dead:

- an import that its module never uses (the package's ``__init__``
  re-exports what it imports, so its imports count as used when they are
  in ``__all__``);
- a module-level name that no module of the package references and that
  ``rosa_lts.__all__`` does not export.

A reference is a name read anywhere in the package or an attribute of
that name; dunder names such as ``__version__`` are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import rosa_lts

SRC = Path(rosa_lts.__file__).parent


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [
            n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        ]
    return []


def _imported_names(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Import):
        return [(a.asname or a.name).split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def dead_names(sources: dict[str, str], exported: set[str]) -> list[str]:
    """``module: name`` for every dead import and dead module-level name
    of the modules in ``sources`` (module name to source text)."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used_in = {module: _used_names(tree) for module, tree in trees.items()}
    used_anywhere = set().union(*used_in.values()) | exported
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _imported_names(node):
                keep = exported if module == "__init__" else used_in[module]
                if name not in keep:
                    dead.append(f"{module}: unused import {name}")
            for name in _bound_names(node):
                if not name.startswith("__") and name not in used_anywhere:
                    dead.append(f"{module}: unreferenced {name}")
    return dead


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(SRC.glob("*.py"))}


def test_the_package_has_no_dead_names():
    assert dead_names(_package_sources(), set(rosa_lts.__all__)) == []


def test_an_unused_import_is_dead():
    sources = {"a": "import json\nfrom .b import helper, other\nother()\n"}
    assert dead_names(sources, set()) == [
        "a: unused import json",
        "a: unused import helper",
    ]


def test_a_name_no_module_references_is_dead():
    sources = {
        "a": "def used():\n    pass\n\ndef left_behind():\n    pass\n\nLIMIT = 3\n",
        "b": "from .a import used\n\ndef public():\n    return used()\n",
    }
    assert dead_names(sources, {"public"}) == [
        "a: unreferenced left_behind",
        "a: unreferenced LIMIT",
    ]


def test_init_imports_count_only_when_exported():
    sources = {
        "__init__": "from .a import kept, dropped\n__all__ = ['kept']\n",
        "a": "def kept():\n    pass\n\ndef dropped():\n    pass\n",
    }
    assert dead_names(sources, {"kept"}) == [
        "__init__: unused import dropped",
        "a: unreferenced dropped",
    ]
