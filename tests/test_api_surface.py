"""The library keeps only what a command or the benchmark needs.

Every public module-level function, class and constant of ``src/qopuc``
must be loaded somewhere in ``src/qopuc`` outside its own definition (a
re-export from ``__init__`` and a type annotation do not count), or be named
by ``perfbench/`` or ``tools/`` as ``<module>.<name>`` or ``qopuc.<name>``.
There are no exceptions: a name only the tests call belongs in the tests.

The same holds for every public method (properties and class methods
included; dunder methods aside) of a module-level class, named
``<module>.<class>.<method>``: an attribute of its name must be loaded in
``src/qopuc`` outside its own definition, or ``.<method>`` be named by
``perfbench/`` or ``tools/``.  Attribute loads are not resolved to a class,
so a method whose name another class or type also uses may pass unseen:
``SliceFrame.split`` did, while only the tests called it, because ``cli``
loads ``str.split``.  A load on an imported module (``np.random``,
``math.sqrt``) is not a method use.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "qopuc"


def _definitions(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """Public module-level names and the line span of their definition."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                out[name] = (node.lineno, node.end_lineno)
    return out


def _methods(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """Public methods of the module-level classes, as ``<class>.<method>``,
    and the line span of their definition."""
    return {f"{cls.name}.{fn.name}": (fn.lineno, fn.end_lineno)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}


def _loads(module: str, tree: ast.Module):
    """(defining module, name, line) for every name loaded in ``module``
    outside annotations, resolved through its ``from .x import`` bindings."""
    imported, annotation = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
        hint = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if hint is not None:
            annotation |= {id(n) for n in ast.walk(hint)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and id(node) not in annotation):
            yield (*imported.get(node.id, (module, node.id)), node.lineno)


def _module_names(tree: ast.Module) -> set[str]:
    """The names that ``import`` statements in ``tree`` bind to modules."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names}


def _unneeded() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    loads = {(mod, name, user, line) for user, tree in trees.items()
             for mod, name, line in _loads(user, tree)}
    sources = [path.read_text(encoding="utf-8") for folder in ("perfbench", "tools")
               for path in sorted((REPO / folder).glob("*.py"))]
    outside = "".join(sources)
    outside_modules = set().union(*(_module_names(ast.parse(source)) for source in sources))
    unneeded = []
    for module, tree in trees.items():
        for name, (first, last) in _definitions(tree).items():
            used = any(mod == module and n == name and not (user == module and first <= line <= last)
                       for mod, n, user, line in loads)
            named = re.search(rf"\b(?:{module}|qopuc)\.{name}\b", outside)
            if not (used or named):
                unneeded.append(f"{module}.{name}")
    modules = {user: _module_names(tree) for user, tree in trees.items()}
    attributes = {(node.attr, user, node.lineno) for user, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and not (isinstance(node.value, ast.Name) and node.value.id in modules[user])}
    for module, tree in trees.items():
        for name, (first, last) in _methods(tree).items():
            method = name.split(".")[1]
            used = any(attr == method and not (user == module and first <= line <= last)
                       for attr, user, line in attributes)
            named = any(match[1] not in outside_modules
                        for match in re.finditer(rf"(\w*)\.{method}\b", outside))
            if not (used or named):
                unneeded.append(f"{module}.{name}")
    return unneeded


def test_every_public_name_has_a_caller_outside_the_tests():
    assert _unneeded() == []
