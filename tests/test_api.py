"""Every public definition of the package has a caller.

A public name (no leading underscore) must be referenced somewhere in
src/pdhyp outside its own definition.  The names checked are those of
top-level functions and classes, of module-level constants, and of the
methods and properties of top-level classes.  Re-exports in __init__.py do
not count as callers, and neither do the tests, demos or the benchmark:
code that only they read belongs with them, not in the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pdhyp"


def _used_names(node, skip=None):
    """Names read under `node` (bare and as attributes), leaving out the
    subtree `skip`."""
    used = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            used.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return used


def _public_definitions(tree):
    """(qualified name, name, node) of each public top-level def, class and
    constant, and of each public method or property of a top-level class;
    `node` is the subtree that defines it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member.name, member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node


def uncalled_public_definitions(package=PACKAGE):
    """(module, qualified name) of each public definition that nothing in
    the package references outside its own definition."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(package.glob("*.py")) if p.stem != "__init__"}
    everywhere = {stem: _used_names(tree) for stem, tree in trees.items()}
    missing = []
    for stem, tree in trees.items():
        elsewhere = set().union(*(used for other, used in everywhere.items()
                                  if other != stem))
        for qualname, name, node in _public_definitions(tree):
            if name.startswith("_"):
                continue
            if name not in elsewhere | _used_names(tree, skip=node):
                missing.append((stem, qualname))
    return missing


def test_every_public_definition_has_a_caller():
    missing = uncalled_public_definitions()
    assert not missing, "no caller in src/pdhyp: " + ", ".join(
        f"{module}.{name}" for module, name in missing)
