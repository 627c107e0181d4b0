"""Every public top-level function and class of the package has a caller.

A public name (no leading underscore) defined at the top level of a
module of src/pdhyp must be referenced somewhere in src/pdhyp outside its
own definition.  Re-exports in __init__.py do not count as callers, and
neither do the tests, demos or the benchmark: code that only they read
belongs with them, not in the package.
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
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return used


def uncalled_public_definitions(package=PACKAGE):
    """(module, name) of each public top-level def or class that nothing
    in the package references outside its own definition."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(package.glob("*.py")) if p.stem != "__init__"}
    everywhere = {stem: _used_names(tree) for stem, tree in trees.items()}
    missing = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            elsewhere = set().union(*(used for other, used
                                      in everywhere.items() if other != stem))
            if node.name not in elsewhere | _used_names(tree, skip=node):
                missing.append((stem, node.name))
    return missing


def test_every_public_definition_has_a_caller():
    missing = uncalled_public_definitions()
    assert not missing, "no caller in src/pdhyp: " + ", ".join(
        f"{module}.{name}" for module, name in missing)
