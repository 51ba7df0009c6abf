"""Every public function, class and method of fdmimo has a user.

A public name counts as used when it is named anywhere in `src/fdmimo`
other than at its own definition, or in the acceptance tests, which use a
few helpers as oracles.  Unit tests alone do not keep code alive.  A
private module-level function must be named somewhere in `src/fdmimo`
itself, so a helper that a rewrite replaced cannot linger beside it.  A
module-level name bound by assignment, such as a table, must be read in
`src/fdmimo` or in the acceptance tests; dunder names are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "fdmimo").glob("*.py"))


def _public_definitions(tree):
    """(qualified name, bare name) of each public top-level def and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def _named(tree):
    """Every identifier a module refers to: names read, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _private_functions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            if not node.name.startswith("__"):
                yield node.name


def _assigned(tree):
    """Each non-dunder name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        if not name.id.startswith("__"):
                            yield name.id


def unused_private_functions():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    used = {name for tree in trees.values() for name in _named(tree)}
    return [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name in _private_functions(tree)
        if name not in used
    ]


def _used_outside_tests(trees):
    """Identifiers named in `src/fdmimo` or in the acceptance tests."""
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    used = set(_named(acceptance))
    for tree in trees.values():
        used.update(_named(tree))
    return used


def unused_public_names():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    used = _used_outside_tests(trees)
    unused = []
    for path, tree in trees.items():
        for qual, name in _public_definitions(tree):
            if name not in used:
                unused.append(f"{path.stem}.{qual}")
    return unused


def unread_module_names():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    used = _used_outside_tests(trees)
    return [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name in _assigned(tree)
        if name not in used
    ]


def test_every_public_definition_is_used():
    assert unused_public_names() == []


def test_every_private_function_is_used():
    assert unused_private_functions() == []


def test_every_module_level_name_is_read():
    assert unread_module_names() == []
