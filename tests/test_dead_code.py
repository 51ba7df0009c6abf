"""Every public function, class and method of fdmimo has a user.

A public name counts as used when it is named anywhere in `src/fdmimo`
other than at its own definition, or in the acceptance tests, which use a
few helpers as oracles.  Unit tests alone do not keep code alive.  A
private module-level function must be named somewhere in `src/fdmimo`
itself, so a helper that a rewrite replaced cannot linger beside it.  A
module-level name bound by assignment, such as a table, must be read in
`src/fdmimo` or in the acceptance tests; dunder names are exempt.  And a
private name that a docstring or comment of `src/fdmimo` quotes in
backticks must still be defined there, so prose cannot point at a helper
that a rewrite removed.
"""

import ast
import io
import re
import tokenize
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


def _defined(tree):
    """Every name a module defines: defs, classes, arguments and the
    targets of assignments, at any level."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def _prose(tree, source):
    """The docstrings and comments of a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.string


def stale_private_mentions():
    """Backticked private names in the prose of `src/fdmimo` that no
    module there defines; a name counts wherever it appears in the quote,
    as in `_Taps.leak` or `cancellation._fit`."""
    sources = {path: path.read_text() for path in SOURCES}
    trees = {path: ast.parse(text) for path, text in sources.items()}
    defined = {name for tree in trees.values() for name in _defined(tree)}
    stale = []
    for path, tree in trees.items():
        for text in _prose(tree, sources[path]):
            for quote in re.findall(r"`([^`\n]+)`", text):
                for name in re.findall(r"(?<!\w)_\w+", quote):
                    if not name.startswith("__") and name not in defined:
                        stale.append(f"{path.stem}: `{quote}`")
    return stale


def test_every_public_definition_is_used():
    assert unused_public_names() == []


def test_every_private_function_is_used():
    assert unused_private_functions() == []


def test_every_module_level_name_is_read():
    assert unread_module_names() == []


def test_every_backticked_private_name_is_defined():
    assert stale_private_mentions() == []
