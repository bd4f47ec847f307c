"""Every private name that ``src/`` defines is used in ``src/``.

A module-level ``_name`` or a private method that only tests call is
code the model never runs.  A name counts as used when ``src/`` reads it
as a name or an attribute, imports it, or spells it as a string (as
``getattr`` takes it).  Dunder names are not private.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_files():
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree) -> list[tuple[int, str]]:
    """(line, name) of each module-level private name and private method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, item.name) for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(line, name) for line, name in found if _private(name)]


def used_names(tree) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def unused_private(sources: dict[str, str]) -> dict[str, list[tuple[int, str]]]:
    """Per file, (line, name) of each private definition no source uses."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    used = set().union(*(used_names(tree) for tree in trees.values()))
    return {path: [(line, name) for line, name in private_definitions(tree)
                   if name not in used]
            for path, tree in trees.items()}


def test_the_scan_finds_an_unused_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n_SPARE = 4\n\ndef _used():\n    return _LIMIT\n\n"
                 "def _dead():\n    pass\n\nclass C:\n    def __init__(self):\n"
                 "        self._x = 1\n\n    def _helper(self):\n        pass\n\n"
                 "    def _read(self):\n        return self._x\n\n"
                 "    def _by_name(self):\n        pass\n"),
        "b.py": ("from a import _used, C\n\ndef f(c):\n"
                 "    return _used(), c._read(), getattr(c, '_by_name')\n"),
    }
    assert unused_private(sources) == {
        "a.py": [(2, "_SPARE"), (7, "_dead"), (14, "_helper")],
        "b.py": [],
    }


@pytest.fixture(scope="module")
def unused_in_src():
    sources = {}
    for path in source_files():
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            sources[path] = f.read()
    return unused_private(sources)


@pytest.mark.parametrize("path", list(source_files()))
def test_every_private_name_is_used(path, unused_in_src):
    unused = unused_in_src[path]
    assert not unused, f"{path}: private names nothing in src/ uses: " + ", ".join(
        f"{name} (line {line})" for line, name in unused)
