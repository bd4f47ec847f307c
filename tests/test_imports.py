"""Every name a module imports is used by that module.

No linter is part of the toolchain, so this scan keeps unused imports
out of ``src/``, ``tests/`` and ``demos/``.  A name counts as used when
it appears as a name anywhere in the module, string annotations
included.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "tests", "demos")


def python_files():
    for top in SCANNED:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def _annotation_strings(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that ``source`` never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for text in _annotation_strings(tree):
        used |= {n.id for n in ast.walk(ast.parse(text, mode="eval"))
                 if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_the_scan_finds_an_unused_name():
    source = (
        "import os\nimport numpy as np\nfrom json import dumps, loads\n"
        "from typing import Mapping\n\n"
        "def f(x: 'Mapping[str, int]'):\n    return np.zeros(1), loads(x)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


@pytest.mark.parametrize("path", list(python_files()))
def test_every_import_is_used(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        unused = unused_imports(f.read())
    assert not unused, f"{path}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)
