"""Every public function and class of ``structkgc.autodiff`` has a caller
in another ``src/`` module.

A primitive that only ``autodiff`` itself or the tests call is library
code the model never runs; a primitive that only the reference paths
need lives in ``tests/autodiff_reference.py``.  A module calls a name
when it imports it from ``autodiff`` by name, or reads it as an
attribute of a name it bound ``autodiff`` to (``ad.add`` after ``from .
import autodiff as ad``).
"""

import ast
import os

from test_private_names import ROOT, source_files

AUTODIFF = os.path.join("src", "structkgc", "autodiff.py")


def public_definitions(tree) -> list[tuple[int, str]]:
    """(line, name) of each module-level public function and class."""
    return [(node.lineno, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_read_from(tree, module: str) -> set[str]:
    """The names a module's ``tree`` reads from the module named ``module``."""
    aliases, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            read |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.ImportFrom, ast.Import)):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name.split(".")[-1] == module}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            read.add(node.attr)
    return read


def uncalled(sources: dict[str, str], path: str) -> list[tuple[int, str]]:
    """(line, name) of each public definition of ``sources[path]`` that no
    other source reads."""
    module = os.path.splitext(os.path.basename(path))[0]
    read = set().union(*(names_read_from(ast.parse(text), module)
                         for other, text in sources.items() if other != path))
    return [(line, name) for line, name in public_definitions(ast.parse(sources[path]))
            if name not in read]


def test_the_scan_finds_an_uncalled_public_name():
    sources = {
        "pkg/autodiff.py": ("def add():\n    pass\n\ndef spare():\n    pass\n\n"
                            "def own():\n    return spare()\n\nclass Node:\n    pass\n\n"
                            "def _private():\n    pass\n\ndef by_name():\n    pass\n"),
        "pkg/model.py": ("from . import autodiff as ad\nfrom .autodiff import by_name\n\n"
                         "def f():\n    return ad.add(), ad.Node(), by_name\n"),
        "pkg/other.py": "import numpy as np\n\ndef g(x):\n    return x.own(), np.spare\n",
    }
    assert uncalled(sources, "pkg/autodiff.py") == [(4, "spare"), (7, "own")]


def test_every_public_autodiff_name_has_a_caller_in_src():
    sources = {}
    for path in source_files():
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            sources[path] = f.read()
    missing = uncalled(sources, AUTODIFF)
    assert not missing, "public autodiff names no other src/ module calls: " + ", ".join(
        f"{name} (line {line})" for line, name in missing)
