"""Every module-level function, class and constant in src/ and in the
reference modules under tests/ (those not named test_*: the hybrid oracle, the
Fock twin, conftest and the like), and every method that is not a dunder, is
referenced outside its own definition. A constant is a module-level
assignment to a plain name that is not a dunder.

A stdlib-`ast` scan, like `test_unused_imports`. A reference is a name, an
attribute, or an identifier inside a string (`bench/spans.py` names the
functions it wraps that way) anywhere in src/, tests/, demos/ or bench/.
Docstrings do not count, and neither do references from inside the
definition itself.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src", "tests", "demos", "bench")


def references(node: ast.AST) -> Counter:
    """How often each identifier is referred to in node's subtree."""
    docstrings = {id(n.value) for n in ast.walk(node) if isinstance(n, ast.Expr)}
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            found.update(re.findall(r"[A-Za-z_]\w*", n.value))
    return found


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """(name, node) of module-level functions, classes and constants, and of
    the classes' non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not is_dunder(m.name))
        if isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets
                        if isinstance(t, ast.Name) and not is_dunder(t.id))


def unreferenced(sources: list[str], files: dict[str, str]) -> list[str]:
    """Definitions in the files named by `sources` that no text of `files`
    (name -> source, `sources` among them) refers to outside themselves."""
    trees = {name: ast.parse(text) for name, text in files.items()}
    total = sum((references(tree) for tree in trees.values()), Counter())
    return [f"{source}:{node.lineno}: {name}" for source in sources
            for name, node in definitions(trees[source]) if total[name] <= references(node)[name]]


def test_scan_finds_an_unreferenced_definition():
    files = {"lib.py": "def f(n):\n    return f(n - 1)\n\n\nclass C:\n"
                       "    def __init__(self):\n        pass\n\n"
                       "    def m(self):\n        return self.n()\n\n"
                       "    def n(self):\n        pass\n\n\n"
                       "K = 1\nUSED = K + 1\n__version__ = '1'\n",
             "use.py": "C()\nprint('f', USED)\n"}
    assert unreferenced(["lib.py"], files) == ["lib.py:9: m"]
    files["use.py"] = "C()\nprint('f')\n"
    assert unreferenced(["lib.py"], files) == ["lib.py:9: m", "lib.py:17: USED"]
    del files["use.py"]
    assert unreferenced(["lib.py"], files) == ["lib.py:1: f", "lib.py:5: C", "lib.py:9: m",
                                               "lib.py:17: USED"]


def test_every_source_definition_is_referenced():
    paths = sorted(path for folder in FOLDERS for path in (ROOT / folder).rglob("*.py"))
    files = {str(path.relative_to(ROOT)): path.read_text() for path in paths}
    sources = [name for name in files if name.startswith("src") or (
        name.startswith("tests") and not Path(name).name.startswith("test_"))]
    assert any(name.endswith("fock_twin.py") for name in sources)
    assert unreferenced(sources, files) == []
