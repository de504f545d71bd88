"""Every function and lambda in src/ reads each of its parameters, apart
from the exemptions named below with their reasons. A parameter named `_`
is unused by convention and is not checked.

A stdlib-`ast` scan, like `test_unreferenced_definitions`. A parameter is
read when its name is loaded anywhere in the function's body, nested
functions and lambdas included; its default values do not count. A
parameter that the body rebinds before it reads the name counts as read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, function, parameter) -> why the parameter stays unread.
EXEMPT = {
    ("src/gkp_readout/cli.py", "cmd_validate", "args"):
        "argparse handler signature: every command's run(args)",
    **{("src/gkp_readout/cli.py", "_warning_record", name):
       "warnings.showwarning signature, which the handler replaces"
       for name in ("filename", "lineno", "file", "line")},
    ("src/gkp_readout/states.py", "auto_cutoff", "sigma"):
        "bench/worker.py passes it; the kets' cutoff does not depend on sigma",
}


def parameters(node) -> list[str]:
    a = node.args
    names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
    names += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
    return [name for name in names if name != "_"]


def unread(path: str, text: str) -> list[str]:
    """`path:line: function(parameter)` for each parameter that the body of
    its function or lambda never loads and that EXEMPT does not name."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, f"{path}:{node.lineno}: {name}({p})") for p in parameters(node)
                  if p not in loaded and (path, name, p) not in EXEMPT]
    return [hit for _, hit in sorted(found)]


def test_scan_finds_an_unread_parameter():
    text = ("def f(a, b, *args, c=1, **kw):\n    return a + sum(args) + kw['x']\n\n\n"
            "def g(x, _):\n    def inner():\n        return x\n    return inner\n\n\n"
            "h = lambda self, y=2: self\n"
            "def cmd_validate(args):\n    return 0\n")
    assert unread("lib.py", text) == ["lib.py:1: f(b)", "lib.py:1: f(c)",
                                      "lib.py:11: <lambda>(y)", "lib.py:12: cmd_validate(args)"]
    assert unread("src/gkp_readout/cli.py", text)[-1:] == ["src/gkp_readout/cli.py:11: <lambda>(y)"]


def test_every_source_parameter_is_read():
    paths = sorted((ROOT / "src").rglob("*.py"))
    found = [hit for path in paths
             for hit in unread(str(path.relative_to(ROOT)), path.read_text())]
    assert found == []


def test_every_exemption_is_still_a_parameter():
    # An exemption outlives its parameter only by mistake
    for path, function, name in EXEMPT:
        tree = ast.parse((ROOT / path).read_text())
        assert any(isinstance(n, ast.FunctionDef) and n.name == function and name in parameters(n)
                   for n in ast.walk(tree)), (path, function, name)
