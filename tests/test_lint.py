"""Determinism lint: no float reduction in `src/gridswarm` whose order of
addition is not fixed by the code itself.

The builtin `sum` adds floats with compensation since Python 3.12, so it
gives other bits on other versions; `np.sum`, `np.mean` and `np.std` add
pairwise from eight terms on, in an order numpy may change; `math.fsum`
and `statistics` round differently from a left-to-right loop.  Each use
must sit in a function on the allow-list, with the reason it is safe.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gridswarm"

BANNED = {"builtins.sum", "numpy.sum", "numpy.mean", "numpy.std", "math.fsum"}

# (module, function) -> why its reductions cannot move an output
ALLOWED = {
    ("allocation", "_check_entries"): "the sum is only tested for NaN or -inf",
    ("cli", "run_sweep"): "the summary mean and std, pinned by the sweep digests",
    ("qnet", "QNetwork.__init__"): "a sum of integer sizes",
    ("qnet", "_train"): "the reward log, pinned by the training digests",
}


def _banned(name: str) -> bool:
    return name in BANNED or name.startswith("statistics.")


def reductions(source: str) -> list:
    """(function, line, name) of every reference to a banned reduction in
    `source`; the function is dotted through its classes, "" at module level."""
    tree = ast.parse(source)
    aliases = {}  # local name -> what it names, through the module's imports
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = aliases.get(node.id, f"builtins.{node.id}")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            name = f"{aliases[node.value.id]}.{node.attr}"
        else:
            name = ""
        if _banned(name):
            found.append((scope, node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_lint_finds_each_spelling():
    source = (
        "import math\nimport numpy as np\nimport statistics as st\n"
        "from numpy import mean as m\nfrom statistics import fmean\n"
        "def f(x):\n    return sum(x), np.sum(x), math.fsum(x), st.median(x)\n"
        "class C:\n    def g(self, x):\n        return m(x), fmean(x), map(sum, x)\n"
        "total = np.std([1.0])\n"
        "def fine(x, s):\n    return np.add.reduce(x), math.dist(x, x), s.sum, len(x)\n"
    )
    assert reductions(source) == [
        ("f", 7, "builtins.sum"), ("f", 7, "numpy.sum"), ("f", 7, "math.fsum"),
        ("f", 7, "statistics.median"), ("C.g", 10, "numpy.mean"),
        ("C.g", 10, "statistics.fmean"), ("C.g", 10, "builtins.sum"),
        ("", 11, "numpy.std"),
    ]


def test_float_reductions_only_where_allowed():
    used, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        for scope, line, name in reductions(path.read_text()):
            if (path.stem, scope) in ALLOWED:
                used.add((path.stem, scope))
            else:
                stray.append(f"{path.name}:{line} {scope or '<module>'}: {name}")
    assert not stray, "float reductions outside the allow-list:\n" + "\n".join(stray)
    # an entry whose function no longer reduces is stale: drop it
    assert used == set(ALLOWED)
