"""The package declares numpy>=1.24: src calls no numpy name added after 1.24.

The denylist is taken from numpy's release notes: np.vecdot, np.isdtype,
linalg.vecdot and linalg.matrix_transpose (2.0), np.trapezoid (2.0, which
renamed trapz), np.astype, np.unstack and np.cumulative_sum (2.1), and
np.matvec and np.vecmat (2.2).  ``metrics.matvec``, ``vecmat`` and ``vecdot``
are the package's spellings of np.matvec, np.vecmat and np.vecdot.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weylflow"

AFTER_1_24 = {
    ("numpy", "matvec"), ("numpy", "vecmat"), ("numpy", "vecdot"),
    ("numpy", "unstack"), ("numpy", "cumulative_sum"), ("numpy", "astype"),
    ("numpy", "isdtype"), ("numpy", "trapezoid"),
    ("numpy.linalg", "vecdot"), ("numpy.linalg", "matrix_transpose"),
}


def numpy_names_after_1_24(source):
    """(line, dotted name) of each reference in source to a denylisted numpy name,
    through any alias of numpy or numpy.linalg, or a from-import of the name."""
    tree = ast.parse(source)
    aliases = {}      # local name -> "numpy" or "numpy.linalg"
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name in ("numpy", "numpy.linalg"):
                    aliases[a.asname or a.name.split(".")[0]] = (
                        a.name if a.asname else "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            for a in node.names:
                if a.name == "linalg" and node.module == "numpy":
                    aliases[a.asname or a.name] = "numpy.linalg"
                elif (node.module, a.name) in AFTER_1_24:
                    found.append((node.lineno, f"{node.module}.{a.name}"))

    def module_of(expr):
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        if isinstance(expr, ast.Attribute) and expr.attr == "linalg":
            return "numpy.linalg" if module_of(expr.value) == "numpy" else None
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            mod = module_of(node.value)
            if mod is not None and (mod, node.attr) in AFTER_1_24:
                found.append((node.lineno, f"{mod}.{node.attr}"))
    return sorted(found)


def test_src_calls_no_numpy_name_newer_than_its_floor():
    found = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in numpy_names_after_1_24(path.read_text())]
    assert not found


def test_the_scan_sees_each_spelling():
    source = "\n".join([
        "import numpy as np",
        "import numpy.linalg as la",
        "from numpy import linalg",
        "from numpy import cumulative_sum",
        "a = np.vecdot(x, y)",
        "b = np.linalg.matrix_transpose(m)",
        "c = la.vecdot(x, y)",
        "d = linalg.vecdot(x, y)",
        "e = x.astype(float) + np.dot(x, y) + np.linalg.norm(x)",
    ])
    assert numpy_names_after_1_24(source) == [
        (4, "numpy.cumulative_sum"), (5, "numpy.vecdot"),
        (6, "numpy.linalg.matrix_transpose"), (7, "numpy.linalg.vecdot"),
        (8, "numpy.linalg.vecdot")]
