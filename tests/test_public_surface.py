"""No test-only code in src: every public name of the package has a reader.

Each public top-level function and class in ``src/weylflow``, and each public
method of a public class, must be read somewhere other than its own
definition.  A read is a ``Name`` load, an attribute load or an imported name
in ``src/weylflow``, ``demos/`` or ``perfbench/``; in ``perfbench/`` a string
constant counts too, since ``spans.TARGETS`` names the attributes it wraps as
strings.  The package's ``__init__.py`` imports do not count: re-exporting a
name does not read it.  A name that only the tests read belongs in the tests.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weylflow"
READERS = (SRC, ROOT / "demos", ROOT / "perfbench")


def _public(name):
    return not name.startswith("_")


def definitions(path, tree):
    """(label, name, node) of each public top-level function and class of the
    module at path, and of each public method of its public classes."""
    module = Path(path).stem
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            defs.append((f"{module}.{node.name}", node.name, node))
            if isinstance(node, ast.ClassDef):
                defs.extend((f"{module}.{node.name}.{m.name}", m.name, m) for m in node.body
                            if isinstance(m, ast.FunctionDef) and _public(m.name))
    return defs


def reads(tree, strings=False, imports=True):
    """(name, line) of each read in a module: Name and attribute loads, imported
    names (with imports) and, with strings, string constants."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, node.lineno))
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((a.name.rsplit(".", 1)[-1], node.lineno) for a in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.value, node.lineno))
    return found


def unread(package, readers):
    """Labels of the public definitions in package ({path: source}) that no
    reader reads outside their own definition.  readers is a list of
    (path, source, strings) for every module scanned for reads, the package's
    modules included, under the same path key."""
    defs = {path: definitions(path, ast.parse(src)) for path, src in package.items()}
    read_at = {}              # name -> [(path, line)]
    for path, src, strings in readers:
        tree = ast.parse(src)
        for name, line in reads(tree, strings, imports=Path(path).name != "__init__.py"):
            read_at.setdefault(name, []).append((path, line))
    missing = []
    for path, items in defs.items():
        for label, name, node in items:
            own = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in own for p, line in read_at.get(name, ())):
                missing.append(label)
    return missing


def _scan_tree():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [(str(p.relative_to(ROOT)), p.read_text(), d.name == "perfbench")
               for d in READERS for p in sorted(d.rglob("*.py"))]
    return package, readers


def test_every_public_name_in_src_has_a_reader():
    assert unread(*_scan_tree()) == []


PLANTED = '''
def used():
    return helper()


def helper():
    return 1


def orphan():
    return orphan()


class Flight:
    def pos(self):
        return self.vel()

    def vel(self):
        return 0.0

    def theta(self):
        return self.theta()

    def _private(self):
        return 0
'''

CALLER = '''
from pkg.mod import Flight, used
Flight().pos()
'''


def test_the_guard_flags_a_planted_unread_function_and_method():
    package = {"pkg/mod.py": PLANTED}
    readers = [("pkg/mod.py", PLANTED, False), ("demos/caller.py", CALLER, False)]
    # a recursive call and a method calling itself are reads inside their own definition
    assert unread(package, readers) == ["mod.orphan", "mod.Flight.theta"]


def test_the_guard_counts_perfbench_strings_and_not_init_imports():
    package = {"pkg/mod.py": PLANTED}
    base = [("pkg/mod.py", PLANTED, False), ("demos/caller.py", CALLER, False)]
    spans = 'TARGETS = ((None, "orphan", "x"), (None, "theta", "y"))\n'
    assert unread(package, base + [("perfbench/spans.py", spans, True)]) == []
    init = "from .mod import orphan, Flight\n"
    assert unread(package, base + [("pkg/__init__.py", init, False)]) == [
        "mod.orphan", "mod.Flight.theta"]
