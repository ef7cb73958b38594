"""The package names that the scripts in demos/ import and call.

No test runs the demos: all five take tens of seconds.  So a renamed function
or a removed keyword argument would break a demo silently.  These tests parse
each demo instead, resolve every name it reaches through a weylflow import,
and bind each call of such a name to the callee's signature.  They are the
demos' counterpart of test_perfbench_hooks.py.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _member(module, name):
    """module.name, importing it when it is a submodule."""
    try:
        return getattr(module, name)
    except AttributeError:
        return importlib.import_module(f"{module.__name__}.{name}")


def _imported_names(tree):
    """Local name -> the object that the demo's `from weylflow... import` binds it to."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "weylflow":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = _member(module, alias.name)
    return names


def _resolve(node, names):
    """The object that `a.b.c` names when a is a weylflow import, else None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, names)
        return None if owner is None else getattr(owner, node.attr)
    return None


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_calls_bind_to_the_package(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    names = _imported_names(tree)
    assert names, "the demo imports nothing from weylflow"
    faults, calls = [], 0
    for node in ast.walk(tree):
        try:
            if isinstance(node, ast.Attribute):
                _resolve(node, names)
            elif isinstance(node, ast.Call) and _resolve(node.func, names) is not None:
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                positional = [] if starred else [None] * len(node.args)
                keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
                inspect.signature(_resolve(node.func, names)).bind_partial(*positional, **keywords)
                calls += 1
        except (AttributeError, TypeError) as exc:
            faults.append(f"line {node.lineno}: {ast.unparse(node)[:80]}: {exc}")
    assert not faults
    assert calls > 0
