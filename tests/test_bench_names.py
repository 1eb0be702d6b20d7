"""The benchmark's tracer (bench/spans.py) patches library functions by
name, and its reference builder (bench/make_references.py) imports them by
name; a rename in the library would break both.  Every name they use must
still resolve."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


def _reference_names():
    """(module, name) of every `from bayescomp... import name` in the
    reference builder, plus (module, "Class.attr") for each attribute it
    reads off an imported class."""
    tree = ast.parse((BENCH / "make_references.py").read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bayescomp"):
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    names = set(imported.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported):
            module, name = imported[node.value.id]
            names.add((module, f"{name}.{node.attr}"))
    return sorted(names)


def _resolve(module, dotted):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module", spans.MODULES)
def test_traced_module_imports(module):
    importlib.import_module(f"bayescomp.{module}")


@pytest.mark.parametrize("module,name", sorted(spans.FUNCTIONS))
def test_traced_function_resolves(module, name):
    assert callable(_resolve(f"bayescomp.{module}", name))


@pytest.mark.parametrize("module,cls,attr", sorted(spans.METHODS))
def test_traced_method_resolves(module, cls, attr):
    # the tracer patches the method in the class's own namespace
    assert attr in vars(_resolve(f"bayescomp.{module}", cls))


@pytest.mark.parametrize("module,name", _reference_names())
def test_reference_builder_name_resolves(module, name):
    _resolve(module, name)
