"""The reference coefficient path lives in one module that shares no code with the engine."""

import ast
from pathlib import Path

import pytest

import tenclass
from tenclass import core, reference, subdivision

SRC = Path(tenclass.__file__).parent
MOVED = ("Simplex", "standard_simplex", "refine", "component_coeffs", "form_coeffs",
         "apply_batch", "form_batch", "_as_batch", "hadamard")


def _imports(module: str) -> set[str]:
    """Every module ``module``'s source imports from, relative ones by their bare name."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # ``from . import x``
                found |= {alias.name for alias in node.names}
            else:
                found.add(node.module)
    return found


def _defined(module: str) -> set[str]:
    """Names bound at the top level of ``module``'s source."""
    names = set()
    for node in ast.parse((SRC / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def test_reference_imports_only_numpy_and_core():
    # in particular nothing from ``subdivision``, the engine it is checked against
    assert _imports("reference") == {"__future__", "numpy", "core"}


@pytest.mark.parametrize("module", [core, subdivision], ids=["core", "subdivision"])
def test_engine_modules_keep_none_of_the_moved_names(module):
    name = module.__name__.rsplit(".", 1)[1]
    assert not _defined(name) & set(MOVED)
    assert not set(module.__all__) & set(MOVED)
    assert not [n for n in MOVED if hasattr(module, n)]


@pytest.mark.parametrize("name", [n for n in MOVED if not n.startswith("_")])
def test_moved_names_stay_exported(name):
    assert name in reference.__all__
    assert getattr(tenclass, name) is getattr(reference, name)
