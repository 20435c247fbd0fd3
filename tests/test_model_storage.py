"""Only ``spectral`` and ``linsys`` read a model's storage: the solver, the
scores, the energy code and the CLI reach a model through its methods, so
none of them branches on how a table or a family is held."""

import ast
from pathlib import Path

import pytest

import ctrlscore

PACKAGE = Path(ctrlscore.__file__).resolve().parent
#: The modules that reach a model only through its methods.
CLIENTS = ("optimizer.py", "scores.py", "energy.py", "cli.py")
#: A model's storage: a table, a family's Gramians and its node factor.
STORAGE = {"eigen_table", "gramians", "_node_factor", "_factor"}


def storage_reads(source: str) -> list[str]:
    """Each read of a :data:`STORAGE` name in ``source``, as an attribute
    or as a string (``getattr(model, "gramians")``), and each import or
    attribute ``Nonzeros``, as ``line:name`` in line order."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE | {"Nonzeros"}:
            reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and node.value in STORAGE:
            reads.append((node.lineno, node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            reads.extend((node.lineno, "Nonzeros") for alias in node.names
                         if alias.name.rsplit(".", 1)[-1] == "Nonzeros")
    return [f"{line}:{name}" for line, name in sorted(reads)]


@pytest.mark.parametrize("source, reads", [
    ("rows = model.eigen_table", ["1:eigen_table"]),
    ("table = getattr(model, 'gramians')", ["1:gramians"]),
    ("vars(unit)['_node_factor'] = factor", ["1:_node_factor"]),
    ("loadings, signs = model._factor()", ["1:_factor"]),
    ("from .spectral import Nonzeros as N, SpectralModel", ["1:Nonzeros"]),
    ("from . import spectral\nsparse = spectral.Nonzeros", ["2:Nonzeros"]),
    ("x = model.gramians\ny = model.eigen_table", ["1:gramians", "2:eigen_table"]),
    ("pairs = model.eigenpairs(p)\nfactors = linsys.node_factors\n"
     "doc = 'eigen_table is read in spectral'", []),
])
def test_storage_reads_finds_every_kind_of_read(source, reads):
    assert storage_reads(source) == reads


def test_only_spectral_and_linsys_read_model_storage():
    modules = {path.name: path for path in PACKAGE.glob("*.py")}
    assert set(CLIENTS) <= set(modules)
    found = {name: storage_reads(modules[name].read_text(encoding="utf-8"))
             for name in CLIENTS}
    assert {name: reads for name, reads in found.items() if reads} == {}
