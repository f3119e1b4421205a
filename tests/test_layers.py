"""The layering of the package, read from its source with ``ast``: ``beam``
is the one capture layer, so it alone calls ``scipy.special``, only ``erf``
and ``chndtr`` of it, and reads the private members of ``CaptureGrid``."""

import ast
import pathlib

import pytest

from uavqkd.beam import CaptureGrid

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "uavqkd"
OUTSIDE_BEAM = [path for path in sorted(SRC.glob("*.py")) if path.stem != "beam"]
GRID_PRIVATE = {name for name in vars(CaptureGrid) if name.startswith("_") and not name.startswith("__")}


def _tree(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree: ast.AST) -> set[str]:
    """The dotted name of everything an absolute import of ``tree`` names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("path", OUTSIDE_BEAM, ids=lambda path: path.stem)
def test_only_beam_imports_scipy_special(path):
    names = _imported(_tree(path))
    assert not {n for n in names if n == "scipy.special" or n.startswith("scipy.special.")}, path.name


def test_beam_calls_only_erf_and_chndtr_of_scipy_special():
    # what a pure-numpy runtime has left to replace: the chord weights' erf,
    # the grid mean's erf and exact capture's chndtr
    calls = {node.func.attr for node in ast.walk(_tree(SRC / "beam.py"))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "special"}
    assert calls == {"erf", "chndtr"}


def test_init_keeps_its_scipy_integrate_import():
    # bench/run.py's import-time split reads that entry
    assert "scipy.integrate" in _imported(_tree(SRC / "__init__.py"))


@pytest.mark.parametrize("path", OUTSIDE_BEAM, ids=lambda path: path.stem)
def test_only_beam_reads_capture_grid_private_members(path):
    assert {"_weights_of", "_blocks"} <= GRID_PRIVATE
    read = {node.attr for node in ast.walk(_tree(path)) if isinstance(node, ast.Attribute)}
    assert not read & GRID_PRIVATE, f"{path.name} reads {sorted(read & GRID_PRIVATE)}"
