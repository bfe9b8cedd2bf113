"""The package's module-level imports form an acyclic graph."""

import ast
import graphlib
import pathlib

import affine_schur

PACKAGE = pathlib.Path(affine_schur.__file__).parent


def module_imports(path: pathlib.Path) -> set:
    """The package modules that a module imports at module level, by
    `from . import x` or `from .x import y`."""
    out = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_module_level_imports_are_acyclic():
    graph = {path.stem: module_imports(path) for path in PACKAGE.glob("*.py")}
    assert graph["schur"] and "canonical" not in graph["schur"]
    # static_order raises graphlib.CycleError on a cycle
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert set(graph) <= set(order)
