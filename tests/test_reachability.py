"""Every name that src/affine_schur defines is reached by the program.

A module-level function or class, a public module-level constant, or a
public method of a module-level class, must be referenced from some file
under src/, scripts/ or perfbench/.  Tests do not count: a helper that
only tests call belongs in the test that uses it.  A reference inside the
name's own definition (a recursive call) does not count; a reference from
elsewhere in the same file does, so private helpers called by their
module pass.  References are matched by name: a bare name, an attribute,
or a component of a dotted string constant such as perfbench's
"transfer.MonomialSpan.grow"; an import alone is not a reference, and
neither is an assignment.  Private methods and private constants, the
dunders that the interpreter reads among them, are not checked.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "affine_schur"
SEARCH = ("src", "scripts", "perfbench")


def _definitions(tree: ast.Module) -> list:
    """The (qualified name, bare name, node) triples a module must keep
    reachable."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name, node))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("_"):
                out.append((target.id, target.id, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    out.append((f"{node.name}.{item.name}", item.name, item))
    return out


class _References(ast.NodeVisitor):
    """The names referenced in one tree, each with the definitions that
    enclose the reference: {name: [tuple of enclosing def nodes, ...]}."""

    def __init__(self):
        self.names = {}
        self._inside = ()

    def _visit_def(self, node):
        outer = self._inside
        self._inside = outer + (node,)
        self.generic_visit(node)
        self._inside = outer

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_def

    def _add(self, name: str):
        self.names.setdefault(name, []).append(self._inside)

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            parts = node.value.split(".")
            if len(parts) > 1 and all(p.isidentifier() for p in parts):
                for p in parts:
                    self._add(p)


def _trees() -> dict:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for top in SEARCH for path in sorted((ROOT / top).rglob("*.py"))}


def unreached() -> list:
    trees = _trees()
    refs = {}
    for tree in trees.values():
        visitor = _References()
        visitor.visit(tree)
        for name, places in visitor.names.items():
            refs.setdefault(name, []).extend(places)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, bare, node in _definitions(trees[path]):
            if not any(node not in inside for inside in refs.get(bare, ())):
                out.append(f"{path.stem}.{qual}")
    return out


def test_every_definition_is_reached():
    assert unreached() == []


def test_own_definition_does_not_count():
    tree = ast.parse("def f(k):\n    return f(k - 1)\n"
                     "def g():\n    return h()\n"
                     "def h():\n    return 1\n")
    refs = _References()
    refs.visit(tree)
    f, g, _ = tree.body
    assert all(f in inside for inside in refs.names["f"])
    assert refs.names["h"] == [(g,)]


def test_constants_are_checked():
    tree = ast.parse("A = 1\nB: int = A\n_C = 2\n__all__ = ()\nA = 3\n")
    assert [qual for qual, _, _ in _definitions(tree)] == ["A", "B", "A"]
    refs = _References()
    refs.visit(tree)
    assert set(refs.names) == {"A", "int"}
