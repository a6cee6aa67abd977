"""Every private top-level name of the package is used by the package."""

import ast
from pathlib import Path

import mexlab

SRC = Path(mexlab.__file__).resolve().parent


def _defined(node) -> list[str]:
    """The names a top-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _references(tree) -> list[str]:
    """Each loaded name and each attribute name read in tree, with repeats."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
    return out


def test_every_private_top_level_name_is_referenced():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in modules}
    counts: dict[str, int] = {}
    for tree in trees.values():
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            own = _references(node)  # a use inside its own definition is no use
            for name in _defined(node):
                if name.startswith("_") and not name.startswith("__"):
                    if counts.get(name, 0) - own.count(name) == 0:
                        unused.append(f"{module}: {name}")
    assert not unused, f"private names the package never uses: {unused}"
