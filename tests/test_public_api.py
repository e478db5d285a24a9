"""Every name greenloop exports is used by the program or documented for users.

A name in greenloop.__all__ passes when code loads it (an ast Name or
Attribute read, not text in a docstring or an import) in src/greenloop
outside its own definition and __init__.py, in perfbench/ or in tools/,
or when README's Library section names it. A helper kept only for its
own tests belongs in a tests/reference_*.py module instead.
"""

import ast
import re
from pathlib import Path

import greenloop

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "greenloop"


def _sources():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path
    for folder in ("perfbench", "tools"):
        yield from sorted((ROOT / folder).rglob("*.py"))


def _loads(tree):
    """The names tree reads, each skipped inside a def or class of its own name."""
    found = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in defining:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return found


def _library_section():
    readme = (ROOT / "README.md").read_text("utf-8")
    section = re.search(r"^## Library\n(.*?)(?=^## )", readme, re.S | re.M)
    assert section, "README has no Library section"
    return section.group(1)


def test_every_export_is_used_or_documented():
    loaded = set()
    for path in _sources():
        loaded |= _loads(ast.parse(path.read_text("utf-8"), str(path)))
    library = _library_section()
    unused = [
        name for name in greenloop.__all__
        if name not in loaded and not re.search(rf"\b{re.escape(name)}\b", library)
    ]
    assert unused == []

