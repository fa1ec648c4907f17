"""Every function, class and method defined in `src/fairlab` is used by the
program itself: named in `src/fairlab` or `perfbench/` (as a bare name or an
attribute), or exported in `fairlab.__all__`.  Code that only tests call has
no place in `src/`; a test that needs such a helper writes it out itself.
Dunder methods are called by Python and are not scanned."""

from __future__ import annotations

import ast
from pathlib import Path

import fairlab

ROOT = Path(__file__).resolve().parent.parent

# (module, name) -> why it stays although the program does not call it
KEPT = {
    ("lts", "concurrent"): "the paper's concurrency relation; the justness checks are to use it",
    ("lts", "requested"): "the paper's request predicate, documented in the README library section",
    ("ltl", "disj"): "the disjunction constructor beside `conj`, for building formulas in Python",
}


def _trees(folder: Path) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(folder.glob("*.py"))}


def _definitions(tree: ast.Module):
    """The module-level functions and classes of a module and the methods of
    its classes, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name


def _used_names(trees) -> set[str]:
    out: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_every_src_definition_is_used_by_the_program():
    src = _trees(ROOT / "src" / "fairlab")
    used = _used_names([*src.values(), *_trees(ROOT / "perfbench").values()])
    used |= set(fairlab.__all__)
    unused = {(module, name) for module, tree in src.items()
              for name in _definitions(tree) if name not in used}
    assert unused == set(KEPT), sorted(unused ^ set(KEPT))
