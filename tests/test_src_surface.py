"""Every function, class and method defined in `src/fairlab` is used by the
program itself: named in `src/fairlab` or `perfbench/` (as a bare name or an
attribute), or exported in `fairlab.__all__`.  Code that only tests call has
no place in `src/`; a test that needs such a helper writes it out itself.
Dunder methods are called by Python and are not scanned.  Likewise every
defaulted parameter of a module-level function outside `fairlab.__all__` is
set by some call in `src/fairlab` or `perfbench/`."""

from __future__ import annotations

import ast
from pathlib import Path

import fairlab

ROOT = Path(__file__).resolve().parent.parent

# (module, name) -> why it stays although the program does not call it
KEPT = {
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


# (module, function, parameter) -> why its default stays although no call sets it
DEFAULTS_KEPT = {
    ("cli", "main", "argv"): "the console script and `python -m fairlab` call main() bare, "
                             "so argv defaults to the command line; tests pass their own",
}


def _defaulted(fn: ast.FunctionDef) -> set[str]:
    positional = fn.args.posonlyargs + fn.args.args
    return ({a.arg for a in positional[len(positional) - len(fn.args.defaults):]}
            | {a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None})


def _set_by(fn: ast.FunctionDef, call: ast.Call) -> set[str]:
    """The parameters of fn that call passes; all of them when it unpacks."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return set(positional) | {a.arg for a in fn.args.kwonlyargs}
    return set(positional[:len(call.args)]) | {k.arg for k in call.keywords}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_defaulted_parameter_is_set_by_the_program():
    src = _trees(ROOT / "src" / "fairlab")
    calls = [node for tree in [*src.values(), *_trees(ROOT / "perfbench").values()]
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = {(module, fn.name, param) for module, tree in src.items() for fn in tree.body
             if isinstance(fn, ast.FunctionDef) and fn.name not in fairlab.__all__
             for param in _defaulted(fn).difference(
                 *(_set_by(fn, c) for c in calls if _callee(c) == fn.name))}
    assert unset == set(DEFAULTS_KEPT), sorted(unset ^ set(DEFAULTS_KEPT))
