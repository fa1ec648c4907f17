"""Every function, class and method defined in `src/fairlab` is used by the
program itself: named in `src/fairlab` or `perfbench/` (as a bare name or an
attribute), or exported in `fairlab.__all__`.  Code that only tests call has
no place in `src/`; a test that needs such a helper writes it out itself.
Dunder methods are called by Python and are not scanned.  A method that is
not a property but shares its name with a field or property of some class
counts as used only where something calls that name, since reading the
field names it too.  Likewise every defaulted parameter of a module-level
function outside `fairlab.__all__` is set by some call in `src/fairlab` or
`perfbench/`."""

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


def _is_property(fn) -> bool:
    return any(getattr(d, "id", getattr(d, "attr", None)) in ("property", "cached_property")
               for d in fn.decorator_list)


def _definitions(tree: ast.Module):
    """(name, is a method but not a property) for the module-level functions
    and classes of a module and the methods of its classes, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, not _is_property(item)


def _fields(trees) -> set[str]:
    """The names of the annotated class attributes and the properties."""
    return {item.target.id if isinstance(item, ast.AnnAssign) else item.name
            for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
            or (isinstance(item, ast.FunctionDef) and _is_property(item))}


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
    program = [*src.values(), *_trees(ROOT / "perfbench").values()]
    used = _used_names(program) | set(fairlab.__all__)
    called = {_callee(node) for tree in program for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    fields = _fields(src.values())
    unused = {(module, name) for module, tree in src.items()
              for name, method in _definitions(tree)
              if name not in (called if method and name in fields else used)}
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
