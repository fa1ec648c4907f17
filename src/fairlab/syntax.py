"""Abstract syntax for the CCS fragment.

Expressions carry per-occurrence instruction names on action prefixes; the
canonical printer always prints them, so the printed form of a closed
expression is a faithful state key.  Component paths are words over {L, R}
addressing the arms of parallel compositions (empty word = whole system).
`walk` is the traversal new code should use: it yields every subterm with
its component path, without recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps

from .labels import ActionLabel, RelabelFn


class SyntaxError_(ValueError):
    """Raised for structurally ill-formed expressions."""


Span = tuple[int, int]  # (line, column), 1-based


@dataclass(frozen=True)
class Expr:
    span: Span | None = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Nil(Expr):
    pass


@dataclass(frozen=True)
class Prefix(Expr):
    action: ActionLabel
    name: str  # instruction name of this occurrence
    body: "Expr"


@dataclass(frozen=True)
class Choice(Expr):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Par(Expr):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Restrict(Expr):
    body: "Expr"
    name: str  # restricted base name; blocks all indices of the base


@dataclass(frozen=True)
class Relabel(Expr):
    body: "Expr"
    fn: RelabelFn


@dataclass(frozen=True)
class Var(Expr):
    x: str


@dataclass(frozen=True)
class RecSpec:
    """A finite group of recursive definitions, in declaration order."""

    bindings: tuple[tuple[str, "Expr"], ...]

    def domain(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.bindings)

    def body(self, var: str) -> "Expr":
        for v, b in self.bindings:
            if v == var:
                return b
        raise KeyError(var)

    @cached_property
    def defs(self) -> str:
        """Printed bindings ``X = E, Y = F``, shared by every print of the group."""
        return ", ".join(f"{v} = {_prn(b, _PREC_PAR)}" for v, b in self.bindings)


@dataclass(frozen=True)
class Fix(Expr):
    var: str
    spec: RecSpec

    def __post_init__(self) -> None:
        if self.var not in self.spec.domain():
            raise SyntaxError_(f"fix variable {self.var!r} not defined in its group")


# ---------------------------------------------------------------------------
# Canonical printing.  Precedence, loosest to tightest: | , + , prefix-dot;
# postfix \a and [f] bind tighter than the dot and apply to the nearest atom.
# ---------------------------------------------------------------------------

_PREC_PAR, _PREC_CHOICE, _PREC_PREFIX, _PREC_ATOM = 0, 1, 2, 3


def _prn(e: Expr, prec: int) -> str:
    if isinstance(e, Nil):
        return "0"
    if isinstance(e, Var):
        return e.x
    if isinstance(e, Prefix):
        s = f"{e.action}{{{e.name}}}.{_prn(e.body, _PREC_PREFIX)}"
        return f"({s})" if prec > _PREC_PREFIX else s
    if isinstance(e, Choice):
        s = f"{_prn(e.left, _PREC_CHOICE)} + {_prn(e.right, _PREC_CHOICE + 1)}"
        return f"({s})" if prec > _PREC_CHOICE else s
    if isinstance(e, Par):
        s = f"{_prn(e.left, _PREC_PAR)} | {_prn(e.right, _PREC_PAR + 1)}"
        return f"({s})" if prec > _PREC_PAR else s
    if isinstance(e, Restrict):
        return f"{_prn(e.body, _PREC_ATOM)}\\{e.name}"
    if isinstance(e, Relabel):
        return f"{_prn(e.body, _PREC_ATOM)}{e.fn}"
    if isinstance(e, Fix):
        return f"({e.var} where {e.spec.defs})"
    raise TypeError(f"unknown node {e!r}")


def print_expr(e: Expr) -> str:
    """Canonical text of a named expression; parses back to an equal AST."""
    return _prn(e, _PREC_PAR)


# ---------------------------------------------------------------------------
# Traversal helpers.
# ---------------------------------------------------------------------------

def children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Choice, Par)):
        return (e.left, e.right)
    if isinstance(e, (Prefix, Restrict, Relabel)):
        return (e.body,)
    return ()


def walk(e: Expr):
    """Every subterm of e with its component path, in pre-order and textual
    order.  Fix bodies are included and only parallel arms extend the path;
    iterative, so no nesting depth exhausts the stack."""
    stack = [(e, "")]
    while stack:
        n, path = stack.pop()
        yield n, path
        if isinstance(n, (Prefix, Restrict, Relabel)):
            stack.append((n.body, path))
        elif isinstance(n, Choice):
            stack += ((n.right, path), (n.left, path))
        elif isinstance(n, Par):
            stack += ((n.right, path + "R"), (n.left, path + "L"))
        elif isinstance(n, Fix):
            stack.extend((b, path) for _, b in reversed(n.spec.bindings))


def build(cls, *fields, **span):
    """The plain `make` of `copier`: a new node that keeps its span."""
    return cls(*fields, **span)


def copier(make, leaf, rename=None):
    """A function copying a term bottom-up, building each node by
    make(cls, *fields, span=...).  Var and Fix nodes are copied by leaf(node)
    instead; rename(prefix), if given, names each prefix in textual order.
    One frame per term level."""
    def copy(e: Expr) -> Expr:
        if isinstance(e, Prefix):
            name = rename(e) if rename else e.name
            return make(Prefix, e.action, name, copy(e.body), span=e.span)
        if isinstance(e, (Choice, Par)):
            return make(type(e), copy(e.left), copy(e.right), span=e.span)
        if isinstance(e, Restrict):
            return make(Restrict, copy(e.body), e.name, span=e.span)
        if isinstance(e, Relabel):
            return make(Relabel, copy(e.body), e.fn, span=e.span)
        return leaf(e) if isinstance(e, (Var, Fix)) else make(Nil, span=e.span)

    return copy


def substitute(e: Expr, spec: RecSpec, make) -> Expr:
    """e with every free variable of spec's domain replaced by its fix term,
    built through make: closes a parsed term, or unfolds a fix term once.
    An inner group redefining one of the variables is kept as it is; with an
    empty group this copies e."""
    dom = set(spec.domain())

    def leaf(n: Expr) -> Expr:
        if isinstance(n, Var):
            return make(Fix, n.x, spec, span=n.span) if n.x in dom else make(Var, n.x, span=n.span)
        if dom & set(n.spec.domain()):
            return n
        return make(Fix, n.var, make(RecSpec, tuple((v, copy(b)) for v, b in n.spec.bindings)),
                    span=n.span)

    copy = copier(make, leaf)
    return copy(e)


def depth_guarded(error: type[Exception]):
    """Report a term nested past the interpreter's recursion limit (parsing,
    copying, stepping and printing recurse per level) as error("nesting too deep")."""
    def guard(fn):
        @wraps(fn)
        def guarded(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except RecursionError:
                raise error("nesting too deep") from None
        return guarded
    return guard


def iter_prefixes(e: Expr):
    """All action-prefix occurrences of e, in textual order (fix bodies included)."""
    return (n for n, _ in walk(e) if isinstance(n, Prefix))


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.x}
    if isinstance(e, Fix):
        out: set[str] = set()
        for _, b in e.spec.bindings:
            out |= free_vars(b)
        return out - set(e.spec.domain())
    out = set()
    for c in children(e):
        out |= free_vars(c)
    return out


# ---------------------------------------------------------------------------
# Unguarded occurrences and well-namedness.
# ---------------------------------------------------------------------------

def _unguarded(e: Expr) -> tuple[list[str], set[str]]:
    """Names of e's unguarded action occurrences (with multiplicity) and the
    variables still unguarded in e; a fix term takes in the bodies of its
    group unguarded-reachable from its variable.  Recurses only per group."""
    names: list[str] = []
    free: set[str] = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Prefix):
            names.append(n.name)
        elif isinstance(n, Var):
            free.add(n.x)
        elif isinstance(n, Fix):
            dom, reached = set(n.spec.domain()), [n.var]
            for v in reached:  # grows as bodies are reached
                more, vs = _unguarded(n.spec.body(v))
                names += more
                free |= vs - dom
                reached += sorted(vs & dom - set(reached))
        else:
            stack += reversed(children(n))
    return names, free


def naming_violation(e: Expr) -> tuple[str, Par | None] | None:
    """A name keeping e from being well-named, with the parallel composition
    whose arms share it (None if it occurs twice unguarded); None if e is
    well-named.  The unguarded occurrences of every extended subexpression
    are a sub-multiset of those of a guard root -- e, a prefix body or a fix
    term of a group in e -- so only the guard roots are checked.  The arms'
    name sets are built bottom-up, in reverse walk order, each merged into
    the larger: O(n log n)."""
    nodes = [n for n, _ in walk(e)]
    clash, stack = None, []
    for n in reversed(nodes):
        k = len(n.spec.bindings) if isinstance(n, Fix) else len(children(n))
        arms = sorted((stack.pop() for _ in range(k)), key=len)
        names = arms.pop() if arms else set()
        if isinstance(n, Par) and (shared := names & arms[0]):
            clash = min(shared), n  # last found is first in walk order
        for other in arms:
            names |= other
        if isinstance(n, Prefix):
            names.add(n.name)
        stack.append(names)
    if clash is not None:
        return clash
    roots, groups = [e], set()
    for n in nodes:
        if isinstance(n, Prefix):
            roots.append(n.body)
        elif isinstance(n, Fix) and id(n.spec) not in groups:
            groups.add(id(n.spec))
            roots += [Fix(v, n.spec) for v in n.spec.domain()]
    for root in roots:
        names = _unguarded(root)[0]
        if len(names) != len(set(names)):
            return next(x for k, x in enumerate(names) if x in names[:k]), None
    return None


def well_named(e: Expr) -> bool:
    """Every extended subexpression has pairwise-distinct names on its
    unguarded action occurrences, and parallel arms have disjoint name sets."""
    return naming_violation(e) is None


# ---------------------------------------------------------------------------
# Components.
# ---------------------------------------------------------------------------

ComponentPath = str  # word over {L, R}; "" is the whole system


def instruction_paths(e: Expr) -> dict[str, list[ComponentPath]]:
    """Innermost parallel arm of every instruction occurrence in e, by name,
    in walk order.

    Occurrences inside a fix group inherit the component of the fix term:
    the fragment forbids parallel composition inside definition bodies, so
    every occurrence of the group sits in the arm holding the reference.
    """
    table: dict[str, list[str]] = {}
    for n, path in walk(e):
        if isinstance(n, Prefix):
            table.setdefault(n.name, []).append(path)
    return table


def cmp_table(e: Expr) -> dict[str, ComponentPath]:
    """cmp: the component of each instruction of e (the last one walked if
    an ill-named term places it in several; `parse_ccs` rejects those)."""
    return {name: where[-1] for name, where in instruction_paths(e).items()}


def project(state: Expr, c: ComponentPath) -> Expr | None:
    """Select the component of `state` addressed by c; None if absent.

    Restriction and relabelling wrappers are descended transparently (they are
    not components themselves, only the leaves of the parallel tree are).
    """
    e = state
    for step in c:
        while isinstance(e, (Restrict, Relabel)):
            e = e.body
        if not isinstance(e, Par):
            return None
        e = e.left if step == "L" else e.right
    return e


# ---------------------------------------------------------------------------
# ProcessSpec and fragment checking.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessSpec:
    """A named, closed expression with its name and component tables."""

    root: Expr
    name_table: dict[str, tuple[Span | None, ActionLabel]]
    cmp_map: dict[str, ComponentPath]
    nonblocking: frozenset[str] = frozenset()  # label bases declared non-blocking

    def cmp_of(self, instruction: str) -> ComponentPath:
        try:
            return self.cmp_map[instruction]
        except KeyError:
            raise KeyError(f"unknown instruction name {instruction!r}") from None


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: Span | None = None

    def __str__(self) -> str:
        if self.span:
            return f"{self.span[0]}:{self.span[1]}: {self.message}"
        return self.message


def check_fragment(spec: ProcessSpec) -> list[Diagnostic]:
    """Fragment restrictions, each violation with its source span.

    Violations: parallel composition anywhere inside a definition body; an
    unguarded occurrence of a process variable in a definition body; an
    unguarded parallel composition inside a choice arm.
    """
    out: list[Diagnostic] = []

    def walk(e: Expr, in_def: str | None, unguarded: bool, in_choice: bool) -> None:
        if isinstance(e, Par):
            if in_def is not None:
                out.append(Diagnostic(
                    f"parallel composition in the definition of {in_def}", e.span))
            elif in_choice and unguarded:
                out.append(Diagnostic(
                    "unguarded parallel composition inside a choice", e.span))
            walk(e.left, in_def, unguarded, False)
            walk(e.right, in_def, unguarded, False)
        elif isinstance(e, Choice):
            walk(e.left, in_def, unguarded, True)
            walk(e.right, in_def, unguarded, True)
        elif isinstance(e, Prefix):
            walk(e.body, in_def, False, False)
        elif isinstance(e, (Restrict, Relabel)):
            walk(e.body, in_def, unguarded, in_choice)
        elif isinstance(e, Var):
            if unguarded and in_def is not None:
                out.append(Diagnostic(
                    f"unguarded occurrence of variable {e.x} in the definition of {in_def}",
                    e.span))
        elif isinstance(e, Fix):
            for v, b in e.spec.bindings:
                walk(b, v, True, False)

    walk(spec.root, None, True, False)
    return out
