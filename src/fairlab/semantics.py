"""Operational semantics: derive augmented transitions and explore state spaces.

`explore` hash-conses the terms it builds (Filliatre & Conchon, 2006), so
states are told apart by node identity and each is printed once, for the
canonical text naming it (fix bodies are not unfolded for printing).  Each
derived transition carries the instruction name(s) threaded through its
derivation (one name for a prefix firing, two for a handshake) and the
component set computed from the innermost parallel arms of those instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .labels import ActionLabel, TAU
from .syntax import (Choice, Expr, Fix, Nil, Par, Prefix, ProcessSpec, RecSpec,
                     Relabel, Restrict, Var, depth_guarded, print_expr, substitute)


class SemanticsError(ValueError):
    pass


@dataclass(frozen=True)
class Step:
    """One derivable transition of an expression, before id assignment."""

    label: ActionLabel
    instr: frozenset[str]
    target: Expr


def _interner():
    """A fresh intern table's constructor mk(cls, *fields, span=...), which
    drops spans.  It keys a node by class, Expr/RecSpec fields (and binding
    terms) by identity and other fields by value: equal terms are one node."""
    table: dict[tuple, object] = {}

    def mk(cls, *fields, span=None):
        key = (cls, *[id(f) if isinstance(f, (Expr, RecSpec))
                      else tuple((v, id(b)) for v, b in f) if isinstance(f, tuple)
                      else f for f in fields])
        node = table.get(key)
        if node is None:
            node = table[key] = cls(*fields)
        return node

    return mk


@depth_guarded(SemanticsError)
def step(state: Expr) -> list[Step]:
    """All transitions derivable from a closed expression, deterministically
    ordered by (label, instruction set, target print).  Stuck states give []."""
    return _ordered(_step(state, _interner(), {}))


def _ordered(steps: list[Step]) -> list[Step]:
    """Sort by (label, instruction set).  Only targets that tie on both are
    printed, to order them and to drop duplicates (the first one stays)."""
    groups: dict[tuple[str, tuple[str, ...]], list[Step]] = {}
    for s in steps:
        groups.setdefault((str(s.label), tuple(sorted(s.instr))), []).append(s)
    out: list[Step] = []
    for _, group in sorted(groups.items()):
        if len(group) > 1:
            texts = {print_expr(s.target): s for s in reversed(group)}
            group = [texts[text] for text in sorted(texts)]
        out += group
    return out


def _step(e: Expr, mk, memo: dict[int, list[Step] | None]) -> list[Step]:
    """The unordered steps of e, memoised by the identity of interned nodes.
    A node is marked None while its steps are derived: meeting it again
    means an unguarded recursion, which re-enters the same interned fix term
    within two unfoldings."""
    if id(e) in memo:
        out = memo[id(e)]
        if out is None:
            raise SemanticsError("unguarded recursion: derivation does not terminate")
        return out
    memo[id(e)] = None
    if isinstance(e, Var):
        raise SemanticsError(f"cannot step open expression (free {e.x})")
    if isinstance(e, Nil):
        out = []
    elif isinstance(e, Prefix):
        out = [Step(e.action, frozenset([e.name]), e.body)]
    elif isinstance(e, Choice):
        out = _step(e.left, mk, memo) + _step(e.right, mk, memo)
    elif isinstance(e, Par):
        left = _step(e.left, mk, memo)
        right = _step(e.right, mk, memo)
        out = [Step(s.label, s.instr, mk(Par, s.target, e.right)) for s in left]
        out += [Step(s.label, s.instr, mk(Par, e.left, s.target)) for s in right]
        for ls in left:
            if ls.label.is_tau:
                continue
            comp = ls.label.complement()
            for rs in right:
                if rs.label == comp:
                    out.append(Step(TAU, ls.instr | rs.instr, mk(Par, ls.target, rs.target)))
    elif isinstance(e, Restrict):
        out = [Step(s.label, s.instr, mk(Restrict, s.target, e.name))
               for s in _step(e.body, mk, memo)
               if s.label.is_tau or s.label.base != e.name]
    elif isinstance(e, Relabel):
        out = [Step(e.fn.apply(s.label), s.instr, mk(Relabel, s.target, e.fn))
               for s in _step(e.body, mk, memo)]
    elif isinstance(e, Fix):
        out = _step(substitute(e.spec.body(e.var), e.spec, mk), mk, memo)
    else:
        raise TypeError(f"unknown node {e!r}")
    memo[id(e)] = out
    return out


@dataclass
class ExploredState:
    id: str
    expr: Expr
    key: str


@dataclass
class ExploredTransition:
    id: str
    source: str
    target: str
    label: ActionLabel
    instr: frozenset[str]
    comp: frozenset[str]
    blocking: bool


@dataclass
class ExplorationReport:
    """Breadth-first closure of step from the root, possibly truncated."""

    states: list[ExploredState]
    transitions: list[ExploredTransition]
    initial: str
    truncated: bool


@depth_guarded(SemanticsError)
def explore(spec: ProcessSpec, state_cap: int = 512, depth_cap: int = 256) -> ExplorationReport:
    """Explore the reachable state space, telling interned states apart by identity.

    Stops at either cap; `truncated` is set iff some discovered state was left
    unexpanded or an expansion target was not admitted.  State and transition
    ids are assigned in discovery order and are stable across runs.
    """
    if state_cap < 1 or depth_cap < 1:
        raise ValueError("caps must be at least 1")
    mk, memo = _interner(), {}
    root = substitute(spec.root, RecSpec(()), mk)
    states: list[ExploredState] = []
    transitions: list[ExploredTransition] = []
    by_node: dict[int, str] = {}  # id of an interned term -> state id
    depths: list[int] = []  # of each state, from its admission
    truncated = False

    def admit(e: Expr, depth: int) -> str | None:
        nonlocal truncated
        sid = by_node.get(id(e))
        if sid is not None:
            return sid
        if len(states) >= state_cap:
            truncated = True
            return None
        sid = f"s{len(states)}"
        by_node[id(e)] = sid
        states.append(ExploredState(sid, e, print_expr(e)))
        depths.append(depth)
        return sid

    # states are admitted in breadth-first order: expand them in that order
    admit(root, 0)
    k = 0
    while k < len(states):
        state, depth = states[k], depths[k]
        k += 1
        if depth >= depth_cap:
            truncated = True
            continue
        for s in _ordered(_step(state.expr, mk, memo)):
            tid = admit(s.target, depth + 1)
            if tid is None:
                continue
            comp = frozenset(spec.cmp_of(i) for i in s.instr)
            blocking = (not s.label.is_tau) and s.label.base not in spec.nonblocking
            transitions.append(ExploredTransition(
                f"t{len(transitions)}", state.id, tid, s.label, s.instr, comp, blocking))
    return ExplorationReport(states, transitions, "s0", truncated)
