"""Linear-time temporal logic over converted transition systems.

Transition-based propositions (such as task occurrence) are shifted onto
states by a partial unfolding: the converted system has one state per
initial state plus one per transition, so a proposition about a transition
can live on that transition's copy without ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .lts import AnnotationError, AugmentedLTS, State, Task, TaskSet, Transition
from .paths import Lasso, PathError
from .labels import TAU
from .tasks import NOTIONS, extract_tasks


class FormulaError(ValueError):
    pass


@dataclass(frozen=True)
class Formula:
    """An LTL formula.  `not`, `F` and `G` hold one operand in `args`; `and`,
    `or` and `implies` hold the operands of a left-grouped chain, so
    `(a & b) & c` is one node with three operands, built by `_chain_of`."""

    op: str  # atom not and or implies F G true false
    atom: str = ""
    args: tuple[Formula, ...] = ()

    def __str__(self) -> str:
        if self.op in ("true", "false"):
            return self.op
        if self.op == "atom":
            return self.atom
        if self.op == "not":
            return f"!{self.args[0]}"
        if self.op in ("F", "G"):
            return f"{self.op}({self.args[0]})"
        first, *rest = self.args
        sym = {"and": "&", "or": "|", "implies": "->"}[self.op]
        return "(" * len(rest) + str(first) + "".join(f" {sym} {g})" for g in rest)

    @cached_property
    def program(self) -> tuple[tuple[str, str], ...]:
        """The formula in postfix, built without recursion: a chain's operator
        follows each operand but the first; an unknown operator is one step."""
        out, todo = [], [self]
        while todo:
            f = todo.pop()
            if isinstance(f, tuple):
                out.append(f)
            elif f.op in ("not", "F", "G"):
                todo += [(f.op, ""), f.args[0]]
            elif f.op in ("and", "or", "implies"):
                for g in reversed(f.args[1:]):
                    todo += [(f.op, ""), g]
                todo.append(f.args[0])
            else:  # an atom, true, false, or an unknown operator: it raises there
                out.append((f.op, f.atom))
        return tuple(out)


def _chain_of(op: str, first: Formula, *rest: Formula) -> Formula:
    """The left-grouped chain of op over the operands, one node; a first
    operand that is itself a chain of op gives its operands, so (a & b) & c
    is a & b & c."""
    if not rest:
        return first
    return Formula(op, args=(*(first.args if first.op == op else (first,)), *rest))


def atom(name: str) -> Formula:
    return Formula("atom", atom=name)


def true() -> Formula:
    return Formula("true")


def neg(f: Formula) -> Formula:
    return Formula("not", args=(f,))


def conj(*fs: Formula) -> Formula:
    return _chain_of("and", *fs) if fs else true()


def disj(a_: Formula, b: Formula) -> Formula:
    return _chain_of("or", a_, b)


def implies(a_: Formula, b: Formula) -> Formula:
    return _chain_of("implies", a_, b)


def F(f: Formula) -> Formula:  # noqa: N802 - LTL operator names
    return Formula("F", args=(f,))


def G(f: Formula) -> Formula:  # noqa: N802
    return Formula("G", args=(f,))


# Deepest nesting parse_formula accepts: each !, F, G, parenthesis and
# implication adds a level, and printing and comparing recurse once per level.
MAX_NESTING = 100


def parse_formula(text: str) -> Formula:
    """Grammar: p | !f | f & g | f "|" g | f -> g | F f | G f | (f) | true |
    false; `!`, `F` and `G` bind tightest, then `&`, `|` and `->`, which groups
    to the right.  An atom `kind:argument` runs to the next space or operator,
    keeping balanced parentheses only so that custom task names with them
    still work.  Prefix chains are read without recursion; nesting deeper
    than MAX_NESTING is a FormulaError."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> str:
        return tokens[pos] if pos < len(tokens) else ""

    def eat(tok: str) -> None:
        nonlocal pos
        if peek() != tok:
            raise FormulaError(f"expected {tok!r}, found {peek() or 'end'!r}")
        pos += 1

    def parse_implies(depth: int) -> Formula:
        left = parse_chain("|", depth)
        if peek() == "->":
            eat("->")
            return implies(left, parse_implies(depth + 1))
        return left

    def parse_chain(sym: str, depth: int) -> Formula:
        # an "|" chain of "&" chains of unary formulas
        operand = (lambda d: parse_chain("&", d)) if sym == "|" else parse_unary
        operands = [operand(depth)]
        while peek() == sym:
            eat(sym)
            operands.append(operand(depth))
        return _chain_of("or" if sym == "|" else "and", *operands)

    def parse_unary(depth: int) -> Formula:
        nonlocal pos
        ops = []
        while peek() in ("!", "F", "G"):
            ops.append(peek())
            pos += 1
        depth += len(ops)
        if depth > MAX_NESTING:
            raise FormulaError(f"formula nested deeper than {MAX_NESTING} levels")
        t = peek()
        if t == "(":
            eat("(")
            f = parse_implies(depth + 1)
            eat(")")
        elif t in ("true", "false"):
            pos += 1
            f = Formula(t)
        elif t and t not in ("&", "|", "->", ")"):
            pos += 1
            f = atom(t)
        else:
            raise FormulaError(f"unexpected {t or 'end of formula'!r}")
        for op in reversed(ops):
            f = {"!": neg, "F": F, "G": G}[op](f)
        return f

    f = parse_implies(0)
    if pos != len(tokens):
        raise FormulaError(f"trailing input {tokens[pos]!r}")
    return f


def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            out.append("->")
            i += 2
            continue
        if c in "!&|()":
            out.append(c)
            i += 1
            continue
        if c in ("F", "G") and not (i + 1 < n and (text[i + 1].isalnum() or text[i + 1] in "_:")):
            out.append(c)
            i += 1
            continue
        j = i
        depth = 0
        while j < n:
            ch = text[j]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and (ch.isspace() or ch in "!&|" or text.startswith("->", j)):
                break
            j += 1
        out.append(text[i:j])
        i = j
    return out


# ---------------------------------------------------------------------------
# The state-shifting conversion.
# ---------------------------------------------------------------------------

@dataclass
class ConvertedLTS:
    """States are the initial states plus the transitions of the input.

    `tasks` resolves the task names of atomic propositions: the input's own
    task sets first, then every notion its annotations support, each
    extracted once.  The atoms true at a converted state are one frozenset,
    built on first use: `state:` of the underlying state (a transition
    copy's target), `enabled:` of each task with a member leaving it, and
    `occurs:` of each task holding the copied transition.  One slot keeps
    the last lasso `eval_ltl` was given, with its masks; an equal lasso
    reuses it and any other replaces it.
    """

    base: AugmentedLTS
    lts: AugmentedLTS
    tasks: dict[str, Task] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.tasks = {}
        for ts in self.base.tasks.values():
            for t in ts.tasks:
                self.tasks.setdefault(t.name, t)
        for notion in NOTIONS:
            try:
                ts = extract_tasks(self.base, notion)
            except AnnotationError:
                continue
            for t in ts.tasks:
                self.tasks.setdefault(t.name, t)
        # transition id -> the names of the tasks that contain it
        self._names: dict[str, list[str]] = {}
        for name, task in self.tasks.items():
            for tid in task.members:
                self._names.setdefault(tid, []).append(name)
        self._table: dict[str, frozenset[str]] = {}  # converted state -> atoms true there
        self._states = frozenset(self.base.state_ids())  # what `state:` atoms may name
        self._lasso: tuple | None = None  # (lasso, full, stem, cyc, atom -> mask)

    def _check(self, prop: str) -> None:
        kind, _, arg = prop.partition(":")
        if kind in ("enabled", "occurs"):
            if arg not in self.tasks:
                raise FormulaError(f"unknown task {arg!r} in atomic proposition")
        elif kind == "state":
            if arg not in self._states:
                raise FormulaError(f"unknown state {arg!r} in atomic proposition")
        else:
            raise FormulaError(f"unknown atomic proposition {prop!r}")

    def _row(self, converted_state: str) -> frozenset[str]:
        row = self._table.get(converted_state)
        if row is None:
            names, state = self._names, converted_state[2:]
            occurs = []
            if converted_state.startswith("t/"):
                occurs = [f"occurs:{n}" for n in names.get(state, ())]
                state = self.base.transition(state).target
            enabled = [f"enabled:{n}" for t in self.base.outgoing(state)
                       for n in names.get(t.id, ())]
            row = self._table[converted_state] = frozenset([f"state:{state}", *occurs, *enabled])
        return row

    def _masks(self, lasso: Lasso) -> tuple:
        """The lasso, validated, its full, stem and cycle masks, and the mask of
        each atom true on it, read off one row per suffix class."""
        slot = self._lasso
        if slot is None or slot[0] != lasso:
            lasso.validate(self.lts)
            states = [lasso.start] + [self.lts.transition(tid).target
                                      for tid in lasso.stem + lasso.cycle[:-1]]
            masks: dict[str, int] = {}
            for i, s in enumerate(states):
                for a in self._row(s):
                    masks[a] = masks.get(a, 0) | 1 << i
            full, stem = (1 << len(states)) - 1, (1 << len(lasso.stem)) - 1
            slot = self._lasso = (lasso, full, stem, full & ~stem, masks)
        return slot


def ltl_convert(lts: AugmentedLTS) -> ConvertedLTS:
    """Partial unfolding: S' = I + Tr, with an edge from x to u whenever u can
    be taken right after x."""
    states = [State(f"s/{s}", None) for s in lts.initial]
    states += [State(f"t/{t.id}", None) for t in lts.transitions]
    transitions = []
    for t in lts.transitions:
        if t.source in lts.initial:
            transitions.append(Transition(f"c/{t.source}/{t.id}", f"s/{t.source}",
                                          f"t/{t.id}", TAU, None, None, False))
    for t in lts.transitions:
        for u in lts.outgoing(t.target):
            transitions.append(Transition(f"c/{t.id}/{u.id}", f"t/{t.id}",
                                          f"t/{u.id}", TAU, None, None, False))
    converted = AugmentedLTS(states, transitions, [f"s/{s}" for s in lts.initial],
                             origin="handwritten", truncated=lts.truncated)
    return ConvertedLTS(lts, converted)


def convert_lasso(conv: ConvertedLTS, lasso: Lasso) -> Lasso:
    """Image of a rooted lasso of the base system inside the converted system.

    The image's cycle runs over the copies of the base cycle's transitions,
    and the image's stem gains one edge (into the first cycle copy).
    """
    lasso.validate(conv.base)
    if lasso.start not in conv.base.initial:
        raise PathError("only rooted lassos exist in the converted system")
    chain = [f"s/{lasso.start}"] + [f"t/{t}" for t in lasso.stem] + [f"t/{lasso.cycle[0]}"]
    stem_edges = tuple(f"c/{a[2:]}/{b[2:]}" for a, b in zip(chain, chain[1:]))
    cyc_nodes = [f"t/{t}" for t in lasso.cycle]
    cycle_edges = tuple(f"c/{a[2:]}/{b[2:]}"
                        for a, b in zip(cyc_nodes, cyc_nodes[1:] + cyc_nodes[:1]))
    return Lasso(start=f"s/{lasso.start}", stem=stem_edges, cycle=cycle_edges)


def eval_ltl(conv: ConvertedLTS, lasso: Lasso, formula: Formula) -> bool:
    """Satisfaction on the infinite path denoted by a converted-system lasso.

    The path has one suffix class per stem position and one per cycle
    position.  A subformula's value is one int with bit i set when it holds
    at suffix class i, stem classes first.  Every cycle class reaches every
    other, so F and G test the cycle bits once, and a stem class reads the
    last stem bit set (F) or unset (G) from it on: one `bit_length`.  The
    formula's `program` runs over a stack of ints, one integer operation a
    step, and an atom's mask is one lookup in the lasso's table, which every
    formula asked of that lasso shares.  Every operand of a chain is
    evaluated, so an unknown atom raises wherever it stands.
    """
    _, full, stem, cyc, masks = conv._masks(lasso)
    stack: list[int] = []
    for op, arg in formula.program:
        if op == "atom":
            v = masks.get(arg)
            if v is None:  # true nowhere on the lasso, or unknown
                conv._check(arg)
                v = masks[arg] = 0
            stack.append(v)
        elif op == "G":
            v = stack[-1]
            stack[-1] = full & ~((1 << (stem & ~v).bit_length()) - 1) if v & cyc == cyc else 0
        elif op == "F":
            v = stack[-1]
            stack[-1] = full if v & cyc else (1 << v.bit_length()) - 1
        # a chain step pops its right operand, then reads the left one
        elif op == "and":
            stack[-1] = stack.pop() & stack[-1]
        elif op == "implies":
            stack[-1] = stack.pop() | (full & ~stack[-1])
        elif op == "or":
            stack[-1] = stack.pop() | stack[-1]
        elif op == "not":
            stack[-1] = full & ~stack[-1]
        elif op in ("true", "false"):
            stack.append(full if op == "true" else 0)
        else:
            raise FormulaError(f"unknown operator {op}")
    return bool(stack[-1] & 1)


def weak_fairness_formula(ts: TaskSet) -> Formula:
    """The conjunction over tasks of G(G enabled -> F occurs)."""
    parts = [G(implies(G(atom(f"enabled:{t.name}")), F(atom(f"occurs:{t.name}"))))
             for t in ts.tasks]
    return conj(*parts)


def strong_fairness_formula(ts: TaskSet) -> Formula:
    """The conjunction over tasks of GF enabled -> GF occurs."""
    parts = [implies(G(F(atom(f"enabled:{t.name}"))), G(F(atom(f"occurs:{t.name}"))))
             for t in ts.tasks]
    return conj(*parts)
