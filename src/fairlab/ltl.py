"""Linear-time temporal logic over converted transition systems.

Transition-based propositions (such as task occurrence) are shifted onto
states by a partial unfolding: the converted system has one state per
initial state plus one per transition, so a proposition about a transition
can live on that transition's copy without ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
# implication adds a level.  Evaluation recurses once per level, and
# and/or chains add none.
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
    extracted once when the conversion is made.  The atoms true at a
    converted state are one frozenset, built on first use: `state:` of the
    underlying state (a transition copy's target), `enabled:` of each task
    with a member leaving it, and `occurs:` of each task holding the copied
    transition.
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
        self._checked: set[str] = set()  # atoms whose task or state exists

    def holds(self, converted_state: str, prop: str) -> bool:
        """Atomic proposition validity on a converted state: enabled:TASK
        and state:ID are read off the underlying state, and occurs:TASK
        holds exactly at the copies of the task's transitions.  An unknown
        kind, task or state is a FormulaError wherever it is asked."""
        self._check(prop)
        return prop in self._row(converted_state)

    def _check(self, prop: str) -> None:
        if prop in self._checked:
            return
        kind, _, arg = prop.partition(":")
        if kind in ("enabled", "occurs"):
            if arg not in self.tasks:
                raise FormulaError(f"unknown task {arg!r} in atomic proposition")
        elif kind == "state":
            if arg not in self.base.state_ids():
                raise FormulaError(f"unknown state {arg!r} in atomic proposition")
        else:
            raise FormulaError(f"unknown atomic proposition {prop!r}")
        self._checked.add(prop)

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
    last stem bit set (F) or unset (G) from it on: one `bit_length`.  So
    evaluation costs |formula| integer operations plus one set-membership
    test per atom and suffix class, against the class's atom set.  Every
    operand of a chain is evaluated, so an unknown atom raises wherever it
    stands; a chain is one node, so its length costs no Python stack.
    """
    lasso.validate(conv.lts)
    # the state of each suffix class: stem positions, then cycle positions
    states = [lasso.start] + [conv.lts.transition(tid).target
                              for tid in lasso.stem + lasso.cycle[:-1]]
    full = (1 << len(states)) - 1
    stem = (1 << len(lasso.stem)) - 1
    cyc = full & ~stem
    classes = [(1 << i, conv._row(s)) for i, s in enumerate(states)]

    def sat(f: Formula) -> int:
        op = f.op
        if op in ("true", "false"):
            return full if op == "true" else 0
        if op == "atom":
            a = f.atom
            conv._check(a)
            out = 0
            for bit, row in classes:
                if a in row:
                    out |= bit
            return out
        if op == "not":
            return full & ~sat(f.args[0])
        if op in ("and", "or", "implies"):
            out, *rest = map(sat, f.args)
            for v in rest:
                out = out & v if op == "and" else out | v if op == "or" else (full & ~out) | v
            return out
        if op == "F":
            v = sat(f.args[0])
            return full if v & cyc else (1 << v.bit_length()) - 1
        if op == "G":
            v = sat(f.args[0])
            return full & ~((1 << (stem & ~v).bit_length()) - 1) if v & cyc == cyc else 0
        raise FormulaError(f"unknown operator {f.op}")

    return bool(sat(formula) & 1)


def weak_fairness_formula(ts: TaskSet) -> Formula:
    """The conjunction over tasks of G(G enabled -> F occurs)."""
    parts = [G(implies(G(atom(f"enabled:{t.name}")), F(atom(f"occurs:{t.name}"))))
             for t in ts.tasks]
    return conj(*parts) if parts else true()


def strong_fairness_formula(ts: TaskSet) -> Formula:
    """The conjunction over tasks of GF enabled -> GF occurs."""
    parts = [implies(G(F(atom(f"enabled:{t.name}"))), G(F(atom(f"occurs:{t.name}"))))
             for t in ts.tasks]
    return conj(*parts) if parts else true()
