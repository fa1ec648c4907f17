"""Linear-time temporal logic over converted transition systems.

Transition-based propositions (such as task occurrence) are shifted onto
states by a partial unfolding: the converted system has one state per
initial state plus one per transition, so a proposition about a transition
can live on that transition's copy without ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lts import AnnotationError, AugmentedLTS, State, Task, TaskSet, Transition
from .paths import Lasso, PathError, enabled
from .labels import TAU
from .tasks import NOTIONS, extract_tasks


class FormulaError(ValueError):
    pass


@dataclass(frozen=True)
class Formula:
    op: str  # atom not and or implies F G true false
    atom: str = ""
    left: "Formula | None" = None
    right: "Formula | None" = None

    def __str__(self) -> str:
        if self.op in ("true", "false"):
            return self.op
        if self.op == "atom":
            return self.atom
        if self.op == "not":
            return f"!{self.left}"
        if self.op in ("F", "G"):
            return f"{self.op}({self.left})"
        sym = {"and": "&", "or": "|", "implies": "->"}[self.op]
        return f"({self.left} {sym} {self.right})"


def atom(name: str) -> Formula:
    return Formula("atom", atom=name)


def true() -> Formula:
    return Formula("true")


def neg(f: Formula) -> Formula:
    return Formula("not", left=f)


def conj(*fs: Formula) -> Formula:
    out = fs[0] if fs else true()
    for f in fs[1:]:
        out = Formula("and", left=out, right=f)
    return out


def disj(a_: Formula, b: Formula) -> Formula:
    return Formula("or", left=a_, right=b)


def implies(a_: Formula, b: Formula) -> Formula:
    return Formula("implies", left=a_, right=b)


def F(f: Formula) -> Formula:  # noqa: N802 - LTL operator names
    return Formula("F", left=f)


def G(f: Formula) -> Formula:  # noqa: N802
    return Formula("G", left=f)


def parse_formula(text: str) -> Formula:
    """Grammar: p | !f | f & g | f "|" g | f -> g | F f | G f | (f) | true |
    false, with atoms of the shape name(argument) or bare identifiers."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> str:
        return tokens[pos] if pos < len(tokens) else ""

    def eat(tok: str) -> None:
        nonlocal pos
        if peek() != tok:
            raise FormulaError(f"expected {tok!r}, found {peek() or 'end'!r}")
        pos += 1

    def parse_implies() -> Formula:
        left = parse_or()
        if peek() == "->":
            eat("->")
            return implies(left, parse_implies())
        return left

    def parse_or() -> Formula:
        left = parse_and()
        while peek() == "|":
            eat("|")
            left = disj(left, parse_and())
        return left

    def parse_and() -> Formula:
        left = parse_unary()
        while peek() == "&":
            eat("&")
            left = Formula("and", left=left, right=parse_unary())
        return left

    def parse_unary() -> Formula:
        nonlocal pos
        t = peek()
        if t == "!":
            eat("!")
            return neg(parse_unary())
        if t in ("F", "G"):
            pos += 1
            return Formula(t, left=parse_unary())
        if t == "(":
            eat("(")
            f = parse_implies()
            eat(")")
            return f
        if t == "true":
            pos += 1
            return true()
        if t == "false":
            pos += 1
            return Formula("false")
        if t and t not in ("&", "|", "->", ")", "!"):
            pos += 1
            return atom(t)
        raise FormulaError(f"unexpected {t or 'end of formula'!r}")

    f = parse_implies()
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
        if c in ("F", "G") and (i + 1 >= n or not (text[i + 1].isalnum() or text[i + 1] in "_:(")):
            out.append(c)
            i += 1
            continue
        if c in ("F", "G") and i + 1 < n and text[i + 1] == "(":
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
    extracted once when the conversion is made.
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

    def holds(self, converted_state: str, prop: str) -> bool:
        """Atomic proposition validity on a converted state.

        State props (enabled:TASK, goal-set membership via explicit ids) are
        read off the underlying target state; occurs:TASK holds exactly at
        converted states that are transitions in the task.
        """
        kind, _, arg = prop.partition(":")
        base = self.base
        is_transition = converted_state.startswith("t/")
        underlying = converted_state[2:]
        if kind == "occurs":
            if not is_transition:
                return False
            task = self._task(arg)
            return underlying in task.members
        if kind == "enabled":
            task = self._task(arg)
            state = base.transition(underlying).target if is_transition else underlying
            return enabled(base, task, state)
        if kind == "state":
            state = base.transition(underlying).target if is_transition else underlying
            return state == arg
        raise FormulaError(f"unknown atomic proposition {prop!r}")

    def _task(self, name: str) -> Task:
        try:
            return self.tasks[name]
        except KeyError:
            raise FormulaError(f"unknown task {name!r} in atomic proposition") from None


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
    position.  Every cycle class reaches every other, so F and G over the
    cycle are one any/all, and the stem classes fold backwards from that
    value: O(|formula| x |lasso|) time.  And/or chains are flattened, so
    their length costs no Python stack.
    """
    lasso.validate(conv.lts)
    # the state of each suffix class: stem positions, then cycle positions
    states = [lasso.start] + [conv.lts.transition(tid).target
                              for tid in lasso.stem + lasso.cycle[:-1]]
    m = len(lasso.stem)

    def sat(f: Formula) -> list[bool]:
        op = f.op
        if op in ("true", "false"):
            return [op == "true"] * len(states)
        if op == "atom":
            return [conv.holds(s, f.atom) for s in states]
        if op == "not":
            return [not v for v in sat(f.left)]
        if op == "implies":
            return [not a_ or b for a_, b in zip(sat(f.left), sat(f.right))]
        if op in ("and", "or"):
            combine = all if op == "and" else any
            return [combine(vs) for vs in zip(*[sat(g) for g in _chain(f)])]
        if op in ("F", "G"):
            combine = any if op == "F" else all
            out = sat(f.left)
            out[m:] = [combine(out[m:])] * (len(out) - m)
            for i in range(m - 1, -1, -1):
                out[i] = combine((out[i], out[i + 1]))
            return out
        raise FormulaError(f"unknown operator {f.op}")

    return sat(formula)[0]


def _chain(f: Formula) -> list[Formula]:
    """The operands, left to right, of the maximal chain of f.op rooted at f."""
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        if g.op == f.op:
            todo += (g.right, g.left)
        else:
            out.append(g)
    return out


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
