"""Differential test of LTL formula parsing, printing, equality and building.

The oracle is the formula type these replaced, copied verbatim: `Formula`
stored every `&`, `|` and `->` as a binary left/right pair, and printing,
equality and hashing walked left-nested chains through `_chain`.  On
hand-written edge cases and on drawn formula texts with random grouping and
whitespace, both sides must print the same text or raise the same error,
split formulas into the same equality classes, and print the same `conj`,
`disj` and `implies` of parsed operands.  Two mutants of the chain builder,
one that splices every operand of its own operator and one that never
splices, must fail the same comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from fairlab import ltl
from fairlab.ltl import MAX_NESTING, FormulaError


# ---------------------------------------------------------------------------
# The oracle: the replaced formula type, builders and parser, verbatim.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Formula:
    """An LTL formula; printing, equality and hashing walk chains by `_chain`."""

    op: str  # atom not and or implies F G true false
    atom: str = ""
    left: "Formula | None" = None
    right: "Formula | None" = None

    def _parts(self) -> tuple:
        if self.right is not None:
            return (self.op, *_chain(self))
        return (self.op, self.atom, self.left, self.right)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Formula) and self._parts() == other._parts()

    def __hash__(self) -> int:
        return hash(self._parts())

    def __str__(self) -> str:
        if self.op in ("true", "false"):
            return self.op
        if self.op == "atom":
            return self.atom
        if self.op == "not":
            return f"!{self.left}"
        if self.op in ("F", "G"):
            return f"{self.op}({self.left})"
        first, *rest = _chain(self)
        sym = {"and": "&", "or": "|", "implies": "->"}[self.op]
        return "(" * len(rest) + str(first) + "".join(f" {sym} {g})" for g in rest)


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
    false, with atoms of the shape name(argument) or bare identifiers.
    Prefix chains are read without recursion; nesting deeper than
    MAX_NESTING is a FormulaError."""
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
        left = parse_or(depth)
        if peek() == "->":
            eat("->")
            return implies(left, parse_implies(depth + 1))
        return left

    def parse_or(depth: int) -> Formula:
        left = parse_and(depth)
        while peek() == "|":
            eat("|")
            left = disj(left, parse_and(depth))
        return left

    def parse_and(depth: int) -> Formula:
        left = parse_unary(depth)
        while peek() == "&":
            eat("&")
            left = Formula("and", left=left, right=parse_unary(depth))
        return left

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
            f = neg(f) if op == "!" else Formula(op, left=f)
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


def _chain(f: Formula) -> list[Formula]:
    """The operands, left to right, of the left-nested chain of f.op at f, as
    `conj` and the parser build it; with f.op they determine f."""
    op, rights = f.op, []
    while f.op == op:
        rights.append(f.right)
        f = f.left
    return [f, *reversed(rights)]


# ---------------------------------------------------------------------------
# The comparison.
# ---------------------------------------------------------------------------

_OLD = SimpleNamespace(conj=conj, disj=disj, implies=implies)

# builders over three parsed operands, on either side (`_OLD` or `ltl`)
_RECIPES = {
    "conj(a)": lambda m, a, b, c: m.conj(a),
    "conj(a, b, c)": lambda m, a, b, c: m.conj(a, b, c),
    "conj(conj(a, b), c)": lambda m, a, b, c: m.conj(m.conj(a, b), c),
    "conj(a, conj(b, c))": lambda m, a, b, c: m.conj(a, m.conj(b, c)),
    "disj(disj(a, b), c)": lambda m, a, b, c: m.disj(m.disj(a, b), c),
    "disj(a, disj(b, c))": lambda m, a, b, c: m.disj(a, m.disj(b, c)),
    "implies(implies(a, b), c)": lambda m, a, b, c: m.implies(m.implies(a, b), c),
    "implies(a, implies(b, c))": lambda m, a, b, c: m.implies(a, m.implies(b, c)),
}


def _outcome(parse, text: str) -> tuple:
    try:
        return "ok", parse(text)
    except FormulaError as exc:
        return "error", str(exc)


def _differences(texts: list[str]) -> list[str]:
    """Every disagreement on the texts: the printed formula or the error
    text; the builders printed over each three consecutive parsed operands;
    and equality between any two of all those formulas, with equal hashes
    for equal ones."""
    out, pool = [], []  # pool: (what, oracle formula, fairlab formula)
    for text in texts:
        old, new = _outcome(parse_formula, text), _outcome(ltl.parse_formula, text)
        if (old[0], str(old[1])) != (new[0], str(new[1])):
            out.append(f"parse {text!r}: {old[0]} {str(old[1])!r} != {new[0]} {str(new[1])!r}")
        elif old[0] == "ok":
            pool.append((text, old[1], new[1]))
    parsed = list(pool)
    for i in range(len(parsed)):
        a_, b, c = (parsed[(i + k) % len(parsed)] for k in range(3))
        for name, recipe in _RECIPES.items():
            what = f"{name} over {a_[0]!r}, {b[0]!r}, {c[0]!r}"
            old = recipe(_OLD, a_[1], b[1], c[1])
            new = recipe(ltl, a_[2], b[2], c[2])
            if str(old) != str(new):
                out.append(f"{what}: {str(old)!r} != {str(new)!r}")
            pool.append((what, old, new))
    for i, (what, old, new) in enumerate(pool):
        for what2, old2, new2 in pool[i:]:
            if (old == old2) != (new == new2):
                out.append(f"equality of {what} and {what2}: {old == old2} != {new == new2}")
            elif new == new2 and hash(new) != hash(new2):
                out.append(f"hash of equal {what} and {what2}")
    return out


_EDGES = [
    # grouping on either side
    "a & b & c", "(a & b) & c", "a & (b & c)", "((a & b) & c) & d", "(a & b) & (c & d)",
    "a | b | c", "(a | b) | c", "a | (b | c)", "a & b | c", "a & (b | c)", "(a | b) & c",
    "a | b & c", "(a)", "((a))", "(a & b)", "((a & b))",
    # implication associativity
    "a -> b -> c", "(a -> b) -> c", "a -> (b -> c)", "((a -> b) -> c) -> d",
    "a & b -> c | d", "(a -> b) & c", "a -> b & c -> d", "(a -> b) -> (c -> d)",
    # prefix chains
    "!!!a", "F G F a", "G(F(a))", "!F!G a", "GFa", "F(a) & G a", "F1 & G_x", "FG(a)",
    "! ! a", "!(a & b)", "G((G(enabled:L) -> F(occurs:L)))",
    # true and false
    "true", "false", "true & false", "!true | false", "true -> false", "(true)",
    # atoms
    "enabled:A:z", "G(G(enabled:A:z) -> F(occurs:A:z))", "occurs:f(x y) & state:s0",
    "enabled:L)", "a&b", "a|b->c", "a\n&\tb",
    # unbalanced or incomplete
    "(a & b", "a & b)", "((a)", ")", "(", "", "   ", "a &", "& a", "a ->", "-> a", "!",
    "a b", "a & & b", "()", "a | | b", "F", "G()", "a -> -> b",
    # nesting at and past the bound, and a long flat chain
    "!" * MAX_NESTING + "a", "!" * (MAX_NESTING + 1) + "a",
    "(" * MAX_NESTING + "a" + ")" * MAX_NESTING,
    "(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1),
    " -> ".join(["a"] * (MAX_NESTING + 1)), " -> ".join(["a"] * (MAX_NESTING + 2)),
    "G " * MAX_NESTING + "a", "G " * (MAX_NESTING + 1) + "a",
    " & ".join(["a"] * 500), "(" + " | ".join(["a"] * 300) + ") | a",
]


def test_edge_cases_match_the_oracle():
    assert _differences(_EDGES) == []
    assert str(ltl.parse_formula("(a & b) & c")) == "((a & b) & c)"
    assert ltl.parse_formula("(a & b) & c").args == ltl.parse_formula("a & b & c").args
    assert len(ltl.parse_formula("a & (b & c)").args) == 2


_LEAVES = st.sampled_from(("a", "b", "enabled:T", "occurs:A:z", "state:s0", "true", "false",
                           "Fx", "f(x y)"))
_SPACE = st.sampled_from(("", " ", "  ", "\n\t"))
_TEXTS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.tuples(st.sampled_from(("!", "F", "G", "F ", "G ")), inner).map("".join),
    st.tuples(inner, _SPACE, st.sampled_from(("&", "|", "->")), _SPACE, inner).map("".join),
    st.tuples(_SPACE, inner, _SPACE).map(lambda t: "(" + "".join(t) + ")")), max_leaves=10)
# one character replaced or deleted, for the error paths
_MUTATED = st.tuples(_TEXTS, st.integers(0, 40), st.sampled_from(
    ("", "(", ")", "&", "->", "!", "F", " "))).map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:])


@given(st.lists(_TEXTS, min_size=1, max_size=3), st.lists(_MUTATED, max_size=2))
def test_drawn_texts_match_the_oracle(operands, mutated):
    # the operands chained under each grouping, so that equal formulas occur
    chains = [f"{left}({x}) {sym} ({y}){right} {sym} ({z})"
              for x, y, z in [(operands * 3)[:3]] for sym in ("&", "|", "->")
              for left, right in (("", ""), ("(", ")"))]
    chains += [f"({x}) {sym} (({y}) {sym} ({z}))"
               for x, y, z in [(operands * 3)[:3]] for sym in ("&", "|", "->")]
    assert _differences(operands + chains + mutated) == []


def _splice_every(op, first, *rest):
    if not rest:
        return first
    return ltl.Formula(op, args=tuple(g for f in (first, *rest)
                                      for g in (f.args if f.op == op else (f,))))


def _splice_none(op, first, *rest):
    return ltl.Formula(op, args=(first, *rest)) if rest else first


@pytest.mark.parametrize("mutant", [_splice_every, _splice_none])
def test_mutant_chain_builders_fail_the_oracle(monkeypatch, mutant):
    monkeypatch.setattr(ltl, "_chain_of", mutant)
    assert _differences(_EDGES)
