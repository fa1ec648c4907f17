"""Differential tests of the CCS scanner and parser.

The oracles are the character loop `_tokenize` and the token-by-token
`_Parser` that the regex scanner, with its one-token relabellings, and the
per-call relabelling memo replaced; they are copied as they were, except
that an index `int` cannot read (such as "²") is a ParseError at its
position here as in the parser, not a bare ValueError, and that a
duplicate definition in a where-clause is reported when its variable is
read, and it and a variable defined twice at the position the parser
gives them: the repeated binding's variable, the inner group's fix term.  `_close` is the recursive copy that
closed parsed terms before `syntax.substitute` took its place.  On every
input both sides must give the same tokens (a RELABEL token standing for
"[", the tokens of its interior and "]") or the same error text, and
`parse_ccs` and `parse_expression` must give equal terms, the same span on
every node and, for `parse_ccs`, the same name table.

The elaboration oracle is the pair of passes that `_assign_names` merged:
`_restrict_groups` rebuilt the parsed root with every fix term restricted
to the definitions reachable from its variable, then `_assign_names` named
the prefixes of that copy.  On every input the one pass must give the same
term, span on every node and name table, or the same error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from unittest import mock

from hypothesis import given, strategies as st

from families import _grid, _ring

from fairlab import parser
from fairlab.corpus import build, corpus_entries
from fairlab.labels import ActionLabel, LabelError, RelabelFn, RelabelRule, TAU
from fairlab.lts import from_exploration
from fairlab.parser import _KEYWORDS, ParseError
from fairlab.semantics import explore
from fairlab.syntax import (Choice, Expr, Fix, Nil, Par, Prefix, ProcessSpec, RecSpec,
                            Relabel, Restrict, Span, Var, free_vars, walk)


# -- oracles ----------------------------------------------------------------

@dataclass(frozen=True)
class _OracleToken:
    kind: str  # IDENT UIDENT PUNCT INDEX NAMEANN EOF
    text: str
    span: Span


def _oracle_tokenize(text: str) -> list[_OracleToken]:
    toks: list[_OracleToken] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = (line, col)
        if text.startswith("->", i):
            toks.append(_OracleToken("PUNCT", "->", span))
            i += 2
            col += 2
            continue
        if c == "{":
            j = text.find("}", i)
            if j < 0:
                raise ParseError("unterminated instruction name", span)
            toks.append(_OracleToken("PUNCT", "{", span))
            toks.append(_OracleToken("NAME", text[i + 1:j].strip(), (line, col + 1)))
            toks.append(_OracleToken("PUNCT", "}", (line, col + (j - i))))
            col += j - i + 1
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            word = text[i:j]
            toks.append(_OracleToken("PUNCT" if word == "0" else "INDEX", word, span))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "IDENT" if (word in _KEYWORDS or word[0].islower() or word[0] == "_") else "UIDENT"
            toks.append(_OracleToken(kind, word, span))
            col += j - i
            i = j
            continue
        if c in "()" or c in "{}[]" or c in "+|.,\\='#":
            toks.append(_OracleToken("PUNCT", c, span))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", span)
    toks.append(_OracleToken("EOF", "", (line, col)))
    return toks


class _OracleParser:
    def __init__(self, tokens: list[_OracleToken]):
        self.toks = tokens
        self.pos = 0

    def peek(self, k: int = 0) -> _OracleToken:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> _OracleToken:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, text: str) -> _OracleToken:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.span)
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # expr := par; par := choice ('|' choice)*; choice := item ('+' item)*
    def parse_expr(self) -> Expr:
        e = self.parse_choice()
        while self.at("|"):
            sp = self.next().span
            e = Par(e, self.parse_choice(), span=sp)
        return e

    def parse_choice(self) -> Expr:
        e = self.parse_prefix()
        while self.at("+"):
            sp = self.next().span
            e = Choice(e, self.parse_prefix(), span=sp)
        return e

    def _at_action(self) -> bool:
        t = self.peek()
        return t.text == "'" or t.text == "tau" or (t.kind == "IDENT" and t.text not in _KEYWORDS)

    def parse_prefix(self) -> Expr:
        if self._at_action():
            # lookahead: an action is a prefix head unless followed by an
            # operator that turns the bare name into a standalone process
            sp = self.peek().span
            label, name = self.parse_action_head()
            if self.at("."):
                self.next()
                return Prefix(label, name, self.parse_prefix(), span=sp)
            return Prefix(label, name, Nil(), span=sp)  # bare action = action.0
        return self.parse_postfix()

    def parse_action_head(self) -> tuple[ActionLabel, str]:
        t = self.next()
        if t.text == "'":
            base = self.next()
            if base.kind != "IDENT" or base.text in _KEYWORDS:
                raise ParseError("expected an action name after '", base.span)
            label = ActionLabel("co", base.text, self._opt_index())
        elif t.text == "tau":
            label = TAU
        else:
            label = ActionLabel("name", t.text, self._opt_index())
        name = ""
        if self.at("{"):
            self.next()
            nt = self.next()
            if nt.kind != "NAME" or not nt.text:
                raise ParseError("empty instruction name", nt.span)
            name = nt.text
            self.expect("}")
        return label, name

    def _opt_index(self) -> int | None:
        if self.at("#"):
            self.next()
            t = self.next()
            if not t.text.isdecimal():
                raise ParseError("expected a numeric index after #", t.span)
            return int(t.text)
        return None

    def parse_postfix(self) -> Expr:
        e = self.parse_atom()
        while True:
            if self.at("\\"):
                sp = self.next().span
                t = self.next()
                if t.kind != "IDENT" or t.text in _KEYWORDS:
                    raise ParseError("expected an action name after \\", t.span)
                e = Restrict(e, t.text, span=sp)
            elif self.at("["):
                sp = self.next().span
                e = Relabel(e, self.parse_relabel_rules(), span=sp)
            else:
                return e

    def parse_relabel_rules(self) -> RelabelFn:
        rules: list[RelabelRule] = []
        while not self.at("]"):
            rules.append(self.parse_rule())
            if self.at(","):
                self.next()
        self.expect("]")
        try:
            return RelabelFn(tuple(rules))
        except LabelError as exc:
            raise ParseError(str(exc)) from None

    def parse_rule(self) -> RelabelRule:
        src = self.next()
        if src.kind != "IDENT" or src.text in _KEYWORDS:
            raise ParseError("expected an action name in relabelling", src.span)
        src_idx: int | None = None
        family = False
        idxvar = ""
        if self.at("#"):
            self.next()
            t = self.next()
            if t.text.isdecimal():
                src_idx = int(t.text)
            elif t.kind == "IDENT":
                family, idxvar = True, t.text
            else:
                raise ParseError("expected an index or index variable after #", t.span)
        self.expect("->")
        dst = self.next()
        if dst.kind != "IDENT" or dst.text in _KEYWORDS:
            raise ParseError("expected an action name in relabelling", dst.span)
        dst_idx: int | None = None
        offset = 0
        if self.at("#"):
            self.next()
            if self.at("("):
                self.next()
                v = self.next()
                if not family or v.text != idxvar:
                    raise ParseError("index variable mismatch in relabelling", v.span)
                self.expect("+")
                off = self.next()
                if off.kind != "INDEX" or not off.text.isdecimal():
                    raise ParseError("expected a numeric offset", off.span)
                offset = int(off.text)
                self.expect(")")
            else:
                t = self.next()
                if t.text.isdecimal():
                    dst_idx = int(t.text)
                elif family and t.text == idxvar:
                    offset = 0
                else:
                    raise ParseError("bad relabelling target index", t.span)
        elif family:
            raise ParseError("family rule needs an indexed target", dst.span)
        if family:
            return RelabelRule(src.text, dst.text, family=True, offset=offset)
        return RelabelRule(src.text, dst.text, src_idx, dst_idx)

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.text == "0":
            self.next()
            return Nil(span=t.span)
        if t.kind == "UIDENT":
            self.next()
            return Var(t.text, span=t.span)
        if t.text == "(":
            self.next()
            e = self.parse_expr()
            if self.at("where"):
                self.next()
                e = _close(e, self.parse_bindings())
            self.expect(")")
            return e
        raise ParseError(f"unexpected {t.text or 'end of input'!r}", t.span)

    def parse_bindings(self) -> RecSpec:
        bindings: list[tuple[str, Expr]] = []
        while True:
            v = self.next()
            if v.kind != "UIDENT":
                raise ParseError("expected a process variable", v.span)
            if v.text in dict(bindings):
                raise ParseError("duplicate definition in where-clause", v.span)
            self.expect("=")
            bindings.append((v.text, self.parse_expr()))
            if self.at(","):
                self.next()
                continue
            break
        return RecSpec(tuple(bindings))


def _close(root: Expr, spec: RecSpec) -> Expr:
    """Replace each free occurrence of a defined variable by its fix term."""
    dom = set(spec.domain())

    def sub(e: Expr) -> Expr:
        if isinstance(e, Var):
            return Fix(e.x, spec, span=e.span) if e.x in dom else e
        if isinstance(e, Prefix):
            return Prefix(e.action, e.name, sub(e.body), span=e.span)
        if isinstance(e, Choice):
            return Choice(sub(e.left), sub(e.right), span=e.span)
        if isinstance(e, Par):
            return Par(sub(e.left), sub(e.right), span=e.span)
        if isinstance(e, Restrict):
            return Restrict(sub(e.body), e.name, span=e.span)
        if isinstance(e, Relabel):
            return Relabel(sub(e.body), e.fn, span=e.span)
        if isinstance(e, Fix):
            shadowed = dom & set(e.spec.domain())
            if shadowed:
                raise ParseError(f"variable {sorted(shadowed)[0]} defined twice", e.span)
            new = RecSpec(tuple((v, sub(b)) for v, b in e.spec.bindings))
            return Fix(e.var, new, span=e.span)
        return e

    return sub(root)


def _oracle_restrict_groups(e: Expr) -> Expr:
    if isinstance(e, Fix):
        dom = set(e.spec.domain())
        reach = {e.var}
        frontier = [e.var]
        while frontier:
            for w in sorted(free_vars(e.spec.body(frontier.pop())) & dom):
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        kept = tuple((v, _oracle_restrict_groups(b)) for v, b in e.spec.bindings if v in reach)
        return Fix(e.var, RecSpec(kept), span=e.span)
    if isinstance(e, Prefix):
        return Prefix(e.action, e.name, _oracle_restrict_groups(e.body), span=e.span)
    if isinstance(e, Choice):
        return Choice(_oracle_restrict_groups(e.left), _oracle_restrict_groups(e.right),
                      span=e.span)
    if isinstance(e, Par):
        return Par(_oracle_restrict_groups(e.left), _oracle_restrict_groups(e.right),
                   span=e.span)
    if isinstance(e, Restrict):
        return Restrict(_oracle_restrict_groups(e.body), e.name, span=e.span)
    if isinstance(e, Relabel):
        return Relabel(_oracle_restrict_groups(e.body), e.fn, span=e.span)
    return e


def _oracle_assign_names(root: Expr):
    table: dict[str, tuple[Span | None, ActionLabel]] = {}
    counters: dict[str, int] = {}

    def fresh(label: ActionLabel, span: Span | None, explicit: str) -> str:
        if explicit:
            if explicit in table and table[explicit][1] != label:
                raise ParseError(
                    f"instruction name {explicit!r} reused with a different action", span)
            table.setdefault(explicit, (span, label))
            return explicit
        base = str(label).lstrip("'").replace("#", "_")
        counters[base] = counters.get(base, 0) + 1
        name = f"{base}@{counters[base]}"
        while name in table:
            counters[base] += 1
            name = f"{base}@{counters[base]}"
        table[name] = (span, label)
        return name

    def walk_names(e: Expr) -> Expr:
        if isinstance(e, Prefix):
            name = fresh(e.action, e.span, e.name)
            return Prefix(e.action, name, walk_names(e.body), span=e.span)
        if isinstance(e, Choice):
            return Choice(walk_names(e.left), walk_names(e.right), span=e.span)
        if isinstance(e, Par):
            return Par(walk_names(e.left), walk_names(e.right), span=e.span)
        if isinstance(e, Restrict):
            return Restrict(walk_names(e.body), e.name, span=e.span)
        if isinstance(e, Relabel):
            return Relabel(walk_names(e.body), e.fn, span=e.span)
        if isinstance(e, Fix):
            named = RecSpec(tuple((v, walk_names(b)) for v, b in e.spec.bindings))
            return Fix(e.var, named, span=e.span)
        return e

    return walk_names(_oracle_restrict_groups(root)), table


# -- comparison -------------------------------------------------------------

def _outcome(fn, text):
    """fn(text), or the type and text of the error it raised."""
    try:
        return "ok", fn(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _new_tokens(text: str) -> list[tuple]:
    out = []
    for t in parser._tokenize(text):
        out += _relabel_tokens(t.source, t.span) if t.kind == "RELABEL" else [t[:3]]
    return out


@functools.lru_cache(maxsize=None)
def _relabel_tokens(source: str, span: Span) -> list[tuple]:
    """What a RELABEL token stands for: "[", its interior's tokens and "]"."""
    inner = parser._tokenize(source[1:-1], span[0], span[1] + 1)
    return [("PUNCT", "[", span)] + [u[:3] for u in inner[:-1]] + [("PUNCT", "]", inner[-1].span)]


# The oracle parses below reuse the oracle tokens of the text just compared.
_oracle_tokenize_last = functools.lru_cache(maxsize=1)(_oracle_tokenize)


def _oracle_tokens(text: str) -> list[tuple]:
    return [(t.kind, t.text, t.span) for t in _oracle_tokenize_last(text)]


def _view(outcome):
    """What two parses must agree on: the term, the span of every node and,
    for a ProcessSpec, its name table, components and pragma."""
    kind, value = outcome
    if kind != "ok":
        return outcome
    root = value.root if isinstance(value, ProcessSpec) else value
    spans = [(type(n).__name__, n.span) for n, _ in walk(root)]
    if isinstance(value, ProcessSpec):
        return root, spans, value.name_table, value.cmp_map, value.nonblocking
    return root, spans


def _parses(text: str, expression_only: bool = False) -> list:
    entries = (parser.parse_expression,) if expression_only else (
        parser.parse_expression, parser.parse_ccs)
    return [_view(_outcome(parse, text)) for parse in entries]


def _check(text: str, expression_only: bool = False) -> None:
    assert _outcome(_new_tokens, text) == _outcome(_oracle_tokens, text), text
    new = _parses(text, expression_only)
    with mock.patch.multiple(parser, _tokenize=_oracle_tokenize_last,
                             _Parser=_OracleParser):
        old = _parses(text, expression_only)
    assert new == old, text
    _check_elaboration(text)


def _elaboration(assign, root):
    """The named term, the span of every node and the name table in order."""
    try:
        named, table = assign(root)
    except ParseError as exc:
        return "ParseError", str(exc)
    return named, [(type(n).__name__, n.span) for n, _ in walk(named)], list(table.items())


def _check_elaboration(text: str) -> None:
    try:
        root = parser._parse_root(parser._Parser(parser._tokenize(text)))
    except ValueError:
        return  # no parsed root to elaborate
    assert _elaboration(parser._assign_names, root) == _elaboration(_oracle_assign_names,
                                                                    root), text


# -- inputs -----------------------------------------------------------------

# Each names a case the scanner must count as the character loop did.
_EDGES = (
    "a² | ²", "1²a.0", "a½.0", "½", "Ωmega.0 | é.0 | 中.0", "a#².0", "a#٣.0",
    "a.0 ", "a.0 -- trailing comment", "a.0\n-- last line", "-- only",
    "a{first\nname}.0 | b.0", "a{x}.0 | b{\n}.0", "a{ unterminated.0",
    "a - b", "a -> b", "X[a -> b -- ]\n] where X = a.X",
    "X[a -> b -- ]\n, c -> d] where X = a.X", "X[a -> b] -- ]\nwhere X = a.X",
    "a.0[a -> b] | b.0[a -> c]", "(a.0[a -> b])[a -> b][b -> c] | a.b.0[b -> c]",
    "X[a{]} -> b] where X = a.X", "X[a [b -> c] where X = a.X", "X[a -> b",
    "X[] where X = a.X", "X[a -> b, a -> c] where X = a.X", "X[a -> é] where X = a.X",
    "X[b#i -> c#(j+1)] where X = b#0.X", "X[b#i -> b#(i+x)] where X = b#0.X",
    "X[a\t->\rb ,] where X = a.X", "X\n  [a -> b]\n  [a -> ] where X = a.X",
    "(X where X = a.X)[a -> b]\n[a -> b]", "[a -> b]", "a.[a -> b]", "X where X = a.X [a -> b]",
    "nonblocking a, b\na.0 | 'b.0", "a.(X[a -> b]) where X = tau.X + 'a#3{n}.0",
    # Y is reachable from X only through V, which U cannot reach
    "X where X = a.(U where U = b.U, V = c.Y), Y = d.Y",
    "X[b#² -> c] where X = b#0.X", "X[b -> c#²] where X = b#0.X",
    "X[b#i -> c#(i+²)] where X = b#0.X",
    # a repeated binding, at top level and in a nested group; a variable
    # defined twice, by the root's group and by an outer nested group
    "X where X = a.X, Y = b.Y,\n  X = c.X", "a.(X where X = b.X, X = c.X)",
    "X where X = a.X, X = b.X, Y = +",
    "(X where X = a.X) where X = b.X", "c.((Y | (X where X = a.Y)) where Y = b.Y, X = c.X)",
)

_PIECES = ("a", "b", "X", "Y", "_u", "tau", "where", "nonblocking", "0", "1", "07",
           "#", "#i", "#(i+1)", "->", "-", "--", " ", "\t", "\r", "\n", ".", "+", "|",
           ",", "\\", "=", "'", "(", ")", "[", "]", "{", "}", "{n}", "{m\n}", "-- c ]\n",
           "[a -> b]", "[b#i -> b#(i+1)]", "[a -> b, c -> d]", "[a -> b -- ]\n]",
           "é", "Ω", "²", "½", "٣", "\u00a0")

_ATOMS = st.sampled_from(("0", "X", "a", "'a", "b#1", "tau", "a{n}", "b{n}"))
_TERMS = st.recursive(_ATOMS, lambda t: st.one_of(
    st.tuples(st.sampled_from(("a.", "'b.", "c#2.", "tau.", "a{n}.", "a.\n")), t).map("".join),
    st.tuples(t, st.sampled_from((" + ", " | ", "+", "|\n", " -- x ]\n| ")), t).map(
        lambda p: f"({p[0]}{p[1]}{p[2]})"),
    st.tuples(t, st.sampled_from(("\\a", "[a -> b]", "[a->c]", "[b#i -> b#(i+1)]",
                                  "[a -> b, b -> a]", "[a -> b -- ]\n]", "[b#1 -> a]",
                                  "[a -> b#2]", "[ a->b ]"))).map(lambda p: f"({p[0]}){p[1]}")),
    max_leaves=10)
_SPECS = st.tuples(_TERMS, st.sampled_from(
    ("", " where X = a.X", " where X = b#0.(X[b#i -> b#(i+1)])\n-- tail"))).map("".join)


@st.composite
def _grouped(draw, depth: int, scope: tuple[str, ...]) -> str:
    """A term over the variables in scope whose where-groups nest up to
    `depth` deep; a group's definitions may mention its own and any outer
    variable, reachable from its variable or not."""
    pick = draw(st.integers(0, 6 if depth else 2))
    if pick == 0:
        return draw(st.sampled_from(("0", "a", "b{n}", "tau")))
    if pick in (1, 2):
        return draw(st.sampled_from(scope)) if scope else "0"
    if pick == 3:
        return draw(st.sampled_from(("a.", "'b.", "c#1.", "a{n}."))) + draw(
            _grouped(depth - 1, scope))
    if pick == 4:
        op = draw(st.sampled_from((" + ", " | ")))
        return f"({draw(_grouped(depth - 1, scope))}{op}{draw(_grouped(depth - 1, scope))})"
    if pick == 5:
        return f"({draw(_grouped(depth - 1, scope))})[a -> b]"
    names = [f"{v}{depth}" for v in "UVW"][:draw(st.integers(1, 3))]
    inner = scope + tuple(names)
    defs = ", ".join(f"{v} = {draw(_grouped(depth - 1, inner))}" for v in names)
    return f"({draw(_grouped(depth - 1, inner))} where {defs})"


# A root group shared by several positions of the root, over nested groups.
_GROUPED = st.tuples(_grouped(3, ("X", "Y", "Z")), st.lists(
    _grouped(2, ("X", "Y", "Z")), min_size=3, max_size=3)).map(
    lambda p: f"{p[0]} where X = {p[1][0]}, Y = {p[1][1]}, Z = {p[1][2]}")


# -- tests ------------------------------------------------------------------

def test_scanner_and_parser_match_the_oracles_on_edge_cases():
    for text in _EDGES:
        _check(text)


def test_scanner_and_parser_match_the_oracles_on_corpus_sources():
    data = resources.files("fairlab.corpus_data")
    sources = [f.read_text() for f in data.iterdir() if f.name.endswith(".ccs")]
    assert len(sources) >= 19
    for text in sources + [_ring(12), _grid(6)]:
        _check(text)


def test_scanner_and_parser_match_the_oracles_on_explored_states():
    texts = {s.expr for entry in corpus_entries() if entry.kind == "ccs"
             for s in build(entry).lts.states}
    for source in [_ring(k) for k in (10, 12, 14)] + [_grid(n) for n in (5, 6, 7)]:
        texts |= {s.expr for s in from_exploration(explore(parser.parse_ccs(source))).states}
    assert len(texts) > 500
    for text in sorted(texts):
        _check(text, expression_only=True)


@given(st.one_of(_SPECS, st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
                 st.text(alphabet="aXb_01#i()->[]{}+|.,\\='\n\t -é²½Ω", max_size=40)))
def test_scanner_and_parser_match_the_oracles_on_drawn_strings(text):
    _check(text)


@given(_GROUPED)
def test_elaboration_matches_the_oracle_on_nested_and_shared_groups(text):
    _check_elaboration(text)
