"""Concrete grammar for the CCS fragment.

Conventions: lowercase identifiers are actions, uppercase are process
variables.  ``'a`` is the co-name of ``a``; ``tau`` the internal action;
``\\a`` restriction; ``[a -> b, b#i -> b#(i+1)]`` relabelling (complement
closure implicit, identity elsewhere); ``+`` binds looser than ``.``, ``|``
looser than ``+``; postfix ``\\a``/``[..]`` bind tightest.  A bare action
abbreviates ``action.0``.  ``E where X = F, Y = G`` closes the free
variables of E; line comments start with ``--``; an optional leading pragma
``nonblocking a, b`` declares label bases non-blocking.  An explicit
instruction name may be attached to a prefix occurrence as ``a{n1}.E``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .labels import ActionLabel, LabelError, RelabelFn, RelabelRule, TAU
from .syntax import (Choice, Expr, Fix, Nil, Par, Prefix, ProcessSpec, RecSpec,
                     Relabel, Restrict, Span, Var, build, copier, depth_guarded, free_vars,
                     instruction_paths, iter_prefixes, naming_violation, substitute, walk)


class ParseError(ValueError):
    def __init__(self, message: str, span: Span | None = None):
        self.span = span
        at = f" at {span[0]}:{span[1]}" if span else ""
        super().__init__(f"{message}{at}")


class Token(NamedTuple):
    kind: str  # IDENT UIDENT PUNCT INDEX NAME RELABEL GROUP EOF
    text: str
    span: Span
    source: str = ""  # a RELABEL token's whole "[...]" text; its text is "["
    node: Expr | None = None  # a GROUP token's term (see `state_parser`)


_KEYWORDS = ("where", "tau", "nonblocking")

# Token classes in the order they are tried.  "[...]" is one RELABEL token
# when its interior is ASCII without comment, brace or line break, so that it
# tokenizes on one line and without error; any other "[" is PUNCT.  Spans count
# as they always have: no new line inside "{...}", no column for a comment.
_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|(?P<comment>--[^\n]*)"
    r"|(?P<name>\{([^}]*)\})"
    r"|(?P<relabel>\[(?:[A-Za-z0-9_ \t\r()+|.,\\='#\[}]|->)*\])"
    r"|(?P<word>\w+)"
    r"|(?P<punct>->|[()\[\]}+|.,\\='#])"
    r"|(?P<other>.)")


def _tokenize(text: str, line: int = 1, col: int = 1) -> list[Token]:
    """The tokens of `text`, whose first character sits at (line, col)."""
    toks: list[Token] = []
    append = toks.append
    start = 1 - col  # offset of the current line's first character
    m = None
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None or kind == "comment":
            continue
        pos = m.start()
        if kind == "newline":
            line, start = line + 1, pos + 1
            continue
        word = m.group()
        span = (line, pos - start + 1)
        if kind == "punct":
            append(Token("PUNCT", word, span))
        elif kind == "word":  # str.isdigit and str.isalpha decide: \d misses "²"
            if word[0].isdigit():
                k = next((i for i, c in enumerate(word) if not c.isdigit()), len(word))
                append(Token("PUNCT" if word[:k] == "0" else "INDEX", word[:k], span))
                if k == len(word):
                    continue
                word, span = word[k:], (line, span[1] + k)
            if not (word[0].isalpha() or word[0] == "_"):
                raise ParseError(f"unexpected character {word[0]!r}", span)
            append(Token("IDENT" if word[0].islower() or word[0] == "_" else "UIDENT", word, span))
        elif kind == "relabel":
            append(Token("RELABEL", "[", span, word))
        elif kind == "name":
            append(Token("PUNCT", "{", span))
            append(Token("NAME", m.group(4).strip(), (line, span[1] + 1)))
            append(Token("PUNCT", "}", (line, span[1] + len(word) - 1)))
        else:
            raise ParseError("unterminated instruction name" if word == "{"
                             else f"unexpected character {word!r}", span)
    end = m.start() if m is not None and m.lastgroup == "comment" else len(text)
    append(Token("EOF", "", (line, end - start + 1)))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.relabels: dict[str, RelabelFn] = {}  # RELABEL source -> its map

    def peek(self) -> Token:
        return self.toks[self.pos]  # next() never moves past EOF

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, text: str) -> Token:
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
                t = self.next()
                if t.kind != "RELABEL":
                    fn = self.parse_relabel_rules()
                elif (fn := self.relabels.get(t.source)) is None:
                    # first sight: tokenize the interior in place, for exact error spans
                    toks = _tokenize(t.source[1:-1], t.span[0], t.span[1] + 1)
                    toks.insert(-1, Token("PUNCT", "]", toks[-1].span))
                    fn = self.relabels[t.source] = _Parser(toks).parse_relabel_rules()
                e = Relabel(e, fn, span=t.span)
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
        t = self.next()
        if t.kind == "GROUP":
            return t.node
        if t.text == "0":
            return Nil(span=t.span)
        if t.kind == "UIDENT":
            return Var(t.text, span=t.span)
        if t.text == "(":
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
            if any(v.text == w for w, _ in bindings):
                raise ParseError("duplicate definition in where-clause", v.span)
            self.expect("=")
            bindings.append((v.text, self.parse_expr()))
            if not self.at(","):
                break
            self.next()
        return RecSpec(tuple(bindings))


def _close(root: Expr, spec: RecSpec) -> Expr:
    """Replace each free occurrence of a defined variable by its fix term.
    A group in root that redefines one of them is an error here, though
    `substitute` keeps it, as `explore` needs."""
    dom = set(spec.domain())
    for n, _ in walk(root):
        if isinstance(n, Fix) and (shadowed := dom & set(n.spec.domain())):
            raise ParseError(f"variable {min(shadowed)} defined twice", n.span)
    return substitute(root, spec, build)


def _assign_names(root: Expr, shared: dict | None = None
                  ) -> tuple[Expr, dict[str, tuple[Span | None, ActionLabel]]]:
    """Restrict every fix term to the definitions reachable from its variable
    (read off the unrestricted bodies) and give every prefix occurrence left
    an instruction name.

    A where-group referenced from several positions is thereby split, each
    position getting a private copy named apart, which keeps cmp a function
    from instructions to components.  Auto names are ``base@k`` with k a
    per-base occurrence ordinal, assigned in textual order; explicit
    ``a{n}`` names are kept.  A fix term whose id is a key of `shared` was
    restricted and named before: it is kept, and its name table is read,
    not copied: auto names after it avoid its names, and the names claimed
    outside it are checked against it at the end.  The table returned holds
    only the latter; `state_parser` checks shared tables against each other.
    """
    table: dict[str, tuple[Span | None, ActionLabel]] = {}
    counters: dict[str, int] = {}
    met: dict[int, dict] = {}  # the shared tables met so far, by node id

    def claim(name: str, span: Span | None, action: ActionLabel) -> None:
        # duplicates are legal in reparsed states, where a prefix occurs
        # both unfolded and inside its fix group; labels must agree
        if table.setdefault(name, (span, action))[1] != action:
            raise ParseError(f"instruction name {name!r} reused with a different action", span)

    def fresh(p: Prefix) -> str:
        if p.name:
            claim(p.name, p.span, p.action)
            return p.name
        base = str(p.action).lstrip("'").replace("#", "_")
        counters[base] = counters.get(base, 0) + 1
        name = f"{base}@{counters[base]}"
        while name in table or any(name in g for g in met.values()):
            counters[base] += 1
            name = f"{base}@{counters[base]}"
        table[name] = (p.span, p.action)
        return name

    def leaf(e: Expr) -> Expr:
        if isinstance(e, Var):
            return e
        if shared and id(e) in shared:
            met[id(e)] = shared[id(e)]
            return e
        dom, reach, frontier = set(e.spec.domain()), {e.var}, [e.var]
        for v in frontier:  # grows as bodies are reached
            more = free_vars(e.spec.body(v)) & dom - reach
            reach |= more
            frontier += more
        kept = tuple((v, copy(b)) for v, b in e.spec.bindings if v in reach)
        return Fix(e.var, RecSpec(kept), span=e.span)

    copy = copier(build, leaf, fresh)
    named = copy(root)
    for g in met.values():
        for name, (span, action) in table.items():
            if g.get(name, (span, action))[1] != action:
                raise ParseError(f"instruction name {name!r} reused with a different action", span)
    return named, table


def _parse_root(p: _Parser) -> Expr:
    """expr ['where' bindings], then the end of the input."""
    e = p.parse_expr()
    if p.at("where"):
        p.next()
        e = _close(e, p.parse_bindings())
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"trailing input {t.text!r}", t.span)
    return e


@depth_guarded(ParseError)
def parse_expression(text: str) -> Expr:
    """Parse one (possibly open) expression and name its prefixes.

    Lower-level helper for syntactic queries on open terms; `parse_ccs` is
    the full-spec entry point and also enforces closedness.
    """
    named, _ = _assign_names(_parse_root(_Parser(_tokenize(text))))
    return named


# The parentheses of a text, skipping names and comments as the tokenizer
# does; capture 1 is a parenthesis opening a where group "(X where ".
_BRACKET = re.compile(r"(\()(?=[A-Z]\w* where )|[()]|\{[^}]*\}|--[^\n]*")


def _group(text: str) -> tuple[Expr, dict]:
    """The named term and name table of a where group that is closed and
    names every prefix, so that nothing around it changes its term."""
    raw = _parse_root(_Parser(_tokenize(text)))
    if free_vars(raw) or not all(p.name for p in iter_prefixes(raw)):
        raise ParseError("a group not closed, or with an unnamed prefix")
    return _assign_names(raw)


def state_parser():
    """A `parse_expression` for the state texts of one system.  Each
    outermost "(X where ...)" group text is tokenized, parsed, restricted and
    named once per parser, and the states holding it share its node (so
    spans mean nothing here).  A group `_group` refuses, or any error, sends
    the text through `parse_expression`, so the term equals its term, and an
    error is its error, except on a text too deep only as a whole."""
    groups: dict[str, Expr] = {}
    names: dict[int, dict] = {}  # id of a group's node -> its name table
    actions: dict[str, ActionLabel] = {}  # each group name's first action
    clash: set[str] = set()  # the group names given another action too

    def parse(text: str) -> Expr:
        toks, at, depth, start, keys = [], 0, 0, None, set()
        try:
            for m in _BRACKET.finditer(text):
                if m[1] and start is None:
                    start, outer = m.start(), depth
                depth += (m[0] == "(") - (m[0] == ")")
                if start is not None and depth == outer:
                    key = text[start:m.end()]
                    if key not in groups:
                        node, table = _group(key)
                        groups[key], names[id(node)] = node, table
                        clash.update(n for n, (_, a) in table.items()
                                     if actions.setdefault(n, a) != a)
                    toks += _tokenize(text[at:start])[:-1]
                    toks.append(Token("GROUP", key, (1, 1), node=groups[key]))
                    at, start = m.end(), None
                    keys.add(key)
            tables = [names[id(groups[key])] for key in keys]
            if any(len({t[n][1] for t in tables if n in t}) > 1 for n in clash):
                raise ParseError("two groups give one name different actions")
            toks += _tokenize(text[at:])
            return _assign_names(_parse_root(_Parser(toks)), names)[0]
        except (ParseError, RecursionError):
            return parse_expression(text)

    return parse


@depth_guarded(ParseError)
def parse_ccs(text: str) -> ProcessSpec:
    """Parse a complete specification into a named, closed ProcessSpec."""
    p = _Parser(_tokenize(text))
    nonblocking: set[str] = set()
    while p.at("nonblocking"):
        p.next()
        while True:
            t = p.next()
            if t.kind != "IDENT" or t.text in _KEYWORDS:
                raise ParseError("expected an action name in nonblocking pragma", t.span)
            nonblocking.add(t.text)
            if not p.at(","):
                break
            p.next()
    e = _parse_root(p)
    fv = free_vars(e)
    if fv:
        raise ParseError(f"unbound variable {sorted(fv)[0]}")
    named, table = _assign_names(e)
    # explicit annotations may deliberately share a name across occurrences
    # (one instruction with several source positions), but only as far as
    # well-namedness allows: unguarded occurrences stay pairwise distinct
    bad = naming_violation(named)
    if bad is not None:
        name, par = bad
        if par is not None:
            raise ParseError(f"instruction name {name!r} occurs on both sides of '|'", par.span)
        raise ParseError(f"instruction name {name!r} occurs twice unguarded", table[name][0])
    paths = instruction_paths(named)
    for name, where in paths.items():
        if len(set(where)) > 1:
            raise ParseError(f"instruction name {name!r} spans parallel "
                             f"components {sorted(set(where))}")
    return ProcessSpec(root=named, name_table=table,
                       cmp_map={name: where[0] for name, where in paths.items()},
                       nonblocking=frozenset(nonblocking))
