"""Differential tests of goal evaluation on shared where-group terms.

The oracle is the goal evaluation that `parser.state_parser` and the printed
state index replaced: `_oracle_goal_states` below is the former
`goal_states`, kept unchanged, and it runs with `AugmentedLTS.state_expr`
put back to what it was, `parse_expression` of each state's text.  The
systems are every CCS corpus entry (the clerk, whose reparsed texts drop
unreachable definitions, included) and ring(10, 12, 14) and grid(5, 6, 7),
each freshly explored and reloaded from its saved file.  On them every state
term must equal its text's `parse_expression` and print the same, and every
corpus goal (the built ones too) and a state_is goal for each state must
give the oracle's state set.

`state_parser` must also give `parse_expression`'s term or error text on
damaged state texts: seeded edits that drop or duplicate slices, insert
syntax, strip or swap instruction names, or wrap the text in a where-clause,
a restriction or another group, all through one parser per system so that
groups parsed for one text serve the next.  Both the texts it parses by
groups and those it hands whole to `parse_expression` must be common.
"""

from __future__ import annotations

import functools
import random
import re

import pytest

from families import _grid, _ring

from fairlab import parser
from fairlab.corpus import build, corpus_entries
from fairlab.lts import (AnnotationError, AugmentedLTS, GoalSpec, SchemaError,
                         from_exploration, goal_states, load_lts, save_lts)
from fairlab.parser import ParseError, parse_ccs, parse_expression, state_parser
from fairlab.semantics import explore
from fairlab.syntax import print_expr, project


def _oracle_goal_states(lts: AugmentedLTS, goal: GoalSpec) -> frozenset[str]:
    """Union of the goal's disjunct evaluations over the state set."""
    out: set[str] = set()
    for d in goal.disjuncts:
        if d.kind == "explicit":
            out |= d.states & set(lts.state_ids())
        elif d.kind == "state_is":
            want = print_expr(parse_expression(d.expr))
            for s in lts.states:
                if s.expr is not None and print_expr(lts.state_expr(s.id)) == want:
                    out.add(s.id)
        elif d.kind == "component_at":
            want = print_expr(parse_expression(d.expr))
            for s in lts.states:
                if s.expr is None:
                    raise AnnotationError(
                        "component_at goals need expression-carrying states")
                comp = project(lts.state_expr(s.id), d.path)
                if comp is not None and print_expr(comp) == want:
                    out.add(s.id)
        else:
            raise SchemaError(f"unknown goal predicate kind {d.kind}")
    return frozenset(out)


def _systems():
    """(name, fresh system, goals) for every system the tests compare on."""
    out = [(e.id, build(e).lts, e.goals) for e in corpus_entries() if e.kind == "ccs"]
    out += [(f"ring({k})", from_exploration(explore(parse_ccs(_ring(k)))),
             {"ring": GoalSpec.component_at("R", "0")}) for k in (10, 12, 14)]
    out += [(f"grid({n})", from_exploration(explore(parse_ccs(_grid(n)))),
             {"grid": GoalSpec.state_is(" | ".join(["0"] * n))}) for n in (5, 6, 7)]
    return out


SYSTEMS = _systems()


@pytest.mark.parametrize("name, fresh, goals", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_goal_states_match_the_reparsing_oracle(monkeypatch, name, fresh, goals):
    reparse = functools.lru_cache(maxsize=None)(parse_expression)
    for lts in (fresh, load_lts(save_lts(fresh))):
        for s in lts.states:
            term = lts.state_expr(s.id)
            assert term == reparse(s.expr)
            assert print_expr(term) == print_expr(reparse(s.expr))
        specs = [goal(lts) if callable(goal) else goal for goal in goals.values()]
        specs += [GoalSpec.state_is(s.expr) for s in lts.states]
        got = [goal_states(lts, spec) for spec in specs]
        with monkeypatch.context() as patch:
            patch.setattr(AugmentedLTS, "state_expr",
                          lambda self, sid: reparse(self.state(sid).expr))
            assert got == [_oracle_goal_states(lts, spec) for spec in specs]


_Y_GROUP = "(Y where Y = (Z where Z = d{d}.Z) | c{c}.Y)"


# (text, the group texts parsed on their own, or None if it is parsed whole)
@pytest.mark.parametrize("text, groups", [
    # a group's free variable bound outside it: reaching Z through X keeps Z
    ("(Y where Y = a{n}.X, Z = b{m}.Z) where X = c{k}.Z", None),
    # an unnamed prefix's name depends on the names before it
    ("a.0 | (X where X = a{a@1}.X)", ["(X where X = a{a@1}.X)"]),
    ("(X where X = a.X) | a{a@1}.0", None),
    # one name with two actions, in two groups or a group and the rest
    ("(X where X = a{n}.X) | (Y where Y = b{n}.Y)", None),
    ("b{n}.0 | (X where X = a{n}.X)", None),
    # parentheses the tokenizer does not see as such, and nested groups
    ("a{(}.(X where X = b{)}.X) -- (\n | (Y where Y = c{c}.Y -- )\n)",
     ["(X where X = b{)}.X)", "(Y where Y = c{c}.Y -- )\n)"]),
    ("((X where X = a{a}.X)[b#i -> b#(i+1)] | " + _Y_GROUP + ")\\d",
     ["(X where X = a{a}.X)", _Y_GROUP]),
    ("0[(X where X = a.X)]", None),
    # a group defining a variable an enclosing where-clause defines too
    ("(X | (X where X = a.X) where X = b.X)", None),
    ("(X where X = " + "a." * 2000 + "X)", None),
])
def test_state_parser_edge_cases(monkeypatch, text, groups):
    calls, whole = [], []
    group = parser._group
    monkeypatch.setattr(parser, "_group", lambda t: calls.append(t) or group(t))
    monkeypatch.setattr(parser, "parse_expression",
                        lambda t: whole.append(t) or parse_expression(t))
    want, parse = _outcome(parse_expression, text), state_parser()
    whole.clear()
    assert _outcome(parse, text) == want
    assert (None if whole else calls) == groups
    if groups is not None:  # a second text finds its groups parsed
        assert _outcome(parse, text) == want and calls == groups


_INSERTS = (list("()[]{}|+.\\'#,=0 \n-")
            + ["where", "X", "Y", "a", "b{n}", "(X where X = a{q}.X)", "--c\n",
               "[b#i -> b#(i+1)]", "a.", "->", "Z where Z = "])
_WRAPS = ("(%s)\\a", "%s where X = a.X, Q = b.0", "(%s | X where X = c{a0@1}.X)",
          "%s | %s", "(Y where Y = %s)")


def _damage(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        names = list(re.finditer(r"\{[^}]*\}", text))
        i, kind = rng.randrange(len(text) + 1), rng.randrange(6)
        if kind == 0 and names:  # drop an instruction name
            m = rng.choice(names)
            text = text[:m.start()] + text[m.end():]
        elif kind == 1 and names:  # give a prefix another prefix's name
            m = rng.choice(names)
            text = text[:m.start()] + rng.choice(names).group() + text[m.end():]
        elif kind == 2:
            text = rng.choice(_WRAPS).replace("%s", text)
        elif kind == 3:
            text = text[:i] + rng.choice(_INSERTS) + text[i:]
        elif kind == 4:
            text = text[:i] + text[i + rng.randint(1, 4):]
        else:
            j = rng.randrange(len(text) + 1)
            i, j = min(i, j), max(i, j)
            text = text[:i] + text[i:j] * 2 + text[j:]
    return text


def _outcome(parse, text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return f"error: {exc}"


def test_state_parser_matches_parse_expression_on_damaged_texts(monkeypatch):
    whole: list[str] = []
    monkeypatch.setattr(parser, "parse_expression",
                        lambda text: whole.append(text) or parse_expression(text))
    rng = random.Random(17)
    outcomes = {"term": 0, "error": 0, "by groups": 0}
    for _, lts, _ in (s for s in SYSTEMS if len(s[1].states) <= 32):
        parse = state_parser()
        for s in lts.states:
            for text in [s.expr] + [_damage(s.expr, rng) for _ in range(12)]:
                whole.clear()
                got, want = _outcome(parse, text), _outcome(parse_expression, text)
                assert got == want, text
                outcomes["error" if isinstance(want, str) else "term"] += 1
                outcomes["by groups"] += not whole and "where" in text
    assert min(outcomes.values()) > 500, outcomes
