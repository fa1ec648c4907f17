"""Parsing, printing, naming, components, projection, fragment checks."""

from __future__ import annotations

import json
import sys
from importlib import resources

import pytest

from families import _ring

from fairlab.labels import parse_label
from fairlab.lts import (GoalSpec, from_exploration, goal_states, load_lts, named_goal,
                         save_lts)
from fairlab.parser import ParseError, parse_ccs, parse_expression
from fairlab.semantics import explore
from fairlab.syntax import (Choice, Fix, Nil, Prefix, check_fragment, print_expr, project,
                            walk, well_named)


def test_label_parsing_and_complement():
    a = parse_label("a")
    assert str(a.complement()) == "'a"
    assert a.complement().complement() == a
    b3 = parse_label("'b#3")
    assert b3.kind == "co" and b3.base == "b" and b3.index == 3
    assert str(parse_label("tau")) == "tau"


def test_parse_recursive_choice():
    spec = parse_ccs("X where X = a.X + b.0")
    root = spec.root
    assert isinstance(root, Fix)
    body = root.spec.body("X")
    assert isinstance(body, Choice)
    assert isinstance(body.left, Prefix) and str(body.left.action) == "a"
    assert isinstance(body.right, Prefix) and str(body.right.action) == "b"
    assert len(spec.name_table) == 2


def test_parse_nil_empty_table():
    spec = parse_ccs("0")
    assert isinstance(spec.root, Nil)
    assert spec.name_table == {}


def test_parse_two_component_spec_names_and_components():
    spec = parse_ccs("(X|Y)\\b where X = a.X + b.0, Y = c.Y + 'b.0")
    assert len(spec.name_table) == 4
    labels = sorted(str(lab) for _, lab in spec.name_table.values())
    assert labels == ["'b", "a", "b", "c"]
    by_label = {str(lab): name for name, (_, lab) in spec.name_table.items()}
    assert spec.cmp_of(by_label["a"]) == "L"
    assert spec.cmp_of(by_label["b"]) == "L"
    assert spec.cmp_of(by_label["c"]) == "R"
    assert spec.cmp_of(by_label["'b"]) == "R"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_ccs("a.")
    with pytest.raises(ParseError):
        parse_ccs("X")  # unbound variable
    with pytest.raises(ParseError):
        parse_ccs("a.0 +")


@pytest.mark.parametrize("src, message", [
    # an unexpected character on line 3 of a multi-line source
    ("X where X = a.X\n  + b.X\n  + c.X $ d.0", "unexpected character '$' at 3:9"),
    ("a{mine.0 | b.0", "unterminated instruction name at 1:2"),
    # a bad rule in the third copy of a repeated relabelling
    ("X[b#i -> b#(i+1)][b#i -> b#(i+1)][b#i -> c#(j+1)] where X = b#0.X",
     "index variable mismatch in relabelling at 1:45"),
    ("X[a -> b, a -> c] where X = a.X", "duplicate relabelling source 'a'"),
    # a "]" inside a comment does not close the relabelling
    ("X[a -> b -- ]\n, c] where X = a.X", "expected '->', found ']' at 2:4"),
    ("X[a -> b -- ] closes nothing\n] where X = a.X +", "unexpected 'end of input' at 2:18"),
    # a trailing comment does not advance the end-of-input column
    ("X where X = a.X + -- trailing", "unexpected 'end of input' at 1:19"),
    ("a.0 | b.0 +\n-- ends here", "unexpected 'end of input' at 2:1"),
    # an index `int` cannot read: "²" is a digit to str.isdigit, not a decimal
    ("a#².0", "expected a numeric index after # at 1:3"),
    ("X[b#² -> c] where X = b#0.X", "expected an index or index variable after # at 1:5"),
    ("X[b -> c#²] where X = b#0.X", "bad relabelling target index at 1:10"),
    ("X[b#i -> c#(i+²)] where X = b#0.X", "expected a numeric offset at 1:15"),
    # well-namedness names the offending instruction: a duplicate at its
    # first occurrence, a name shared across "|" at that "|"
    ("a{n}.0 + a{n}.0", "instruction name 'n' occurs twice unguarded at 1:1"),
    ("b.0\n  + c.(a{n}.0 + d.0 + a{n}.0)", "instruction name 'n' occurs twice unguarded at 2:8"),
    ("X where X = b.Y, Y = a{n}.0 + a{n}.Y",
     "instruction name 'n' occurs twice unguarded at 1:22"),
    ("a{n}.0 | b.0\n  | a{n}.0", "instruction name 'n' occurs on both sides of '|' at 2:3"),
    ("X | X where X = a{n}.X", "instruction name 'n' occurs on both sides of '|' at 1:3"),
    # a repeated binding at its variable, a redefined variable at the inner
    # group's fix term
    ("X where X = a.X, Y = b.Y,\n  X = c.X", "duplicate definition in where-clause at 2:3"),
    ("(X where X = a.X) where X = b.X", "variable X defined twice at 1:2"),
    ("c.(Y | (X where X = a.Y)) where Y = b.Y, X = c.X", "variable X defined twice at 1:9"),
])
def test_parse_error_messages_and_positions(src, message):
    with pytest.raises(ParseError) as exc:
        parse_ccs(src)
    assert str(exc.value) == message


def test_wide_choice_and_parallel_parse():
    # the well-namedness check walks a 900-operand left-nested tree without
    # recursing per operand
    for op in (" + ", " | "):
        spec = parse_ccs(op.join(f"a{i}.0" for i in range(900)))
        assert len(spec.name_table) == 900


def test_non_ascii_decimal_index():
    assert parse_expression("a#٣.0") == parse_expression("a#3.0")


def test_fragment_diagnostic_positions():
    data = resources.files("fairlab.corpus_data")
    for f in data.iterdir():
        if f.name.endswith(".ccs"):
            assert check_fragment(parse_ccs(f.read_text())) == [], f.name
    for src, want in [
            ("X where X = a.X\n  + (b.0\n     | c.0)[b -> c] -- split\n",
             "3:6: parallel composition in the definition of X"),
            ("a.(Y | Z) + (P | Q)[a -> b][a -> b]\nwhere Y = a.Y, Z = a.Z,\n      P = a.P, Q = a.Q",
             "1:16: unguarded parallel composition inside a choice"),
            # a line break inside an instruction name starts no new line
            ("X where X = a.X + b{n\n}.(X[a -> b] | c.0)",
             "1:36: parallel composition in the definition of X")]:
        assert [str(d) for d in check_fragment(parse_ccs(src))] == [want], src


def test_name_freshness_counts_prefix_nodes():
    spec = parse_ccs("a.b.0 | a.0 + c.a.0")
    prefix_count = 5
    assert len(spec.name_table) == prefix_count


def test_explicit_name_override():
    spec = parse_ccs("a{mine}.0 | b.0")
    assert "mine" in spec.name_table
    assert spec.cmp_of("mine") == "L"


def test_print_reparse_identity():
    for src in [
        "X where X = a.X + b.0",
        "(X|Y)\\b where X = a.X + b.0, Y = c.Y + 'b.0",
        "a | X where X = a.X",
        "tau.0 + (a.0 | 'a.0)\\a",
        "X where X = b#0.(X[b#i -> b#(i+1)])",
        "X where X = a.X + c.X + b.(X[a -> c, c -> a])",
    ]:
        root = parse_ccs(src).root
        assert parse_expression(print_expr(root)) == root, src


def test_fragment_ok_guarded_recursion():
    assert check_fragment(parse_ccs("X where X = a.X")) == []


def test_fragment_unguarded_variable():
    diags = check_fragment(parse_ccs("X where X = X + a.0"))
    assert len(diags) == 1
    assert "unguarded occurrence of variable X" in diags[0].message


def test_fragment_unguarded_parallel_in_choice():
    # oracle: the guardedness predicate walks choice arms without passing a
    # prefix, so the second summand's parallel is flagged and the first is not
    src = "X where X = a.0 + b.0, Y = c.0"
    assert check_fragment(parse_ccs(src)) == []
    diags = check_fragment(parse_ccs("a.(Y | Z) + (P | Q) where Y = a.Y, Z = a.Z, P = a.P, Q = a.Q"))
    assert [d.message for d in diags] == ["unguarded parallel composition inside a choice"]


def test_fragment_parallel_in_definition():
    diags = check_fragment(parse_ccs("X where X = a.(Y | Y), Y = b.Y"))
    assert any("parallel composition in the definition of X" in d.message for d in diags)


def test_well_named_fresh_and_violation():
    spec = parse_ccs("(X|Y)\\b where X = a.X + b.0, Y = c.Y + 'b.0")
    assert well_named(spec.root)
    bad = parse_expression("a{n}.0 + a{n}.0")
    assert not well_named(bad)


def test_cmp_of_nested_parallel():
    e = parse_expression("a.(P | b.Q) | U")
    names = {str(p.action): p.name for p in
             [n for n in _prefixes(e)]}
    from fairlab.syntax import cmp_table
    table = cmp_table(e)
    assert table[names["a"]] == "L"
    assert table[names["b"]] == "LR"


def _prefixes(e):
    from fairlab.syntax import iter_prefixes
    return list(iter_prefixes(e))


def test_cmp_single_component_is_root():
    spec = parse_ccs("X where X = a.X + b.0")
    assert set(spec.cmp_map.values()) == {""}


def test_cmp_ex_5_1_split():
    spec = parse_ccs("a | X where X = a.X")
    by_cmp = sorted(spec.cmp_map.values())
    assert by_cmp == ["L", "R"]


def test_component_paths_prefix_closed():
    spec = parse_ccs("(a.0 | (b.0 | c.0))\\a")
    paths = {path for _, path in walk(spec.root)}
    assert paths == {"", "L", "R", "RL", "RR"}
    for p in paths:
        assert all(p[:k] in paths for k in range(len(p)))


def test_project_basics():
    spec = parse_ccs("(X|Y)\\b where X = a.X + b.0, Y = c.Y + 'b.0")
    left = project(spec.root, "L")
    assert left is not None and isinstance(left, Fix) and left.var == "X"
    assert project(spec.root, "") is spec.root
    single = parse_ccs("a.0")
    assert project(single.root, "L") is None


def test_duplicated_group_gets_fresh_copies():
    spec = parse_ccs("X | c.X where X = a.b.c.X")
    # 4 source prefixes, but the group is referenced from both arms: 3 + 1 + 3
    assert len(spec.name_table) == 7
    assert well_named(spec.root)
    comps = sorted(set(spec.cmp_map.values()))
    assert comps == ["L", "R"]


@pytest.mark.parametrize("src, states", [
    (" | ".join(f"a{i}.0" for i in range(899)) + " | X where X = b.X", 1),
    ("X where X = " + " + ".join(f"a{i}.X" for i in range(900)), 1),
    (_ring(900), 2),
], ids=["par", "choice", "prefix"])
def test_900_levels_parse_check_and_explore(src, states):
    # parsing, closing, naming and unfolding take one frame per term level;
    # the root's 900 parallel steps rebuild the spine, so the caps are low
    assert sys.getrecursionlimit() == 1000
    spec = parse_ccs(src)
    assert check_fragment(spec) == []
    assert len(explore(spec, states, 1).states) == states


def test_deep_nesting_is_a_parse_error_not_a_recursion_error():
    assert len(explore(parse_ccs(_ring(300)), 1000, 1000).states) == 600
    # a capped exploration keeps the deepest states: those right after the
    # initial one print the whole where-group plus an unfolded chain.  Their
    # group and chain are parsed apart, so k = 500 nests only half as deep.
    for k in (300, 500):
        fresh = from_exploration(explore(parse_ccs(_ring(k)), 8, 1000))
        fresh.goals["g"] = GoalSpec.component_at("R", "0")
        for lts in (fresh, load_lts(save_lts(fresh))):
            assert named_goal(lts, "g") == {"s2", "s4", "s6"}
    for deep in ("(" * 2000 + "0" + ")" * 2000, "(X where X = " + "a." * 2000 + "X)"):
        lts = load_lts(json.dumps({"states": [{"id": "s0", "expr": deep}], "transitions": [],
                                   "initial": ["s0"], "origin": "ccs"}))
        with pytest.raises(ParseError, match="nesting too deep"):
            goal_states(lts, GoalSpec.state_is("0"))
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_ccs(_ring(1000))
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_expression("(" * 2000 + "0" + ")" * 2000)
