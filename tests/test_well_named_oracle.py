"""Differential test of the well-namedness check.

The oracle is the check `syntax.well_named` made before it was reduced to
one pass over the guard roots: it enumerated every extended subexpression
of a term, deduplicated them by their printed text, and collected the
unguarded instruction names of each one.  It is copied below as it was.
On every input both checks must give the same answer.

A second oracle is `syntax.naming_violation` as it was before the name sets
of parallel arms were built bottom-up: it computed both arms' names afresh
at every `|`, which is quadratic in the number of parallel components.  It
must report the same name and the same `|` on every input.
"""

from __future__ import annotations

import random
import time

from hypothesis import given, strategies as st

from families import _grid, _ring

from fairlab.corpus import build_all
from fairlab.labels import parse_label
from fairlab.parser import parse_ccs, parse_expression
from fairlab.semantics import explore, step
from fairlab.syntax import (Choice, Expr, Fix, Nil, Par, Prefix, RecSpec, Relabel,
                            Restrict, Var, _unguarded, children, iter_prefixes,
                            naming_violation, print_expr, walk, well_named)


# -- oracle -----------------------------------------------------------------

def _all_names(e: Expr) -> set[str]:
    """n(E): instruction names of all action occurrences in E."""
    return {p.name for p in iter_prefixes(e)}


def _oracle_unguarded_var_names(e: Expr) -> set[str]:
    """Process variables with an unguarded occurrence in e (prefix bodies skipped)."""
    if isinstance(e, Var):
        return {e.x}
    if isinstance(e, Prefix):
        return set()
    if isinstance(e, Fix):
        return _oracle_fix_unguarded(e)[1]
    out: set[str] = set()
    for c in children(e):
        out |= _oracle_unguarded_var_names(c)
    return out


def _oracle_fix_unguarded(e: Fix) -> tuple[list[str], set[str]]:
    """Bodies of e's group that are unguarded-reachable from e.var, and the
    free variables still unguarded after closing under the group."""
    dom = set(e.spec.domain())
    reached: list[str] = []
    frontier = [e.var]
    outside: set[str] = set()
    while frontier:
        v = frontier.pop()
        if v in reached:
            continue
        reached.append(v)
        for w in _oracle_unguarded_var_names(e.spec.body(v)):
            if w in dom:
                if w not in reached:
                    frontier.append(w)
            else:
                outside.add(w)
    return reached, outside


def _oracle_unguarded_prefix_names(e: Expr) -> list[str]:
    """Instruction names of unguarded action occurrences of e (with multiplicity)."""
    if isinstance(e, Prefix):
        return [e.name]
    if isinstance(e, Fix):
        reached, _ = _oracle_fix_unguarded(e)
        return [n for v in reached for n in _oracle_unguarded_prefix_names(e.spec.body(v))]
    out: list[str] = []
    for c in children(e):
        out.extend(_oracle_unguarded_prefix_names(c))
    return out


def _oracle_extended_subexpressions(e: Expr) -> list[Expr]:
    """All extended subexpressions of e (fix siblings included), deduplicated."""
    seen: dict[str, Expr] = {}
    stack = [e]
    while stack:
        n = stack.pop()
        key = print_expr(n)
        if key in seen:
            continue
        seen[key] = n
        stack.extend(children(n))
        if isinstance(n, Fix):
            for v, b in n.spec.bindings:
                stack.append(b)
                if v != n.var:
                    stack.append(Fix(v, n.spec))
    return list(seen.values())


def _oracle_well_named(e: Expr) -> bool:
    """Every extended subexpression has pairwise-distinct names on its
    unguarded action occurrences, and parallel arms have disjoint name sets."""
    for sub in _oracle_extended_subexpressions(e):
        names = _oracle_unguarded_prefix_names(sub)
        if len(names) != len(set(names)):
            return False
        if isinstance(sub, Par) and _all_names(sub.left) & _all_names(sub.right):
            return False
    return True


def _oracle_naming_violation(e: Expr) -> tuple[str, Par | None] | None:
    roots, groups = [e], set()
    for n, _ in walk(e):
        if isinstance(n, Prefix):
            roots.append(n.body)
        elif isinstance(n, Fix) and id(n.spec) not in groups:
            groups.add(id(n.spec))
            roots += [Fix(v, n.spec) for v in n.spec.domain()]
        elif isinstance(n, Par) and (shared := _all_names(n.left) & _all_names(n.right)):
            return min(shared), n
    for root in roots:
        names = _unguarded(root)[0]
        if len(names) != len(set(names)):
            return next(x for k, x in enumerate(names) if x in names[:k]), None
    return None


def _same_violation(e: Expr) -> tuple[str, Par | None] | None:
    """naming_violation(e), asserted to name the same instruction and the
    very same `|` node as the quadratic oracle."""
    got, want = naming_violation(e), _oracle_naming_violation(e)
    assert (got is None) == (want is None), print_expr(e)
    if got is not None:
        assert got[0] == want[0] and got[1] is want[1], print_expr(e)
    return got


def _agree(terms) -> tuple[int, int]:
    """Compare both checks on every term; (terms, ill-named terms)."""
    count = ill = 0
    for e in terms:
        want = _oracle_well_named(e)
        assert well_named(e) == want, print_expr(e)
        _same_violation(e)
        count += 1
        ill += not want
    return count, ill


# -- inputs -----------------------------------------------------------------

_LABELS = [parse_label(a) for a in ("a", "'a", "b", "tau")]
_FN = parse_expression("(a.0)[a -> b]").fn
_POOL = ("n0", "n1", "n2")  # shared explicit names, so that duplicates occur


def _random_term(rng, depth, scope, counter):
    """A term over the variables in scope: nested groups (which may reuse,
    and so shadow, an outer variable), unguarded variables, restriction,
    relabelling and parallel composition.  Most prefixes get a fresh name;
    two in five take a name from a small shared pool."""
    pick = rng.random()
    if depth <= 0 or pick < 0.15:
        return Var(rng.choice(scope)) if scope and rng.random() < 0.6 else Nil()
    counter[0] += 1
    if pick < 0.45:
        name = rng.choice(_POOL) if rng.random() < 0.4 else f"f{counter[0]}"
        return Prefix(rng.choice(_LABELS), name, _random_term(rng, depth - 1, scope, counter))
    if pick < 0.62:
        return Choice(_random_term(rng, depth - 1, scope, counter),
                      _random_term(rng, depth - 1, scope, counter))
    if pick < 0.7:
        return Par(_random_term(rng, depth - 1, scope, counter),
                   _random_term(rng, depth - 1, scope, counter))
    if pick < 0.76:
        return Restrict(_random_term(rng, depth - 1, scope, counter), "a")
    if pick < 0.82:
        return Relabel(_random_term(rng, depth - 1, scope, counter), _FN)
    names = rng.sample(("X", "Y", "Z"), rng.randint(1, 3))
    inner = scope + [v for v in names if v not in scope]
    group = RecSpec(tuple((v, _random_term(rng, depth - 1, inner, counter)) for v in names))
    return Fix(rng.choice(names), group)


@st.composite
def _drawn_term(draw, depth: int, scope: tuple[str, ...]) -> Expr:
    """The hypothesis counterpart of `_random_term`, names all from the pool
    plus one fresh name per depth."""
    pick = draw(st.integers(0, 7 if depth else 1))
    if pick == 0:
        return Nil()
    if pick == 1:
        return Var(draw(st.sampled_from(scope))) if scope else Nil()
    sub = _drawn_term(depth - 1, scope)
    if pick in (2, 3):
        name = draw(st.sampled_from(_POOL + (f"f{depth}",)))
        return Prefix(draw(st.sampled_from(_LABELS)), name, draw(sub))
    if pick == 4:
        return Choice(draw(sub), draw(sub))
    if pick == 5:
        return Par(draw(sub), draw(sub))
    if pick == 6:
        return draw(st.sampled_from((lambda e: Restrict(e, "a"), lambda e: Relabel(e, _FN))))(
            draw(sub))
    names = draw(st.lists(st.sampled_from(("X", "Y", "Z")), min_size=1, max_size=3,
                          unique=True))
    inner = scope + tuple(v for v in names if v not in scope)
    group = RecSpec(tuple((v, draw(_drawn_term(depth - 1, inner))) for v in names))
    return Fix(draw(st.sampled_from(names)), group)


# -- tests ------------------------------------------------------------------

def test_well_named_matches_the_oracle_on_explored_states():
    terms = [s.expr for b in build_all() if b.spec is not None
             for s in explore(b.spec, b.entry.state_cap, b.entry.depth_cap).states]
    for source in [_ring(k) for k in (10, 12, 14)] + [_grid(n) for n in (5, 6, 7)]:
        terms += [s.expr for s in explore(parse_ccs(source)).states]
    count, ill = _agree(terms)
    assert count > 600 and ill == 0


def test_well_named_matches_the_oracle_on_random_walks():
    rng = random.Random(0x5EED)
    specs = [b.spec for b in build_all() if b.spec is not None]
    assert len(specs) > 15
    walked = []
    for spec in specs:
        for _ in range(10):
            state = spec.root
            for _ in range(rng.randint(1, 60)):
                succ = step(state)
                if not succ:
                    break
                state = rng.choice(succ).target
                walked.append(state)
    count, _ = _agree(walked)
    assert count > 3000


def test_well_named_matches_the_oracle_on_random_terms():
    rng = random.Random(1810_07414)
    terms = [_random_term(rng, 7, [], [0]) for _ in range(4000)]
    count, ill = _agree(terms)
    assert ill > 350 and count - ill > 2800


def test_well_named_matches_the_oracle_on_explicit_names():
    for text, want in [("a{n}.0 + a{n}.0", False), ("a{n}.a{n}.0", True),
                       ("a{n}.0 | a{n}.0", False), ("X | X where X = a{n}.X", False),
                       ("X where X = a{n}.X + b.Y, Y = a{n}.0", True),
                       ("X where X = b.(a{n}.0 + Y), Y = a{n}.0", True),
                       ("X where X = b.X + Y, Y = a{n}.0 + a{n}.Y", False),
                       ("(a{n}.0)\\a + (b.0 + a{n}.0)[a -> b]", False),
                       ("c.(X where X = a{n}.X) + a{n}.0", True),
                       # only a prefix body, or only a fix term of a variable
                       # other than the fix's own, has the duplicate
                       ("b.(a{n}.0 + a{n}.0)", False),
                       ("X where X = b.Y, Y = a{n}.0 + a{n}.Y", False),
                       ("X where X = Y + a{n}.0, Y = c.0 + (Z where Z = a{n}.Z)", False)]:
        e = parse_expression(text)
        assert _oracle_well_named(e) is want, text
        assert well_named(e) is want, text


@given(_drawn_term(4, ()))
def test_well_named_matches_the_oracle_on_drawn_terms(e):
    _agree([e])


def _par_of(arms, shape):
    """The parallel composition of the arms, nested to the left (as the
    parser builds `a | b | c`), to the right, or balanced."""
    if shape == "left":
        e = arms[0]
        for a in arms[1:]:
            e = Par(e, a)
        return e
    if shape == "right":
        e = arms[-1]
        for a in reversed(arms[:-1]):
            e = Par(a, e)
        return e
    if len(arms) == 1:
        return arms[0]
    mid = len(arms) // 2
    return Par(_par_of(arms[:mid], shape), _par_of(arms[mid:], shape))


def test_naming_violation_matches_the_oracle_on_wide_terms():
    rng = random.Random(414)
    clashes = 0
    for n in (1, 2, 3, 50, 200):
        for shape in ("left", "right", "balanced"):
            for _ in range(4):
                names = [f"a{k}" for k in range(n)]
                for _ in range(rng.randint(0, 3)):  # some arms share a name
                    names[rng.randrange(n)] = rng.choice(names)
                arms = [Prefix(_LABELS[0], x, rng.choice((Nil(), Prefix(_LABELS[2], x + "b", Nil()))))
                        for x in names]
                clashes += _same_violation(_par_of(arms, shape)) is not None
    assert clashes > 10


def test_naming_violation_matches_the_oracle_on_nested_terms():
    rng = random.Random(1810)
    kinds = {"par": 0, "unguarded": 0, None: 0}
    for _ in range(300):
        # parallel compositions under prefixes, choices, wrappers and fix
        # groups, whose arms may again be wide compositions
        e = _random_term(rng, 5, [], [0])
        for _ in range(rng.randint(1, 4)):
            arms = [_random_term(rng, 3, [], [0]) for _ in range(rng.randint(2, 6))]
            wide = _par_of(arms, rng.choice(("left", "right", "balanced")))
            wrap = rng.random()
            if wrap < 0.3:
                e = Prefix(_LABELS[1], rng.choice(_POOL), Par(e, wide))
            elif wrap < 0.6:
                e = Choice(wide, e)
            elif wrap < 0.8:
                e = Restrict(Par(wide, e), "a")
            else:
                e = Fix("X", RecSpec((("X", Par(e, wide)), ("Y", wide))))
        got = _same_violation(e)
        kinds[got and ("par" if got[1] is not None else "unguarded")] += 1
    assert kinds["par"] > 150 and kinds["unguarded"] > 0 and kinds[None] > 10


def test_naming_violation_prefers_a_shared_name_over_a_repeated_one():
    # b{m} occurs twice unguarded in the left arm, which also shares n with
    # the right arm: the '|' is reported, at the outermost clashing one
    e = parse_expression("(b{m}.0 + b{m}.0 + a{n}.0) | (c{k}.0 | c{k}.0 | a{n}.0)")
    name, par = naming_violation(e)
    assert (name, par) == ("n", e) and _oracle_naming_violation(e)[1] is e
    assert naming_violation(parse_expression("b{m}.0 + b{m}.0 | c.0")) == ("m", None)


def test_naming_violation_is_not_quadratic_in_parallel_components():
    # 20,000 components: the oracle would intersect ~2 * 10^8 names
    e = _par_of([Prefix(_LABELS[0], f"a{k}", Nil()) for k in range(20_000)], "left")
    started = time.perf_counter()
    assert naming_violation(e) is None
    assert time.perf_counter() - started < 10
