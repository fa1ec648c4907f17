"""Differential test of the side-condition table against the per-condition
validator it replaced, kept here unchanged as the oracle (`_validate` and
`_solve_cmp` below).

On every corpus system, ring(10-14), grid(5-7) and 3,000 seeded random
systems whose instr and comp annotations are each sometimes missing (and
whose comp may be empty), the reports agree field for field except in three
deliberate ways:

- "unchecked holds": the oracle reported (6) as holding on a system with comp
  but no instr although it was not checked; an unchecked condition now never
  holds.
- "truncated": (#) and (6) read the transitions after each step, which a
  truncated system has not all explored; they are now skipped there with the
  detail "exploration truncated" (a missing annotation still takes
  precedence).
- "first pair": the oracle's (#)/(6) detail named the last failing pair; it
  now names the first, as every other condition does.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from families import _grid, _ring, random_lts

from fairlab.corpus import build_all
from fairlab.labels import parse_label
from fairlab.lts import (AugmentedLTS, ConditionReport, State, Transition, _solve_cmp as solve_cmp,
                         from_exploration, requested, requests, validate_side_conditions)
from fairlab.parser import parse_ccs
from fairlab.semantics import explore


def _validate(lts: AugmentedLTS) -> list[ConditionReport]:
    out: list[ConditionReport] = []
    has_instr = all(t.instr is not None for t in lts.transitions)
    has_comp = all(t.comp is not None for t in lts.transitions)
    has_expr = all(s.expr is not None for s in lts.states)

    # (1) unique synchronisation
    if has_instr:
        holds, detail = True, ""
        seen: dict[tuple[str, frozenset[str]], str] = {}
        for t in lts.transitions:
            key = (t.source, t.instr)
            if key in seen:
                holds, detail = False, f"state {t.source}: {seen[key]} and {t.id} share instr"
                break
            seen[key] = t.id
        out.append(ConditionReport("(1) unique synchronisation", holds, True, detail))
    else:
        out.append(ConditionReport("(1) unique synchronisation", False, False, "no instr"))

    # (2) finitely many instructions: immediate for an explored finite system
    out.append(ConditionReport("(2) finite instruction set", has_instr, has_instr,
                               "" if has_instr else "no instr"))

    # (3) comp is determined by a function cmp over instructions
    if has_instr and has_comp:
        holds, detail = _solve_cmp(lts)
        out.append(ConditionReport("(3) comp images of cmp", holds, True, detail))
    else:
        out.append(ConditionReport("(3) comp images of cmp", False, False,
                                   "needs instr and comp"))

    # (4)/(5) requested-ness conditions (ccs origin only)
    if lts.origin == "ccs" and has_expr and has_instr and has_comp:
        cmp, instrs, sids = lts.cmp(), lts.instructions(), lts.state_ids()
        bad4 = next((f"instruction {i} enabled but not requested in {sid}" for sid in sids
                     for i in sorted({j for t in lts.outgoing(sid) for j in t.instr})
                     if not requested(lts, i, sid)), "")
        bad5 = next((f"instruction {i} requested in {sid} but not after {u.id}"
                     for sid in sids for i in instrs if i in requests(lts, sid)
                     for u in lts.outgoing(sid)
                     if cmp[i] not in u.comp and not requested(lts, i, u.target)), "")
        out.append(ConditionReport("(4) enabled implies requested", not bad4, True, bad4))
        out.append(ConditionReport("(5) requested persists", not bad5, True, bad5))
    else:
        why = "ccs origin with expressions required"
        out.append(ConditionReport("(4) enabled implies requested", False, False, why))
        out.append(ConditionReport("(5) requested persists", False, False, why))

    # (6) and (#): persistence of concurrent transitions
    if has_comp:
        holds6, detail6 = True, ""
        holdsH, detailH = True, ""
        for sid in lts.state_ids():
            outs = lts.outgoing(sid)
            for t in outs:
                for u in outs:
                    if t.comp & u.comp:
                        continue
                    succ = lts.outgoing(u.target)
                    if not any(v.comp == t.comp for v in succ):
                        holdsH = False
                        detailH = f"(#) fails for t={t.id}, u={u.id}"
                    if has_instr and not any(v.instr == t.instr for v in succ):
                        holds6 = False
                        detail6 = f"(6) fails for t={t.id}, u={u.id}"
        out.append(ConditionReport("(#) persistence of components", holdsH, True, detailH))
        out.append(ConditionReport("(6) persistence of instructions", holds6, has_instr,
                                   detail6 if has_instr else "no instr"))
    else:
        out.append(ConditionReport("(#) persistence of components", False, False, "no comp"))
        out.append(ConditionReport("(6) persistence of instructions", False, False, "no comp"))

    # reflexivity of interference: comp(t) nonempty
    if has_comp:
        bad = next((t.id for t in lts.transitions if not t.comp), "")
        out.append(ConditionReport("interference reflexivity", not bad, True,
                                   f"transition {bad} has empty comp" if bad else ""))
    else:
        out.append(ConditionReport("interference reflexivity", False, False, "no comp"))
    return out


def _solve_cmp(lts: AugmentedLTS) -> tuple[bool, str]:
    """Does some cmp: instructions -> components satisfy comp(t) = cmp[instr(t)]
    for every transition?  Backtracking over the (small) instruction set."""
    constraints = [(tuple(sorted(t.instr)), frozenset(t.comp), t.id)
                   for t in lts.transitions]
    domains: dict[str, set[str]] = {}
    for instr, comp, _ in constraints:
        for i in instr:
            domains[i] = domains.setdefault(i, set(comp)) & comp
    order = sorted(domains)
    assignment: dict[str, str] = {}

    def consistent() -> str:
        for instr, comp, tid in constraints:
            if all(i in assignment for i in instr):
                if {assignment[i] for i in instr} != comp:
                    return tid
        return ""

    def solve(k: int) -> bool:
        if k == len(order):
            return not consistent()
        i = order[k]
        for value in sorted(domains[i]):
            assignment[i] = value
            bad = consistent()
            if not bad and solve(k + 1):
                return True
            del assignment[i]
        return False

    for i, dom in domains.items():
        if not dom:
            return False, f"instruction {i} has no candidate component"
    if solve(0):
        return True, ""
    return False, "no consistent cmp assignment found"


def _failing_pairs(lts: AugmentedLTS, tag: str) -> list[str]:
    """Every (#) or (6) failure detail, in state, then t, then u order."""
    field = "comp" if tag == "(#)" else "instr"
    return [f"{tag} fails for t={t.id}, u={u.id}"
            for sid in lts.state_ids() for t in lts.outgoing(sid) for u in lts.outgoing(sid)
            if not t.comp & u.comp and not any(getattr(v, field) == getattr(t, field)
                                               for v in lts.outgoing(u.target))]


def _difference(lts: AugmentedLTS, old: ConditionReport, new: ConditionReport) -> str:
    """Which deliberate change separates the oracle's report from the table's."""
    tag = old.name.split()[0]
    if old.name == new.name and not old.checked and old.holds and (
            new.holds, new.checked, new.detail) == (False, False, old.detail):
        return "unchecked holds"
    if tag in ("(#)", "(6)") and lts.truncated and old.checked and new == ConditionReport(
            old.name, False, False, "exploration truncated"):
        return "truncated"
    if tag in ("(#)", "(6)") and (old.name, old.holds, old.checked) == (
            new.name, new.holds, new.checked) == (old.name, False, True):
        pairs = _failing_pairs(lts, tag)
        if (old.detail, new.detail) == (pairs[-1], pairs[0]):
            return "first pair"
    return f"unexplained: {old} -> {new}"


def _systems():
    for built in build_all():
        yield built.entry.id, built.lts
    for name, text in ([(f"ring({k})", _ring(k)) for k in range(10, 15)]
                       + [(f"grid({n})", _grid(n)) for n in range(5, 8)]):
        yield name, from_exploration(explore(parse_ccs(text)))
    # 1-4 states and 1-6 transitions; instr and comp are each on every
    # transition, on none, or on most; comp may be empty; a third of the
    # systems are marked truncated
    rng = random.Random(1914)
    missing = (0, 0, 1, 0.2)
    for k in range(3000):
        yield f"random {k}", random_lts(
            rng, transitions=(1, 6), labels=("a", "b", "tau"), instr="ijk",
            instr_missing=rng.choice(missing), comp="LRM", comp_sizes=(0, 2),
            comp_missing=rng.choice(missing), truncated=1 / 3)


@pytest.fixture(scope="module")
def systems() -> list[tuple[str, AugmentedLTS]]:
    return list(_systems())


def test_table_agrees_with_the_replaced_validator(systems):
    kinds: Counter[str] = Counter()
    for name, lts in systems:
        old, new = _validate(lts), validate_side_conditions(lts)
        assert [r.name for r in old] == [r.name for r in new], name
        for o, n in zip(old, new):
            if o != n:
                kind = _difference(lts, o, n)
                assert not kind.startswith("unexplained"), (name, kind)
                kinds[kind] += 1
        if not name.startswith("random") and lts.origin == "ccs" and not lts.truncated:
            assert old == new, name
    # the deliberate differences all occur, and nothing else differs
    assert set(kinds) == {"unchecked holds", "truncated", "first pair"}, kinds
    assert all(kinds.values()), kinds


def test_an_unchecked_condition_never_holds(systems):
    skipped = 0
    for name, lts in systems:
        for report in validate_side_conditions(lts):
            if not report.checked:
                assert not report.holds and report.detail, (name, report)
                skipped += 1
    assert skipped


def _constrained(*constraints: tuple[str, str]) -> AugmentedLTS:
    """A system with two transitions per (instr, comp) constraint, given as
    letter strings, one letter per instruction or component."""
    pairs = [c for c in constraints for _ in range(2)]
    transitions = [Transition(f"t{k}", f"s{k % 2}", f"s{1 - k % 2}", parse_label("a"),
                              frozenset(instr), frozenset(comp), True)
                   for k, (instr, comp) in enumerate(pairs)]
    return AugmentedLTS([State("s0", None), State("s1", None)], transitions, ["s0"])


@pytest.mark.parametrize("constraints, detail", [
    # x = P is tried first, and y's only value P then gives {x, y} the image {P}
    ((("xy", "PQ"), ("y", "P")), ""),
    ((("x", "P"), ("y", "P"), ("xy", "PQ")), "no consistent cmp assignment found"),
    ((("x", "P"), ("x", "Q")), "instruction x has no candidate component"),
    ((("", ""), ("x", "P")), ""),
    ((("", "P"), ("x", "P")), "no consistent cmp assignment found"),
])
def test_cmp_search_agrees_with_the_replaced_one(constraints, detail):
    lts = _constrained(*constraints)
    assert solve_cmp(lts) == detail
    assert _solve_cmp(lts) == (not detail, detail)


def test_cmp_search_takes_no_frame_per_instruction():
    """3,000 instructions are more than the interpreter's frame limit."""
    transitions = [Transition(f"t{k}", "s0", "s0", parse_label("a"), frozenset({f"i{k}"}),
                              frozenset({"L" if k % 2 else "R"}), True) for k in range(3000)]
    lts = AugmentedLTS([State("s0", None)], transitions, ["s0"])
    assert solve_cmp(lts) == ""
