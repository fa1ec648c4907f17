"""Differential test of the system's one cmp against the two recoveries it
replaced, both kept here unchanged as oracles.

`_derive_cmp` guessed cmp from transitions with a single unresolved
instruction, and resolved only some instructions (none on ex-5.8 or
ex-13.2); condition (5) skipped the rest.  `_collect_paths` was `parse_ccs`'s
own walk for instruction names that span parallel components.  On every ccs
corpus system, ring(10-14) and grid(5-7): the derived map agrees with the
cmp wherever it is defined, the cmp covers every instruction, `parse_ccs`'s
cmp_map is the walk's, and conditions (4) and (5) report as they did when (5)
read the derived map.
"""

from __future__ import annotations

import pytest

from families import _grid, _ring

from fairlab.corpus import build_all
from fairlab.lts import (ConditionReport, from_exploration, requested,
                         validate_side_conditions)
from fairlab.parser import parse_ccs
from fairlab.semantics import explore
from fairlab.syntax import Choice, Fix, Par, Prefix, Relabel, Restrict


def _derive_cmp(lts) -> dict[str, str]:
    """Recover cmp from singleton-instruction transitions (condition (3))."""
    cmp_map: dict[str, str] = {}
    changed = True
    while changed:
        changed = False
        for t in lts.transitions:
            if t.instr is None or t.comp is None:
                continue
            unknown = [i for i in t.instr if i not in cmp_map]
            if len(t.instr) == 1 and unknown and len(t.comp) == 1:
                cmp_map[unknown[0]] = next(iter(t.comp))
                changed = True
            elif len(unknown) == 1:
                rest = set(t.comp) - {cmp_map[i] for i in t.instr if i in cmp_map}
                if len(rest) == 1:
                    cmp_map[unknown[0]] = next(iter(rest))
                    changed = True
    return cmp_map


def _collect_paths(e, path: str, out: dict[str, set[str]]) -> None:
    if isinstance(e, Prefix):
        out.setdefault(e.name, set()).add(path)
        _collect_paths(e.body, path, out)
    elif isinstance(e, Par):
        _collect_paths(e.left, path + "L", out)
        _collect_paths(e.right, path + "R", out)
    elif isinstance(e, (Restrict, Relabel)):
        _collect_paths(e.body, path, out)
    elif isinstance(e, Choice):
        _collect_paths(e.left, path, out)
        _collect_paths(e.right, path, out)
    elif isinstance(e, Fix):
        for _, b in e.spec.bindings:
            _collect_paths(b, path, out)


def _derived_conditions_4_5(lts) -> list[ConditionReport]:
    """Conditions (4) and (5) as they were computed from `_derive_cmp`."""
    holds4, detail4 = True, ""
    holds5, detail5 = True, ""
    instrs = lts.instructions()
    cmp_map = _derive_cmp(lts)
    for sid in lts.state_ids():
        enabled_instr = {i for t in lts.outgoing(sid) for i in t.instr}
        for i in sorted(enabled_instr):
            if not requested(lts, i, sid):
                holds4, detail4 = False, f"instruction {i} enabled but not requested in {sid}"
                break
        if not holds4:
            break
    for sid in lts.state_ids():
        for i in instrs:
            if cmp_map.get(i) is None:
                continue
            try:
                if not requested(lts, i, sid):
                    continue
            except Exception:
                continue
            for u in lts.outgoing(sid):
                if cmp_map[i] not in u.comp and not requested(lts, i, u.target):
                    holds5 = False
                    detail5 = f"instruction {i} requested in {sid} but not after {u.id}"
                    break
            if not holds5:
                break
        if not holds5:
            break
    return [ConditionReport("(4) enabled implies requested", holds4, True, detail4),
            ConditionReport("(5) requested persists", holds5, True, detail5)]


def _systems():
    for built in build_all():
        if built.entry.kind == "ccs":
            yield built.entry.id, built.spec, built.lts
    for name, text in ([(f"ring({k})", _ring(k)) for k in range(10, 15)]
                       + [(f"grid({n})", _grid(n)) for n in range(5, 8)]):
        spec = parse_ccs(text)
        yield name, spec, from_exploration(explore(spec))


SYSTEMS = list(_systems())


@pytest.mark.parametrize("name,spec,lts", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_cmp_agrees_with_the_replaced_recoveries(name, spec, lts):
    cmp = lts.cmp()
    derived = _derive_cmp(lts)
    assert derived.items() <= cmp.items()
    assert set(lts.instructions()) <= set(cmp)
    walked: dict[str, set[str]] = {}
    _collect_paths(spec.root, "", walked)
    assert all(len(where) == 1 for where in walked.values())
    assert spec.cmp_map == {n: next(iter(where)) for n, where in walked.items()}
    reports = validate_side_conditions(lts)
    assert [r for r in reports if r.name[:3] in ("(4)", "(5)")] == _derived_conditions_4_5(lts)


def test_condition_5_now_reads_every_instruction():
    by_id = {name: lts for name, _, lts in SYSTEMS}
    for name, derived, total in (("ex-5.8-chained-sync", 0, 10),
                                 ("ex-13.2-one-shot", 0, 11),
                                 ("ex-7.1-clerk", 9, 15)):
        lts = by_id[name]
        instrs = lts.instructions()
        assert sum(i in _derive_cmp(lts) for i in instrs) == derived, name
        assert sum(i in lts.cmp() for i in instrs) == total == len(instrs), name
