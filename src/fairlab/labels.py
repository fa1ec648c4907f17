"""Action labels and relabelling functions.

An action is either the internal action tau, a name such as ``a`` or ``b#3``,
or the complement (co-name) of a name, written ``'a``.  Indexed names like
``b#3`` exist so that infinite relabelling families (``b#i -> b#(i+1)``) can
be written finitely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class LabelError(ValueError):
    """Raised for malformed label strings or inconsistent relabellings."""


@dataclass(frozen=True, order=True)
class ActionLabel:
    """One action: tau, a name, or a co-name, with an optional natural index."""

    kind: str  # "name" | "co" | "tau"
    base: str = ""
    index: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("name", "co", "tau"):
            raise LabelError(f"bad label kind {self.kind!r}")
        if self.kind == "tau" and (self.base or self.index is not None):
            raise LabelError("tau carries no base or index")
        if self.kind != "tau" and not self.base:
            raise LabelError("named label needs a base")

    @property
    def is_tau(self) -> bool:
        return self.kind == "tau"

    def complement(self) -> "ActionLabel":
        """Complementation; an involution, undefined for tau."""
        if self.is_tau:
            raise LabelError("tau has no complement")
        return ActionLabel("co" if self.kind == "name" else "name", self.base, self.index)

    def __str__(self) -> str:
        if self.is_tau:
            return "tau"
        text = self.base if self.index is None else f"{self.base}#{self.index}"
        return f"'{text}" if self.kind == "co" else text


TAU = ActionLabel("tau")


def parse_label(text: str) -> ActionLabel:
    """Parse a label string: ``a``, ``'a``, ``tau``, ``b#3``, ``'b#3``.
    Tau has no co-name and no index, so ``'tau`` and ``tau#3`` are bad."""
    s = text.strip()
    if s == "tau":
        return TAU
    co = s.startswith("'")
    if co:
        s = s[1:]
    base, sep, idx = s.partition("#")
    if not base or not base[0].islower() or not base.isidentifier() or base == "tau":
        raise LabelError(f"bad label {text!r}")
    if sep:
        if not idx.isdigit():
            raise LabelError(f"bad label index in {text!r}")
        return ActionLabel("co" if co else "name", base, int(idx))
    return ActionLabel("co" if co else "name", base)


@dataclass(frozen=True)
class RelabelRule:
    """One rule of a relabelling map.

    Concrete rule: ``src_base`` (+ ``src_index``) maps to ``dst_base`` (+
    ``dst_index``).  Family rule (``family=True``): every ``src_base#i`` maps
    to ``dst_base#(i+offset)``; then ``src_index``/``dst_index`` are unused.
    """

    src_base: str
    dst_base: str
    src_index: int | None = None
    dst_index: int | None = None
    family: bool = False
    offset: int = 0

    def __str__(self) -> str:
        if self.family:
            rhs = f"{self.dst_base}#(i+{self.offset})" if self.offset else f"{self.dst_base}#i"
        else:
            rhs = self.dst_base if self.dst_index is None else f"{self.dst_base}#{self.dst_index}"
        lhs = (f"{self.src_base}#i" if self.family
               else self.src_base if self.src_index is None
               else f"{self.src_base}#{self.src_index}")
        return f"{lhs} -> {rhs}"


@dataclass(frozen=True)
class RelabelFn:
    """A relabelling: complement-consistent, identity outside its rules.

    f('a) = '(f(a)) and f(tau) = tau hold by construction: rules are stated on
    plain names and applied through complementation.
    """

    rules: tuple[RelabelRule, ...]

    def __post_init__(self) -> None:
        seen: set[tuple[str, int | None, bool]] = set()
        for r in self.rules:
            key = (r.src_base, r.src_index, r.family)
            if key in seen:
                raise LabelError(f"duplicate relabelling source {r.src_base!r}")
            seen.add(key)

    def apply(self, label: ActionLabel) -> ActionLabel:
        if label.is_tau:
            return label
        if label.kind == "co":
            return self.apply(label.complement()).complement()
        for r in self.rules:
            if r.src_base != label.base:
                continue
            if r.family:
                if label.index is not None:
                    return ActionLabel("name", r.dst_base, label.index + r.offset)
            elif r.src_index == label.index:
                return ActionLabel("name", r.dst_base, r.dst_index)
        return label

    @cached_property
    def text(self) -> str:
        """The printed form, shared by every print of the relabelling."""
        return "[" + ", ".join(str(r) for r in self.rules) + "]"

    def __str__(self) -> str:
        return self.text
