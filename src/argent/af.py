"""Abstract argumentation frameworks: apx parsing, stable semantics, acceptance.

Extension enumeration runs on the bitmask kernels from :mod:`argent.kernels`;
:func:`is_stable` is an independent set-based check and doubles as a
cross-validation of kernel output when extension sets are constructed.
"""

from __future__ import annotations

import re
from typing import Container, Iterable, Iterator

from . import kernels
from .errors import (
    ID_PATTERN,
    IDENT,
    ParseError,
    Record,
    ResourceLimitError,
    UnknownArgumentError,
    line_col,
)


class ArgumentationFramework(Record):
    """Directed attack graph over named arguments."""

    _fields = ("arguments", "attacks")

    def __init__(self, arguments: Iterable[str], attacks: Iterable[tuple[str, str]]):
        object.__setattr__(self, "arguments", tuple(arguments))
        object.__setattr__(self, "attacks", frozenset(attacks))
        seen = set()
        for arg in self.arguments:
            if not ID_PATTERN.match(arg):
                raise ValueError(f"bad argument identifier: {arg!r}")
            if arg in seen:
                raise ValueError(f"duplicate argument: {arg!r}")
            seen.add(arg)
        for src, tgt in self.attacks:
            if src not in seen or tgt not in seen:
                raise UnknownArgumentError(f"attack ({src},{tgt}) uses an undeclared argument")

    def index(self, arg: str) -> int:
        try:
            return self.arguments.index(arg)
        except ValueError:
            raise UnknownArgumentError(f"unknown argument: {arg!r}") from None

    def pair_key(self, pair: tuple[str, str]) -> tuple[int, int]:
        return (self.index(pair[0]), self.index(pair[1]))

    def sorted_attacks(self) -> list[tuple[str, str]]:
        return sorted(self.attacks, key=self.pair_key)


# The blanks of every statement format, inside statements and between them.
_B = "[ \t\r\n]"
_ATT = rf"att{_B}*\({_B}*(?P<src>{IDENT}){_B}*,{_B}*(?P<tgt>{IDENT}){_B}*\){_B}*\."
_APX = re.compile(rf"arg{_B}*\({_B}*(?P<arg>{IDENT}){_B}*\){_B}*\.|{_ATT}")
_BLANKS = re.compile(f"{_B}*")
_COMMENT = re.compile(r"#[^\n]*")


def statements(text: str, pattern: re.Pattern, expected: str) -> Iterator[re.Match]:
    """One match of `pattern` per statement of `text`, in order.  Comments
    are cut first: each becomes blanks of its own length, so every offset in
    a match's string is the same offset in `text`.  Text where no statement
    starts is a :class:`ParseError` with message `expected` at its first
    character."""
    cut = _COMMENT.sub(lambda m: " " * len(m[0]), text)
    pos = _BLANKS.match(cut).end()
    while pos < len(cut):
        m = pattern.match(cut, pos)
        if m is None:
            raise ParseError(expected, *line_col(cut, pos))
        yield m
        pos = _BLANKS.match(cut, m.end()).end()


def parse_af(text: str) -> ArgumentationFramework:
    """Parse apx-style text: `arg(<id>).` and `att(<id>,<id>).` statements."""
    arguments: dict[str, None] = {}
    attacks: list[re.Match] = []
    for m in statements(text, _APX, "expected arg(...). or att(...,...)."):
        if m["arg"] is None:
            attacks.append(m)
        elif m["arg"] in arguments:
            raise ParseError("duplicate arg(...) declaration", *line_col(text, m.start()))
        else:
            arguments[m["arg"]] = None
    check_declared(attacks, arguments)
    pairs = frozenset(m.group("src", "tgt") for m in attacks)
    return ArgumentationFramework(tuple(arguments), pairs)


def check_declared(attacks: Iterable[re.Match], declared: Container[str]) -> None:
    """Raise :class:`UnknownArgumentError` at the first endpoint of the
    `att(...)` statement matches `attacks`, in order, that `declared` lacks."""
    for m in attacks:
        for end in ("src", "tgt"):
            if m[end] not in declared:
                raise UnknownArgumentError(f"undeclared argument {m[end]!r}",
                                           *line_col(m.string, m.start(end)))


def format_af(af: ArgumentationFramework) -> str:
    lines = [f"arg({a})." for a in af.arguments]
    lines += [f"att({s},{t})." for s, t in af.sorted_attacks()]
    return "\n".join(lines)


def is_stable(af: ArgumentationFramework, s: Iterable[str]) -> bool:
    """Set-based stability check: conflict-free and attacking every outsider."""
    members = set(s)
    for arg in members:
        if arg not in af.arguments:
            raise UnknownArgumentError(f"unknown argument: {arg!r}")
    for src, tgt in af.attacks:
        if src in members and tgt in members:
            return False
    for arg in af.arguments:
        if arg in members:
            continue
        if not any((src, arg) in af.attacks for src in members):
            return False
    return True


def attacker_masks(af: ArgumentationFramework) -> list[int]:
    idx = {a: i for i, a in enumerate(af.arguments)}
    masks = [0] * len(af.arguments)
    for src, tgt in af.attacks:
        masks[idx[tgt]] |= 1 << idx[src]
    return masks


def _guard_size(af: ArgumentationFramework) -> None:
    if len(af.arguments) > kernels.MAX_ARGUMENTS:
        raise ResourceLimitError(
            f"{len(af.arguments)} arguments exceed the enumeration limit "
            f"of {kernels.MAX_ARGUMENTS}"
        )


def _mask_to_set(af: ArgumentationFramework, mask: int) -> frozenset[str]:
    return frozenset(a for i, a in enumerate(af.arguments) if (mask >> i) & 1)


class ExtensionSet(Record):
    """Stable extensions of one framework; each member re-checked on construction."""

    _fields = ("af", "extensions")

    def __init__(self, af: ArgumentationFramework, extensions: tuple[frozenset[str], ...]):
        object.__setattr__(self, "af", af)
        object.__setattr__(self, "extensions", extensions)
        for ext in extensions:
            if not is_stable(af, ext):
                raise ValueError(f"not a stable extension: {sorted(ext)}")

    def __iter__(self):
        return iter(self.extensions)

    def __len__(self):
        return len(self.extensions)

    def as_sets(self) -> set[frozenset[str]]:
        return set(self.extensions)


class AcceptanceReport(Record):
    """Skeptically accepted arguments; `vacuous` marks the no-extension case,
    in which every argument counts as accepted."""

    _fields = ("accepted", "vacuous")

    def __init__(self, accepted: frozenset[str], vacuous: bool):
        object.__setattr__(self, "accepted", accepted)
        object.__setattr__(self, "vacuous", vacuous)


def stable_extensions(af: ArgumentationFramework) -> ExtensionSet:
    """All stable extensions, enumerated over subset masks in ascending order."""
    _guard_size(af)
    masks = kernels.stable_masks(attacker_masks(af), len(af.arguments))
    return ExtensionSet(af, tuple(_mask_to_set(af, m) for m in masks))


def skeptical_accepted(af: ArgumentationFramework) -> AcceptanceReport:
    """Intersection of all stable extensions, with the vacuous convention."""
    _guard_size(af)
    acc_mask, vacuous = kernels.acceptance_mask(attacker_masks(af), len(af.arguments))
    return AcceptanceReport(_mask_to_set(af, acc_mask), vacuous)


def format_extension(af: ArgumentationFramework, ext: Iterable[str]) -> str:
    members = set(ext)
    return "{" + ",".join(a for a in af.arguments if a in members) + "}"


def format_pair_set(af: ArgumentationFramework, pairs: Iterable[tuple[str, str]]) -> str:
    ordered = sorted(pairs, key=af.pair_key)
    return "{" + ",".join(f"({s},{t})" for s, t in ordered) + "}"
