"""Minimal-change revision of frameworks under goals over acc/att atoms.

Goals and integrity constraints are written with `acc(<id>)` / `att(<id>,<id>)`
atoms in the ordinary formula grammar and compile to att/acc variables.  The
search walks attack configurations outward from the original framework by
increasing flip count over the att variables left free by the constraint's
unit literals; acc variables are never searched, they are determined by the
attacks.  Three distance modes are supported:

  dalal         every variable flip costs 1
  att-weighted  an att flip costs |A|+1, an acc flip costs 1
  att-only      only att flips count

With uniform weights the scan keeps going until no deeper level can beat the
best total found, so the returned set is exactly the distance-minimal one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from . import kernels
from .af import (
    ArgumentationFramework,
    _guard_size,
    format_af,
    format_extension,
    format_pair_set,
)
from .encoding import (
    AttAccVocabulary,
    _vocabulary_of,
    attacker_masks_from,
    pin_att_units,
    scan_candidates,
)
from .errors import ParseError, UnknownArgumentError
from .prop import And, Formula, FormulaParser, TRUE, Var, satisfiable, scan, variables

DALAL = "dalal"
ATT_WEIGHTED = "att-weighted"
ATT_ONLY = "att-only"
MODES = (DALAL, ATT_WEIGHTED, ATT_ONLY)


def mode_weights(mode: str, n: int) -> tuple[int, int]:
    """(att weight, acc weight) for `mode` over an n-argument framework."""
    if mode == DALAL:
        return 1, 1
    if mode == ATT_WEIGHTED:
        return n + 1, 1
    if mode == ATT_ONLY:
        return 1, 0
    raise ValueError(f"unknown distance mode: {mode!r} (choose from {MODES})")


class _GoalParser(FormulaParser):
    """Formula parser whose only identifier atoms are acc(...) and att(...,...)."""

    def __init__(self, tokens, enc: AttAccVocabulary):
        super().__init__(tokens)
        self._enc = enc

    def ident_atom(self) -> Formula:
        tok = self.advance()
        if tok.text not in ("acc", "att"):
            raise ParseError(
                "expected an acc(...) or att(...,...) atom", tok.line, tok.col
            )
        self.expect("lparen", "'('")
        first = self.expect("ident", "an argument identifier")
        if tok.text == "acc":
            self.expect("rparen", "')'")
            self._check(first)
            return Var(self._enc.acc_var(first.text))
        self.expect("comma", "','")
        second = self.expect("ident", "an argument identifier")
        self.expect("rparen", "')'")
        self._check(first)
        self._check(second)
        return Var(self._enc.att_var(first.text, second.text))

    def _check(self, tok) -> None:
        if tok.text not in self._enc.arguments:
            raise UnknownArgumentError(
                f"unknown argument {tok.text!r} at line {tok.line}, col {tok.col}"
            )


def parse_goal(text: str, enc: AttAccVocabulary) -> Formula:
    """Compile a goal/constraint over acc(x) and att(x,y) atoms to att/acc variables."""
    return _GoalParser(scan(text), enc).parse()


@dataclass(frozen=True)
class RevisionEntry:
    """One distance-minimal revised framework with its change record."""

    af: ArgumentationFramework
    accepted: frozenset[str]
    vacuous: bool
    att_added: frozenset[tuple[str, str]]
    att_removed: frozenset[tuple[str, str]]
    acc_changed: frozenset[str]
    total_weight: int


@dataclass(frozen=True)
class RevisionOutcome:
    """Distance-minimal revised frameworks, canonically ordered by flip set."""

    entries: tuple[RevisionEntry, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def attack_sets(self) -> set[frozenset[tuple[str, str]]]:
        return {entry.af.attacks for entry in self.entries}


def revise_af(
    af: ArgumentationFramework,
    goal: Formula,
    constraint: Formula | None = None,
    mode: str = ATT_ONLY,
    require_extension: bool = True,
) -> RevisionOutcome:
    """Theory models satisfying goal and constraint at minimal distance from `af`.

    The search fixes att variables pinned by unit literals of goal/constraint,
    then scans flip subsets of the free att variables by increasing size k,
    a chunk of candidates at a time (see :func:`encoding.scan_candidates`).
    Each candidate's acc assignment is forced by the attacks, so a level-k scan
    is complete for every model with k free flips; the scan stops once no
    deeper level can reach the best total weight.  When `require_extension` is
    set, candidates without a stable extension are excluded, which keeps the
    degenerate all-accepted models out of the result.

    An empty outcome (never an exception) means no admissible model exists.
    """
    _guard_size(af)
    n = len(af.arguments)
    w_att, w_acc = mode_weights(mode, n)
    enc = _vocabulary_of(af.arguments)
    constraint = TRUE if constraint is None else constraint
    combined = And((goal, constraint)) if constraint != TRUE else goal
    foreign = variables(combined) - enc.vocabulary.name_set
    if foreign:
        raise UnknownArgumentError(f"variable {min(foreign)!r} is not an att/acc variable")
    if not satisfiable([combined]):
        return RevisionOutcome(())
    pins = pin_att_units(combined, enc)
    if pins is None:
        return RevisionOutcome(())
    pinned, value, free = pins
    base_att = 0
    for p, pair in enumerate(enc.pairs):
        if pair in af.attacks:
            base_att |= 1 << p
    start = base_att & ~pinned | value
    baseline = bin(start ^ base_att).count("1")

    acc0_mask, _ = kernels.acceptance_mask(attacker_masks_from(base_att, n), n)

    hits: list[tuple[int, tuple[int, ...], int, bool]] = []
    best: int | None = None
    for k in range(len(free) + 1):
        att_weight = w_att * (baseline + k)
        if best is not None and att_weight > best:
            break
        for chunk, acc_cols, vacuous, sat in scan_candidates(
            enc, start, combinations(free, k), combined
        ):
            if require_extension:
                sat &= ~vacuous
            while sat:
                low = sat & -sat
                sat ^= low
                c = low.bit_length() - 1
                acc_mask = 0
                for i, col in enumerate(acc_cols):
                    if col & low:
                        acc_mask |= 1 << i
                total = att_weight + w_acc * bin(acc_mask ^ acc0_mask).count("1")
                if best is None or total < best:
                    best = total
                if total == best:
                    hits.append((total, chunk[c], acc_mask, bool(vacuous & low)))
    if best is None:
        return RevisionOutcome(())
    kept = []
    for total, combo, acc_mask, vacuous in hits:
        if total == best:
            att = start
            for p in combo:
                att ^= 1 << p
            flip_positions = tuple(p for p in range(n * n) if (att ^ base_att) >> p & 1)
            kept.append((flip_positions, att, acc_mask, vacuous))
    kept.sort(key=lambda h: h[0])
    entries = []
    for _, att, acc_mask, vacuous in kept:
        attacks = frozenset(enc.pairs[p] for p in range(n * n) if (att >> p) & 1)
        new_af = ArgumentationFramework(af.arguments, attacks)
        accepted = frozenset(a for i, a in enumerate(af.arguments) if (acc_mask >> i) & 1)
        entries.append(
            RevisionEntry(
                af=new_af,
                accepted=accepted,
                vacuous=vacuous,
                att_added=frozenset(attacks - af.attacks),
                att_removed=frozenset(af.attacks - attacks),
                acc_changed=frozenset(
                    a for i, a in enumerate(af.arguments) if ((acc_mask ^ acc0_mask) >> i) & 1
                ),
                total_weight=best,
            )
        )
    return RevisionOutcome(tuple(entries))


def format_outcome(outcome: RevisionOutcome) -> str:
    """Text serialization: one block per entry, apx text then change fields."""
    lines = [f"entries: {len(outcome)}"]
    for idx, entry in enumerate(outcome, start=1):
        lines.append(f"entry {idx}:")
        lines.append(format_af(entry.af))
        lines.append(f"accepted: {format_extension(entry.af, entry.accepted)}")
        lines.append(f"att_added: {format_pair_set(entry.af, entry.att_added)}")
        lines.append(f"att_removed: {format_pair_set(entry.af, entry.att_removed)}")
        lines.append(f"acc_changed: {format_extension(entry.af, entry.acc_changed)}")
        lines.append(f"weight: {entry.total_weight}")
        if entry.vacuous:
            lines.append("vacuous: true")
    return "\n".join(lines)


def outcome_to_dict(outcome: RevisionOutcome) -> dict:
    """Structured form mirroring :func:`format_outcome` field for field."""
    return {
        "entries": [
            {
                "arguments": list(entry.af.arguments),
                "attacks": [list(p) for p in entry.af.sorted_attacks()],
                "accepted": _sorted_args(entry.af, entry.accepted),
                "vacuous": entry.vacuous,
                "att_added": [list(p) for p in sorted(entry.att_added, key=entry.af.pair_key)],
                "att_removed": [list(p) for p in sorted(entry.att_removed, key=entry.af.pair_key)],
                "acc_changed": _sorted_args(entry.af, entry.acc_changed),
                "weight": entry.total_weight,
            }
            for entry in outcome
        ]
    }


def _sorted_args(af: ArgumentationFramework, names: Iterable[str]) -> list[str]:
    member = set(names)
    return [a for a in af.arguments if a in member]

