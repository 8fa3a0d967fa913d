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

One kernel run covers the original framework, which gives the acceptance
that acc flips are counted against, together with levels 0 and 1.  Per chunk
of candidates the acc-flip counts are summed bit-sliced, and only the
chunk's lightest passing candidates are decoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import Iterable

from .af import (
    ArgumentationFramework,
    _guard_size,
    format_af,
    format_extension,
    format_pair_set,
)
from .encoding import (
    AttAccVocabulary,
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
    deeper level can reach the best total weight.  The first chunk also holds
    the original framework, whose acceptance is read from it; levels 0 and 1
    share that kernel run.  Each chunk's acc-flip counts are added into bit
    planes, and only the passing candidates with the chunk's fewest acc flips
    are decoded, and kept when they tie or beat the best total so far.  When
    `require_extension` is set, candidates without a stable extension are
    excluded, which keeps the degenerate all-accepted models out of the result.

    An empty outcome (never an exception) means no admissible model exists.
    """
    _guard_size(af)
    n = len(af.arguments)
    w_att, w_acc = mode_weights(mode, n)
    enc = AttAccVocabulary(af.arguments)
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

    # Levels 0 and 1 share one candidate stream, and so one kernel run for
    # any chunk size of at least their count.  The stream opens with the
    # original framework, which gives acc0: the level-0 candidate when no pin
    # changes it, else the pinned flips back from `start`, which break the
    # pins and so never pass.  A level is a range of the stream's candidates
    # with one att weight: (begin, end, att weight).
    first: list[tuple[int, ...]] = []
    first_levels = []
    if baseline:
        first.append(_positions(start ^ base_att, n * n))
        first_levels.append((0, 1, 0))
    first_levels.append((len(first), len(first) + 1, w_att * baseline))
    first_levels.append((len(first) + 1, len(first) + 1 + len(free), w_att * (baseline + 1)))
    first += [()] + [(p,) for p in free]
    batches = chain(
        [(first, first_levels)],
        (
            (combinations(free, k), [(0, comb(len(free), k), w_att * (baseline + k))])
            for k in range(2, len(free) + 1)
        ),
    )

    acc0_mask = None
    hits: list[tuple[tuple[int, ...], int, bool]] = []
    best: int | None = None
    for flip_sets, levels in batches:
        if best is not None and levels[0][2] > best:
            break
        offset = 0
        for chunk, acc_cols, vacuous, sat in scan_candidates(enc, start, flip_sets, combined):
            size = len(chunk)
            if acc0_mask is None:
                acc0_mask = sum(1 << i for i, col in enumerate(acc_cols) if col & 1)
            if require_extension:
                sat &= ~vacuous
            planes = None
            for begin, end, att_weight in levels:
                lo, hi = max(begin - offset, 0), min(end - offset, size)
                passing = sat & (1 << hi) - (1 << lo) if lo < hi else 0
                if not passing or best is not None and att_weight > best:
                    continue
                flips = 0
                if w_acc:
                    if planes is None:
                        planes = _flip_planes(acc_cols, acc0_mask, (1 << size) - 1)
                    flips, passing = _lightest(planes, passing)
                total = att_weight + w_acc * flips
                if best is None or total < best:
                    best, hits = total, []
                if total == best:
                    hits += _decode(passing, chunk, acc_cols, vacuous)
            offset += size
    if best is None:
        return RevisionOutcome(())
    kept = []
    for combo, acc_mask, vacuous in hits:
        att = start
        for p in combo:
            att ^= 1 << p
        kept.append((_positions(att ^ base_att, n * n), att, acc_mask, vacuous))
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


def _positions(mask: int, width: int) -> tuple[int, ...]:
    """The set bits of `mask` below `width`, ascending."""
    return tuple(p for p in range(width) if mask >> p & 1)


def _flip_planes(acc_cols: list[int], acc0: int, full: int) -> list[int]:
    """Each candidate's count of acc flips from `acc0`, bit-sliced: bit c of
    plane j is bit j of candidate c's count.  The n difference columns are
    added into the planes with a ripple of half adders (sideways addition,
    Knuth, TAOCP 4A, 7.1.3)."""
    planes: list[int] = []
    for i, col in enumerate(acc_cols):
        carry = col ^ full if acc0 >> i & 1 else col
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes


def _lightest(planes: list[int], column: int) -> tuple[int, int]:
    """The lowest count among the candidates of `column` and the column of
    candidates with it, read from the planes top bit first."""
    count = 0
    for j in range(len(planes) - 1, -1, -1):
        low = column & ~planes[j]
        if low:
            column = low
        else:
            count |= 1 << j
    return count, column


def _decode(column: int, chunk, acc_cols: list[int], vacuous: int):
    """(flip set, acc mask, vacuous) of each candidate of `column`."""
    found = []
    while column:
        low = column & -column
        column ^= low
        acc_mask = 0
        for i, col in enumerate(acc_cols):
            if col & low:
                acc_mask |= 1 << i
        found.append((chunk[low.bit_length() - 1], acc_mask, bool(vacuous & low)))
    return found


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

