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
Where acc flips count, a deeper level is scanned only over the attacks under
which goal and constraint can still hold within the acc flips that the best
total leaves it, and the scan stops where they cannot.

One kernel run covers the original framework, which gives the acceptance
that acc flips are counted against, together with levels 0 and 1.  A deeper
level's flip sets come as cached bit columns, one per free att variable, so a
chunk's att columns cost one XOR each.  Per chunk of candidates the acc-flip
counts are summed bit-sliced, and only the chunk's lightest passing
candidates are decoded, from their bits of the chunk's columns.  Whether a
goal over at most ENUMERATION_LIMIT variables has a model at all is tested
only when levels 0 and 1 found none.

Goals go through the formula scanner (:func:`prop.scan`) with one token for
each well-formed `acc(x)` or `att(x,y)` atom, which the parser resolves with
one lookup; any other text is scanned token by token, with the positions and
errors of a formula.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable

from .af import (
    ArgumentationFramework,
    _guard_size,
    _mask_to_set,
    format_af,
    format_extension,
    format_pair_set,
)
from .encoding import (
    AttAccVocabulary,
    flip_level,
    pin_att,
    scan_candidates,
)
from .errors import IDENT, ParseError, Record, ResourceLimitError, UnknownArgumentError
from .prop import (
    ENUMERATION_LIMIT,
    FALSE,
    TRUE,
    And,
    AtomToken,
    Formula,
    FormulaParser,
    Token,
    Var,
    satisfiable,
    scan,
    substitute,
    token_pattern,
    unit_literals,
    variables,
)

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


# A well-formed goal atom, scanned as one token; an argument named `true` or
# `false` is left to the token path, which rejects it as a constant.
_NOT_CONST = r"(?!(?:true|false)[,)])"
_GOAL_ATOM = rf"acc\({_NOT_CONST}{IDENT}\)|att\({_NOT_CONST}{IDENT},{_NOT_CONST}{IDENT}\)"


class _GoalParser(FormulaParser):
    """Formula parser whose only identifier atoms are acc(...) and att(...,...)."""

    def __init__(self, tokens, enc: AttAccVocabulary):
        super().__init__(tokens)
        self._enc = enc

    def ident_atom(self) -> Formula:
        tok = self.advance()
        if isinstance(tok, AtomToken):
            name = self._enc.atom_names.get(tok.atom)
            if name is None:
                self._unknown(tok)
            return Var(name)
        if tok.text not in ("acc", "att"):
            raise ParseError(
                "expected an acc(...) or att(...,...) atom", tok.line, tok.col
            )
        self.expect("lparen", "'('")
        if tok.text == "acc":
            first = self._argument("')'")
            self.expect("rparen", "')'")
            self._check(first.text, first.line, first.col)
            return Var(self._enc.acc_var(first.text))
        first = self._argument("','")
        self.expect("comma", "','")
        second = self._argument("')'")
        self.expect("rparen", "')'")
        self._check(first.text, first.line, first.col)
        self._check(second.text, second.line, second.col)
        return Var(self._enc.att_var(first.text, second.text))

    def _argument(self, follow: str) -> Token:
        """An argument identifier, which must be followed by `follow`.  A
        whole atom read here is an `acc` / `att` identifier followed by its
        own '(', so the error is raised there."""
        tok = self.expect("ident", "an argument identifier")
        if isinstance(tok, AtomToken):
            raise ParseError(f"expected {follow}", tok.line, tok.col + 3)
        return tok

    def _unknown(self, tok: AtomToken) -> None:
        """Raise for the first unknown argument of a whole atom, at its own column."""
        col = tok.col + 4
        for arg in tok.atom[4:-1].split(","):
            self._check(arg, tok.line, col)
            col += len(arg) + 1

    def _check(self, arg: str, line: int, col: int) -> None:
        if arg not in self._enc.arguments:
            raise UnknownArgumentError(f"unknown argument {arg!r} at line {line}, col {col}")


def parse_goal(text: str, enc: AttAccVocabulary) -> Formula:
    """Compile a goal/constraint over acc(x) and att(x,y) atoms to att/acc variables."""
    return _GoalParser(scan(text, token_pattern(_GOAL_ATOM)), enc).parse()


class RevisionEntry(Record):
    """One distance-minimal revised framework with its change record."""

    _fields = (
        "af", "accepted", "vacuous", "att_added", "att_removed", "acc_changed", "total_weight",
    )

    def __init__(
        self,
        af: ArgumentationFramework,
        accepted: frozenset[str],
        vacuous: bool,
        att_added: frozenset[tuple[str, str]],
        att_removed: frozenset[tuple[str, str]],
        acc_changed: frozenset[str],
        total_weight: int,
    ):
        object.__setattr__(self, "af", af)
        object.__setattr__(self, "accepted", accepted)
        object.__setattr__(self, "vacuous", vacuous)
        object.__setattr__(self, "att_added", att_added)
        object.__setattr__(self, "att_removed", att_removed)
        object.__setattr__(self, "acc_changed", acc_changed)
        object.__setattr__(self, "total_weight", total_weight)


class RevisionOutcome(Record):
    """Distance-minimal revised frameworks, canonically ordered by flip set."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[RevisionEntry, ...]):
        object.__setattr__(self, "entries", entries)

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
    a chunk of candidates at a time (see :func:`encoding.scan_candidates`);
    level k >= 2 comes in `combinations` order as cached flip columns
    (:func:`encoding.flip_level`).  Each candidate's acc assignment is forced
    by the attacks, so a level-k scan is complete for every model with k free
    flips; the scan stops once no deeper level can reach the best total
    weight.  When acc flips weigh w > 0 and a best total B is known, a
    candidate of level k >= 2 with att weight W can tie B only within
    (B - W) // w acc flips of acc0.  Goal and constraint are folded under
    every assignment of their acc atoms within that budget: if each folds to
    false or to contradicting unit literals, the scan stops, since a deeper
    level has a smaller budget; otherwise the att literals common to all pin
    the level, which scans its remaining flips over the positions they leave
    free.  A level with fewer candidates than such assignments is scanned
    whole instead.  Levels 0 and 1 are one block, never cut, that opens with
    the original framework, whose acceptance is read from it; they share that
    kernel run.  Each
    chunk's acc-flip counts are added into bit planes, and only the passing
    candidates with the chunk's fewest acc flips are read off the chunk's
    columns, and kept when they tie or beat the best total so far.  When
    `require_extension` is set, candidates without a stable extension are
    excluded, which keeps the degenerate all-accepted models out of the result.

    Goal and constraint over more than ENUMERATION_LIMIT variables are
    tested for satisfiability first, since only there can the test refuse.
    Narrower ones are tested only when levels 0 and 1 hold no model, before
    level 2, or when more than FREE_ATT_LIMIT free att variables would make
    the scan refuse: an unsatisfiable goal then gives an empty outcome, not a
    ResourceLimitError.  An empty outcome means no admissible model exists.
    """
    _guard_size(af)
    n = len(af.arguments)
    w_att, w_acc = mode_weights(mode, n)
    enc = AttAccVocabulary(af.arguments)
    constraint = TRUE if constraint is None else constraint
    combined = And((goal, constraint)) if constraint != TRUE else goal
    names = variables(combined)
    foreign = names - enc.vocabulary.name_set
    if foreign:
        raise UnknownArgumentError(f"variable {min(foreign)!r} is not an att/acc variable")
    # Whether a goal is refused must not depend on where its models lie.
    tested = len(names) > ENUMERATION_LIMIT
    if tested and not satisfiable([combined]):
        return RevisionOutcome(())
    units = unit_literals([combined])
    if units is None:
        return RevisionOutcome(())
    base_att = 0
    for pair in af.attacks:
        base_att |= 1 << enc.pair_index[pair]
    try:
        start, free = pin_att(units, base_att, range(n * n), enc)
    except ResourceLimitError:
        if not tested and not satisfiable([combined]):  # no model: empty, not refused
            return RevisionOutcome(())
        raise
    pin_flips = _positions(start ^ base_att)
    baseline = len(pin_flips)
    m = len(free)

    # Levels 0 and 1 are one block, and so one kernel run, which is never
    # cut (see encoding._CHUNK).  It opens with the original framework, which
    # gives acc0: the level-0 candidate when no pin changes it, else the
    # pinned flips back from `start`, which break the pins and so never pass.
    # A level is (candidate mask, att weight) within its block; a deeper
    # level fills every block it has, so its mask is -1.  Deeper levels come
    # as cached flip columns (see :func:`encoding.flip_level`).
    lead = 1 if baseline else 0
    first_flips = [1] * baseline + [1 << (lead + 1 + j) for j in range(m)]
    first_block = [((1 << lead + 1 + m) - 1, first_flips)]
    first_levels = [
        (1 << lead, w_att * baseline),
        ((1 << m) - 1 << lead + 1, w_att * (baseline + 1)),
    ]

    acc0_mask = None
    acc: list[tuple[str, bool]] | None = None
    hits: list[tuple[int, int, bool]] = []
    best: int | None = None
    for k in range(1, max(m, 1) + 1):
        if k == 1:
            level_start, positions = start, pin_flips + free
            blocks, levels = first_block, first_levels
        else:
            weight = w_att * (baseline + k)
            if best is not None and weight > best:
                break
            # Levels 0 and 1 found nothing: test the goal once before going deeper.
            if best is None and k == 2 and not tested and not satisfiable([combined]):
                break
            level_start, positions, left = start, free, k
            # A candidate here ties the best total only within `budget` acc
            # flips of acc0.  Goal and constraint are folded under each
            # assignment of their acc atoms within it: if none is left, no
            # level from here on holds a tie, as a deeper one has a smaller
            # budget; else the att literals common to what is left pin the
            # level (on pinned positions they are the pins).  Done only
            # while those assignments are fewer than the level's candidates.
            if best is not None and w_acc:
                if acc is None:
                    acc = [
                        (name, bool(acc0_mask >> i & 1))
                        for i, name in enumerate(enc.acc_names)
                        if name in names
                    ]
                budget = min((best - weight) // w_acc, len(acc))
                if acc and sum(comb(len(acc), i) for i in range(budget + 1)) <= comb(m, k):
                    units = _reachable_units(combined, acc, budget)
                    if units is None:
                        break
                    level_start, positions = pin_att(units, start, free, enc)
                    left -= (level_start ^ start).bit_count()
                    if left < 0:
                        continue
            blocks = flip_level(len(positions), left)
            levels = [(-1, weight)]
        for full, att_cols, acc_cols, vacuous, sat in scan_candidates(
            enc, level_start, positions, blocks, combined
        ):
            if acc0_mask is None:
                acc0_mask = _bits_at(acc_cols, 1)
            if require_extension:
                sat &= ~vacuous
            planes = None
            for mask, att_weight in levels:
                passing = sat & mask
                if not passing or best is not None and att_weight > best:
                    continue
                flips = 0
                if w_acc:
                    if planes is None:
                        planes = _flip_planes(acc_cols, acc0_mask, full)
                    flips, passing = _lightest(planes, passing)
                total = att_weight + w_acc * flips
                if best is None or total < best:
                    best, hits = total, []
                if total == best:
                    hits += _decode(passing, att_cols, acc_cols, vacuous)
    if best is None:
        return RevisionOutcome(())
    # Entries in order of their flip sets; the few flipped pairs give the
    # change record, and the attacks are the original ones edited by it.
    args, pairs = af.arguments, enc.pairs
    entries = []
    for flips, acc_mask, vacuous in sorted(
        (_positions(att ^ base_att), acc_mask, vacuous) for att, acc_mask, vacuous in hits
    ):
        added = frozenset([pairs[p] for p in flips if not base_att >> p & 1])
        removed = frozenset([pairs[p] for p in flips if base_att >> p & 1])
        entries.append(
            RevisionEntry(
                af=ArgumentationFramework._trusted(args, af.attacks - removed | added),
                accepted=_mask_to_set(af, acc_mask),
                vacuous=vacuous,
                att_added=added,
                att_removed=removed,
                acc_changed=_mask_to_set(af, acc_mask ^ acc0_mask),
                total_weight=best,
            )
        )
    return RevisionOutcome(tuple(entries))


def _reachable_units(formula: Formula, acc: list[tuple[str, bool]], budget: int):
    """The unit literals of `formula` under every assignment to its acc
    variables within `budget` flips of acc0, given as `acc`, (name, value in
    acc0) pairs.  Assignments under which it folds to false or its unit
    literals contradict are left out; None when none is left.  Returns as
    soon as no literal is common."""
    common = None
    for size in range(budget + 1):
        for flipped in combinations(range(len(acc)), size):
            assignment = dict(acc)
            for i in flipped:
                name, value = acc[i]
                assignment[name] = not value
            folded = substitute(formula, assignment)
            units = None if folded == FALSE else unit_literals([folded])
            if units is None:
                continue
            if common is not None:
                units = {name: truth for name, truth in common.items() if units.get(name) == truth}
            common = units
            if not common:
                return common
    return common


def _positions(mask: int) -> list[int]:
    """The set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _bits_at(cols: list[int], bit: int) -> int:
    """The mask of the columns that hold `bit`: one candidate's row."""
    mask = 0
    for i, col in enumerate(cols):
        if col & bit:
            mask |= 1 << i
    return mask


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


def _decode(column: int, att_cols: list[int], acc_cols: list[int], vacuous: int):
    """(att mask, acc mask, vacuous) of each candidate of `column`, read
    from its bit of the columns."""
    found = []
    while column:
        low = column & -column
        column ^= low
        found.append((_bits_at(att_cols, low), _bits_at(acc_cols, low), bool(vacuous & low)))
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

