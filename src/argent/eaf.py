"""Enthymeme-based frameworks: classification, constraints, revision, acceptability.

Attacks are declared in the input, not derived from the logic: received
enthymemes may carry attack patterns that differ from what their completed
contents would generate, so the classifier reports mismatches as warnings
instead of rewriting the graph.

An attack is *certain* when, on both endpoints, some minimal conflicting part
of the argument lies entirely inside its fixed (transmitted) material; such a
conflict survives any recompletion.  Since minimal conflicting parts need not
be unique, certainty is an existential condition, and a note is emitted
whenever it hinges on the choice of witness for an enthymeme.

File format::

    deductive <id> { support: f1 ; f2  claim: f }
    enthymeme <id> { support: ...  claim: f  [added_support: ...]  [full_claim: f] }
    att(<id>,<id>).

`full_claim` defaults to `claim`; `#` starts a comment running to the next
`\n`.  Headers, field labels and attacks take space, tab, `\r` and `\n` as
blanks, inside them and between them, on the command line as in the library
(a lone `\r` included).  Every error is raised at its character: a field
error at its label (a missing field at the block's `}`), a completion
invariant or a repeated identifier at the argument identifier, an attack on
an undeclared argument at that argument's name.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache
from typing import Iterable, Sequence

from .af import _ATT, _B, ArgumentationFramework, check_declared, statements
from .afrev import ATT_ONLY, RevisionEntry, RevisionOutcome, parse_goal, revise_af
from .encoding import AttAccVocabulary
from .errors import IDENT, ParseError, Record, UnknownArgumentError, line_col
from .prop import (
    Formula,
    Not,
    TRUE,
    Var,
    _Compiled,
    _minimal_conflicts,
    conj,
    format_formula_set,
    minimal_conflict_subsets,
    parse_list,
    parse_span,
)
from .structured import (
    DEDUCTIVE,
    ENTHYMEME,
    StructuredArgument,
    _defeat_test,
    check_max_added,
    completion_walk,
)


class EnthymemeAF(Record):
    """Structured arguments plus declared attacks."""

    _fields = ("arguments", "declared_attacks")

    def __init__(
        self,
        arguments: Iterable[StructuredArgument],
        declared_attacks: Iterable[tuple[str, str]],
    ):
        object.__setattr__(self, "arguments", tuple(arguments))
        object.__setattr__(self, "declared_attacks", frozenset(declared_attacks))
        ids = [a.id for a in self.arguments]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate argument identifiers")
        declared = set(ids)
        for src, tgt in self.declared_attacks:
            if src not in declared or tgt not in declared:
                raise UnknownArgumentError(
                    f"attack ({src},{tgt}) uses an undeclared argument"
                )

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.arguments)

    @property
    def argument_map(self) -> dict[str, StructuredArgument]:
        return {a.id: a for a in self.arguments}

    @property
    def deductive_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.arguments if a.kind == DEDUCTIVE)

    @property
    def enthymeme_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.arguments if a.kind == ENTHYMEME)

    def to_af(self) -> ArgumentationFramework:
        return ArgumentationFramework(self.ids, self.declared_attacks)

    def pair_key(self, pair: tuple[str, str]) -> tuple[int, int]:
        ids = self.ids
        return (ids.index(pair[0]), ids.index(pair[1]))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_EAF = re.compile(
    rf"(?P<kind>{DEDUCTIVE}|{ENTHYMEME}){_B}+(?P<id>{IDENT}){_B}*\{{(?P<body>[^}}]*)(?P<close>\}})?"
    rf"|{_ATT}"
)
_FIELD_RE = re.compile(rf"\b(support|claim|added_support|full_claim){_B}*:")


# Framework files kept by `parse_eaf`: each command run on a framework
# (classify, revise, acceptable) reads it again, a few frameworks at a time.
_SHARED_FRAMEWORKS = 32


@lru_cache(maxsize=_SHARED_FRAMEWORKS)
def parse_eaf(text: str) -> EnthymemeAF:
    """Parse the enthymeme-framework format; completed-enthymeme invariants are
    checked and reported at the offending argument's identifier.  Every error
    is reported at its line and column in `text`.

    Parsed once per distinct text in a process: the framework is immutable,
    and an error is raised afresh on every call."""
    arguments: list[StructuredArgument] = []
    blocks: list[re.Match] = []
    attacks: list[re.Match] = []
    for m in statements(text, _EAF, "expected an argument block or att(...,...)."):
        if m["src"] is not None:
            attacks.append(m)
        elif m["close"] is None:
            raise ParseError("unterminated argument block", *line_col(text, m.start()))
        else:
            arguments.append(_parse_block(m))
            blocks.append(m)
    declared: set[str] = set()
    for m in blocks:
        if m["id"] in declared:
            raise ParseError(f"duplicate argument identifier {m['id']!r}",
                             *line_col(text, m.start("id")))
        declared.add(m["id"])
    check_declared(attacks, declared)
    return EnthymemeAF(tuple(arguments), frozenset(m.group("src", "tgt") for m in attacks))


def _parse_block(m: re.Match) -> StructuredArgument:
    """The argument of the block statement `m`, read from its comment-cut text."""
    kind, arg_id, text, (start, end) = m["kind"], m["id"], m.string, m.span("body")
    labels = list(_FIELD_RE.finditer(text, start, end))
    head = text[start: labels[0].start() if labels else end]
    try:
        if not labels or head.strip():
            at = start + len(head) - len(head.lstrip())  # the first non-blank character
            raise ParseError("malformed field list", *line_col(text, at))
        fields: dict[str, tuple[int, int]] = {}  # field name -> span of its value in `text`
        for label, stop in zip(labels, [x.start() for x in labels[1:]] + [end]):
            name = label[1]
            if name in fields:
                raise ParseError(f"duplicate field {name!r}", *line_col(text, label.start()))
            if kind == DEDUCTIVE and name in ("added_support", "full_claim"):
                raise ParseError(f"deductive arguments take no {name!r}",
                                 *line_col(text, label.start()))
            fields[name] = (label.end(), stop)
        for required in ("support", "claim"):
            if required not in fields:
                raise ParseError(f"missing field {required!r}", *line_col(text, end))
        support = parse_list(text, *fields["support"])
        claim = parse_span(text, *fields["claim"])
        if kind == DEDUCTIVE:
            return StructuredArgument.deductive(arg_id, support, claim)
        added = parse_list(text, *fields.get("added_support", (end, end)))
        full = parse_span(text, *fields["full_claim"]) if "full_claim" in fields else None
        return StructuredArgument.enthymeme(arg_id, support, claim, added, full)
    except ParseError as exc:
        raise ParseError(f"argument {arg_id}: {exc.message}", exc.line, exc.col) from None
    except ValueError as exc:  # a completed-enthymeme invariant
        raise ParseError(str(exc), *line_col(text, m.start("id"))) from None


# ---------------------------------------------------------------------------
# Fixed and involved parts, classification
# ---------------------------------------------------------------------------

def fixed_part(a: StructuredArgument) -> tuple[Formula, ...]:
    """Transmitted support plus transmitted claim (the whole content for a
    deductive argument)."""
    return tuple(dict.fromkeys(a.fixed_support + (a.fixed_claim,)))


def involved_parts(a: StructuredArgument, b: StructuredArgument) -> list[tuple[Formula, ...]]:
    """All minimal parts of `a`'s content jointly inconsistent with `b`'s content;
    empty when the two contents are consistent."""
    return minimal_conflict_subsets(a.content, b.content)


class AttackClassification(Record):
    """Certain/questionable split of the declared attacks.

    `deductive_core` restricts the certain attacks to deductive endpoints.
    Warnings flag declared attacks without logical conflict and undeclared
    defeater pairs; notes record certainty verdicts that rest on one conflict
    witness among several.
    """

    _fields = ("certain", "questionable", "deductive_core", "warnings", "notes")

    def __init__(
        self,
        certain: frozenset[tuple[str, str]],
        questionable: frozenset[tuple[str, str]],
        deductive_core: frozenset[tuple[str, str]],
        warnings: tuple[str, ...],
        notes: tuple[str, ...],
    ):
        object.__setattr__(self, "certain", certain)
        object.__setattr__(self, "questionable", questionable)
        object.__setattr__(self, "deductive_core", deductive_core)
        object.__setattr__(self, "warnings", warnings)
        object.__setattr__(self, "notes", notes)


def classify_attacks(eaf: EnthymemeAF) -> AttackClassification:
    """Split declared attacks by whether both endpoints conflict within their
    fixed parts (a witness inside the fixed part survives any recompletion).
    Every argument's content is compiled once, for all the conflict and
    defeater tests."""
    amap = eaf.argument_map
    contents = {a.id: a.content for a in eaf.arguments}
    fixed = {a.id: set(fixed_part(a)) for a in eaf.arguments}
    compiled = _Compiled([f for c in contents.values() for f in c])
    deductive = set(eaf.deductive_ids)
    certain: set[tuple[str, str]] = set()
    questionable: set[tuple[str, str]] = set()
    warnings: list[str] = []
    notes: list[str] = []
    for xid, yid in sorted(eaf.declared_attacks, key=eaf.pair_key):
        x, y = amap[xid], amap[yid]
        inv_x = _minimal_conflicts(contents[xid], contents[yid], compiled)
        inv_y = _minimal_conflicts(contents[yid], contents[xid], compiled)
        if not inv_x and not inv_y:
            warnings.append(f"declared attack ({xid},{yid}) has no logical conflict")
            questionable.add((xid, yid))
            continue
        witnesses = {}
        escapes = {}
        for arg, invs in ((x, inv_x), (y, inv_y)):
            fix = fixed[arg.id]
            witnesses[arg.id] = [s for s in invs if set(s) <= fix]
            escapes[arg.id] = [s for s in invs if not set(s) <= fix]
        if witnesses[xid] and witnesses[yid]:
            certain.add((xid, yid))
            for arg in (x, y):
                if arg.kind == ENTHYMEME and escapes[arg.id]:
                    notes.append(
                        f"attack ({xid},{yid}): certain via fixed-part conflict "
                        f"{format_formula_set(witnesses[arg.id][0])} of {arg.id}; "
                        f"minimal conflict sets outside the fixed part exist "
                        f"(e.g. {format_formula_set(escapes[arg.id][0])})"
                    )
        else:
            questionable.add((xid, yid))
    defeats = _defeat_test(compiled, eaf.arguments)
    for i, x in enumerate(eaf.arguments):
        for j, y in enumerate(eaf.arguments):
            if (x.id, y.id) not in eaf.declared_attacks and defeats(i, j):
                warnings.append(f"undeclared defeater ({x.id},{y.id})")
    return AttackClassification(
        certain=frozenset(certain),
        questionable=frozenset(questionable),
        deductive_core=frozenset(
            p for p in certain if p[0] in deductive and p[1] in deductive
        ),
        warnings=tuple(warnings),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Integrity constraints and revision
# ---------------------------------------------------------------------------

def _freeze_attacks(eaf: EnthymemeAF, positive: frozenset[tuple[str, str]]) -> Formula:
    """Assert each attack of `positive` in framework order, then deny every
    other pair of deductive arguments."""
    enc = AttAccVocabulary(eaf.ids)
    deductive = eaf.deductive_ids
    return conj(
        [Var(enc.att_var(x, y)) for x, y in sorted(positive, key=eaf.pair_key)]
        + [Not(Var(enc.att_var(x, y))) for x in deductive for y in deductive
           if (x, y) not in positive]
    )


def constraint_deductive(eaf: EnthymemeAF) -> Formula:
    """Freeze every attack and non-attack between deductive arguments."""
    deductive = set(eaf.deductive_ids)
    return _freeze_attacks(eaf, frozenset(
        (x, y) for x, y in eaf.declared_attacks if x in deductive and y in deductive
    ))


def constraint_certain(eaf: EnthymemeAF) -> Formula:
    """Freeze every certain attack; forbid non-core attacks between deductive
    arguments.  Negative literals cover only deductive pairs."""
    return _freeze_attacks(eaf, classify_attacks(eaf).certain)


def revise_eaf(
    eaf: EnthymemeAF,
    goal: str | Formula,
    constraint_mode: str = "deductive",
    mode: str = ATT_ONLY,
    require_extension: bool = True,
) -> RevisionOutcome:
    """Revise the projected plain framework under the chosen integrity constraint."""
    af = eaf.to_af()
    enc = AttAccVocabulary(af.arguments)
    goal_f = parse_goal(goal, enc) if isinstance(goal, str) else goal
    if constraint_mode == "deductive":
        constraint = constraint_deductive(eaf)
    elif constraint_mode == "certain":
        constraint = constraint_certain(eaf)
    elif constraint_mode == "none":
        constraint = TRUE
    else:
        raise ValueError(f"unknown constraint mode: {constraint_mode!r}")
    return revise_af(af, goal_f, constraint, mode=mode, require_extension=require_extension)


# ---------------------------------------------------------------------------
# Acceptability
# ---------------------------------------------------------------------------

class AcceptabilityResult(Record):
    """Verdict for one revision entry: a minimal recompletion witness when the
    changed attacks are justifiable, otherwise the blocking reason."""

    _fields = ("entry", "acceptable", "witness", "reason")

    def __init__(
        self,
        entry: RevisionEntry,
        acceptable: bool,
        witness: dict[str, StructuredArgument],
        reason: str | None,
    ):
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "acceptable", acceptable)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "reason", reason)


def acceptable_afs(
    eaf: EnthymemeAF,
    outcome: RevisionOutcome,
    base: Sequence[Formula],
    pool: Sequence[Formula],
    max_added: int = 3,
) -> list[AcceptabilityResult]:
    """Filter revised frameworks by whether their changed attacks are justified
    by recompleting the enthymemes involved.

    Only attack pairs that differ from the original framework and touch at
    least one enthymeme are checked: a present attack needs jointly
    inconsistent completed contents, an absent one jointly consistent.  Each
    enthymeme involved may keep its current completion or take a proper
    recompletion from the belief base (the bare transmitted pair does not
    count) with no superfluous added formula; candidates are tried current
    first, then smallest first, so the first witness found is minimal.  The
    witness maps only the enthymemes whose completion actually changed.
    Raises ValueError for a negative `max_added`.

    The framework, `base` and `pool` are compiled once for the call; the
    completion walks and every joint-consistency test share those tables.
    """
    check_max_added(max_added)
    amap = eaf.argument_map
    enth = set(eaf.enthymeme_ids)
    compiled = _Compiled(
        [f for a in eaf.arguments for f in (*a.support, a.fixed_claim, a.full_claim)]
        + [*base, *pool]
    )
    contents = {a.id: compiled.of(a.content) for a in eaf.arguments}
    candidates_of = cache(
        lambda aid: [
            (c, compiled.of(c.content))
            for c in _witness_candidates(amap[aid], base, pool, max_added, compiled)
        ]
    )
    results = []
    for entry in outcome.entries:
        changed = sorted(
            (
                p
                for p in eaf.declared_attacks ^ entry.af.attacks
                if p[0] in enth or p[1] in enth
            ),
            key=eaf.pair_key,
        )
        if not changed:
            results.append(AcceptabilityResult(entry, True, {}, None))
            continue
        involved = [
            aid for aid in eaf.ids if aid in enth and any(aid in p for p in changed)
        ]
        candidates = {aid: candidates_of(aid) for aid in involved}
        witness = _search_witness(involved, candidates, changed, entry.af.attacks, contents,
                                  compiled)
        if witness is not None:
            changed_only = {
                aid: c
                for aid, c in witness.items()
                if (c.added_support, c.full_claim)
                != (amap[aid].added_support, amap[aid].full_claim)
            }
            results.append(AcceptabilityResult(entry, True, changed_only, None))
        else:
            reason = _diagnose(changed, entry.af.attacks, amap, candidates, contents, compiled)
            results.append(AcceptabilityResult(entry, False, {}, reason))
    return results


def _witness_candidates(
    arg: StructuredArgument,
    base: Sequence[Formula],
    pool: Sequence[Formula],
    max_added: int,
    compiled: _Compiled | None = None,
) -> list[StructuredArgument]:
    """`arg`, then its tight proper recompletions other than its current one,
    walked on `compiled` when it is given (see :func:`completion_walk`)."""
    current = (arg.added_support, arg.full_claim)
    return [arg] + [
        StructuredArgument._trusted(arg.id, ENTHYMEME, arg.fixed_support, arg.fixed_claim,
                                     added, claim)
        for added, claim, tight in completion_walk(arg, base, pool, max_added, compiled=compiled)
        if tight and (added or claim != arg.fixed_claim) and (added, claim) != current
    ]


def _search_witness(involved, candidates, changed, new_attacks, contents, compiled):
    """The first assignment of a candidate to each involved enthymeme under
    which every changed pair is justified, or None.  `candidates` maps each
    involved enthymeme to its (candidate, content state) pairs and
    `contents` every argument to the state of its own content."""
    assignment: dict[str, tuple[StructuredArgument, object]] = {}

    def state(aid: str):
        if aid in assignment:
            return assignment[aid][1]
        if aid in candidates:
            return None
        return contents[aid]

    def pair_ok(pair) -> bool:
        x = state(pair[0])
        y = state(pair[1])
        if x is None or y is None:
            return True
        return _justified(compiled, x, y, pair in new_attacks)

    def rec(i: int):
        if i == len(involved):
            return {aid: cand for aid, (cand, _) in assignment.items()}
        aid = involved[i]
        for cand in candidates[aid]:
            assignment[aid] = cand
            if all(pair_ok(p) for p in changed if aid in p):
                found = rec(i + 1)
                if found is not None:
                    return found
            del assignment[aid]
        return None

    return rec(0)


def _justified(compiled, x, y, attacked: bool) -> bool:
    """Whether a changed pair whose contents have the states x and y is
    justified: they are consistent exactly when the pair is not attacked."""
    return compiled.consistent(compiled.meet(x, y)) != attacked


def _diagnose(changed, new_attacks, amap, candidates, contents, compiled) -> str:
    for pair in changed:
        if pair in new_attacks:
            continue
        fix_x, fix_y = fixed_part(amap[pair[0]]), fixed_part(amap[pair[1]])
        if not compiled.consistent(compiled.of(fix_x + fix_y)):
            conflict_x = _minimal_conflicts(fix_x, fix_y, compiled)
            conflict_y = _minimal_conflicts(fix_y, fix_x, compiled)
            return (
                f"attack ({pair[0]},{pair[1]}): removed, but the fixed parts alone "
                f"conflict ({format_formula_set(conflict_x[0])} of {pair[0]} against "
                f"{format_formula_set(conflict_y[0])} of {pair[1]}); no recompletion "
                f"can restore consistency"
            )
    for aid, cands in candidates.items():
        if len(cands) > 1:
            continue
        only = cands[0][1]
        for pair in changed:
            if aid not in pair:
                continue
            other_id = pair[1] if pair[0] == aid else pair[0]
            if other_id != aid and other_id in candidates:
                continue
            other = only if other_id == aid else contents[other_id]
            if not _justified(compiled, only, other, pair in new_attacks):
                return (
                    f"attack ({pair[0]},{pair[1]}): cannot be justified; no proper "
                    f"recompletion of {aid} is available from the belief base"
                )
    return (
        "no joint recompletion of "
        + ", ".join(sorted(candidates))
        + " matches the changed attacks"
    )
