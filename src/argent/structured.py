"""Deductive arguments, defeaters, exhaustive graphs, and enthymemes.

A structured argument carries a transmitted (fixed) support and claim plus,
for enthymemes completed from the receiving agent's beliefs, an added support
and a possibly strengthened full claim.  The conflict-relevant content of an
argument is its whole support together with its full claim.

Building a base's arguments and completing an enthymeme read the consistent
supports of one search, :func:`argent.prop.subset_walk`.  Each call compiles
its formulas once (:class:`argent.prop._Compiled`): the walk, the defeats
between the arguments it builds and the claim filter of a completion share
those truth tables.

Certainty values are exact rationals so threshold comparisons never suffer
float noise.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable, Sequence

from .af import ArgumentationFramework
from .errors import ID_PATTERN, MutableRecord, ParseError, Record, line_col
from .prop import (
    Formula,
    _Compiled,
    check_supports,
    entails,
    format_formula,
    is_consistent,
    parse_span,
    subset_walk,
    text_lines,
)

DEDUCTIVE = "deductive"
ENTHYMEME = "enthymeme"


class StructuredArgument(Record):
    """Deductive argument or enthymeme.

    For deductive arguments the added support is empty and the full claim
    equals the fixed claim.  A completed enthymeme must have a consistent
    support entailing its full claim; the full claim always entails the fixed
    (transmitted) claim.
    """

    _fields = ("id", "kind", "fixed_support", "fixed_claim", "added_support", "full_claim")

    def __init__(
        self,
        id: str,
        kind: str,
        fixed_support: Iterable[Formula],
        fixed_claim: Formula,
        added_support: Iterable[Formula] = (),
        full_claim: Formula | None = None,
    ):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "fixed_support", tuple(fixed_support))
        object.__setattr__(self, "fixed_claim", fixed_claim)
        object.__setattr__(self, "added_support", tuple(added_support))
        object.__setattr__(self, "full_claim", fixed_claim if full_claim is None else full_claim)
        if not ID_PATTERN.match(self.id):
            raise ValueError(f"bad argument identifier: {self.id!r}")
        if self.kind not in (DEDUCTIVE, ENTHYMEME):
            raise ValueError(f"bad argument kind: {self.kind!r}")
        if self.kind == DEDUCTIVE:
            if self.added_support:
                raise ValueError(f"{self.id}: deductive arguments have no added support")
            if self.full_claim != self.fixed_claim:
                raise ValueError(f"{self.id}: deductive arguments have a single claim")
        strengthened = self.full_claim != self.fixed_claim
        completed = self.kind == ENTHYMEME and self.is_completed
        if not (strengthened or completed):
            return
        compiled = _Compiled([*self.support, self.full_claim, self.fixed_claim])
        claim = compiled.of((self.full_claim,))
        if strengthened and not compiled.entails(claim, compiled.of((self.fixed_claim,))):
            raise ValueError(f"{self.id}: full claim does not entail the fixed claim")
        if completed:
            support = compiled.of(self.support)
            if not compiled.consistent(support):
                raise ValueError(f"{self.id}: completed support is inconsistent")
            if not compiled.entails(support, claim):
                raise ValueError(f"{self.id}: completed support does not entail the claim")

    @classmethod
    def deductive(cls, arg_id: str, support: Iterable[Formula], claim: Formula):
        return cls(arg_id, DEDUCTIVE, tuple(support), claim)

    @classmethod
    def enthymeme(
        cls,
        arg_id: str,
        support: Iterable[Formula],
        claim: Formula,
        added: Iterable[Formula] = (),
        full_claim: Formula | None = None,
    ):
        return cls(arg_id, ENTHYMEME, tuple(support), claim, tuple(added), full_claim)

    @property
    def support(self) -> tuple[Formula, ...]:
        return self.fixed_support + self.added_support

    @property
    def content(self) -> tuple[Formula, ...]:
        """Support plus full claim, deduplicated, declaration order."""
        return tuple(dict.fromkeys(self.support + (self.full_claim,)))

    @property
    def is_completed(self) -> bool:
        return self.kind == ENTHYMEME and (
            bool(self.added_support) or self.full_claim != self.fixed_claim
        )

    def __str__(self) -> str:
        inner = "; ".join(format_formula(f) for f in self.support)
        return f"<{{{inner}}}, {format_formula(self.full_claim)}>"


BeliefBase = Sequence[Formula]
ClaimPool = Sequence[Formula]


class CertaintyMap(MutableRecord):
    """Rational certainty in [0,1] per formula; unmapped formulas default to 0."""

    _fields = ("values",)

    def __init__(self, values: dict[Formula, Fraction] | None = None):
        self.values = {} if values is None else values
        for f, v in self.values.items():
            if not 0 <= v <= 1:
                raise ValueError(f"certainty of {format_formula(f)} outside [0,1]")

    def value_of(self, f: Formula) -> Fraction:
        return self.values.get(f, Fraction(0))

    @classmethod
    def parse(cls, text: str) -> "CertaintyMap":
        """Parse lines of the form `<rational in [0,1]> : <formula>` (see
        :func:`prop.text_lines`)."""
        values: dict[Formula, Fraction] = {}
        for start, stop in text_lines(text):
            colon = text.find(":", start, stop)
            if colon < 0:
                raise ParseError("expected '<rational> : <formula>'", *line_col(text, start))
            written, position = text[start:colon].strip(), line_col(text, start)
            value = parse_rational(written, *position)
            if not 0 <= value <= 1:
                raise ParseError(f"certainty {written!r} outside [0,1]", *position)
            values[parse_span(text, colon + 1, stop)] = value
        return cls(values)


def parse_rational(text: str, line: int | None = None, col: int | None = None) -> Fraction:
    """`text` as a Fraction, or a ParseError (at `line` and `col`, when
    given) for text that is not a rational, such as '1/0', or whose exponent
    exceeds the interpreter's int-string digit limit: `Fraction` would
    expand it into an integer of that many digits."""
    try:
        _, e, exponent = text.lower().rpartition("e")
        if e and abs(int(exponent)) > (
            sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        ):
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {text!r}", line, col) from None


class DeductiveReport(Record):
    """The four deductive-argument checks with their offending items."""

    _fields = (
        "in_base", "consistent", "entails_claim", "minimal", "missing_from_base", "redundant",
    )

    def __init__(
        self,
        in_base: bool,
        consistent: bool,
        entails_claim: bool,
        minimal: bool,
        missing_from_base: tuple[Formula, ...] = (),
        redundant: tuple[Formula, ...] = (),
    ):
        object.__setattr__(self, "in_base", in_base)
        object.__setattr__(self, "consistent", consistent)
        object.__setattr__(self, "entails_claim", entails_claim)
        object.__setattr__(self, "minimal", minimal)
        object.__setattr__(self, "missing_from_base", missing_from_base)
        object.__setattr__(self, "redundant", redundant)

    @property
    def ok(self) -> bool:
        return self.in_base and self.consistent and self.entails_claim and self.minimal


def validate_deductive(
    support: Sequence[Formula], claim: Formula, base: BeliefBase
) -> DeductiveReport:
    """Check base membership, consistency, entailment, and support minimality.

    Minimality is leave-one-out: no single support formula may be droppable,
    which for a monotonic logic coincides with subset minimality.
    """
    support = list(support)
    base_list = list(base)
    missing = tuple(f for f in support if f not in base_list)
    consistent = is_consistent(support)
    entails_claim = entails(support, claim)
    redundant = ()
    if consistent and entails_claim:
        drops = _droppable(support, claim, range(len(support)))
        redundant = tuple(f for f, drop in zip(support, drops) if drop)
    return DeductiveReport(
        in_base=not missing,
        consistent=consistent,
        entails_claim=entails_claim,
        minimal=not redundant,
        missing_from_base=missing,
        redundant=redundant,
    )


def _droppable(support: list[Formula], claim: Formula, positions: Iterable[int]):
    """Whether `support` still entails `claim` without each given position."""
    return (entails(support[:i] + support[i + 1:], claim) for i in positions)


def is_defeater(attacker: StructuredArgument, target: StructuredArgument) -> bool:
    """True iff the attacker's full claim is inconsistent with the target's support."""
    return not is_consistent([attacker.full_claim, *target.support])


def _defeat_test(compiled: _Compiled, args: Sequence[StructuredArgument]):
    """:func:`is_defeater` for positions in `args`, tested on `compiled` (built
    from every support and full claim of `args`) with each argument's claim
    and support state built once."""
    claims = [compiled.of((a.full_claim,)) for a in args]
    supports = [compiled.of(a.support) for a in args]
    return lambda i, j: not compiled.consistent(compiled.meet(claims[i], supports[j]))


def exhaustive_graph(
    base: BeliefBase, pool: ClaimPool
) -> tuple[ArgumentationFramework, dict[str, StructuredArgument]]:
    """Every deductive argument buildable from `base` with a claim in `pool`,
    under the defeater attack relation.

    Identifiers a1, a2, ... follow enumeration order: support subsets by size
    then position, claims in pool order.  A base of more than 12 distinct
    formulas is refused before any test (see :func:`argent.prop.check_supports`).
    """
    base_c = list(dict.fromkeys(base))
    check_supports(len(base_c), len(base_c))
    pool_c = list(dict.fromkeys(pool))
    compiled = _Compiled([*base_c, *pool_c])
    args: list[StructuredArgument] = []
    for support, hits in subset_walk([], base_c, pool_c, len(base_c), compiled=compiled):
        for claim, minimal in hits or ():
            if minimal:
                args.append(StructuredArgument.deductive(f"a{len(args) + 1}", support, claim))
    defeats = _defeat_test(compiled, args)
    attacks = frozenset(
        (x.id, y.id) for i, x in enumerate(args) for j, y in enumerate(args) if defeats(i, j)
    )
    af = ArgumentationFramework(tuple(a.id for a in args), attacks)
    return af, {a.id: a for a in args}


def make_enthymeme(
    arg: StructuredArgument, certainty: CertaintyMap, tau: Fraction
) -> StructuredArgument:
    """Transmitted form of a deductive argument: keep only support formulas
    whose certainty of being common knowledge falls below `tau`."""
    if arg.kind != DEDUCTIVE:
        raise ValueError(f"{arg.id}: only deductive arguments can be abbreviated")
    kept = tuple(f for f in arg.fixed_support if certainty.value_of(f) < tau)
    return StructuredArgument.enthymeme(arg.id, kept, arg.fixed_claim)


def is_enthymeme_for(
    candidate: tuple[Sequence[Formula], Formula], d: StructuredArgument
) -> bool:
    """True iff the candidate support is a strict structural subset of `d`'s
    support and `d`'s claim entails the candidate claim."""
    cand_support, cand_claim = candidate
    cand_set = set(cand_support)
    full_set = set(d.support)
    if not (cand_set < full_set):
        return False
    return entails([d.full_claim], cand_claim)


def complete_enthymeme(
    e: StructuredArgument,
    base: BeliefBase,
    pool: ClaimPool,
    max_added: int = 3,
    strict: bool = False,
) -> list[StructuredArgument]:
    """All completions of `e` from `base` with claims in `pool` or the fixed claim.

    A completion adds a support set of at most `max_added` base formulas such
    that the whole support is consistent and entails the chosen full claim,
    which in turn entails the transmitted claim.  Results are ordered by added
    set size, then position, with pool claims tried before the fixed claim.
    With `strict` set, completions must also pass the consistency, entailment
    and minimality checks of deductive arguments (base membership excepted,
    since the transmitted part comes from another agent).  Raises
    ValueError and ResourceLimitError as :func:`completion_walk` does.
    """
    fixed = list(e.fixed_support)
    out: list[StructuredArgument] = []
    for psi, beta, tight in completion_walk(e, base, pool, max_added):
        if strict and (not tight or any(_droppable(fixed + list(psi), beta, range(len(fixed))))):
            continue
        out.append(StructuredArgument.enthymeme(e.id, e.fixed_support, e.fixed_claim, psi, beta))
    return out


def check_max_added(max_added: int) -> None:
    """Refuse a negative bound on the added support."""
    if max_added < 0:
        raise ValueError(f"max_added must be non-negative, got {max_added}")


def completion_walk(
    e: StructuredArgument,
    base: BeliefBase,
    pool: ClaimPool,
    max_added: int,
    *,
    compiled: _Compiled | None = None,
):
    """(added support, full claim, tight) for each completion of `e`, in the
    order of :func:`complete_enthymeme`; `tight` says that no added formula
    can be dropped (see :func:`added_support_is_tight`).  Supports and claims
    are tested on `compiled` (see :func:`argent.prop.subset_walk`), built from
    `e`'s transmitted pair, `base` and `pool` when not given.

    Raises ValueError for a negative `max_added`, and ResourceLimitError,
    before any support is tested, when the walk could test more than
    SUPPORT_LIMIT supports (see :func:`argent.prop.check_supports`)."""
    check_max_added(max_added)
    transmitted = set(e.fixed_support)
    base_c = [f for f in dict.fromkeys(base) if f not in transmitted]
    check_supports(len(base_c), max_added)
    pool_c = list(dict.fromkeys([*pool, e.fixed_claim]))
    if compiled is None:
        compiled = _Compiled([*e.fixed_support, *base_c, *pool_c])
    target = compiled.of((e.fixed_claim,))
    claims = [beta for beta in pool_c if compiled.entails(compiled.of((beta,)), target)]
    walk = subset_walk(e.fixed_support, base_c, claims, max_added, compiled=compiled)
    for added, hits in walk:
        for claim, tight in hits or ():
            yield added, claim, tight


def added_support_is_tight(arg: StructuredArgument) -> bool:
    """No added formula can be dropped while the support still entails the claim."""
    support = list(arg.support)
    added = range(len(arg.fixed_support), len(support))
    return not any(_droppable(support, arg.full_claim, added))
