"""Propositional encoding of frameworks over att/acc variables.

For arguments x1..xn the vocabulary holds `att_<x>_<y>` for every ordered pair
(source-major order) followed by `acc_<x>` for every argument.  Variable names
are resolved through the constructed bijection, never by splitting on
underscores, so argument identifiers may themselves contain underscores; sets
of identifiers whose mangled names collide (e.g. `a` next to `a_a`) are
rejected at construction.

The acceptance theory is treated semantically: an interpretation satisfies it
iff its acc variables equal the skeptical acceptance (vacuous convention
included) of the framework decoded from its att variables.  Only
:func:`emit_stable_encoding` builds the theory as an explicit formula, and only
for tiny instances, since the quantifier expansion is exponential.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from . import kernels
from .af import ArgumentationFramework, skeptical_accepted
from .errors import ResourceLimitError, VocabularyMismatchError
from .prop import (
    TRUE,
    Const,
    Formula,
    Iff,
    Implies,
    Interpretation,
    Not,
    Var,
    Vocabulary,
    conj,
    neg,
    substitute,
    truth_table,
    unit_literals,
    variables,
)

EMIT_ARGUMENT_LIMIT = 4
FREE_ATT_LIMIT = 25
_CHUNK = 256  # candidates per kernel call, which bounds the columns' size


@lru_cache(maxsize=32)
def _layout(arguments: tuple[str, ...]):
    """Pairs, names, Vocabulary and indexes of the att/acc space over
    `arguments`, built and checked once per argument tuple and shared by
    every AttAccVocabulary over it (none of them is ever mutated).  Besides
    the name indexes it maps each pair to its position, and each goal atom
    as written, `acc(x)` or `att(x,y)`, to its variable name."""
    pairs = tuple((x, y) for x in arguments for y in arguments)
    att_names = tuple(f"att_{x}_{y}" for x, y in pairs)
    acc_names = tuple(f"acc_{x}" for x in arguments)
    names = att_names + acc_names
    if len(set(names)) != len(names):
        raise ValueError("att/acc variable names collide for these argument identifiers")
    atoms = {f"att({x},{y})": name for (x, y), name in zip(pairs, att_names)}
    atoms.update((f"acc({x})", name) for x, name in zip(arguments, acc_names))
    return (
        pairs,
        att_names,
        acc_names,
        Vocabulary(names),
        {name: p for p, name in enumerate(att_names)},
        {name: i for i, name in enumerate(acc_names)},
        {pair: p for p, pair in enumerate(pairs)},
        atoms,
    )


class AttAccVocabulary:
    """The att/acc variable space for a fixed argument sequence; instances
    over the same arguments share one cached layout."""

    def __init__(self, arguments: Sequence[str]):
        self.arguments = tuple(arguments)
        (
            self.pairs,
            self.att_names,
            self.acc_names,
            self.vocabulary,
            self._att_index,
            self._acc_index,
            self.pair_index,
            self.atom_names,
        ) = _layout(self.arguments)

    @property
    def n(self) -> int:
        return len(self.arguments)

    def __eq__(self, other):
        return isinstance(other, AttAccVocabulary) and self.arguments == other.arguments

    def __hash__(self):
        return hash(self.arguments)

    def att_var(self, x: str, y: str) -> str:
        name = f"att_{x}_{y}"
        if name not in self._att_index:
            raise VocabularyMismatchError(f"no att variable for pair ({x},{y})")
        return name

    def acc_var(self, x: str) -> str:
        name = f"acc_{x}"
        if name not in self._acc_index:
            raise VocabularyMismatchError(f"no acc variable for argument {x!r}")
        return name

    def pair_position(self, x: str, y: str) -> int:
        return self._att_index[self.att_var(x, y)]

    def att_position(self, name: str) -> int | None:
        return self._att_index.get(name)

    @classmethod
    def from_vocabulary(cls, vocabulary: Vocabulary) -> "AttAccVocabulary":
        total = len(vocabulary)
        n = (math.isqrt(4 * total + 1) - 1) // 2
        if n * n + n != total:
            raise VocabularyMismatchError("vocabulary size is not of the form n*n + n")
        tail = vocabulary.names[n * n:]
        args = []
        for name in tail:
            if not name.startswith("acc_"):
                raise VocabularyMismatchError(f"expected an acc variable, got {name!r}")
            args.append(name[4:])
        enc = cls(tuple(args))
        if enc.vocabulary != vocabulary:
            raise VocabularyMismatchError("vocabulary is not an att/acc layout")
        return enc

    def model(self, attacks, accepted) -> Interpretation:
        true_set = {self.att_var(x, y) for x, y in attacks}
        true_set |= {self.acc_var(x) for x in accepted}
        return Interpretation(self.vocabulary, frozenset(true_set))


def canonical_model(af: ArgumentationFramework) -> Interpretation:
    """The unique theory model of `af`: its attacks plus its skeptical acceptance."""
    enc = AttAccVocabulary(af.arguments)
    report = skeptical_accepted(af)
    return enc.model(af.attacks, report.accepted)


def decode(m: Interpretation) -> ArgumentationFramework:
    """Framework whose attacks are exactly the true att variables of `m`."""
    enc = AttAccVocabulary.from_vocabulary(m.vocabulary)
    attacks = {pair for pair, name in zip(enc.pairs, enc.att_names) if name in m.true_set}
    return ArgumentationFramework(enc.arguments, frozenset(attacks))


def decoded_acceptance(m: Interpretation) -> frozenset[str]:
    """Arguments whose acc variable is true in `m` (structure ignored)."""
    enc = AttAccVocabulary.from_vocabulary(m.vocabulary)
    return frozenset(x for x, name in zip(enc.arguments, enc.acc_names) if name in m.true_set)


def satisfies_theory(m: Interpretation) -> bool:
    """True iff the acc variables of `m` match the skeptical acceptance of the
    framework decoded from its att variables (vacuous convention included)."""
    af = decode(m)
    return decoded_acceptance(m) == skeptical_accepted(af).accepted


def attacker_masks_from(att_mask: int, n: int) -> list[int]:
    """Kernel-ready attacker masks from a source-major att bitmask."""
    masks = [0] * n
    p = 0
    for i in range(n):
        for j in range(n):
            if (att_mask >> p) & 1:
                masks[j] |= 1 << i
            p += 1
    return masks


def pin_att_units(formula: Formula, enc: AttAccVocabulary):
    """Att bits pinned by the unit literals of `formula`'s top-level conjunction.

    Returns (pinned mask, pinned-true bits, free att positions ascending), or
    None when two unit literals contradict.  More than FREE_ATT_LIMIT free att
    positions trips the resource guard.
    """
    units = unit_literals([formula])
    if units is None:
        return None
    pinned = value = 0
    for name, truth in units.items():
        p = enc.att_position(name)
        if p is not None:
            pinned |= 1 << p
            value |= truth << p
    free = [p for p in range(enc.n * enc.n) if not (pinned >> p) & 1]
    if len(free) > FREE_ATT_LIMIT:
        raise ResourceLimitError(
            f"2^{len(free)} candidate frameworks over {len(free)} free att variables "
            f"exceed the limit of 2^{FREE_ATT_LIMIT}"
        )
    return pinned, value, free


@lru_cache(maxsize=1024)
def _subset_columns(m: int, k: int, lo: int, count: int) -> tuple[int, ...]:
    """Flip columns of the k-subsets of range(m) of ranks lo .. lo + count - 1
    in `combinations` order: bit c of column j is set when j is in the
    subset of rank lo + c.

    The subsets led by one element j form a run: column j gets one mask of
    ones, and the tails, (k-1)-subsets of the elements after j, come from
    this function again; a run wholly inside the range takes a whole smaller
    level, which the cache shares between blocks.  Keyed by range, so the
    cache holds at most 1024 ranges however large a level is."""
    cols = [0] * m
    j = bit = 0
    while count:
        run = math.comb(m - j - 1, k - 1)
        if lo >= run:
            lo -= run
        else:
            take = min(run - lo, count)
            cols[j] |= ((1 << take) - 1) << bit
            if k > 1:
                for t, col in enumerate(_subset_columns(m - j - 1, k - 1, lo, take), j + 1):
                    cols[t] |= col << bit
            bit += take
            count -= take
            lo = 0
        j += 1
    return tuple(cols)


def flip_level(m: int, k: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Blocks (see :func:`scan_candidates`) of the k-subsets of m flip
    positions (k >= 1), in `combinations` order, _CHUNK candidates a block."""
    size = _CHUNK
    total = math.comb(m, k)
    for lo in range(0, total, size):
        count = min(size, total - lo)
        yield (1 << count) - 1, _subset_columns(m, k, lo, count)


def cut_blocks(flips: Sequence[int], total: int) -> Iterator[tuple[int, list[int]]]:
    """Blocks of `total` candidates given as whole flip columns, cut into
    runs of _CHUNK candidates."""
    size = _CHUNK
    for lo in range(0, total, size):
        full = (1 << min(size, total - lo)) - 1
        yield full, [col >> lo & full for col in flips]


def scan_candidates(
    enc: AttAccVocabulary,
    start: int,
    positions: Sequence[int],
    blocks: Iterable[tuple[int, Sequence[int]]],
    formula: Formula,
) -> Iterator[tuple[int, list[int], list[int], int, int]]:
    """Test `formula` on candidate frameworks, a block of candidates at a time.

    A block is ``(full, flips)``: `full` has one bit per candidate, and bit c
    of ``flips[j]`` toggles att position ``positions[j]`` of the bitmask
    `start` in candidate c.  Per block this yields `full`, the att columns, the
    acceptance columns and vacuous column of
    :func:`kernels.acceptance_columns`, and the column of candidates whose
    att/acc assignment satisfies `formula`: bit c of a column belongs to
    candidate c.
    """
    n = enc.n
    for full, flips in blocks:
        att_cols = [full if start >> p & 1 else 0 for p in range(n * n)]
        for p, col in zip(positions, flips):
            att_cols[p] ^= col
        acc_cols, vacuous = kernels.acceptance_columns(att_cols, n, full)
        cols = dict(zip(enc.att_names, att_cols))
        cols.update(zip(enc.acc_names, acc_cols))
        yield full, att_cols, acc_cols, vacuous, truth_table(formula, cols, full)


def _product_blocks(m: int) -> Iterator[tuple[int, list[int]]]:
    """Blocks of the 2^m flip sets over m positions in product order (the
    first position slowest, absent before present), _CHUNK a block."""
    size = _CHUNK
    total = 1 << m
    for lo in range(0, total, size):
        count = min(size, total - lo)
        flips = [
            sum(1 << c for c in range(count) if (lo + c) >> (m - 1 - j) & 1) for j in range(m)
        ]
        yield (1 << count) - 1, flips


def theory_models(arguments: Sequence[str], constraint: Formula) -> Iterator[Interpretation]:
    """All theory models satisfying `constraint`, streamed in canonical order.

    Only att assignments are enumerated; acc variables are functionally
    determined by the attacks.  Att variables pinned by unit literals of the
    constraint are fixed up front (see :func:`pin_att_units`).
    """
    enc = AttAccVocabulary(arguments)
    extra = variables(constraint) - enc.vocabulary.name_set
    if extra:
        raise VocabularyMismatchError(
            f"constraint uses variables outside the att/acc vocabulary: {sorted(extra)}"
        )
    pins = pin_att_units(constraint, enc)
    if pins is None:
        return
    _, base, free = pins
    blocks = _product_blocks(len(free))
    for _, att_cols, acc_cols, _, sat in scan_candidates(enc, base, free, blocks, constraint):
        while sat:
            low = sat & -sat
            sat ^= low
            true_set = [name for name, col in zip(enc.att_names, att_cols) if col & low]
            true_set += [name for name, col in zip(enc.acc_names, acc_cols) if col & low]
            yield Interpretation(enc.vocabulary, frozenset(true_set))


def stable_fixpoint_formula(arguments: Sequence[str]) -> Formula:
    """Fixpoint conjunct with free argument variables: an assignment to the
    argument variables satisfies it iff its true arguments form a stable
    extension of the framework read off the att variables."""
    enc = AttAccVocabulary(arguments)
    outer = []
    for y in arguments:
        inner = conj(tuple(Implies(Var(enc.att_var(z, y)), Not(Var(z))) for z in arguments))
        outer.append(Iff(Var(y), inner))
    return conj(tuple(outer))


def emit_stable_encoding(af: ArgumentationFramework) -> Formula:
    """Explicit encoding formula whose unique model is :func:`canonical_model`.

    Conjoins one literal per att variable with, for each argument, a
    biconditional equating its acc variable to the expansion of the
    universally quantified acceptance condition over all 2^n argument-variable
    assignments.  The expansion is constant-folded, which leaves the model set
    unchanged.  Guarded to at most EMIT_ARGUMENT_LIMIT arguments.
    """
    n = len(af.arguments)
    if n > EMIT_ARGUMENT_LIMIT:
        raise ResourceLimitError(
            f"{n} arguments exceed the emission limit of {EMIT_ARGUMENT_LIMIT}"
        )
    enc = AttAccVocabulary(af.arguments)
    parts: list[Formula] = []
    for x, y in enc.pairs:
        v = Var(enc.att_var(x, y))
        parts.append(v if (x, y) in af.attacks else Not(v))
    subsets = [
        [af.arguments[i] for i in range(n) if (mask >> i) & 1] for mask in range(1 << n)
    ]
    for x in af.arguments:
        conjuncts: list[Formula] = []
        for members in subsets:
            antecedent_terms: list[Formula] = []
            for y in af.arguments:
                unattacked = conj(tuple(Not(Var(enc.att_var(z, y))) for z in members))
                antecedent_terms.append(unattacked if y in members else neg(unattacked))
            folded = substitute(Implies(conj(antecedent_terms), Const(x in members)), {})
            if folded != TRUE:
                conjuncts.append(folded)
        parts.append(Iff(Var(enc.acc_var(x)), conj(tuple(conjuncts))))
    return conj(tuple(parts))

