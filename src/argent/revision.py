"""Model-based revision: Hamming distance, weighted flips, Dalal minimal change."""

from __future__ import annotations

from typing import Iterable

from .errors import MutableRecord, Record, VocabularyMismatchError
from .prop import (
    Formula,
    Interpretation,
    Vocabulary,
    atom_tables,
    check_width,
    pinned_literals,
    table_models,
    truth_table,
)


class WeightMap(MutableRecord):
    """Per-variable non-negative integer weights; unlisted names weigh `default`."""

    _fields = ("weights", "default")

    def __init__(self, weights: dict[str, int] | None = None, default: int = 1):
        self.weights = {} if weights is None else weights
        self.default = default
        for name, w in self.weights.items():
            if not isinstance(w, int) or w < 0:
                raise ValueError(f"weight of {name!r} must be a non-negative integer")
        if not isinstance(self.default, int) or self.default < 0:
            raise ValueError("default weight must be a non-negative integer")

    def weight_of(self, name: str) -> int:
        return self.weights.get(name, self.default)


class DistanceProfile(Record):
    """Total weighted distance together with the set of flipped variables."""

    _fields = ("total", "flips")

    def __init__(self, total: int, flips: frozenset[str]):
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "flips", flips)


def _check_shared_vocabulary(i: Interpretation, j: Interpretation) -> None:
    if i.vocabulary != j.vocabulary:
        raise VocabularyMismatchError("interpretations use different vocabularies")


def hamming(i: Interpretation, j: Interpretation) -> int:
    """Number of variables assigned differently by `i` and `j`."""
    _check_shared_vocabulary(i, j)
    return len(i.true_set ^ j.true_set)


def weighted_distance(i: Interpretation, j: Interpretation, w: WeightMap) -> DistanceProfile:
    _check_shared_vocabulary(i, j)
    flips = frozenset(i.true_set ^ j.true_set)
    return DistanceProfile(sum(w.weight_of(name) for name in flips), flips)


def minimal_models(
    base: Iterable[Interpretation],
    candidates: Iterable[Interpretation],
    w: WeightMap,
) -> list[Interpretation]:
    """Candidates whose minimal weighted distance to `base` is smallest.

    Returned in canonical interpretation order.  `base` must be non-empty.
    """
    base_list = list(base)
    if not base_list:
        raise ValueError("base must contain at least one interpretation")
    scored = []
    for cand in candidates:
        dist = min(weighted_distance(cand, b, w).total for b in base_list)
        scored.append((dist, cand))
    if not scored:
        return []
    best = min(dist for dist, _ in scored)
    chosen = [cand for dist, cand in scored if dist == best]
    chosen.sort(key=Interpretation.sort_key)
    return chosen


def dalal_revise(phi: Formula, alpha: Formula, vocabulary: Vocabulary) -> list[Interpretation]:
    """Models of `alpha` at minimal Hamming distance from the models of `phi`.

    When `phi` is inconsistent every model of `alpha` is returned (the operator
    stays total); the result is empty exactly when `alpha` is inconsistent.

    Works on truth tables by dilation: the table of `phi` grows by every
    assignment one flip away until it meets the table of `alpha`.  Names
    pinned by unit literals of both formulas stay out of the tables, since
    they add the same distance to every pair of models.
    """
    return table_models(*_dalal_table(phi, alpha, vocabulary))


def _dalal_table(phi: Formula, alpha: Formula, vocabulary: Vocabulary):
    """The result of :func:`dalal_revise` as the arguments of
    :func:`~argent.prop.table_models`: ``(table, vocabulary, order, fixed_true)``."""
    phi_units = pinned_literals(phi, vocabulary)
    alpha_units = pinned_literals(alpha, vocabulary)
    if alpha_units is None:
        return 0, vocabulary, (), ()
    if phi_units is None:
        shared = alpha_units
    else:
        shared = {name: v for name, v in alpha_units.items() if name in phi_units}
    order = tuple(name for name in vocabulary.names if name not in shared)
    check_width(len(order))
    cols, full = atom_tables(order, shared)
    target = truth_table(alpha, cols, full)
    ball = 0
    if phi_units is not None:
        ball = truth_table(phi, *atom_tables(order, {name: phi_units[name] for name in shared}))
    if ball and target:
        # Flipping atom j moves each bit by j's span; the mask marks where j is false.
        flips = [(1 << (len(order) - 1 - j), full ^ cols[name]) for j, name in enumerate(order)]
        while not ball & target:
            grown = ball
            for span, false_j in flips:
                grown |= (ball >> span) & false_j | (ball & false_j) << span
            ball = grown
        target &= ball
    return target, vocabulary, order, [name for name, v in shared.items() if v]
