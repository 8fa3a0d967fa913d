"""Hamming distance and Dalal minimal change."""

from __future__ import annotations

from .errors import VocabularyMismatchError
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


def hamming(i: Interpretation, j: Interpretation) -> int:
    """Number of variables assigned differently by `i` and `j`."""
    if i.vocabulary != j.vocabulary:
        raise VocabularyMismatchError("interpretations use different vocabularies")
    return len(i.true_set ^ j.true_set)


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
