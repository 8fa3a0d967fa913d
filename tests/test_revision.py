"""Hamming distance and Dalal revision."""

import random

import pytest

from argent import (
    And,
    Interpretation,
    Not,
    Var,
    Vocabulary,
    VocabularyMismatchError,
    dalal_revise,
    hamming,
    models,
    parse_formula,
)

p = parse_formula
V4 = Vocabulary.of("a", "b", "c", "d")


def interp(v, names):
    return Interpretation(v, frozenset(names))


PHI = p("((a & b) | (!a & c) | !(b | (a & c))) & !d")
ALPHA = p("a & !b & c")

# Distance table frozen from direct symmetric-difference counts.
DISTANCE_TABLE = {
    frozenset(): (2, 3),
    frozenset({"a"}): (1, 2),
    frozenset({"c"}): (1, 2),
    frozenset({"a", "b"}): (2, 3),
    frozenset({"b", "c"}): (2, 3),
    frozenset({"a", "b", "c"}): (1, 2),
}


def test_hamming_table_rows():
    i_ac = interp(V4, {"a", "c"})
    i_acd = interp(V4, {"a", "c", "d"})
    for true_set, (d1, d2) in DISTANCE_TABLE.items():
        row = interp(V4, true_set)
        assert hamming(row, i_ac) == d1
        assert hamming(row, i_acd) == d2
    assert hamming(i_ac, i_ac) == 0


def test_hamming_vocabulary_mismatch():
    with pytest.raises(VocabularyMismatchError):
        hamming(interp(V4, set()), interp(Vocabulary.of("a"), set()))


def test_dalal_background_example():
    result = dalal_revise(PHI, ALPHA, V4)
    assert [m.true_set for m in result] == [frozenset({"a", "c"})]


def test_dalal_vacuity():
    phi = p("a | b")
    alpha = p("a")
    expected = models(And((phi, alpha)), V4)
    assert dalal_revise(phi, alpha, V4) == expected


def test_dalal_single_model_alpha():
    v = Vocabulary.of("a")
    result = dalal_revise(p("a"), p("!a"), v)
    assert [m.true_set for m in result] == [frozenset()]


def test_dalal_inconsistent_inputs():
    assert dalal_revise(PHI, p("a & !a"), V4) == []
    assert dalal_revise(p("a & !a"), ALPHA, V4) == models(ALPHA, V4)


def _random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.35:
        return Var(rng.choice(names))
    kind = rng.randrange(4)
    sub = lambda: _random_formula(rng, names, depth - 1)
    if kind == 0:
        return Not(sub())
    if kind == 1:
        return And((sub(), sub()))
    if kind == 2:
        return p(f"({sub()}) | ({sub()})")
    return p(f"({sub()}) -> ({sub()})")


def test_km_postulates_random():
    rng = random.Random(424242)
    v = Vocabulary.of("a", "b", "c", "d")
    for _ in range(200):
        phi = _random_formula(rng, ["a", "b", "c", "d"], 3)
        alpha = _random_formula(rng, ["a", "b", "c", "d"], 3)
        result = dalal_revise(phi, alpha, v)
        alpha_models = models(alpha, v)
        # success
        assert set(result) <= set(alpha_models)
        # consistency
        assert bool(result) == bool(alpha_models)
        # vacuity
        joint = models(And((phi, alpha)), v)
        if joint and models(phi, v):
            assert result == joint


def test_faithful_assignment_conditions():
    rng = random.Random(31337)
    v = Vocabulary.of("a", "b", "c")
    everything = models(p("true"), Vocabulary.of("a", "b", "c"))
    for _ in range(60):
        phi = _random_formula(rng, ["a", "b", "c"], 3)
        base = models(phi, v)
        if not base:
            continue

        def mindist(i, formula_models):
            return min(hamming(i, b) for b in formula_models)

        keys = {i: mindist(i, base) for i in everything}
        for i in everything:
            if i.satisfies(phi):
                assert keys[i] == 0
            else:
                assert keys[i] > 0
        # structurally different but equivalent formulas induce the same preorder
        equivalent = Not(Not(phi))
        base2 = models(equivalent, v)
        assert {i: mindist(i, base2) for i in everything} == keys
