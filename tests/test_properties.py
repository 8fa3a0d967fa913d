"""Property tests of the propositional engine and Dalal revision.

Truth-table answers are checked against brute-force `evaluate` scans over
every assignment, and `dalal_revise` against its pairwise definition.
"""

from functools import reduce
from itertools import product
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from argent import (
    And,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    Vocabulary,
    dalal_revise,
    entails,
    evaluate,
    format_formula,
    hamming,
    models,
    parse_formula,
    variables,
)
from argent import prop
from argent.prop import satisfiable

NAMES = [f"v{i}" for i in range(12)]


def formulas(names=NAMES, max_leaves=16):
    """Random trees with constants, and deep left-nested `<->` chains of small trees."""
    leaves = st.one_of(st.sampled_from(names).map(Var), st.booleans().map(Const))
    operands = lambda children: st.lists(children, min_size=2, max_size=4).map(tuple)
    pairs = lambda children: st.tuples(children, children)
    trees = lambda size: st.recursive(
        leaves,
        lambda children: st.one_of(
            children.map(Not),
            operands(children).map(And),
            operands(children).map(Or),
            pairs(children).map(lambda lr: Implies(*lr)),
            pairs(children).map(lambda lr: Iff(*lr)),
        ),
        max_leaves=size,
    )
    iff_chains = st.lists(trees(3), min_size=2, max_size=30).map(lambda fs: reduce(Iff, fs))
    return st.one_of(trees(max_leaves), iff_chains)


def literals(names):
    return st.lists(st.tuples(st.sampled_from(names), st.booleans()), max_size=4).map(
        lambda pairs: [Var(n) if value else Not(Var(n)) for n, value in pairs]
    )


def brute_models(fs, names):
    """True sets over `names` satisfying every formula of `fs`, in canonical order."""
    for bits in product((False, True), repeat=len(names)):
        true_set = frozenset(n for n, b in zip(names, bits) if b)
        if all(evaluate(f, true_set) for f in fs):
            yield true_set


def names_of(fs):
    return sorted(frozenset().union(*map(variables, fs)))


def vars_walk(f):
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, Const):
        return set()
    if isinstance(f, Not):
        return vars_walk(f.child)
    if isinstance(f, (And, Or)):
        return set().union(*map(vars_walk, f.children))
    return vars_walk(f.left) | vars_walk(f.right)


@settings(max_examples=150)
@given(st.lists(formulas(), min_size=1, max_size=3))
def test_satisfiable_matches_brute_force(fs):
    assert satisfiable(fs) == any(True for _ in brute_models(fs, names_of(fs)))


@settings(max_examples=150)
@given(st.lists(formulas(), max_size=3), formulas())
def test_entails_matches_brute_force(premises, claim):
    names = names_of(premises + [claim])
    expected = all(evaluate(claim, m) for m in brute_models(premises, names))
    assert entails(premises, claim) == expected


EIGHT = NAMES[:8]


@settings(max_examples=60)
@given(st.lists(formulas(EIGHT, 10), min_size=1, max_size=3), literals(EIGHT))
def test_splitting_search_matches_brute_force(fs, lits):
    # With no table width allowed, every question with an atom goes to the search.
    *premises, claim = fs
    premises += lits
    found = list(brute_models(premises, names_of(fs + lits)))
    with patch.object(prop, "ENUMERATION_LIMIT", 0):
        assert satisfiable(premises) == bool(found)
        assert entails(premises, claim) == all(evaluate(claim, m) for m in found)


@settings(max_examples=100)
@given(formulas(), literals(NAMES), st.randoms(use_true_random=False))
def test_models_match_brute_force(f, lits, rng):
    f = And((f, *lits)) if lits else f
    names = names_of([f]) + ["unused"]
    rng.shuffle(names)
    found = models(f, Vocabulary(tuple(names)))
    assert [m.true_set for m in found] == list(brute_models([f], names))


@given(formulas())
def test_format_parse_roundtrip(f):
    assert parse_formula(format_formula(f)) == f


@given(formulas())
def test_equal_formulas_share_hash_and_variables(f):
    g = parse_formula(format_formula(f))
    assert g is not f
    assert hash(g) == hash(f)
    assert variables(g) == variables(f) == vars_walk(f)


def pairwise_dalal(phi, alpha, vocabulary):
    """Dalal revision by its definition: every model pair is compared."""
    base = models(phi, vocabulary)
    cands = models(alpha, vocabulary)
    if not cands or not base:
        return cands
    scored = [(min(hamming(c, b) for b in base), c) for c in cands]
    best = min(dist for dist, _ in scored)
    return [c for dist, c in scored if dist == best]


SEVEN = NAMES[:7]


@settings(max_examples=150)
@given(
    formulas(SEVEN, 10),
    formulas(SEVEN, 10),
    literals(SEVEN),
    literals(SEVEN),
    st.permutations(SEVEN),
)
@example(parse_formula("(v0 | v1) & !v0 & !v1"), parse_formula("v2 | v3"), [], [], SEVEN)
@example(parse_formula("v0 & !v0"), parse_formula("v2 -> v3"), [], [], SEVEN)
@example(parse_formula("v2 | v5"), parse_formula("v2 & (v2 -> v3) & !v3"), [], [], SEVEN)
@example(parse_formula("v2 | v5"), parse_formula("v1 & !v1"), [], [], SEVEN)
@example(parse_formula("v0 & v1 & v4"), parse_formula("!v0 & v1 & (v4 | v6)"), [], [], SEVEN)
def test_dalal_matches_pairwise_definition(phi, alpha, phi_lits, alpha_lits, order):
    phi = And((phi, *phi_lits)) if phi_lits else phi
    alpha = And((alpha, *alpha_lits)) if alpha_lits else alpha
    vocabulary = Vocabulary(tuple(order))
    assert dalal_revise(phi, alpha, vocabulary) == pairwise_dalal(phi, alpha, vocabulary)
