"""Att/acc vocabulary, canonical models, theory semantics, explicit emission."""

from itertools import combinations, islice, product

import pytest

from argent import encoding

from argent import (
    ArgumentationFramework,
    AttAccVocabulary,
    FALSE,
    ResourceLimitError,
    TRUE,
    canonical_model,
    decode,
    decoded_acceptance,
    emit_stable_encoding,
    evaluate,
    is_stable,
    models,
    parse_goal,
    satisfies_theory,
    stable_fixpoint_formula,
    theory_models,
)
from conftest import oracle_acceptance


def test_vocabulary_layout():
    enc = AttAccVocabulary(("a", "b"))
    assert enc.vocabulary.names == (
        "att_a_a", "att_a_b", "att_b_a", "att_b_b", "acc_a", "acc_b",
    )
    assert enc.att_var("a", "b") == "att_a_b"
    assert enc.acc_var("b") == "acc_b"


def test_vocabulary_collision_rejected():
    with pytest.raises(ValueError):
        AttAccVocabulary(("a", "a_a"))


def test_from_vocabulary_roundtrip():
    enc = AttAccVocabulary(("x", "y", "z"))
    again = AttAccVocabulary.from_vocabulary(enc.vocabulary)
    assert again.arguments == ("x", "y", "z")


def test_canonical_model_f1(f1):
    m = canonical_model(f1)
    enc = AttAccVocabulary(f1.arguments)
    assert {n for n in m.true_set if n.startswith("att_")} == {
        enc.att_var(x, y) for x, y in f1.attacks
    }
    assert not any(n.startswith("acc_") for n in m.true_set)


def test_canonical_model_f3(f3):
    af = f3.to_af()
    m = canonical_model(af)
    enc = AttAccVocabulary(af.arguments)
    assert {n for n in m.true_set if n.startswith("att_")} == {
        enc.att_var("d2", "d1"), enc.att_var("d1", "e1"), enc.att_var("e2", "d2"),
    }
    assert {n for n in m.true_set if n.startswith("acc_")} == {"acc_e2", "acc_d1"}


def test_canonical_model_unattacked_singleton():
    af = ArgumentationFramework(("x",), frozenset())
    m = canonical_model(af)
    assert m.true_set == {"acc_x"}


def test_satisfies_theory(f1):
    assert satisfies_theory(canonical_model(f1))
    enc = AttAccVocabulary(f1.arguments)
    wrong = enc.model(f1.attacks, {"u"})
    assert not satisfies_theory(wrong)
    vac = AttAccVocabulary(("x",)).model({("x", "x")}, {"x"})
    assert satisfies_theory(vac)


def test_decode_roundtrip(f1):
    assert decode(canonical_model(f1)) == f1


def test_decode_fig2_model(f1, f2):
    enc = AttAccVocabulary(f1.arguments)
    m = enc.model(f2.attacks, {"u"})
    assert decode(m) == f2
    assert decoded_acceptance(m) == {"u"}
    assert satisfies_theory(m)


def test_decode_attack_free():
    enc = AttAccVocabulary(("a", "b"))
    af = decode(enc.model(set(), set()))
    assert af.attacks == frozenset()


def test_theory_models_singleton():
    found = list(theory_models(("x",), TRUE))
    assert [sorted(m.true_set) for m in found] == [["acc_x"], ["acc_x", "att_x_x"]]


def test_theory_models_constraint(f1):
    enc = AttAccVocabulary(f1.arguments)
    constraint = parse_goal("att(t,u) & att(z,u)", enc)
    stream = theory_models(f1.arguments, constraint)
    for m in islice(stream, 8):
        assert enc.att_var("t", "u") in m.true_set
        assert enc.att_var("z", "u") in m.true_set
        assert satisfies_theory(m)
        assert m.satisfies(constraint)


def test_theory_models_unsat_constraint():
    assert list(theory_models(("x",), FALSE)) == []


def test_theory_models_bijection_two_args():
    # every attack configuration appears exactly once, with acc forced
    found = list(theory_models(("a", "b"), TRUE))
    assert len(found) == 16
    att_parts = [frozenset(n for n in m.true_set if n.startswith("att_")) for m in found]
    assert len(set(att_parts)) == 16
    for m in found:
        assert satisfies_theory(m)


def test_theory_models_resource_guard():
    with pytest.raises(ResourceLimitError):
        next(theory_models(tuple(f"a{i}" for i in range(6)), TRUE))


def test_theory_models_foreign_variable_rejected():
    from argent import Var, VocabularyMismatchError

    with pytest.raises(VocabularyMismatchError):
        next(theory_models(("x",), Var("outside")))


def test_emit_singleton_unattacked():
    af = ArgumentationFramework(("x",), frozenset())
    enc = AttAccVocabulary(("x",))
    found = models(emit_stable_encoding(af), enc.vocabulary)
    assert [m.true_set for m in found] == [frozenset({"acc_x"})]


def test_emit_two_argument_example():
    af = ArgumentationFramework(("a", "b"), frozenset({("a", "b")}))
    enc = AttAccVocabulary(("a", "b"))
    found = models(emit_stable_encoding(af), enc.vocabulary)
    assert [m.true_set for m in found] == [frozenset({"att_a_b", "acc_a"})]


def test_emit_f3_unique_model(f3):
    af = f3.to_af()
    formula = emit_stable_encoding(af)
    enc = AttAccVocabulary(af.arguments)
    found = models(formula, enc.vocabulary)
    assert found == [canonical_model(af)]


def test_emit_guard():
    args = tuple(f"a{i}" for i in range(5))
    with pytest.raises(ResourceLimitError):
        emit_stable_encoding(ArgumentationFramework(args, frozenset()))


def test_fixpoint_formula_matches_stability():
    # for every attack relation on <= 3 arguments, the assignments of the
    # argument variables satisfying the fixpoint conjunct are exactly the
    # stable extensions of the decoded framework
    for args, step in ((("a", "b"), 1), (("a", "b", "c"), 37)):
        n = len(args)
        enc = AttAccVocabulary(args)
        fixpoint = stable_fixpoint_formula(args)
        pairs = enc.pairs
        for bits in range(0, 1 << (n * n), step):  # exhaustive for 2, sampled for 3
            attacks = {pairs[p] for p in range(n * n) if (bits >> p) & 1}
            af = ArgumentationFramework(args, frozenset(attacks))
            att_true = {enc.att_var(x, y) for x, y in attacks}
            for member_bits in product((False, True), repeat=n):
                member_set = {a for a, keep in zip(args, member_bits) if keep}
                assignment = att_true | member_set
                assert evaluate(fixpoint, assignment) == is_stable(af, member_set)


def test_flip_level_blocks_follow_combinations(monkeypatch):
    # bit c of block column j: free index j is in the block's c-th k-subset
    for size in (1, 3, 7, encoding._CHUNK):
        monkeypatch.setattr(encoding, "_CHUNK", size)
        for m, k in [(m, k) for m in range(1, 8) for k in range(1, m + 1)] + [(25, 3)]:
            subsets = []
            for full, cols in encoding.flip_level(m, k):
                assert len(cols) == m and full.bit_length() <= size
                for c in range(full.bit_length()):
                    subsets.append(tuple(j for j in range(m) if cols[j] >> c & 1))
            assert subsets == list(combinations(range(m), k))


def test_theory_models_stream_matches_product_order(monkeypatch):
    """The column scan streams the same models, in the same order, as the
    enumeration it replaced: att assignments over the free positions in
    product order, each with its acceptance, filtered by the constraint."""
    args = ("a", "b", "c")
    enc = AttAccVocabulary(args)
    constraint = parse_goal("att(a,b) & !att(c,c) & !att(b,b) & (acc(a) | !att(b,a))", enc)
    pinned = {("a", "b"): True, ("c", "c"): False, ("b", "b"): False}
    free = [pair for pair in enc.pairs if pair not in pinned]
    want = []
    for bits in product((0, 1), repeat=len(free)):
        attacks = {pair for pair, on in pinned.items() if on}
        attacks |= {pair for pair, bit in zip(free, bits) if bit}
        accepted, _ = oracle_acceptance(args, attacks)
        true_set = {enc.att_var(x, y) for x, y in attacks} | {enc.acc_var(x) for x in accepted}
        if evaluate(constraint, true_set):
            want.append(frozenset(true_set))
    assert len(want) > 1
    for size in (encoding._CHUNK, 3):
        monkeypatch.setattr(encoding, "_CHUNK", size)
        assert [m.true_set for m in theory_models(args, constraint)] == want
