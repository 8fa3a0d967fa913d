"""Every record class behaves as a value: construction by position and by
keyword, structural equality within one class, hashing as the tuple of its
fields, immutability, its repr, pickling and positional matching."""

import pickle
from fractions import Fraction

import pytest

from argent.af import AcceptanceReport, ArgumentationFramework, ExtensionSet
from argent.afrev import RevisionEntry, RevisionOutcome
from argent.eaf import AcceptabilityResult, AttackClassification, EnthymemeAF
from argent.errors import MutableRecord, Record
from argent.prop import (
    And,
    AtomToken,
    Const,
    Formula,
    Iff,
    Implies,
    Interpretation,
    Not,
    Or,
    Token,
    Var,
    Vocabulary,
)
from argent.structured import CertaintyMap, DeductiveReport, StructuredArgument

A, B = Var("a"), Var("b")
VOC = Vocabulary(("a", "b"))
AF = ArgumentationFramework(("x", "y"), frozenset({("x", "y")}))
ENTRY = RevisionEntry(AF, frozenset({"x"}), False, frozenset(), frozenset(), frozenset(), 0)
ARG = StructuredArgument("d", "deductive", (A,), A)

AF_REPR = "ArgumentationFramework(arguments=('x', 'y'), attacks=frozenset({('x', 'y')}))"
ENTRY_REPR = (
    f"RevisionEntry(af={AF_REPR}, accepted=frozenset({{'x'}}), vacuous=False, "
    "att_added=frozenset(), att_removed=frozenset(), acc_changed=frozenset(), total_weight=0)"
)
ARG_REPR = (
    "StructuredArgument(id='d', kind='deductive', fixed_support=(Var(name='a'),), "
    "fixed_claim=Var(name='a'), added_support=(), full_claim=Var(name='a'))"
)

# (class, its fields in order with one value each, its exact repr); sets
# have at most one member, so no repr depends on the hash seed.
RECORDS = [
    (Var, {"name": "a"}, "Var(name='a')"),
    (Const, {"value": True}, "Const(value=True)"),
    (Not, {"child": A}, "Not(child=Var(name='a'))"),
    (And, {"children": (A, B)}, "And(children=(Var(name='a'), Var(name='b')))"),
    (Or, {"children": (A, B)}, "Or(children=(Var(name='a'), Var(name='b')))"),
    (Implies, {"left": A, "right": B}, "Implies(left=Var(name='a'), right=Var(name='b'))"),
    (Iff, {"left": A, "right": B}, "Iff(left=Var(name='a'), right=Var(name='b'))"),
    (Token, {"kind": "ident", "text": "a", "line": 1, "col": 2},
     "Token(kind='ident', text='a', line=1, col=2)"),
    (Vocabulary, {"names": ("a", "b")}, "Vocabulary(names=('a', 'b'))"),
    (Interpretation, {"vocabulary": VOC, "true_set": frozenset({"a"})},
     "Interpretation(vocabulary=Vocabulary(names=('a', 'b')), true_set=frozenset({'a'}))"),
    (ArgumentationFramework, {"arguments": ("x", "y"), "attacks": frozenset({("x", "y")})},
     AF_REPR),
    (ExtensionSet, {"af": AF, "extensions": (frozenset({"x"}),)},
     f"ExtensionSet(af={AF_REPR}, extensions=(frozenset({{'x'}}),))"),
    (AcceptanceReport, {"accepted": frozenset({"x"}), "vacuous": False},
     "AcceptanceReport(accepted=frozenset({'x'}), vacuous=False)"),
    (RevisionEntry, {"af": AF, "accepted": frozenset({"x"}), "vacuous": False,
                     "att_added": frozenset(), "att_removed": frozenset(),
                     "acc_changed": frozenset(), "total_weight": 0}, ENTRY_REPR),
    (RevisionOutcome, {"entries": (ENTRY,)}, f"RevisionOutcome(entries=({ENTRY_REPR},))"),
    (StructuredArgument, {"id": "d", "kind": "deductive", "fixed_support": (A,),
                          "fixed_claim": A, "added_support": (), "full_claim": A}, ARG_REPR),
    (EnthymemeAF, {"arguments": (ARG,), "declared_attacks": frozenset()},
     f"EnthymemeAF(arguments=({ARG_REPR},), declared_attacks=frozenset())"),
    (AttackClassification, {"certain": frozenset(), "questionable": frozenset({("d", "d")}),
                            "deductive_core": frozenset(), "warnings": ("w",), "notes": ()},
     "AttackClassification(certain=frozenset(), questionable=frozenset({('d', 'd')}), "
     "deductive_core=frozenset(), warnings=('w',), notes=())"),
    (AcceptabilityResult, {"entry": ENTRY, "acceptable": True, "witness": {}, "reason": None},
     f"AcceptabilityResult(entry={ENTRY_REPR}, acceptable=True, witness={{}}, reason=None)"),
    (CertaintyMap, {"values": {A: Fraction(1, 2)}},
     "CertaintyMap(values={Var(name='a'): Fraction(1, 2)})"),
    (DeductiveReport, {"in_base": True, "consistent": False, "entails_claim": True,
                       "minimal": False, "missing_from_base": (A,), "redundant": (B,)},
     "DeductiveReport(in_base=True, consistent=False, entails_claim=True, minimal=False, "
     "missing_from_base=(Var(name='a'),), redundant=(Var(name='b'),))"),
]
MUTABLE = (Token, CertaintyMap)
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def test_every_record_class_is_listed():
    found, stack = set(), [Record]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        found.add(cls)
    # Record, MutableRecord and Formula have no fields; AtomToken is a Token
    assert found - {Record, MutableRecord, Formula, AtomToken} == {cls for cls, _, _ in RECORDS}
    assert len(RECORDS) == 21


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_construction_equality_and_repr(cls, fields, text):
    x = cls(*fields.values())
    assert [getattr(x, name) for name in fields] == list(fields.values())
    assert cls(**fields) == x
    assert not x != cls(**fields)
    assert x != object() and x != tuple(fields.values())
    assert repr(x) == text
    assert cls.__match_args__ == tuple(fields)


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_hash_and_immutability(cls, fields, text):
    x = cls(*fields.values())
    name = next(iter(fields))
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(x)
        setattr(x, name, fields[name])
        return
    try:
        expected = hash(tuple(fields.values()))
    except TypeError:  # AcceptabilityResult holds its witness in a dict
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(x) == expected  # formula nodes keep their first hash
    with pytest.raises(AttributeError):
        setattr(x, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.unlisted = 1
    assert getattr(x, name) == fields[name]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, fields, text):
    x = cls(*fields.values())
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is cls and y == x and repr(y) == text


def test_slotted_records_keep_their_slots():
    i = pickle.loads(pickle.dumps(Interpretation(VOC, {"a"})))
    tok = AtomToken("ident", "att", 1, 1)
    tok.atom = "att(x,y)"
    tok = pickle.loads(pickle.dumps(tok))
    assert Interpretation.__slots__ == ("vocabulary", "true_set")
    assert not hasattr(i, "__dict__") and not hasattr(tok, "__dict__")
    assert i.true_set == frozenset({"a"}) and i.vocabulary == VOC
    assert (type(tok), tok.atom, tok.text) == (AtomToken, "att(x,y)", "att")
    # table_models writes interpretations through the slot descriptors
    j = object.__new__(Interpretation)
    Interpretation.vocabulary.__set__(j, VOC)
    Interpretation.true_set.__set__(j, frozenset({"b"}))
    assert j == Interpretation(VOC, ["b"])


def test_defaults_and_unshared_mutable_defaults():
    c1, c2 = CertaintyMap(), CertaintyMap()
    assert c1.values is not c2.values
    c1.values[A] = Fraction(1)
    assert c2.values == {}
    arg = StructuredArgument("e", "enthymeme", [A], A)
    assert (arg.added_support, arg.full_claim) == ((), A)
    assert arg == StructuredArgument("e", "enthymeme", (A,), A, (), A)
    report = DeductiveReport(True, True, True, True)
    assert (report.missing_from_base, report.redundant) == ((), ())


def test_equality_needs_the_same_class():
    assert And((A, B)) != Or((A, B))
    assert Implies(A, B) != Iff(A, B)
    assert Token("ident", "a", 1, 1) != AtomToken("ident", "a", 1, 1)
    assert And((A, B)) == And((Var("a"), Var("b")))
    assert len({And((A, B)), Or((A, B)), And((A, B))}) == 2


def test_positional_match():
    def shape(f):
        match f:
            case Implies(left, right):
                return ("implies", left, right)
            case And((first, *rest)):
                return ("and", first, len(rest))
            case Not(Var(name)):
                return ("negated", name)
            case Interpretation(vocabulary, true_set):
                return ("interpretation", vocabulary, true_set)
        return None

    assert shape(Implies(A, B)) == ("implies", A, B)
    assert shape(And((A, B, A))) == ("and", A, 2)
    assert shape(Not(B)) == ("negated", "b")
    assert shape(Interpretation(VOC, ())) == ("interpretation", VOC, frozenset())
    assert shape(Iff(A, B)) is None
