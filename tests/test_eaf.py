"""Enthymeme-framework parsing, classification, constrained revision, acceptability."""

from functools import lru_cache

import pytest

import argent.eaf as eaf_module
import argent.encoding as encoding
from argent import (
    ATT_ONLY,
    AttAccVocabulary,
    ParseError,
    StructuredArgument,
    TRUE,
    UnknownArgumentError,
    acceptable_afs,
    classify_attacks,
    complete_enthymeme,
    constraint_certain,
    constraint_deductive,
    evaluate,
    fixed_part,
    involved_parts,
    is_consistent,
    parse_eaf,
    parse_formula,
    parse_formula_lines,
    revise_eaf,
)
from conftest import DATA, oracle_minimal_conflicts, oracle_revision_solutions

p = parse_formula


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_f3(f3):
    assert f3.ids == ("e1", "d1", "d2", "e2")
    assert f3.deductive_ids == ("d1", "d2")
    assert f3.enthymeme_ids == ("e1", "e2")
    assert f3.declared_attacks == {("d1", "e1"), ("d2", "d1"), ("e2", "d2")}
    e2 = f3.argument_map["e2"]
    assert e2.fixed_claim == TRUE and e2.full_claim == p("!epsilon")


def test_parse_f6(f6):
    assert f6.declared_attacks == {("d3", "e3"), ("e3", "d3")}


def test_parse_one_line_block():
    eaf = parse_eaf("deductive d { support: a ; a -> b  claim: b }")
    d = eaf.argument_map["d"]
    assert d.support == (p("a"), p("a -> b"))
    assert d.full_claim == p("b")


def test_parse_rejects_bad_completion():
    text = """
    enthymeme e { support: a  claim: true  added_support: !a }
    """
    with pytest.raises(ParseError) as err:
        parse_eaf(text)
    assert "e" in str(err.value)


def test_parse_rejects_unknown_attack_endpoint():
    with pytest.raises(Exception):
        parse_eaf("deductive d { support: a  claim: a }\natt(d,ghost).")


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_eaf("deductive d { support: a claim: a } junk")


# A formula error inside a block is reported at its line and column in the
# file, comments, blanks and earlier fields of the block included.
EAF_FORMULA_ERRORS = [
    ("deductive d {\n  support: a\n  claim: b &\n}\n",
     "line 3, col 13: argument d: unexpected end of input"),
    ("deductive d { support: a ; $b  claim: b }",
     "line 1, col 28: argument d: unexpected character '$'"),
    ("deductive d { support: a ;\n   (b\n  claim: b }",
     "line 2, col 6: argument d: expected ')'"),
    ("deductive d { support: a # (\n ; b c  claim: b }",
     "line 2, col 6: argument d: unexpected 'c'"),
    ("deductive c { support: c claim: c }\r\nenthymeme d {\r\n  support: a\r\n"
     "  claim: true\r\n  full_claim: (a |\r\n   -> b) }",
     "line 6, col 4: argument d: unexpected '->'"),
    ("enthymeme d { support: a  claim:  }",
     "line 1, col 35: argument d: unexpected end of input"),
]


@pytest.mark.parametrize("text, want", EAF_FORMULA_ERRORS, ids=range(len(EAF_FORMULA_ERRORS)))
def test_parse_reports_formula_errors_at_file_positions(text, want):
    for _ in range(2):  # errors are never memoized
        with pytest.raises(ParseError) as info:
            parse_eaf(text)
        assert str(info.value) == want


def test_parse_error_positions_do_not_depend_on_earlier_parses():
    # the same formula text, parsed well and badly elsewhere first
    assert parse_formula_lines("b & c") == (p("b & c"),)
    with pytest.raises(ParseError):
        parse_formula_lines("b &")
    for text, where in (
        ("deductive d { support: b & c  claim: b & }", "line 1, col 41"),
        ("\n\ndeductive d { support: b & c\n    claim: b & }", "line 4, col 15"),
    ):
        with pytest.raises(ParseError) as info:
            parse_eaf(text)
        assert str(info.value) == f"{where}: argument d: unexpected end of input"


# Every block error is raised at its character: a field label, the block's
# closing brace, the argument identifier or the start of the statement.
EAF_BLOCK_ERRORS = [
    ("deductive d {\n  x support: a claim: a }", "line 2, col 3: argument d: malformed field list"),
    ("deductive d {\n   }", "line 2, col 4: argument d: malformed field list"),
    ("deductive d { support: a claim: a\n  support: b }",
     "line 2, col 3: argument d: duplicate field 'support'"),
    ("deductive d { support: a\n  full_claim: a claim: a }",
     "line 2, col 3: argument d: deductive arguments take no 'full_claim'"),
    ("deductive d { support: a # claim: a\n  }", "line 2, col 3: argument d: missing field 'claim'"),
    ("enthymeme e { support: a  claim: true\n added_support: !a }",
     "line 1, col 11: e: completed support is inconsistent"),
    ("\n  enthymeme e { support: a", "line 2, col 3: unterminated argument block"),
    # inside a statement the blanks are those between statements: no form feed
    ("deductive\x0ca1 { support: a claim: a }",
     "line 1, col 1: expected an argument block or att(...,...)."),
    ("deductive d { support: a claim: a } att(d,\x0cd).",
     "line 1, col 37: expected an argument block or att(...,...)."),
    ("deductive d { support\x0c: a claim: a }", "line 1, col 15: argument d: malformed field list"),
    ("deductive d { support: a claim: a }\n  enthymeme d { support: b claim: b }",
     "line 2, col 13: duplicate argument identifier 'd'"),
]


@pytest.mark.parametrize("text, want", EAF_BLOCK_ERRORS, ids=range(len(EAF_BLOCK_ERRORS)))
def test_parse_reports_block_errors_at_their_characters(text, want):
    with pytest.raises(ParseError) as info:
        parse_eaf(text)
    assert str(info.value) == want


def test_parse_reports_undeclared_arguments_at_their_names():
    # after every statement is read, in the order of the attacks
    text = "att(d,\n  zz). deductive d { support: a claim: a } att(y,d)."
    with pytest.raises(UnknownArgumentError) as info:
        parse_eaf(text)
    assert str(info.value) == "line 2, col 3: undeclared argument 'zz'"


@pytest.mark.parametrize("sep", ("\r", "\x0c", "\u2028"), ids=repr)
def test_parse_comments_run_to_newlines(sep):
    text = f"deductive d {{ support: a  claim: a }}  # note{sep}att(d,d).\nattack(d,e)."
    with pytest.raises(ParseError) as info:
        parse_eaf(text)
    assert str(info.value) == "line 2, col 1: expected an argument block or att(...,...)."
    crlf = "deductive d {\r\n  support: a # note\r\n  claim: a\r\n}\r\natt(d,d).\r\n"
    assert parse_eaf(crlf) == parse_eaf("deductive d { support: a claim: a } att(d,d).")


# ---------------------------------------------------------------------------
# Fixed and involved parts
# ---------------------------------------------------------------------------

def test_fixed_parts(f3):
    amap = f3.argument_map
    assert fixed_part(amap["e1"]) == (p("alpha"), p("gamma"))
    assert fixed_part(amap["e2"]) == (p("eta"), TRUE)
    assert fixed_part(amap["d1"]) == (
        p("delta"), p("delta -> (beta & !gamma)"), p("beta & !gamma"),
    )


def test_involved_parts_deductive_pair(f3):
    amap = f3.argument_map
    inv_d1 = involved_parts(amap["d1"], amap["d2"])
    assert inv_d1 == [(p("delta"),)]
    inv_d2 = involved_parts(amap["d2"], amap["d1"])
    # the transmitted claim conflict names {!delta}; the support pair entailing
    # it is an independent minimal conflict, certified by the subset oracle
    assert (p("!delta"),) in inv_d2
    assert {frozenset(s) for s in inv_d2} == oracle_minimal_conflicts(
        amap["d2"].content, amap["d1"].content
    )


def test_involved_parts_enthymeme(f3):
    amap = f3.argument_map
    inv = involved_parts(amap["e1"], amap["d1"])
    assert {frozenset(s) for s in inv} == {
        frozenset({p("beta -> gamma")}),
        frozenset({p("gamma")}),
    }


def test_involved_parts_disjoint():
    a = StructuredArgument.deductive("a", (p("a"),), p("a"))
    b = StructuredArgument.deductive("b", (p("b"),), p("b"))
    assert involved_parts(a, b) == []


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classification_f3(f3):
    cls = classify_attacks(f3)
    assert cls.certain == {("d2", "d1"), ("d1", "e1")}
    assert cls.questionable == {("e2", "d2")}
    assert cls.deductive_core == {("d2", "d1")}
    assert any("(e1,d1)" in w for w in cls.warnings)  # undeclared defeater
    assert any("(d1,e1)" in note for note in cls.notes)  # witness-dependent verdict


def test_classification_f6(f6):
    cls = classify_attacks(f6)
    assert cls.certain == {("d3", "e3"), ("e3", "d3")}
    assert not cls.questionable
    assert cls.deductive_core == frozenset()


def test_classification_media_all_questionable():
    for name in ("media_a1.eaf", "media_a2.eaf", "media_a3.eaf"):
        eaf = parse_eaf((DATA / name).read_text())
        cls = classify_attacks(eaf)
        assert cls.certain == frozenset()
        assert cls.questionable == eaf.declared_attacks
        assert not cls.warnings


def test_classification_no_conflict_warning():
    eaf = parse_eaf(
        "deductive x { support: a  claim: a }\n"
        "deductive y { support: b  claim: b }\n"
        "att(x,y)."
    )
    cls = classify_attacks(eaf)
    assert ("x", "y") in cls.questionable
    assert any("no logical conflict" in w for w in cls.warnings)


def test_certain_attack_survives_every_completion(f6):
    # any recompletion of e3 keeps its fixed part, which already conflicts
    amap = f6.argument_map
    e3, d3 = amap["e3"], amap["d3"]
    bare = StructuredArgument.enthymeme("e3", e3.fixed_support, e3.fixed_claim)
    base = [p("kappa -> lambda"), p("mu -> kappa")]
    for completion in complete_enthymeme(bare, base, [p("lambda")]):
        assert not is_consistent(list(completion.content) + list(d3.content))



def test_negative_max_added_is_refused(f3):
    e1 = f3.argument_map["e1"]
    bare = StructuredArgument.enthymeme("e1", e1.fixed_support, e1.fixed_claim)
    with pytest.raises(ValueError, match="max_added must be non-negative, got -1"):
        complete_enthymeme(bare, [p("gamma")], [], max_added=-1)
    outcome = revise_eaf(f3, "acc(e1)")
    with pytest.raises(ValueError, match="max_added must be non-negative, got -2"):
        acceptable_afs(f3, outcome, [p("gamma")], [], max_added=-2)


# ---------------------------------------------------------------------------
# Integrity constraints
# ---------------------------------------------------------------------------

def test_constraint_deductive_f3(f3):
    enc = AttAccVocabulary(f3.ids)
    constraint = constraint_deductive(f3)
    satisfying = {
        "att_d2_d1",
    }
    assert evaluate(constraint, satisfying)
    assert not evaluate(constraint, set())
    assert not evaluate(constraint, {"att_d2_d1", "att_d1_d2"})
    assert not evaluate(constraint, {"att_d2_d1", "att_d1_d1"})
    # attacks touching enthymemes are unconstrained
    assert evaluate(constraint, {"att_d2_d1", "att_e2_d1", "att_d1_e1"})


def test_constraint_deductive_all_enthymemes():
    eaf = parse_eaf((DATA / "media_a1.eaf").read_text())
    assert constraint_deductive(eaf) == TRUE


def test_constraint_deductive_all_deductive():
    eaf = parse_eaf(
        "deductive x { support: a  claim: a }\n"
        "deductive y { support: !a  claim: !a }\n"
        "att(x,y).\natt(y,x)."
    )
    constraint = constraint_deductive(eaf)
    assert evaluate(constraint, {"att_x_y", "att_y_x"})
    assert not evaluate(constraint, {"att_x_y"})
    assert not evaluate(constraint, {"att_x_y", "att_y_x", "att_x_x"})


def test_constraint_certain_f6(f6):
    constraint = constraint_certain(f6)
    assert evaluate(constraint, {"att_d3_e3", "att_e3_d3"})
    assert not evaluate(constraint, {"att_d3_e3"})            # certain attack removed
    assert not evaluate(constraint, {"att_d3_e3", "att_e3_d3", "att_d3_d3"})


def test_constraint_certain_f3(f3):
    constraint = constraint_certain(f3)
    base = {"att_d2_d1", "att_d1_e1"}
    assert evaluate(constraint, base)
    assert not evaluate(constraint, base - {"att_d1_e1"})     # certain under this reading
    assert evaluate(constraint, base | {"att_e2_d2"})          # questionable stays free


def test_constraints_f3_pinned(f3):
    # positives in framework order, then the negated deductive pairs
    assert constraint_deductive(f3) == parse_formula(
        "att_d2_d1 & !att_d1_d1 & !att_d1_d2 & !att_d2_d2"
    )
    assert constraint_certain(f3) == parse_formula(
        "att_d1_e1 & att_d2_d1 & !att_d1_d1 & !att_d1_d2 & !att_d2_d2"
    )


# ---------------------------------------------------------------------------
# Revision and acceptability
# ---------------------------------------------------------------------------

F4_ATTACKS = frozenset({("d2", "d1"), ("e2", "d2")})
F5_ATTACKS = frozenset({("d2", "d1"), ("d1", "e1")})
THIRD_ATTACKS = frozenset({("d1", "e1"), ("d2", "d1"), ("e2", "d2"), ("e2", "d1")})


def test_revise_f3_for_e1(f3):
    out = revise_eaf(f3, "acc(e1)", "deductive", ATT_ONLY)
    assert out.attack_sets() == {F4_ATTACKS, F5_ATTACKS, THIRD_ATTACKS}
    for entry in out:
        assert len(entry.att_added) + len(entry.att_removed) == 1
        assert "e1" in entry.accepted
        # deductive pairs untouched
        assert (("d2", "d1") in entry.af.attacks) and (("d1", "d2") not in entry.af.attacks)


def test_revise_f3_never_alters_deductive_pairs(f3):
    out = revise_eaf(f3, "!acc(d1)", "deductive", ATT_ONLY)
    for entry in out:
        same = entry.af.attacks & {("d1", "d2"), ("d2", "d1"), ("d1", "d1"), ("d2", "d2")}
        assert same == {("d2", "d1")}


def test_revise_with_certain_constraint_keeps_certain_attacks(f3):
    cls = classify_attacks(f3)
    out = revise_eaf(f3, "acc(e1)", "certain", ATT_ONLY)
    for entry in out:
        for pair in cls.certain:
            assert pair in entry.af.attacks
    # (d1,e1) is certain under this reading, so removing it is off the table
    assert out.attack_sets() == {F5_ATTACKS, THIRD_ATTACKS}


def test_media_agent_revisions():
    a1 = parse_eaf((DATA / "media_a1.eaf").read_text())
    out1 = revise_eaf(a1, "acc(c)", "none", ATT_ONLY)
    assert out1.attack_sets() == {frozenset({("a", "b")})}

    a3 = parse_eaf((DATA / "media_a3.eaf").read_text())
    out3 = revise_eaf(a3, "acc(c)", "none", ATT_ONLY)
    assert out3.attack_sets() == {
        frozenset(),
        frozenset({("a", "b"), ("b", "c")}),
    }

    a2 = parse_eaf((DATA / "media_a2.eaf").read_text())
    out2 = revise_eaf(a2, "!acc(c)", "none", ATT_ONLY)
    assert out2.attack_sets() == {
        frozenset({("b", "c")}),
        frozenset({("a", "b"), ("b", "c"), ("a", "c")}),
        frozenset({("a", "b"), ("b", "c"), ("b", "a")}),
    }


def test_acceptability_fig5_setup(f3):
    out = revise_eaf(f3, "acc(e1)", "deductive", ATT_ONLY)
    base = parse_formula_lines((DATA / "beliefs_completion.txt").read_text())
    pool = parse_formula_lines((DATA / "claims_completion.txt").read_text())
    results = {r.entry.af.attacks: r for r in acceptable_afs(f3, out, base, pool)}

    f5 = results[F5_ATTACKS]
    assert f5.acceptable
    witness = f5.witness["e2"]
    assert witness.support == (p("eta"), p("eta -> iota"))
    assert witness.full_claim == p("iota")

    f4 = results[F4_ATTACKS]
    assert not f4.acceptable
    assert "gamma" in f4.reason and "(d1,e1)" in f4.reason

    third = results[THIRD_ATTACKS]
    assert not third.acceptable


def test_acceptability_unchanged_entry_trivially_acceptable(f2):
    # reuse the plain-AF outcome machinery through an enthymeme framework whose
    # goal is already satisfied
    eaf = parse_eaf(
        "enthymeme a { support: mnt  claim: true }\n"
        "enthymeme b { support: wkf  claim: true }\n"
    )
    out = revise_eaf(eaf, "!att(a,b)", "none", ATT_ONLY)
    results = acceptable_afs(eaf, out, [], [])
    assert len(results) == 1
    assert results[0].acceptable and not results[0].witness


def test_acceptability_media_a1():
    a1 = parse_eaf((DATA / "media_a1.eaf").read_text())
    out = revise_eaf(a1, "acc(c)", "none", ATT_ONLY)
    base = [p("mnt -> !wkf"), p("mnt -> !wkr")]
    pool = [p("!wkf"), p("!wkf & !wkr")]
    results = acceptable_afs(a1, out, base, pool)
    assert len(results) == 1
    verdict = results[0]
    assert verdict.acceptable
    # the removed (a,c) attack is justified by re-reading a as denying only wkf
    witness = verdict.witness["a"]
    assert witness.full_claim == p("!wkf")


def test_acceptability_witness_revalidates_changed_pairs(f3):
    # substituting the witness back into the framework reproduces the revised
    # attack pattern on every changed pair via the joint-consistency test
    out = revise_eaf(f3, "acc(e1)", "deductive", ATT_ONLY)
    base = parse_formula_lines((DATA / "beliefs_completion.txt").read_text())
    pool = parse_formula_lines((DATA / "claims_completion.txt").read_text())
    amap = f3.argument_map
    enth = set(f3.enthymeme_ids)
    for result in acceptable_afs(f3, out, base, pool):
        assert result.entry in out.entries
        if not result.acceptable:
            continue
        substituted = dict(amap)
        substituted.update(result.witness)
        changed = {
            pair
            for pair in f3.declared_attacks ^ result.entry.af.attacks
            if pair[0] in enth or pair[1] in enth
        }
        for x, y in changed:
            joint = list(substituted[x].content) + list(substituted[y].content)
            if (x, y) in result.entry.af.attacks:
                assert not is_consistent(joint)
            else:
                assert is_consistent(joint)


def test_revision_oracle_certifies_f3(f3):
    af = f3.to_af()

    def admits(attacks, accepted, vacuous):
        frozen = {("d1", "d2"), ("d1", "d1"), ("d2", "d2")}
        if attacks & frozen or ("d2", "d1") not in attacks:
            return False
        return "e1" in accepted

    solutions = oracle_revision_solutions(af, admits, max_radius=1)
    best = min(r for r, _, _ in solutions)
    assert best == 1
    expected = {atts for r, atts, _ in solutions if r == best}
    out = revise_eaf(f3, "acc(e1)", "deductive", ATT_ONLY)
    assert out.attack_sets() == expected


def test_acceptability_reason_without_proper_recompletion():
    # Adding (e,d) needs e's content to conflict with d's; e has nothing to
    # recomplete from an empty belief base, so its current reading is the only one.
    eaf = parse_eaf(
        "enthymeme e { support: a  claim: true }\n"
        "deductive d { support: b  claim: b }\n"
    )
    out = revise_eaf(eaf, "att(e,d)", "none", ATT_ONLY)
    assert [sorted(entry.af.attacks) for entry in out] == [[("e", "d")]]
    (result,) = acceptable_afs(eaf, out, [], [])
    assert not result.acceptable and not result.witness
    assert result.reason == (
        "attack (e,d): cannot be justified; no proper recompletion of e is "
        "available from the belief base"
    )


def test_acceptability_builds_each_enthymemes_candidates_once(f3, monkeypatch):
    # Several revision entries change attacks of the same enthymemes; their
    # recompletion candidates do not depend on the entry.
    out = revise_eaf(f3, "acc(e1)", "deductive", ATT_ONLY)
    base = parse_formula_lines((DATA / "beliefs_completion.txt").read_text())
    pool = parse_formula_lines((DATA / "claims_completion.txt").read_text())
    expected = acceptable_afs(f3, out, base, pool)
    built = []
    original = eaf_module._witness_candidates

    def counting(arg, *rest):
        built.append(arg.id)
        return original(arg, *rest)

    monkeypatch.setattr(eaf_module, "_witness_candidates", counting)
    assert acceptable_afs(f3, out, base, pool) == expected
    assert sorted(built) == ["e1", "e2"]


def test_revision_builds_one_vocabulary_per_framework(f3, monkeypatch):
    # revise_eaf, its constraints and revise_af read one cached layout.
    layout = encoding._layout.__wrapped__
    built = []

    def counting(arguments):
        built.append(arguments)
        return layout(arguments)

    monkeypatch.setattr(encoding, "_layout", lru_cache(maxsize=32)(counting))
    for constraint_mode in ("deductive", "certain", "none"):
        revise_eaf(f3, "acc(e1)", constraint_mode, ATT_ONLY)
    assert built == [f3.ids]


def test_witness_candidates_are_not_proved_twice(f3, monkeypatch):
    # The completion walk proves each recompletion consistent and entailing;
    # building the candidates runs no second proof, and changes no result.
    from argent.structured import StructuredArgument, completion_walk

    out = revise_eaf(f3, "acc(e1)", "deductive", ATT_ONLY)
    base = parse_formula_lines((DATA / "beliefs_completion.txt").read_text())
    pool = parse_formula_lines((DATA / "claims_completion.txt").read_text())
    expected = acceptable_afs(f3, out, base, pool)
    assert any(result.witness for result in expected)
    proved = {}
    for aid in f3.enthymeme_ids:
        arg = f3.argument_map[aid]
        proved[aid] = [arg] + [
            StructuredArgument.enthymeme(aid, arg.fixed_support, arg.fixed_claim, added, claim)
            for added, claim, tight in completion_walk(arg, base, pool, 3)
            if tight and (added or claim != arg.fixed_claim)
            and (added, claim) != (arg.added_support, arg.full_claim)
        ]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a proved completion was proved again")

    monkeypatch.setattr(StructuredArgument, "__init__", refuse)
    for aid in f3.enthymeme_ids:
        assert eaf_module._witness_candidates(f3.argument_map[aid], base, pool, 3) == proved[aid]
    assert acceptable_afs(f3, out, base, pool) == expected
