"""Framework parsing, stable semantics, skeptical acceptance."""

import random

import pytest

from argent import (
    ArgumentationFramework,
    ParseError,
    ResourceLimitError,
    TRUE,
    UnknownArgumentError,
    format_af,
    is_stable,
    parse_af,
    revise_af,
    skeptical_accepted,
    stable_extensions,
)
from conftest import oracle_acceptance, oracle_stable_sets


def test_parse_single_line():
    af = parse_af("arg(x). arg(y). att(x,y).")
    assert af.arguments == ("x", "y")
    assert af.attacks == {("x", "y")}


def test_parse_f1(f1):
    assert f1.arguments == ("x", "y", "z", "t", "u")
    assert f1.attacks == {
        ("x", "y"), ("x", "t"), ("y", "x"), ("y", "z"), ("z", "u"), ("t", "u"),
    }


def test_parse_undeclared_attack():
    with pytest.raises(UnknownArgumentError) as info:
        parse_af("att(x,y).")
    assert str(info.value) == "line 1, col 5: undeclared argument 'x'"
    with pytest.raises(UnknownArgumentError) as info:
        parse_af("arg(a).\n att( a , z ). att(b,a).")
    assert str(info.value) == "line 2, col 11: undeclared argument 'z'"


def test_parse_garbage():
    with pytest.raises(ParseError):
        parse_af("arg(x). nonsense")
    with pytest.raises(ParseError):
        parse_af("arg(x) arg(y).")


def test_parse_splits_lines_at_newlines_only():
    assert parse_af("arg(a).\r\narg(b). # note\r\natt(a,b).\r\n") == parse_af(
        "arg(a). arg(b). att(a,b)."
    )
    # a comment runs to the next `\n`, as in `scan`
    for sep in ("\r", "\x0c", "\x85", "\u2028"):
        assert parse_af(f"arg(a). # note{sep}arg(b).\narg(c).").arguments == ("a", "c")
    with pytest.raises(ParseError) as info:
        parse_af("arg(a).\x0c\nnonsense")
    assert str(info.value) == "line 1, col 8: expected arg(...). or att(...,...)."


# Each statement error is raised at the first character of its statement.
AF_STATEMENT_ERRORS = [
    ("arg(a).\n  arg(b). arg(a).", "line 2, col 11: duplicate arg(...) declaration"),
    # inside a statement the blanks are those between statements: no form feed
    ("arg(a). arg(b). att(a,\x0cb).", "line 1, col 17: expected arg(...). or att(...,...)."),
    ("arg(a).\x0carg(b).", "line 1, col 8: expected arg(...). or att(...,...)."),
]


@pytest.mark.parametrize("text, want", AF_STATEMENT_ERRORS, ids=range(len(AF_STATEMENT_ERRORS)))
def test_parse_errors_point_at_their_statement(text, want):
    with pytest.raises(ParseError) as info:
        parse_af(text)
    assert str(info.value) == want


def test_format_roundtrip(f1):
    assert parse_af(format_af(f1)) == f1


def test_is_stable_f1(f1):
    assert is_stable(f1, {"x", "z"})
    assert is_stable(f1, {"y", "t"})
    assert not is_stable(f1, {"x", "y"})
    assert not is_stable(f1, set())


def test_is_stable_empty_framework():
    empty = ArgumentationFramework((), frozenset())
    assert is_stable(empty, set())


def test_is_stable_unknown_argument(f1):
    with pytest.raises(UnknownArgumentError):
        is_stable(f1, {"nope"})


def test_stable_extensions_f1(f1):
    assert stable_extensions(f1).as_sets() == {
        frozenset({"x", "z"}),
        frozenset({"y", "t"}),
    }


def test_stable_extensions_f2(f2):
    assert stable_extensions(f2).as_sets() == {
        frozenset({"x", "u"}),
        frozenset({"y", "u"}),
    }


def test_stable_extensions_self_attack():
    af = ArgumentationFramework(("x",), frozenset({("x", "x")}))
    assert len(stable_extensions(af)) == 0
    report = skeptical_accepted(af)
    assert report.accepted == {"x"}
    assert report.vacuous


def test_stable_extensions_three_cycle():
    af = ArgumentationFramework(
        ("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")})
    )
    assert len(stable_extensions(af)) == 0


def test_skeptical_f1_and_f2(f1, f2):
    assert skeptical_accepted(f1).accepted == frozenset()
    assert not skeptical_accepted(f1).vacuous
    assert skeptical_accepted(f2).accepted == {"u"}


def test_unattacked_argument_in_every_extension():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randrange(2, 7)
        args = tuple(f"a{i}" for i in range(n))
        attacks = frozenset(
            (args[rng.randrange(1, n)], args[rng.randrange(n)])
            for _ in range(rng.randrange(2 * n))
        )
        af = ArgumentationFramework(args, attacks)
        unattacked = [a for a in args if not any(t == a for _, t in attacks)]
        for ext in stable_extensions(af):
            for a in unattacked:
                assert a in ext


def test_extensions_complete_against_oracle():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randrange(1, 9)
        args = tuple(f"a{i}" for i in range(n))
        attacks = frozenset(
            (args[rng.randrange(n)], args[rng.randrange(n)])
            for _ in range(rng.randrange(2 * n + 1))
        )
        af = ArgumentationFramework(args, attacks)
        found = stable_extensions(af).as_sets()
        assert found == set(oracle_stable_sets(args, attacks))
        report = skeptical_accepted(af)
        assert (report.accepted, report.vacuous) == oracle_acceptance(args, attacks)
        for ext in found:
            assert is_stable(af, ext)


def test_skeptical_equals_intersection(f1):
    exts = stable_extensions(f1).as_sets()
    expected = frozenset.intersection(*exts)
    assert skeptical_accepted(f1).accepted == expected


def test_resource_guard():
    args = tuple(f"a{i}" for i in range(23))
    af = ArgumentationFramework(args, frozenset())
    message = "23 arguments exceed the enumeration limit of 22"
    for call in (stable_extensions, skeptical_accepted, lambda af: revise_af(af, TRUE)):
        with pytest.raises(ResourceLimitError) as refused:
            call(af)
        assert str(refused.value) == message
