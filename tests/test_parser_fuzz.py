"""Parser fuzzing: token soup fed to every text parser.

The command-line tool maps `ArgentError` subclasses and `ValueError` to exit
code 2, so no other exception may escape a parser, whatever the text.  Each
text is parsed twice: the file-format parsers read through memos of parsed
texts, which must neither keep an error nor change a result.  Every
`ParseError` or `UnknownArgumentError` of a file parser must point at its
character in the text.
"""

import ast
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from argent import (
    ArgentError,
    AttAccVocabulary,
    CertaintyMap,
    ParseError,
    UnknownArgumentError,
    parse_af,
    parse_eaf,
    parse_formula,
    parse_formula_lines,
    parse_goal,
)

# Pieces of all six grammars, whole statements among them so that parsing
# often gets past the first token, and characters none of them accepts.
TOKENS = (
    "a", "b", "c", "x_1", "true", "false", "(", ")", "!", "&", "|", "->", "<->",
    "-", "<", ">", ",", ".", ";", ":", "{", "}", "#", "\n", " ", "\t", "\r",
    "arg", "att", "acc", "arg(a).", "arg(b).", "att(a,b).", "att(b,c).", "acc(a)",
    "deductive a {", "enthymeme b {", "support:", "claim:", "added_support:",
    "full_claim:", "1", "1/2", "0.5 :", "1/0", "A", "_", "$", "é", "\x00", "\x0c",
)

PARSERS = (
    parse_formula,
    parse_formula_lines,
    CertaintyMap.parse,
    parse_af,
    parse_eaf,
    lambda text: parse_goal(text, AttAccVocabulary(("a", "b"))),
)


def outcome(parse, text):
    try:
        return parse(text)
    except (ArgentError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.sampled_from(TOKENS), max_size=40).map("".join))
@example("deductive a { support: a ; a -> b  claim: b } att(a,a). att(a,z).")
@example("enthymeme a { support: a  claim: b  full_claim: b } deductive a { support: claim: }")
@example("arg(a). arg(a).")
@example("(" * 150 + "a")
@example("1/2 : a -> b\n0.5 : (a\n")
def test_parsers_raise_only_documented_errors(text):
    for parse in PARSERS:
        assert outcome(parse, text) == outcome(parse, text)


FILE_PARSERS = (parse_formula_lines, CertaintyMap.parse, parse_af, parse_eaf)


def check_position(text, exc):
    """The error's line and column lie in `text` (or just past a line's end),
    and an unexpected character, a bad rational or a named argument is found
    there."""
    lines = text.split("\n")
    assert exc.line is not None and 1 <= exc.line <= len(lines), exc
    line = lines[exc.line - 1]
    assert 1 <= exc.col <= len(line) + 1, exc
    rest = line[exc.col - 1:]
    if m := re.search(r"unexpected character (.+)$", exc.message):
        assert rest[:1] == ast.literal_eval(m[1]), exc
    if m := re.search(r"bad rational (.+)$", exc.message):
        assert rest.startswith(ast.literal_eval(m[1])), exc
    if m := re.fullmatch(r"(undeclared argument|duplicate argument identifier) (.+)", exc.message):
        assert re.match(rf"{re.escape(ast.literal_eval(m[2]))}\b", rest), exc


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.sampled_from(TOKENS), max_size=40).map("".join))
@example("arg(a).\n  arg(b). arg(a).")
@example("deductive d { support: a claim: a\n  support: b }")
@example("enthymeme e { support: a  claim: true\n added_support: !a }")
@example("1 : a\n  1/0 : b\n\t c")
@example("deductive d { support: a ;\n   $b  claim: b }")
@example("arg(a).\n  att(a, z).")
@example("deductive d { support: a claim: a }\n  deductive d { support: b claim: b }")
@example("deductive d { support: a claim: a }\n  att(d,\tzz).")
def test_every_parse_error_points_at_its_character(text):
    for parse in FILE_PARSERS:
        try:
            parse(text)
        except (ParseError, UnknownArgumentError) as exc:
            check_position(text, exc)
        except (ArgentError, ValueError):
            pass
