"""Parser fuzzing: token soup fed to every text parser.

The command-line tool maps `ArgentError` subclasses and `ValueError` to exit
code 2, so no other exception may escape a parser, whatever the text.  Each
text is parsed twice: the file-format parsers read through memos of parsed
texts, which must neither keep an error nor change a result.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from argent import (
    ArgentError,
    AttAccVocabulary,
    CertaintyMap,
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
