"""Parser fuzzing: token soup fed to every text parser.

The command-line tool maps `ArgentError` subclasses and `ValueError` to exit
code 2, so no other exception may escape a parser, whatever the text.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from argent import ArgentError, AttAccVocabulary, parse_af, parse_eaf, parse_formula, parse_goal

# Pieces of all four grammars, whole statements among them so that parsing
# often gets past the first token, and characters none of them accepts.
TOKENS = (
    "a", "b", "c", "x_1", "true", "false", "(", ")", "!", "&", "|", "->", "<->",
    "-", "<", ">", ",", ".", ";", ":", "{", "}", "#", "\n", " ", "\t", "\r",
    "arg", "att", "acc", "arg(a).", "arg(b).", "att(a,b).", "att(b,c).", "acc(a)",
    "deductive a {", "enthymeme b {", "support:", "claim:", "added_support:",
    "full_claim:", "A", "1", "_", "$", "é", "\x00",
)

PARSERS = (
    parse_formula,
    parse_af,
    parse_eaf,
    lambda text: parse_goal(text, AttAccVocabulary(("a", "b"))),
)


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.sampled_from(TOKENS), max_size=40).map("".join))
@example("deductive a { support: a ; a -> b  claim: b } att(a,a). att(a,z).")
@example("enthymeme a { support: a  claim: b  full_claim: b } deductive a { support: claim: }")
@example("arg(a). arg(a).")
@example("(" * 150 + "a")
def test_parsers_raise_only_documented_errors(text):
    for parse in PARSERS:
        try:
            parse(text)
        except (ArgentError, ValueError):
            pass
