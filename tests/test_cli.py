"""Command-line behavior: output text, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import argent.eaf as eaf_module
import argent.prop as prop
from argent.cli import main
from argent import Vocabulary, dalal_revise, models, parse_af, parse_formula, variables
from argent.prop import MAX_NESTING
from conftest import DATA, conflict_eaf

SRC = Path(__file__).resolve().parent.parent / "src"

PHI = "((a & b) | (!a & c) | !(b | (a & c))) & !d"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_models_simple(capsys):
    code, out = run(capsys, "models", "a & !b")
    assert code == 0
    assert out == "{a}\n"


def test_models_phi(capsys):
    code, out = run(capsys, "models", PHI, "--vocab", "a,b,c,d")
    assert code == 0
    assert out.splitlines() == ["{}", "{c}", "{b,c}", "{a}", "{a,b}", "{a,b,c}"]


def test_models_false(capsys):
    code, out = run(capsys, "models", "false")
    assert code == 0
    assert out == ""


def test_models_parse_error(capsys):
    assert main(["models", "a &"]) == 2


def test_models_structured(capsys):
    code, out = run(capsys, "models", "a & !b", "--emit-structured")
    assert code == 0
    assert json.loads(out) == {"models": [["a"]]}


def test_revise_formula(capsys):
    code, out = run(
        capsys, "revise-formula", "--phi", PHI, "--alpha", "a & !b & c",
        "--vocab", "a,b,c,d",
    )
    assert code == 0
    assert out == "{a,c}\n"


def test_revise_formula_consistent_pair(capsys):
    code, out = run(capsys, "revise-formula", "--phi", "a | b", "--alpha", "a", "--vocab", "a,b")
    assert code == 0
    assert out.splitlines() == ["{a}", "{a,b}"]


def test_revise_formula_inconsistent_alpha(capsys):
    code, out = run(capsys, "revise-formula", "--phi", "a", "--alpha", "a & !a")
    assert code == 3
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["models", "c & (a | d) & !b", "--vocab", "c,d,b,a"],
        ["models", "x1 & !x0 & (x3 | x2 | x10)", "--vocab", "x3,x10,x2,x1,x0,y"],
        ["models", "a | b | c | d | e"],
        ["models", "true", "--vocab", "b,a"],
        ["models", "true", "--vocab", ""],
        ["revise-formula", "--phi", "b & c & (a | d)", "--alpha", "c & !b & (d -> !a)",
         "--vocab", "d,b,a,c"],
        ["revise-formula", "--phi", PHI, "--alpha", "a & !b & c", "--vocab", "a,b,c,d"],
    ],
    ids=["models-units", "models-wide-units", "models-sorted", "models-true",
         "models-empty-vocabulary", "revise-formula-units", "revise-formula-readme"],
)
def test_models_print_from_table_bits(capsys, argv):
    # The printed models are those of the library calls, in both output modes.
    if argv[0] == "models":
        f = parse_formula(argv[1])
        names = argv[3].split(",") if len(argv) > 2 and argv[3] else sorted(variables(f))
        found = models(f, Vocabulary(tuple(names)))
    else:
        found = dalal_revise(parse_formula(argv[2]), parse_formula(argv[4]),
                             Vocabulary(tuple(argv[6].split(","))))
    assert run(capsys, *argv) == (0, "".join(f"{m}\n" for m in found))
    structured = json.dumps({"models": [sorted(m.true_set) for m in found]}) + "\n"
    assert run(capsys, *argv, "--emit-structured") == (0, structured)


def test_stable_f1(capsys):
    code, out = run(capsys, "stable", str(DATA / "f1.apx"))
    assert code == 0
    assert out.splitlines() == [
        "extensions: 2",
        "{x,z}",
        "{y,t}",
        "skeptical: {}",
        "vacuous: false",
    ]


def test_stable_f2(capsys):
    code, out = run(capsys, "stable", str(DATA / "f2.apx"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "extensions: 2"
    assert set(lines[1:3]) == {"{x,u}", "{y,u}"}
    assert lines[3] == "skeptical: {u}"


def test_stable_self_attack(tmp_path, capsys):
    path = tmp_path / "self.apx"
    path.write_text("arg(x). att(x,x).")
    code, out = run(capsys, "stable", str(path))
    assert code == 0
    assert out.splitlines() == [
        "extensions: 0",
        "skeptical: {x}",
        "vacuous: true",
    ]


def test_revise_af_contains_f2(capsys):
    code, out = run(
        capsys, "revise-af", "--af", str(DATA / "f1.apx"),
        "--goal", "acc(u)", "--constraint", "att(t,u) & att(z,u)",
        "--mode", "dalal",
    )
    assert code == 0
    assert out.startswith("entries: 1\n")
    assert "att_added: {(x,z),(y,t)}" in out
    assert "weight: 3" in out


def test_revise_af_unsat(capsys):
    code, out = run(
        capsys, "revise-af", "--af", str(DATA / "f1.apx"),
        "--goal", "acc(u) & !acc(u)",
    )
    assert code == 3
    assert out == "entries: 0\n"


def test_revise_af_structured_deterministic(capsys):
    args = (
        "revise-af", "--af", str(DATA / "f1.apx"),
        "--goal", "acc(u)", "--constraint", "att(t,u) & att(z,u)",
        "--mode", "att-only", "--emit-structured",
    )
    code, first = run(capsys, *args)
    assert code == 0
    code, second = run(capsys, *args)
    assert first == second
    data = json.loads(first)
    assert len(data["entries"]) == 10


def test_eaf_classify(capsys):
    code, out = run(capsys, "eaf", "classify", "--eaf", str(DATA / "f3.eaf"))
    assert code == 0
    lines = out.splitlines()
    assert "certain: {(d1,e1),(d2,d1)}" in lines
    assert "questionable: {(e2,d2)}" in lines
    assert "deductive_core: {(d2,d1)}" in lines
    assert any(line.startswith("warning: undeclared defeater (e1,d1)") for line in lines)
    assert any("(d1,e1)" in line for line in lines if line.startswith("note:"))


def test_eaf_classify_f6(capsys):
    code, out = run(capsys, "eaf", "classify", "--eaf", str(DATA / "f6.eaf"))
    assert code == 0
    assert "certain: {(e3,d3),(d3,e3)}" in out or "certain: {(d3,e3),(e3,d3)}" in out
    assert "questionable: {}" in out


def test_eaf_revise(capsys):
    code, out = run(
        capsys, "eaf", "revise", "--eaf", str(DATA / "f3.eaf"),
        "--goal", "acc(e1)", "--constraint-mode", "deductive",
    )
    assert code == 0
    assert out.startswith("entries: 3\n")
    assert "att_removed: {(d1,e1)}" in out
    assert "att_removed: {(e2,d2)}" in out
    assert "att_added: {(e2,d1)}" in out


def test_eaf_acceptable(capsys):
    code, out = run(
        capsys, "eaf", "acceptable", "--eaf", str(DATA / "f3.eaf"),
        "--goal", "acc(e1)", "--constraint-mode", "deductive",
        "--beliefs", str(DATA / "beliefs_completion.txt"),
        "--claims", str(DATA / "claims_completion.txt"),
    )
    assert code == 0
    assert "acceptable: yes" in out
    assert "witness e2: <{eta; eta -> iota}, iota>" in out
    assert "acceptable: no" in out
    assert "gamma" in out


def test_eaf_requires_goal(capsys):
    assert main(["eaf", "revise", "--eaf", str(DATA / "f3.eaf")]) == 1


def test_args_generate(capsys):
    code, out = run(
        capsys, "args", "generate",
        "--beliefs", str(DATA / "beliefs_rebuttal.txt"),
        "--claims", str(DATA / "claims_rebuttal.txt"),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "arguments: 2"
    assert "att(a1,a2)." in lines and "att(a2,a1)." in lines


def test_args_generate_empty(capsys):
    empty = DATA / "claims_rebuttal.txt"
    code, out = run(capsys, "args", "generate", "--beliefs", "/dev/null", "--claims", str(empty))
    assert code == 0
    assert out == "arguments: 0\n"


def test_args_encode(capsys):
    code, out = run(
        capsys, "args", "encode",
        "--support", "rain_predicted ; rain_predicted -> take_umbrella",
        "--claim", "take_umbrella",
        "--certainty", str(DATA / "umbrella.certainty"),
        "--tau", "0.5",
    )
    assert code == 0
    assert out == "<{rain_predicted}, take_umbrella>\n"


def test_args_encode_requires_support(capsys):
    assert main(["args", "encode", "--claim", "a"]) == 1


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_resource_guard_exit_code(tmp_path, capsys):
    big = tmp_path / "big.apx"
    big.write_text("".join(f"arg(a{i}). " for i in range(23)))
    assert main(["stable", str(big)]) == 4
    six = tmp_path / "six.apx"
    six.write_text("".join(f"arg(a{i}). " for i in range(6)))
    capsys.readouterr()
    assert main(["revise-af", "--af", str(six), "--goal", "acc(a0)"]) == 4
    assert "36 free att variables" in capsys.readouterr().err
    # past the guard too, but with no model at all: an empty outcome
    unsat = "(acc(a0) | acc(a1)) & !acc(a0) & !acc(a1)"
    assert main(["revise-af", "--af", str(six), "--goal", unsat]) == 3
    assert capsys.readouterr().out == "entries: 0\n"
    wide = " | ".join(f"v{i}" for i in range(26))
    assert main(["models", wide]) == 4
    assert "2^26 assignments" in capsys.readouterr().err
    assert main(["revise-formula", "--phi", "v0", "--alpha", wide]) == 4


def test_completion_guard_exit_code(tmp_path, capsys):
    beliefs = tmp_path / "beliefs.txt"
    beliefs.write_text("".join(f"q{i}\n" for i in range(26)))
    claims = tmp_path / "claims.txt"
    claims.write_text("gamma\n")
    argv = ["eaf", "acceptable", "--eaf", str(DATA / "f3.eaf"), "--goal", "acc(e1)",
            "--beliefs", str(beliefs), "--claims", str(claims), "--max-added"]
    assert main(argv + ["4"]) == 4
    assert capsys.readouterr() == ("", "error: 17902 supports over 26 formulas exceed the limit of 4096\n")
    assert main(argv + ["3"]) == 0  # 2,952 supports


def test_conflict_search_guard_exit_code(tmp_path, capsys):
    # x's one conflict with y needs all its formulas: 12 give 4096 supports,
    # the limit, and 13 give 8192
    eaf = tmp_path / "f.eaf"
    eaf.write_text(conflict_eaf(12))
    assert run_err(capsys, "eaf", "classify", "--eaf", str(eaf)) == (0, (
        "deductive: {x,y}\nenthymemes: {}\ncertain: {(y,x)}\nquestionable: {}\n"
        "deductive_core: {(y,x)}\n"), "")
    eaf.write_text(conflict_eaf(13))
    assert run_err(capsys, "eaf", "classify", "--eaf", str(eaf)) == (
        4, "", "error: 8192 supports over 13 formulas exceed the limit of 4096\n")


def test_negative_max_added_exits_2(capsys):
    argv = ["eaf", "acceptable", "--eaf", str(DATA / "f3.eaf"), "--goal", "acc(e1)",
            "--beliefs", str(DATA / "beliefs_completion.txt"),
            "--claims", str(DATA / "claims_completion.txt"), "--max-added", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: max_added must be non-negative, got -1\n")


def test_missing_file_exit_code(capsys):
    assert main(["stable", "/nonexistent/x.apx"]) == 2


def _run_process(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "argent.cli", *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["models", "!" * 3000 + "a"],
        ["models", "(" * 2000 + "a" + ")" * 2000],
        ["models", " -> ".join(["a"] * 2001)],
        ["models", " <-> ".join(["a"] * 3001)],
        ["revise-af", "--af", str(DATA / "f1.apx"), "--goal", "!" * 3000 + "acc(u)"],
    ],
    ids=["not", "parens", "implies", "iff", "revise-af-goal"],
)
def test_deep_nesting_exits_2_without_traceback(argv):
    proc = _run_process(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"nesting deeper than {MAX_NESTING} levels" in proc.stderr


def test_nesting_at_limit_still_parses():
    proc = _run_process("models", "(" * MAX_NESTING + "a" + ")" * MAX_NESTING)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "{a}\n", "")
    proc = _run_process("models", "!" * MAX_NESTING + "a")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "{a}\n", "")


def test_repeated_main_calls_match_fresh_runs(capsys, monkeypatch):
    """`main` reuses one parser; each call must print what a fresh process prints."""
    monkeypatch.setenv("COLUMNS", "80")
    f3 = str(DATA / "f3.eaf")
    commands = [
        ["models", PHI, "--vocab", "a,b,c,d", "--emit-structured"],
        ["models", PHI, "--vocab", "a,b,c,d"],
        ["eaf", "revise", "--eaf", f3],
        ["eaf", "revise", "--eaf", f3, "--goal", "acc(e1)", "--mode", "dalal"],
        ["eaf", "revise", "--eaf", f3, "--goal", "acc(e1)"],
        ["no-such-command"],
    ]
    fresh = []
    for argv in commands:
        proc = _run_process(*argv)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    for _ in range(2):
        for argv, expected in zip(commands, fresh):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == expected, argv


@pytest.fixture
def fresh_memos():
    """Empty memos of parsed texts before and after the test."""
    clear = (prop._parse_shared.cache_clear, eaf_module.parse_eaf.cache_clear)
    for f in clear:
        f()
    yield
    for f in clear:
        f()


def test_each_input_text_is_parsed_once(fresh_memos, capsys, monkeypatch):
    parsed = []  # the token texts of every formula parser built, goals aside

    class Counting(prop.FormulaParser):
        def __init__(self, tokens):
            super().__init__(tokens)
            parsed.append(" ".join(tok.text for tok in tokens))

    monkeypatch.setattr(prop, "FormulaParser", Counting)
    f3 = ["--eaf", str(DATA / "f3.eaf"), "--goal", "acc(e1)"]
    for argv in (
        ["eaf", "classify", *f3[:2]],
        ["eaf", "revise", *f3],
        ["eaf", "acceptable", *f3, "--beliefs", str(DATA / "beliefs_completion.txt"),
         "--claims", str(DATA / "claims_completion.txt")],
    ):
        assert main(argv) == 0
    capsys.readouterr()
    # 14 distinct formula texts in f3.eaf, 3 more in the belief file, 1 in the claims
    assert len(parsed) == len(set(parsed)) == 18
    assert eaf_module.parse_eaf.cache_info()[:2] == (2, 1)  # hits, misses
    shared = prop._parse_shared.cache_info()
    # parse_formula goes through no memo
    assert parse_formula("fresh_a -> fresh_b") == parse_formula("fresh_a -> fresh_b")
    assert len(parsed) == 20
    assert prop._parse_shared.cache_info() == shared


# ---------------------------------------------------------------------------
# Validation errors exit 2 with one `error:` line
# ---------------------------------------------------------------------------

def run_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command, formulas", [
    ("models", ["{}"]), ("revise-formula", ["--phi", "{}", "--alpha", "{}"]),
])
def test_empty_vocab_flag_is_the_empty_vocabulary(capsys, command, formulas):
    # A given --vocab is never ignored: "" names no variable, " " and "," an empty one.
    def argv(formula, vocab):
        return [command, *(f.format(formula) for f in formulas), "--vocab", vocab]

    outside = "error: formula uses variables outside the vocabulary: ['a']\n"
    assert run_err(capsys, *argv("a", "")) == (2, "", outside)
    for vocab in (" ", ","):
        assert run_err(capsys, *argv("a", vocab)) == (2, "", "error: bad variable name: ''\n")
    assert run_err(capsys, *argv("true", "")) == (0, "{}\n", "")


def test_unknown_argument_exits_2(capsys):
    code, out, err = run_err(
        capsys, "revise-af", "--af", str(DATA / "f1.apx"), "--goal", "acc(nope)"
    )
    assert (code, out) == (2, "")
    assert err == "error: unknown argument 'nope' at line 1, col 5\n"


def test_vocabulary_mismatch_exits_2(capsys):
    code, out, err = run_err(capsys, "models", "a & b", "--vocab", "a")
    assert (code, out) == (2, "")
    assert err == "error: formula uses variables outside the vocabulary: ['b']\n"


def test_value_error_exits_2(capsys):
    code, out, err = run_err(capsys, "models", "a", "--vocab", "a,a")
    assert (code, out) == (2, "")
    assert err == "error: duplicate variable name: 'a'\n"


def test_undeclared_and_repeated_arguments_exit_2_at_their_names(capsys, tmp_path):
    apx, eaf = tmp_path / "f.apx", tmp_path / "f.eaf"
    apx.write_text("arg(a).\natt(a,z).\n")
    eaf.write_text("deductive d { support: a claim: a }\ndeductive d { support: b claim: b }\n")
    assert run_err(capsys, "stable", str(apx)) == (
        2, "", "error: line 2, col 7: undeclared argument 'z'\n")
    assert run_err(capsys, "eaf", "classify", "--eaf", str(eaf)) == (
        2, "", "error: line 2, col 11: duplicate argument identifier 'd'\n")


def test_bad_tau_exits_2(capsys, tmp_path):
    # --tau goes through the certainty files' rational check
    argv = ("args", "encode", "--support", "a ; a -> b", "--claim", "b")
    code, out, err = run_err(capsys, *argv, "--tau", "1/0")
    assert (code, out, err) == (2, "", "error: bad rational '1/0'\n")
    certainty = tmp_path / "c.certainty"
    certainty.write_text("1/0 : a\n")
    code, out, err = run_err(capsys, *argv, "--certainty", str(certainty))
    assert (code, out, err) == (2, "", "error: line 1, col 1: bad rational '1/0'\n")
    # Fraction would expand an exponent into an integer of that many digits
    code, out, err = run_err(capsys, *argv, "--tau", "1e5000")
    assert (code, out, err) == (2, "", "error: bad rational '1e5000'\n")
    certainty.write_text("1/2 : a -> b\n1e5000 : a\n")
    code, out, err = run_err(capsys, *argv, "--certainty", str(certainty))
    assert (code, out, err) == (2, "", "error: line 2, col 1: bad rational '1e5000'\n")
    certainty.write_text("1e-3 : a\n1/2 : a -> b\n")
    assert run_err(capsys, *argv, "--certainty", str(certainty), "--tau", "1e-2")[0] == 0


def test_support_errors_count_columns_in_the_whole_flag(capsys):
    code, out, err = run_err(capsys, "args", "encode", "--support", "a ; b &", "--claim", "b")
    assert (code, out, err) == (2, "", "error: line 1, col 8: unexpected end of input\n")


def test_files_are_read_with_their_line_ends(capsys, tmp_path):
    # a lone `\r` is a blank, as for the library parsers: the comment runs on
    text = "arg(a). # c\rarg(b).\n"
    path = tmp_path / "cr.apx"
    path.write_bytes(text.encode())
    assert parse_af(text).arguments == ("a",)
    assert run(capsys, "stable", str(path)) == (0, "extensions: 1\n{a}\nskeptical: {a}\nvacuous: false\n")
    # `\r\n` files give the output of their `\n` originals, byte for byte
    for name in ("f3.eaf", "beliefs_completion.txt", "claims_completion.txt"):
        (tmp_path / name).write_bytes((DATA / name).read_bytes().replace(b"\n", b"\r\n"))
    for action in ("classify", "acceptable"):
        argv = ["eaf", action, "--goal", "acc(e1)", "--emit-structured"]
        outputs = [
            run(capsys, *argv, "--eaf", str(d / "f3.eaf"),
                "--beliefs", str(d / "beliefs_completion.txt"),
                "--claims", str(d / "claims_completion.txt"))
            for d in (DATA, tmp_path)
        ]
        assert outputs[0][0] == 0 and outputs[0] == outputs[1]


def test_library_error_exits_2(capsys, monkeypatch):
    from argent import cli
    from argent.errors import ArgentError

    def fail(af):
        raise ArgentError("refused")

    monkeypatch.setattr(cli, "stable_extensions", fail)
    code, out, err = run_err(capsys, "stable", str(DATA / "f1.apx"))
    assert (code, out, err) == (2, "", "error: refused\n")


# ---------------------------------------------------------------------------
# --emit-structured mirrors the text output field for field
# ---------------------------------------------------------------------------

def members(text):
    """Items of a `{x,y}` or `{(x,y),(u,v)}` line, in printed order."""
    inner = text[text.index("{") + 1 : text.rindex("}")]
    if inner.startswith("("):
        return [pair.split(",") for pair in inner[1:-1].split("),(")] if inner else []
    return inner.split(",") if inner else []


def argument_fields(text):
    """support and claim of a printed `<{f; g}, claim>` argument."""
    support, claim = text[2:-1].split("}, ")
    return {"support": support.split("; ") if support else [], "claim": claim}


def apx_attacks(lines):
    return [line[4:-2].split(",") for line in lines if line.startswith("att(")]


def both_outputs(capsys, argv):
    code, text = run(capsys, *argv)
    code_s, structured = run(capsys, *argv, "--emit-structured")
    assert code == code_s == 0
    return text.splitlines(), json.loads(structured)


def read_stable(lines):
    count = int(lines[0].split(": ")[1])
    return {
        "extensions": [sorted(members(line)) for line in lines[1 : 1 + count]],
        "skeptical": sorted(members(lines[1 + count])),
        "vacuous": lines[2 + count] == "vacuous: true",
    }


def read_models(lines):
    return {"models": [members(line) for line in lines]}


def read_classify(lines):
    fields = dict(line.split(": ", 1) for line in lines[:5])
    return {
        "deductive": members(fields["deductive"]),
        "enthymemes": members(fields["enthymemes"]),
        "certain": members(fields["certain"]),
        "questionable": members(fields["questionable"]),
        "deductive_core": members(fields["deductive_core"]),
        "warnings": [line[9:] for line in lines if line.startswith("warning: ")],
        "notes": [line[6:] for line in lines if line.startswith("note: ")],
    }


def read_acceptable(lines):
    blocks, block = [], None
    for line in lines[1:]:
        if line.startswith("entry "):
            block = []
            blocks.append(block)
        else:
            block.append(line)
    assert len(blocks) == int(lines[0].split(": ")[1])
    entries = []
    for block in blocks:
        fields = dict(line.split(": ", 1) for line in block if ": " in line)
        entries.append(
            {
                "attacks": apx_attacks(block),
                "acceptable": fields["acceptable"] == "yes",
                "witness": {
                    key[8:]: argument_fields(value)
                    for key, value in fields.items()
                    if key.startswith("witness ")
                },
                "reason": fields.get("reason"),
            }
        )
    return {"entries": entries}


def read_generate(lines):
    count = int(lines[0].split(": ")[1])
    return {
        "arguments": {
            line.split(": ", 1)[0]: argument_fields(line.split(": ", 1)[1])
            for line in lines[1 : 1 + count]
        },
        "attacks": apx_attacks(lines[1 + count :]),
    }


def read_encode(lines):
    (line,) = lines
    return argument_fields(line)


F3 = str(DATA / "f3.eaf")


@pytest.mark.parametrize(
    "argv, read",
    [
        (["stable", str(DATA / "f1.apx")], read_stable),
        (["stable", str(DATA / "f2.apx")], read_stable),
        (
            ["revise-formula", "--phi", PHI, "--alpha", "a & !b & c", "--vocab", "a,b,c,d"],
            read_models,
        ),
        (["revise-formula", "--phi", "a & b", "--alpha", "!a | !b"], read_models),
        (["eaf", "classify", "--eaf", F3], read_classify),
        (["eaf", "classify", "--eaf", str(DATA / "f6.eaf")], read_classify),
        (["eaf", "classify", "--eaf", str(DATA / "media_a1.eaf")], read_classify),
        (["eaf", "classify", "--eaf", str(DATA / "media_a2.eaf")], read_classify),
        (["eaf", "classify", "--eaf", str(DATA / "media_a3.eaf")], read_classify),
        (
            ["eaf", "acceptable", "--eaf", F3, "--goal", "acc(e1)",
             "--beliefs", str(DATA / "beliefs_completion.txt"),
             "--claims", str(DATA / "claims_completion.txt")],
            read_acceptable,
        ),
        (
            ["args", "generate", "--beliefs", str(DATA / "beliefs_rebuttal.txt"),
             "--claims", str(DATA / "claims_rebuttal.txt")],
            read_generate,
        ),
        (
            ["args", "generate", "--beliefs", str(DATA / "beliefs_completion.txt"),
             "--claims", str(DATA / "claims_completion.txt")],
            read_generate,
        ),
        (
            ["args", "encode", "--support", "rain_predicted ; rain_predicted -> take_umbrella",
             "--claim", "take_umbrella", "--certainty", str(DATA / "umbrella.certainty"),
             "--tau", "0.5"],
            read_encode,
        ),
        (["args", "encode", "--support", "a ; a -> b", "--claim", "b"], read_encode),
    ],
    ids=[
        "stable-f1", "stable-f2", "revise-formula-readme", "revise-formula-pair",
        "classify-f3", "classify-f6", "classify-media-a1", "classify-media-a2",
        "classify-media-a3", "acceptable-f3", "generate-rebuttal", "generate-completion",
        "encode-readme", "encode-plain",
    ],
)
def test_structured_output_mirrors_text(capsys, argv, read):
    lines, data = both_outputs(capsys, argv)
    assert read(lines) == data
