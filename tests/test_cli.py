"""Command-line behavior: output text, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from argent.cli import main
from argent.prop import MAX_NESTING
from conftest import DATA

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
    wide = " | ".join(f"v{i}" for i in range(26))
    assert main(["models", wide]) == 4
    assert "2^26 assignments" in capsys.readouterr().err
    assert main(["revise-formula", "--phi", "v0", "--alpha", wide]) == 4


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
