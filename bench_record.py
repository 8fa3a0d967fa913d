#!/usr/bin/env python3
"""Record one point of argent's performance trajectory in a BENCH_*.json.

    python3 bench_record.py --out BENCH_22.json --label change [--checkout DIR]

For each workload in the checkout's `BENCHMARK.json` the recorder runs
`argbench/run.py` untraced at seed SEED for the `run_seconds` given there,
RUNS times, each in a subprocess, and keeps each run's final JSON line.  It
also answers the same corpus (the rounds `run.py` measures for that seed and
length) with the checkout's own program, through `run.py`'s own round loop,
and stores a sha256 over every query's summary: a change that alters an
answer alters that checksum, whatever its timings.  Seed and run count are
fixed, so the checksums of any two records compare.  The size of the
program, the physical lines of `src/argent/*.py` and its code lines (blank,
comment and docstring lines left out), is stored next to them.  The Python version,
`PYTHONDONTWRITEBYTECODE`, the CPU count, the checkout's commit and whether
its tree differs from that commit (untracked files included) are stored with
the figures.

The record is kept under `--label` in `--out`; other labels already in that
file stay, so one file can hold a commit and its parent.  The runs of two
labels are taken one label after the other, not alternated, so their timings
carry whatever the machine drifted in between; alternated runs of
`argbench/run.py` are the comparison.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

SEED = 433
RUNS = 3


def git(checkout: Path, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def bench_run(checkout: Path, workload: str, seconds: float) -> dict:
    """The final JSON line of one untraced `argbench/run.py` run."""
    done = subprocess.run(
        [sys.executable, "argbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def summary_checksums(checkout: Path, workloads, seconds: float) -> dict:
    """Per workload: the corpus size and a sha256 over its query summaries,
    computed in a child process so that only the checkout's program is
    imported."""
    done = subprocess.run(
        [sys.executable, __file__, "--checksums", str(checkout), str(seconds), *workloads],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of `source` that hold a token other than a comment or layout,
    docstrings (a string statement opening a module, class or function)
    left out."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def line_counts(checkout: Path) -> dict:
    """Physical and code lines (see :func:`code_lines`) of the checkout's
    `src/argent/*.py`."""
    sources = [p.read_text() for p in sorted((checkout / "src" / "argent").glob("*.py"))]
    return {"physical": sum(len(s.splitlines()) for s in sources),
            "code": sum(code_lines(s) for s in sources)}


class SummaryDigest:
    """Takes the place of `run.py`'s checker: a sha256 over the summaries of
    every round handed to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.queries = 0

    def check(self, key, extras, summaries):
        for summary in summaries:
            self.sha256.update(json.dumps(summary, sort_keys=True).encode() + b"\n")
        self.queries += len(summaries)


def _checksums(checkout: Path, seconds: float, workloads) -> dict:
    sys.path.insert(0, str(checkout / "argbench"))
    import run  # the benchmark's own corpus and round loop

    argent = run.load_argent()
    out = {}
    for name in workloads:
        workload = run.WORKLOADS[name]
        per_round = len(workload.make_round(f"warm-{SEED}:0"))
        rounds = run.round_count(workload, seconds, per_round)
        digest = SummaryDigest()
        with tempfile.TemporaryDirectory() as tmp:
            loop = run.Run(argent, workload, Path(tmp), digest)
            for r in range(rounds):
                loop.round(f"{SEED}:{r}", extras=r == 0)
        out[name] = {"rounds": rounds, "queries": digest.queries,
                     "summary_sha256": digest.sha256.hexdigest()}
    return out


def main():
    if sys.argv[1:2] == ["--checksums"]:
        checkout, seconds, *workloads = sys.argv[2:]
        with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the result
            result = _checksums(Path(checkout), float(seconds), workloads)
        print(json.dumps(result))
        return
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--label", required=True)
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent)
    ns = ap.parse_args()
    checkout = ns.checkout.resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    checksums = summary_checksums(checkout, workloads, seconds)
    record = {
        "commit": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain")),
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "cpus": os.cpu_count(),
        "seed": SEED,
        "seconds": seconds,
        "src_lines": line_counts(checkout),
        "workloads": {
            name: {**checksums[name], "runs": [bench_run(checkout, name, seconds) for _ in range(RUNS)]}
            for name in workloads
        },
    }
    records = json.loads(ns.out.read_text()) if ns.out.exists() else {}
    records[ns.label] = record
    ns.out.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
