#!/usr/bin/env python3
"""Seeded end-to-end benchmark of argent, with a traced per-layer mode.

    python3 argbench/run.py --workload revise|enthymeme|logic --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/argent` there.  A run makes one pass over a seeded corpus of whole
rounds; how many rounds follows from `--seconds` and the workload's
reference rate, never from how fast the program runs.  With `--trace 0` the
run measures the end-to-end metrics; with `--trace 1` it alternates
untraced and traced rounds and reports per-layer figures and the cost of
tracing.  Every query's output is checked against the oracles in
`oracle.py`.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import w_enthymeme  # noqa: E402
import w_logic  # noqa: E402
import w_revise  # noqa: E402
from layers import Tracer  # noqa: E402

WORKLOADS = {"revise": w_revise, "enthymeme": w_enthymeme, "logic": w_logic}
MIN_QUERIES = 100
SETUP_PROBES = 9
CPUS = os.sched_getaffinity(0)


def load_argent():
    """Import argent from this checkout's sources, or stop."""
    package = SRC / "argent"
    if not (package / "__init__.py").is_file():
        sys.exit(f"argbench: no program sources at {package}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import argent
    import argent.cli  # noqa: F401

    if Path(argent.__file__).resolve().parent != package.resolve():
        sys.exit(f"argbench: argent was imported from {argent.__file__}, not {package}")
    return argent


class SetupProbe:
    """Time from a fresh interpreter's start until one round of the
    workload's inputs has been parsed (`probe.py`).  The probes run one at a
    time, spread over the run, and the run reports their median."""

    def __init__(self, name, inputs, workdir):
        self.name = name
        self.path = workdir / "probe-inputs.json"
        self.path.write_text(json.dumps(inputs))
        self.times = []

    def sample(self):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), self.name, str(self.path), str(SRC)],
            capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            sys.exit(f"argbench: set-up probe failed:\n{done.stderr}")
        self.times.append(float(done.stdout.split()[-1]) - t0)


def round_queries(workload, key, extras):
    queries = workload.make_round(key)
    if extras and hasattr(workload, "readme_queries"):
        queries += workload.readme_queries()  # fixed commands, once per run
    return queries


def round_count(workload, seconds, per_round):
    """Rounds in one pass: the workload's ROUNDS_PER_SECOND (its speed in
    rounds per second of query time on the machine of the README's reference
    figures) times `seconds`, and at least enough for MIN_QUERIES.  A faster
    program runs the same rounds in less time."""
    return max(math.ceil(workload.ROUNDS_PER_SECOND * seconds), math.ceil(MIN_QUERIES / per_round))


def check_round(workload, key, extras, summaries):
    """(attempted, failed, problems) for one round's output summaries; the
    round's queries are regenerated from its key."""
    failed, wrong = [], []
    queries = round_queries(workload, key, extras)
    for q, summary in zip(queries, summaries, strict=True):
        if isinstance(summary, dict) and "error" in summary:
            failed.append(f"{q.kind}: {summary['error']}")
            continue
        problem = q.check(summary)
        if problem:
            wrong.append(f"{q.kind}: {problem}")
    return len(queries), failed, wrong


class Checker:
    """The oracles, in a child process that checks each round while the
    measured process waits.  The measured process never holds oracle data,
    so its peak memory is the program's, and measurement spreads over the
    whole run instead of one stretch of it."""

    def __init__(self, name):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "checker.py"), name],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.attempted, self.failed, self.wrong = 0, [], []
        os.sched_setaffinity(self.proc.pid, {max(CPUS)})
        self._reply()  # imports done: the child is idle from here on

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            sys.exit("argbench: the checker process stopped")
        return json.loads(line)

    def check(self, key, extras, summaries):
        self.proc.stdin.write(json.dumps([key, extras, summaries]) + "\n")
        self.proc.stdin.flush()
        attempted, failed, wrong = self._reply()
        self.attempted += attempted
        self.failed += failed
        self.wrong += wrong

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Run:
    def __init__(self, argent, workload, workdir, checker):
        self.argent = argent
        self.workload = workload
        self.workdir = workdir
        self.checker = checker
        self.latencies = []

    def round(self, key, tracer=None, keep=True, extras=False) -> float:
        """Prepare and run one round, then have it checked when kept; returns
        the time spent in queries."""
        queries = round_queries(self.workload, key, extras)
        summaries = []
        if tracer:
            tracer.install()
        try:
            for q in queries:
                q.prepare(self.argent, self.workdir)
            busy = 0.0
            for q in queries:
                t0 = time.perf_counter()
                try:
                    out = q.run(self.argent)
                except Exception as exc:  # counted as a failed operation
                    out = exc
                dt = time.perf_counter() - t0
                busy += dt
                if keep:
                    self.latencies.append(dt)
                    summaries.append({"error": repr(out)} if isinstance(out, Exception)
                                     else q.summary(out))
        finally:
            if tracer:
                tracer.uninstall()
        if keep:
            self.checker.check(key, extras, summaries)
        return busy


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()

    # The measured process (and the set-up probes it starts) stays on one
    # CPU and the checker on another, so measurement never migrates between
    # CPUs; in interleaved trials this narrowed the spread between runs.
    os.sched_setaffinity(0, {min(CPUS)})
    argent = load_argent()
    workload = WORKLOADS[ns.workload]
    pure = os.environ.get("ARGENT_PURE_PYTHON")
    print(f"backend: {argent.kernels.BACKEND}  ARGENT_PURE_PYTHON: "
          f"{'unset' if pure is None else repr(pure)}")

    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{ns.workload}-", dir=HERE / "_work"))
    checker = None
    try:
        probe = None if ns.trace else SetupProbe(
            ns.workload, workload.probe_inputs(workload.make_round(f"{ns.seed}:0")), workdir)
        checker = Checker(ns.workload)
        result = execute(argent, ns, Run(argent, workload, workdir, checker), probe)
    finally:
        if checker:
            checker.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def execute(argent, ns, run, probe):
    seed = str(ns.seed)
    metrics = {}

    per_round = len(run.workload.make_round(f"warm-{seed}:0"))
    run.round(f"warm-{seed}:0", keep=False)
    if ns.trace:
        # Half the rounds untraced, half traced, alternating; the fixed
        # README commands run in neither, so both sides have one make-up.
        tracer = Tracer(argent)
        plain = traced = 0.0
        for r in range(0, 2 * round_count(run.workload, ns.seconds / 2, per_round), 2):
            plain += run.round(f"{seed}:{r}", keep=False)
            traced += run.round(f"{seed}:{r + 1}", tracer=tracer)
        queries = len(run.latencies)
        for name, value in tracer.metrics(queries).items():
            metrics[name] = value
        # alternate rounds, same make-up: compare busy time per round pair
        metrics["trace.overhead_pct"] = ((traced / plain - 1) * 100, "%")
        write_trace(ns, metrics)
    else:
        busy = 0.0
        rounds = round_count(run.workload, ns.seconds, per_round)
        for r in range(rounds):
            busy += run.round(f"{seed}:{r}", extras=r == 0)
            while len(probe.times) < (r + 1) * SETUP_PROBES // rounds:
                probe.sample()
        metrics["setup_s"] = (statistics.median(probe.times), "s")
        lat_ms = [t * 1e3 for t in run.latencies]
        metrics["latency_p50_ms"] = (statistics.median(lat_ms), "ms")
        metrics["latency_p90_ms"] = (statistics.quantiles(lat_ms, n=10)[8], "ms")
        metrics["throughput_qps"] = (len(lat_ms) / busy, "1/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    c = run.checker
    for line in c.failed[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for line in c.wrong[:20]:
        print(f"WRONG {line}", file=sys.stderr)
    print(f"queries: {c.attempted}  failed: {len(c.failed)}  wrong: {len(c.wrong)}")
    return {
        "correct": not c.wrong,
        "attempted": c.attempted,
        "failed": len(c.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_trace(ns, metrics):
    out = HERE / "traces"
    out.mkdir(exist_ok=True)
    path = out / f"{ns.workload}-seed{ns.seed}.json"
    path.write_text(json.dumps({k: v for k, (v, _) in metrics.items()}, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
