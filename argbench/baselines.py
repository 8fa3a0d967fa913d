#!/usr/bin/env python3
"""Reference figures for single calls, with the layer tracer on.

    python3 argbench/baselines.py

Times the acceptance kernel on 20,000 random 7-argument frameworks, the
README's f1 revision in dalal mode, `exhaustive_graph` on belief bases of 5,
7 and 9 formulas, and `satisfiable` on unsatisfiable implication chains
around `ENUMERATION_LIMIT`.  Each figure is the median of 3 calls (1 call for
the slow chains); every result is checked against the oracles first.  The
per-layer lines show where each call spends its time.
"""

import random
import statistics
import sys
import time

import run  # also puts the benchmark modules on sys.path
import logic as L
import oracle as O
from layers import Tracer


def timed(fn, repeats):
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3, out


def report(argent, label, fn, repeats=3):
    ms, out = timed(fn, repeats)
    tracer = Tracer(argent)
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    layers = ", ".join(f"{k} {tracer.calls[k]}x {tracer.self_s[k] * 1e3:.1f}ms"
                       for k in sorted(tracer.calls, key=lambda k: -tracer.self_s[k])
                       if tracer.calls[k])
    print(f"{label:44s} {ms:10.2f} ms   [{layers}]")
    return out


def main():
    argent = run.load_argent()
    print(f"backend: {argent.kernels.BACKEND}")

    rng = random.Random(99)
    batch = [[sum(1 << i for i in range(7) if rng.random() < 0.3) for _ in range(7)]
             for _ in range(20000)]
    # attacker masks -> att bitmask (pair (i, j) at bit i*7 + j) for the oracle
    for masks in batch[:500]:
        att = sum(1 << (i * 7 + j) for j in range(7) for i in range(7) if (masks[j] >> i) & 1)
        assert argent.kernels.acceptance_mask(masks, 7) == O.acceptance(att, 7)
    report(argent, "acceptance kernel, 20000 x 7 arguments",
           lambda: [argent.kernels.acceptance_mask(m, 7) for m in batch])

    f1 = argent.parse_af((run.ROOT / "tests" / "data" / "f1.apx").read_text())
    enc = argent.AttAccVocabulary(f1.arguments)
    goal = argent.parse_goal("acc(u)", enc)
    constraint = argent.parse_goal("att(t,u) & att(z,u)", enc)
    out = report(argent, "revise_af f1 dalal, att(t,u) & att(z,u)",
                 lambda: argent.revise_af(f1, goal, constraint, mode=argent.DALAL))
    mine = L.parse_goal("acc(u) & att(t,u) & att(z,u)")
    best, sols = O.revision(f1.arguments, f1.attacks, mine, O.unit_att_pins(mine), "dalal", 10**5)
    assert [(e.af.attacks, e.accepted, e.vacuous) for e in out] == sols
    assert {e.total_weight for e in out} == {best}

    texts = ["p0", "p0 -> p1", "p1 -> !p2", "p2", "p3", "p3 -> p4", "p4 -> !p0",
             "p5", "p5 -> p3"]
    claims = ["p1", "!p2", "p4", "!p0"]
    for size in (5, 7, 9):
        base = [argent.parse_formula(t) for t in texts[:size]]
        pool = [argent.parse_formula(t) for t in claims]
        af, table = report(argent, f"exhaustive_graph, {size} formulas",
                           lambda: argent.exhaustive_graph(base, pool))
        args, attacks = O.exhaustive_graph([L.parse(t) for t in texts[:size]],
                                           [L.parse(t) for t in claims])
        assert len(args) == len(af.arguments) and len(attacks) == len(af.attacks)

    for width in (16, 19, 20, 21):
        chain = ["c0"] + [f"c{i} -> c{i + 1}" for i in range(width - 1)] + [f"!c{width - 1}"]
        forms = [argent.parse_formula(t) for t in chain]
        assert not L.consistent([L.parse(t) for t in chain])
        sat = report(argent, f"satisfiable, unsatisfiable chain of {width}",
                     lambda: argent.prop.satisfiable(forms), repeats=1)
        assert sat is False


if __name__ == "__main__":
    sys.exit(main())
