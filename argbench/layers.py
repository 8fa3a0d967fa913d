"""Per-layer tracing from the benchmark's side of the module boundaries.

The program carries no tracing.  `Tracer.install` replaces each function in
`TRACED` by a timing wrapper in every `argent` module that holds it by name
(so `from .prop import satisfiable` in `afrev` is wrapped as well as
`prop.satisfiable`), and `uninstall` puts the originals back.  A wrapper
records the call and its self time: its own duration minus the full duration
of the wrapped calls made inside it, wrapper bookkeeping included, so the
cost of tracing a child is charged to nobody.
"""

from __future__ import annotations

import sys
import time

TRACED = (
    ("cli", "main"),
    ("eaf", "parse_eaf"),
    ("eaf", "classify_attacks"),
    ("eaf", "revise_eaf"),
    ("eaf", "acceptable_afs"),
    ("structured", "exhaustive_graph"),
    ("structured", "complete_enthymeme"),
    ("structured", "validate_deductive"),
    ("structured", "is_defeater"),
    ("afrev", "parse_goal"),
    ("afrev", "revise_af"),
    ("encoding", "attacker_masks_from"),
    ("kernels", "acceptance_mask"),
    ("af", "parse_af"),
    ("revision", "dalal_revise"),
    ("prop", "parse_formula"),
    ("prop", "satisfiable"),
    ("prop", "models"),
    ("prop", "minimal_conflict_subsets"),
)

LABELS = tuple(f"{m}.{f}" for m, f in TRACED)


class Tracer:
    def __init__(self, argent):
        import argent.cli  # noqa: F401  (cli.main is traced)

        self._argent = argent
        self.calls = dict.fromkeys(LABELS, 0)
        self.self_s = dict.fromkeys(LABELS, 0.0)
        self.candidates = 0
        self.entries = 0
        self.vars_max = 0
        self._stack = [[0.0]]
        self._revising = 0
        self._patches = []

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "argent" or name.startswith("argent."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"argent.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches = []

    def _wrap(self, label, fn):
        clock = time.perf_counter
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        variables = self._argent.prop.variables
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            frame = [0.0]
            stack.append(frame)
            result = None
            if label == "afrev.revise_af":
                tracer._revising += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self_s[label] += t1 - t0 - frame[0]
                calls[label] += 1
                if label == "afrev.revise_af":
                    tracer._revising -= 1
                    tracer.entries += len(result or ())
                elif label == "kernels.acceptance_mask" and tracer._revising:
                    tracer.candidates += 1
                elif label == "prop.satisfiable":
                    names = set()
                    for f in args[0]:
                        names |= variables(f)
                    tracer.vars_max = max(tracer.vars_max, len(names))
                stack[-1][0] += clock() - t0
            return result

        return wrapper

    def metrics(self, queries: int) -> dict:
        """Per-layer figures per query, plus the largest satisfiable width."""
        out = {}
        for label in LABELS:
            out[f"{label}.calls"] = (self.calls[label] / queries, "count")
            out[f"{label}.self_ms"] = (self.self_s[label] * 1e3 / queries, "ms")
        out["afrev.revise_af.candidates"] = (self.candidates / queries, "count")
        out["afrev.revise_af.entries"] = (self.entries / queries, "count")
        out["prop.satisfiable.vars_max"] = (self.vars_max, "count")
        return out
