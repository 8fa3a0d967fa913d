"""Workload `revise`: library callers of minimal-change framework revision.

Each query parses a goal (and its constraint) with `afrev.parse_goal` and
calls `afrev.revise_af`.  A round holds one query for every combination of
argument count (4, 5), distance mode (all three) and number of pinned att
literals in the constraint (0 to 3): 24 queries.

Every query is built around a target framework: the current one with one or
two attacks flipped, whose acceptance differs from the current acceptance.
The goal is true of the target and false of the current framework, so the
revision is never empty, and the scan never goes deeper than the target's
distance: at most 3 flip levels for 5 arguments in dalal mode (which also
counts acceptance flips), at most 4 for 4 arguments.
"""

from __future__ import annotations

import random

import logic as L
import oracle as O

ARGUMENTS = ("x", "y", "z", "t", "u")
MODES = ("dalal", "att-weighted", "att-only")
SLOTS = [(n, mode, pins) for n in (4, 5) for mode in MODES for pins in (0, 1, 2, 3)]
DALAL_SCAN_DEPTH = {4: 4, 5: 3}
ROUNDS_PER_SECOND = 18  # reference speed, see run.round_count


def _att(pair):
    return f"att:{pair[0]}:{pair[1]}"


class Query:
    kind = "revise_af"

    def __init__(self, arguments, attacks, goal, constraint, mode):
        self.arguments = arguments
        self.attacks = frozenset(attacks)
        self.goal = goal
        self.constraint = constraint
        self.mode = mode
        self.af_text = "\n".join(
            [f"arg({a})." for a in arguments] + [f"att({s},{t})." for s, t in sorted(attacks)]
        )
        self.goal_text = L.render(goal)
        self.constraint_text = L.render(constraint) if constraint else None

    def prepare(self, argent, workdir):
        self.af = argent.af.parse_af(self.af_text)

    def run(self, argent):
        afrev = argent.afrev
        enc = argent.encoding.AttAccVocabulary(self.af.arguments)
        goal = afrev.parse_goal(self.goal_text, enc)
        constraint = afrev.parse_goal(self.constraint_text, enc) if self.constraint_text else None
        return afrev.revise_af(self.af, goal, constraint, mode=self.mode)

    @staticmethod
    def summary(outcome):
        return [[sorted(e.af.attacks), sorted(e.accepted), e.vacuous, sorted(e.att_added),
                 sorted(e.att_removed), sorted(e.acc_changed), e.total_weight,
                 list(e.af.arguments)] for e in outcome.entries]

    def check(self, entries):
        args, n = self.arguments, len(self.arguments)
        formula = L.conj([self.goal] + ([self.constraint] if self.constraint else []))
        if not entries:
            return "empty outcome although the target framework satisfies the goal"
        acc0 = O.mask_args(args, O.acceptance(O.att_mask(args, self.attacks), n)[0])
        weights, got = set(), []
        for attacks, accepted, vacuous, added, removed, changed, weight, arguments in entries:
            attacks, accepted = frozenset(map(tuple, attacks)), frozenset(accepted)
            if tuple(arguments) != args:
                return "entry changes the argument set"
            acc, want_vacuous = O.acceptance(O.att_mask(args, attacks), n)
            want = O.mask_args(args, acc)
            if (accepted, vacuous) != (want, want_vacuous) or vacuous:
                return f"entry acceptance {sorted(accepted)}, oracle {sorted(want)}"
            if not L.evaluate(formula, O.status_names(args, O.att_mask(args, attacks), acc)):
                return "entry violates the goal or the constraint"
            if frozenset(map(tuple, added)) != attacks - self.attacks or \
                    frozenset(map(tuple, removed)) != self.attacks - attacks:
                return "entry change record does not match its attacks"
            if frozenset(changed) != accepted ^ acc0:
                return "entry acc_changed does not match its acceptance"
            w = O.entry_weight(args, self.attacks, attacks, accepted, self.mode)
            if w != weight:
                return f"entry weight {weight}, recomputed {w}"
            weights.add(w)
            got.append((attacks, accepted, vacuous))
        if len(weights) != 1:
            return f"entries carry different weights {sorted(weights)}"
        exact = O.revision(args, self.attacks, formula, O.unit_att_pins(formula), self.mode)
        if exact is None:
            return "oracle budget exceeded"
        best, solutions = exact
        if best != weights.pop() or solutions != got:
            return f"minimal set differs: oracle weight {best}, {len(solutions)} entries"
        return None


def _query(rng, n, mode, pins):
    args = ARGUMENTS[:n]
    pairs = [(a, b) for a in args for b in args]
    atoms = [f"acc:{a}" for a in args] + [_att(p) for p in pairs]
    while True:
        attacks = {p for p in pairs if rng.random() < (0.05 if p[0] == p[1] else 0.3)}
        base = O.att_mask(args, attacks)
        acc0, _ = O.acceptance(base, n)
        for _ in range(20):
            depth = rng.choice((1, 2))
            target = attacks ^ set(rng.sample(pairs, depth))
            tmask = O.att_mask(args, target)
            acc_t, vacuous = O.acceptance(tmask, n)
            if vacuous or acc_t == acc0:
                continue
            if mode == "dalal" and depth + bin(acc_t ^ acc0).count("1") > DALAL_SCAN_DEPTH[n]:
                continue
            now = O.status_names(args, base, acc0)
            then = O.status_names(args, tmask, acc_t)
            key = rng.choice([a for a in atoms[:n] if (a in now) != (a in then)])
            wanted = L.literal(key, key in then)
            same = [a for a in atoms if a != key and (a in now) == (a in then)]
            other = rng.choice(same)
            shape = rng.randrange(4)
            if shape == 0:
                goal = wanted
            elif shape == 1:
                goal = L.conj([wanted, L.literal(other, other in then)])
            elif shape == 2:
                goal = L.disj([wanted, L.literal(other, other not in then)])
            else:
                goal = L.imp(L.literal(other, other in then), wanted)
            pinned = rng.sample(pairs, pins)
            constraint = L.conj([L.literal(_att(p), p in target) for p in pinned]) if pins else None
            return Query(args, attacks, goal, constraint, mode)


def make_round(key: str) -> list[Query]:
    rng = random.Random(f"revise:{key}")
    return [_query(rng, n, mode, pins) for n, mode, pins in SLOTS]


def probe_inputs(queries) -> dict:
    return {"af": [q.af_text for q in queries]}

