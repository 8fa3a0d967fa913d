"""Independent oracles: what each query must return, computed without `argent`.

Stable semantics are checked by plain subset enumeration; propositional
questions go through the truth tables of :mod:`logic`.  Frameworks are
(arguments, attacks) with attacks a set of (source, target) pairs, or an att
bitmask in which pair (i, j) sits at bit i*n + j.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import logic as L

# ---------------------------------------------------------------------------
# Stable semantics
# ---------------------------------------------------------------------------


def stable_masks(att: int, n: int) -> list[int]:
    """Every subset S of the n arguments that attacks nothing inside itself
    and attacks every argument outside it."""
    row = (1 << n) - 1
    out_of = [(att >> (i * n)) & row for i in range(n)]
    hit = [0] * (1 << n)
    found = []
    for s in range(1 << n):
        if s:
            low = s & -s
            hit[s] = hit[s ^ low] | out_of[low.bit_length() - 1]
        h = hit[s]
        if not h & s and (h | s) == row:
            found.append(s)
    return found


def acceptance(att: int, n: int) -> tuple[int, bool]:
    """Skeptical acceptance; with no stable extension every argument counts
    as accepted and the flag is True."""
    exts = stable_masks(att, n)
    if not exts:
        return (1 << n) - 1, True
    acc = (1 << n) - 1
    for s in exts:
        acc &= s
    return acc, False


def att_mask(arguments, attacks) -> int:
    n = len(arguments)
    idx = {a: i for i, a in enumerate(arguments)}
    m = 0
    for s, t in attacks:
        m |= 1 << (idx[s] * n + idx[t])
    return m


def mask_pairs(arguments, att: int) -> frozenset:
    n = len(arguments)
    return frozenset(
        (arguments[p // n], arguments[p % n]) for p in range(n * n) if (att >> p) & 1
    )


def mask_args(arguments, m: int) -> frozenset:
    return frozenset(a for i, a in enumerate(arguments) if (m >> i) & 1)


def status_names(arguments, att: int, acc: int) -> set:
    """True atoms of a framework state, as goal-atom variable names."""
    out = {f"acc:{a}" for a in mask_args(arguments, acc)}
    out |= {f"att:{s}:{t}" for s, t in mask_pairs(arguments, att)}
    return out


# ---------------------------------------------------------------------------
# Minimal-change revision
# ---------------------------------------------------------------------------

# Revisions needing more attack configurations than this are not enumerated;
# every workload query stays below it.
ORACLE_BUDGET = 4000

MODE_WEIGHTS = {
    "dalal": lambda n: (1, 1),
    "att-weighted": lambda n: (n + 1, 1),
    "att-only": lambda n: (1, 0),
}


def revision(arguments, attacks, formula, pins, mode, budget=ORACLE_BUDGET):
    """The distance-minimal attack relations satisfying `formula`.

    `pins` maps (source, target) pairs to the value every model must give them
    (the formula's own unit att literals); the rest are enumerated by growing
    flip count until no larger count can reach the best weight; vacuous
    candidates (no stable extension) are skipped.  Returns
    (weight, [(attacks, accepted, vacuous)...]) sorted by flip set, (None, [])
    when nothing is admissible, or None when more than `budget`
    configurations would be needed.
    """
    n = len(arguments)
    w_att, w_acc = MODE_WEIGHTS[mode](n)
    base = att_mask(arguments, attacks)
    acc0, _ = acceptance(base, n)
    start = base
    pinned = set()
    for (s, t), value in pins.items():
        p = arguments.index(s) * n + arguments.index(t)
        pinned.add(p)
        start = start | (1 << p) if value else start & ~(1 << p)
    baseline = bin(start ^ base).count("1")
    free = [p for p in range(n * n) if p not in pinned]
    best, hits, spent = None, [], 0
    for r in range(len(free) + 1):
        if best is not None and w_att * (baseline + r) > best:
            break
        for combo in combinations(free, r):
            spent += 1
            if spent > budget:
                return None
            att = start
            for p in combo:
                att ^= 1 << p
            acc, vacuous = acceptance(att, n)
            if vacuous:
                continue
            if not L.evaluate(formula, status_names(arguments, att, acc)):
                continue
            total = w_att * (baseline + r) + w_acc * bin(acc ^ acc0).count("1")
            if best is None or total < best:
                best, hits = total, []
            if total == best:
                hits.append((att, acc, vacuous))
    if best is None:
        return None, []
    hits.sort(key=lambda h: [p for p in range(n * n) if ((h[0] ^ base) >> p) & 1])
    return best, [(mask_pairs(arguments, a), mask_args(arguments, c), v) for a, c, v in hits]


def entry_weight(arguments, attacks, new_attacks, accepted, mode) -> int:
    """Weight of one revised framework, recomputed from its parts."""
    n = len(arguments)
    w_att, w_acc = MODE_WEIGHTS[mode](n)
    acc0, _ = acceptance(att_mask(arguments, attacks), n)
    acc1 = 0
    for i, a in enumerate(arguments):
        if a in accepted:
            acc1 |= 1 << i
    return w_att * len(set(attacks) ^ set(new_attacks)) + w_acc * bin(acc0 ^ acc1).count("1")


def unit_att_pins(formula) -> dict:
    """Att literals among the top-level conjuncts of a goal formula."""
    pins, stack = {}, [formula]
    while stack:
        g = stack.pop()
        if g[0] == "a":
            stack.extend(g[1])
            continue
        positive = g[0] == "v"
        name = g[1] if positive else (g[1][1] if g[0] == "n" and g[1][0] == "v" else "")
        if name.startswith("att:"):
            _, s, t = name.split(":")
            pins[(s, t)] = positive
    return pins


# ---------------------------------------------------------------------------
# Propositional queries
# ---------------------------------------------------------------------------


def models(f, vocabulary, units) -> list[frozenset]:
    """Models of `f` over `vocabulary` in canonical order.  `units` are unit
    literals that `f` contains as top-level conjuncts (any model must give
    them their value); the other names are enumerated."""
    tabs = L.Tables([v for v in vocabulary if v not in units], units)
    found = tabs.true_sets(tabs.table(f))
    found.sort(key=lambda s: L.canonical_key(s, vocabulary))
    return found


def dalal(phi, alpha, vocabulary, phi_units, alpha_units) -> list[frozenset]:
    """Models of alpha at least Hamming distance from the models of phi; every
    model of alpha when phi has none."""
    base = models(phi, vocabulary, phi_units)
    cands = models(alpha, vocabulary, alpha_units)
    if not base or not cands:
        return cands
    dist = [min(len(c ^ b) for b in base) for c in cands]
    best = min(dist)
    return [c for c, d in zip(cands, dist) if d == best]


def minimal_conflicts(candidates, context) -> list[tuple]:
    """Subset-minimal sets of candidates inconsistent with context, by size
    then candidate position; [()] when the context alone is inconsistent."""
    cands = []
    for f in candidates:
        if f not in cands:
            cands.append(f)
    context = list(context)
    if L.consistent(cands + context):
        return []
    if not L.consistent(context):
        return [()]
    found = []
    for r in range(1, len(cands) + 1):
        for combo in combinations(range(len(cands)), r):
            if any(set(prev) <= set(combo) for prev in found):
                continue
            if not L.consistent([cands[i] for i in combo] + context):
                found.append(combo)
    return [tuple(cands[i] for i in combo) for combo in found]


# ---------------------------------------------------------------------------
# Structured arguments
# ---------------------------------------------------------------------------


class Arg:
    """A deductive argument or an enthymeme, as formula tuples."""

    def __init__(self, arg_id, kind, support, claim, added=(), full_claim=None):
        self.id = arg_id
        self.kind = kind
        self.fixed_support = tuple(support)
        self.fixed_claim = claim
        self.added = tuple(added)
        self.full_claim = claim if full_claim is None else full_claim

    @property
    def support(self):
        return self.fixed_support + self.added

    @property
    def content(self):
        return _dedup(self.support + (self.full_claim,))

    @property
    def fixed_part(self):
        return _dedup(self.fixed_support + (self.fixed_claim,))

    def completion(self):
        return (self.added, self.full_claim)


def _dedup(items):
    out = []
    for f in items:
        if f not in out:
            out.append(f)
    return tuple(out)


def defeats(x: Arg, y: Arg) -> bool:
    return not L.consistent([x.full_claim, *y.support])


def defeater_pairs(args) -> set:
    return {(x.id, y.id) for x in args for y in args if defeats(x, y)}


def classification(args, declared):
    """Certain / questionable split of the declared attacks, the deductive
    core, and the warnings, in the program's order."""
    ids = [a.id for a in args]
    amap = {a.id: a for a in args}
    certain, questionable, warnings = set(), set(), []
    for x, y in sorted(declared, key=lambda p: (ids.index(p[0]), ids.index(p[1]))):
        inv_x = minimal_conflicts(amap[x].content, amap[y].content)
        inv_y = minimal_conflicts(amap[y].content, amap[x].content)
        if not inv_x and not inv_y:
            warnings.append(f"declared attack ({x},{y}) has no logical conflict")
            questionable.add((x, y))
            continue
        inside_x = any(set(s) <= set(amap[x].fixed_part) for s in inv_x)
        inside_y = any(set(s) <= set(amap[y].fixed_part) for s in inv_y)
        (certain if inside_x and inside_y else questionable).add((x, y))
    for a in args:
        for b in args:
            if (a.id, b.id) not in declared and defeats(a, b):
                warnings.append(f"undeclared defeater ({a.id},{b.id})")
    deductive = {a.id for a in args if a.kind == "deductive"}
    core = {p for p in certain if p[0] in deductive and p[1] in deductive}
    return certain, questionable, core, warnings


def constraint_pins(args, declared, constraint_mode, certain=None) -> dict:
    """Att literals frozen by the deductive or certain integrity constraint."""
    deductive = [a.id for a in args if a.kind == "deductive"]
    if constraint_mode == "deductive":
        return {(x, y): (x, y) in declared for x in deductive for y in deductive}
    core = {p for p in certain if p[0] in deductive and p[1] in deductive}
    pins = {(x, y): False for x in deductive for y in deductive if (x, y) not in core}
    pins.update({p: True for p in certain})
    return pins


def completions(bare: Arg, base, pool, max_added):
    """Completions of a transmitted pair from belief base and claim pool, by
    added-set size, then position, pool claims before the transmitted claim."""
    base_c = [f for f in _dedup(base) if f not in bare.fixed_support]
    claims = _dedup(list(pool) + [bare.fixed_claim])
    out = []
    for r in range(min(max_added, len(base_c)) + 1):
        for combo in combinations(range(len(base_c)), r):
            psi = tuple(base_c[i] for i in combo)
            support = list(bare.fixed_support) + list(psi)
            if not L.consistent(support):
                continue
            for beta in claims:
                if L.entails(support, beta) and L.entails([beta], bare.fixed_claim):
                    out.append(Arg(bare.id, "enthymeme", bare.fixed_support,
                                   bare.fixed_claim, psi, beta))
    return out


def _tight(a: Arg) -> bool:
    fixed, added = list(a.fixed_support), list(a.added)
    return not any(
        L.entails(fixed + added[:i] + added[i + 1:], a.full_claim) for i in range(len(added))
    )


def acceptability(args, declared, new_attacks, base, pool, max_added=3):
    """(acceptable, witness) for one revised attack relation; the witness maps
    each enthymeme whose completion changes to its new completion."""
    ids = [a.id for a in args]
    amap = {a.id: a for a in args}
    enth = {a.id for a in args if a.kind == "enthymeme"}
    changed = sorted(
        (p for p in set(declared) ^ set(new_attacks) if p[0] in enth or p[1] in enth),
        key=lambda p: (ids.index(p[0]), ids.index(p[1])),
    )
    if not changed:
        return True, {}
    involved = [a for a in ids if a in enth and any(a in p for p in changed)]
    cands = {}
    for aid in involved:
        arg = amap[aid]
        bare = Arg(aid, "enthymeme", arg.fixed_support, arg.fixed_claim)
        cands[aid] = [arg] + [
            c for c in completions(bare, base, pool, max_added)
            if (c.added or c.full_claim != c.fixed_claim)
            and c.completion() != arg.completion()
            and _tight(c)
        ]
    chosen = {}

    def pick(aid):
        if aid in chosen:
            return chosen[aid]
        return None if aid in cands else amap[aid]

    def fits(pair):
        x, y = pick(pair[0]), pick(pair[1])
        if x is None or y is None:
            return True
        joint = L.consistent(list(x.content) + list(y.content))
        return not joint if pair in new_attacks else joint

    def search(i):
        if i == len(involved):
            return True
        aid = involved[i]
        for c in cands[aid]:
            chosen[aid] = c
            if all(fits(p) for p in changed if aid in p) and search(i + 1):
                return True
            del chosen[aid]
        return False

    if not search(0):
        return False, {}
    return True, {
        aid: c for aid, c in chosen.items() if c.completion() != amap[aid].completion()
    }


def exhaustive_graph(base, pool):
    """Every minimal consistent support from `base` entailing a claim of
    `pool`, numbered a1, a2, ... by support size, position, then claim; plus
    the defeater attacks."""
    base_c, pool_c = _dedup(base), _dedup(pool)
    args = []
    for r in range(len(base_c) + 1):
        for combo in combinations(range(len(base_c)), r):
            support = [base_c[i] for i in combo]
            if not L.consistent(support):
                continue
            for claim in pool_c:
                if not L.entails(support, claim):
                    continue
                if any(L.entails(support[:i] + support[i + 1:], claim) for i in range(r)):
                    continue
                args.append(Arg(f"a{len(args) + 1}", "deductive", support, claim))
    return args, defeater_pairs(args)


def abbreviate(support, certainty: dict, tau: Fraction):
    """The transmitted support: formulas whose certainty is below tau."""
    return [f for f in support if certainty.get(f, Fraction(0)) < tau]
