"""Workload `logic`: library callers of the propositional layer and of
Dalal revision, on fresh formulas (no formula is shared between queries).

A round holds 19 queries:

* `prop.models`, 4 queries: vocabularies of 12, 16, 20 and 24 variables in
  which unit literals pin all but 9 to 12; the rest are tied by 3-clauses.
* `revision.dalal_revise`, 3 queries: vocabularies of 10 to 12 variables,
  phi and alpha each leaving 7 or 8 variables free.
* `prop.entails`, 9 queries over Horn-style knowledge bases (units, chained
  implications, two binary clauses): an entailed and a not entailed literal
  at 10 and at 12 variables and an entailed one at 14, below
  `ENUMERATION_LIMIT` (20, the truth-table path), and one literal at each of
  21 to 24 variables, above it (the splitting search).  The truth-table side
  stops at 14 variables: an unsatisfiable scan costs 2^width evaluations,
  and at 16 to 20 variables one query alone takes 0.2 to 5 s.
* `prop.minimal_conflict_subsets`, 3 queries: 6 candidate formulas over 6 to
  8 variables, most of them on the same 3, against a context of 1 or 2.
"""

from __future__ import annotations

import random

import logic as L
import oracle as O

MODEL_SLOTS = [(12, 9), (16, 10), (20, 11), (24, 12)]  # (vocabulary, free)
DALAL_SLOTS = [(10, 7, 7), (11, 7, 8), (12, 8, 8)]  # (vocabulary, phi free, alpha free)
# (width, entailed): entailed or not on the truth-table side, either above the limit
ENTAILS_SLOTS = [(10, True), (10, False), (12, True), (12, False), (14, True)] + [
    (w, None) for w in (21, 22, 23, 24)]
CONFLICT_WIDTHS = (6, 7, 8)
ROUNDS_PER_SECOND = 3.5  # reference speed, see run.round_count


def _names(rng, width):
    names = [f"x{i}" for i in range(width)]
    rng.shuffle(names)
    return names


def _clause(rng, names, k):
    return L.disj(L.literal(v, rng.random() < 0.5) for v in rng.sample(names, k))


def _pinned(rng, names, free):
    """Unit literals on all but `free` names, and 3-clauses over the rest."""
    units = {v: rng.random() < 0.5 for v in names[free:]}
    clauses = [_clause(rng, names[:free], 3) for _ in range(free)]
    return units, L.conj([L.literal(v, b) for v, b in units.items()] + clauses)


class Query:
    def __init__(self, kind, texts, **spec):
        self.kind = kind
        self.texts = texts
        self.spec = spec

    def prepare(self, argent, workdir):
        parse = argent.prop.parse_formula
        self.parsed = [parse(t) for t in self.texts]
        self.vocabulary = argent.prop.Vocabulary(tuple(self.spec.get("vocabulary", ())))

    def run(self, argent):
        p = self.parsed
        if self.kind == "models":
            return argent.prop.models(p[0], self.vocabulary)
        if self.kind == "dalal":
            return argent.revision.dalal_revise(p[0], p[1], self.vocabulary)
        if self.kind == "entails":
            return argent.prop.entails(p[:-1], p[-1])
        n = self.spec["candidates"]
        return argent.prop.minimal_conflict_subsets(p[:n], p[n:])

    def summary(self, out):
        if self.kind == "entails":
            return out
        if self.kind == "conflicts":
            index = {id(f): i for i, f in enumerate(self.parsed)}
            return [[index[id(f)] for f in combo] for combo in out]
        return [sorted(m.true_set) for m in out]

    def check(self, got):
        s = self.spec
        if self.kind == "entails":
            want = L.entails(s["premises"], s["query"])
            return None if got is want else f"entails returned {got}, oracle {want}"
        if self.kind == "conflicts":
            forms, n = s["formulas"], s["candidates"]
            pos = {f: i for i, f in enumerate(forms)}
            want = [[pos[f] for f in combo] for combo in O.minimal_conflicts(forms[:n], forms[n:])]
            return None if got == want else f"conflict sets {got}, oracle {want}"
        if self.kind == "models":
            want = O.models(s["f"], s["vocabulary"], s["units"])
        else:
            want = O.dalal(s["phi"], s["alpha"], s["vocabulary"], s["phi_units"], s["alpha_units"])
        got = [frozenset(m) for m in got]
        return None if got == want else f"{len(got)} models, oracle {len(want)}"


def _models(rng, width, free):
    names = _names(rng, width)
    units, f = _pinned(rng, names, free)
    return Query("models", [L.render(f)], f=f, units=units, vocabulary=tuple(names))


def _dalal(rng, width, free_phi, free_alpha):
    names = _names(rng, width)
    phi_units, phi = _pinned(rng, names, free_phi)
    rng.shuffle(names)
    alpha_units, alpha = _pinned(rng, names, free_alpha)
    vocab = tuple(sorted(names, key=lambda v: int(v[1:])))
    return Query("dalal", [L.render(phi), L.render(alpha)], phi=phi, alpha=alpha,
                 phi_units=phi_units, alpha_units=alpha_units, vocabulary=vocab)


def _entails(rng, width, entailed):
    """A Horn-style base over `width` variables and a literal query; on the
    truth-table side the query is chosen to be entailed or not, as asked,
    since an entailed query costs a full 2^width scan."""
    names = _names(rng, width)
    premises = [L.var(v) for v in names[:2]]
    for i in range(2, width):
        body = rng.sample(names[:i], min(i, rng.choice((1, 1, 2))))
        head = L.literal(names[i], rng.random() < 0.85)
        premises.append(L.imp(L.conj(L.var(v) for v in body), head))
    for _ in range(2):
        premises.append(_clause(rng, names, 2))
    rng.shuffle(premises)
    literals = [L.literal(v, b) for v in names[2:] for b in (True, False)]
    rng.shuffle(literals)
    if entailed is None:
        query = literals[0]
    else:
        query = next((q for q in literals if L.entails(premises, q) is entailed), literals[0])
    forms = premises + [query]
    return Query("entails", [L.render(f) for f in forms], premises=premises, query=query)


def _conflicts(rng, width):
    names = _names(rng, width)
    core = names[:3]  # most formulas touch these, so conflicts are common
    forms = []
    while len(forms) < 8:
        a, b = rng.sample(core if rng.random() < 0.8 else names, 2)
        shape = rng.randrange(3)
        if shape == 0:
            f = L.literal(a, rng.random() < 0.5)
        elif shape == 1:
            f = L.imp(L.var(a), L.literal(b, rng.random() < 0.5))
        else:
            f = L.disj([L.literal(a, rng.random() < 0.5), L.literal(b, rng.random() < 0.5)])
        if f not in forms:
            forms.append(f)
    n_ctx = rng.choice((1, 2))
    return Query("conflicts", [L.render(f) for f in forms[: 6 + n_ctx]],
                 formulas=forms[: 6 + n_ctx], candidates=6)


def make_round(key: str) -> list[Query]:
    rng = random.Random(f"logic:{key}")
    out = [_models(rng, w, f) for w, f in MODEL_SLOTS]
    out += [_dalal(rng, *slot) for slot in DALAL_SLOTS]
    out += [_entails(rng, w, e) for w, e in ENTAILS_SLOTS]
    out += [_conflicts(rng, w) for w in CONFLICT_WIDTHS]
    return out


def probe_inputs(queries) -> dict:
    return {"formulas": [t for q in queries for t in q.texts]}

