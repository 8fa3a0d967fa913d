"""The oracles against cases derived by hand.

    python3 -m unittest discover -s argbench -p 'test_*.py'
"""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import logic as L  # noqa: E402
import oracle as O  # noqa: E402
import w_enthymeme  # noqa: E402

DATA = HERE.parent / "tests" / "data"
F1_ARGS = ("x", "y", "z", "t", "u")
F1_ATT = frozenset({("x", "y"), ("x", "t"), ("y", "x"), ("y", "z"), ("z", "u"), ("t", "u")})
F2_ATT = F1_ATT | {("x", "z"), ("y", "t")}


class Logic(unittest.TestCase):
    def test_render_reads_back(self):
        for text in ("a & !b", "(a & b | !a & c | !(b | a & c)) & !d",
                     "a -> b -> c", "(a -> b) -> c", "a <-> b <-> c", "a <-> (b <-> c)",
                     "!(a & b) | c", "(a & b) & c", "acc(x) -> !att(y,z)"):
            f = L.parse_goal(text) if "acc(" in text else L.parse(text)
            self.assertEqual(L.render(f), text)

    def test_models_in_canonical_order(self):
        f = L.parse("a | b")
        self.assertEqual(O.models(f, ["a", "b"], {}),
                         [frozenset("b"), frozenset("a"), frozenset("ab")])

    def test_entails_and_consistency(self):
        self.assertTrue(L.entails([L.parse("a"), L.parse("a -> b")], L.parse("b")))
        self.assertFalse(L.entails([L.parse("a | b")], L.parse("a")))
        self.assertFalse(L.consistent([L.parse("a"), L.parse("!a")]))

    def test_readme_dalal_revision(self):
        # models of phi (d false): {}, {c}, {b,c}, {a}, {a,b}, {a,b,c}; alpha
        # allows {a,c} (distance 1 from {a}) and {a,c,d} (distance 2)
        phi = L.parse("((a & b) | (!a & c) | !(b | (a & c))) & !d")
        alpha = L.parse("a & !b & c")
        self.assertEqual(len(O.models(phi, "abcd", {})), 6)
        self.assertEqual(O.dalal(phi, alpha, "abcd", {}, {}), [frozenset("ac")])

    def test_minimal_conflicts(self):
        a, ab, nb = L.parse("a"), L.parse("a -> b"), L.parse("!b")
        self.assertEqual(O.minimal_conflicts([a, ab, nb], []), [(a, ab, nb)])
        self.assertEqual(O.minimal_conflicts([a, nb], [ab]), [(a, nb)])
        self.assertEqual(O.minimal_conflicts([a], [nb]), [])
        self.assertEqual(O.minimal_conflicts([a], [a, L.parse("!a")]), [()])


class Frameworks(unittest.TestCase):
    def test_f1_stable_extensions(self):
        # {x,z} and {y,t} attack everything outside them; nothing is in both
        exts = O.stable_masks(O.att_mask(F1_ARGS, F1_ATT), 5)
        self.assertEqual({O.mask_args(F1_ARGS, m) for m in exts},
                         {frozenset("xz"), frozenset("yt")})
        self.assertEqual(O.acceptance(O.att_mask(F1_ARGS, F1_ATT), 5), (0, False))

    def test_odd_cycle_is_vacuous(self):
        args = ("a", "b", "c")
        att = O.att_mask(args, {("a", "b"), ("b", "c"), ("c", "a")})
        self.assertEqual(O.acceptance(att, 3), (0b111, True))

    def test_readme_f1_dalal_revision(self):
        # No single flip makes u skeptically accepted while t and z keep
        # attacking it; adding x->z and y->t (f2) gives extensions {x,u} and
        # {y,u}: 2 attack flips plus the flip of acc(u), weight 3.
        goal = L.parse_goal("acc(u) & att(t,u) & att(z,u)")
        best, solutions = O.revision(F1_ARGS, F1_ATT, goal, O.unit_att_pins(goal), "dalal", 10**5)
        self.assertEqual(best, 3)
        self.assertIn((F2_ATT, frozenset("u"), False), solutions)
        for attacks, accepted, vacuous in solutions:
            self.assertEqual(len(attacks ^ F1_ATT), 2)
            self.assertIn("u", accepted)
            self.assertEqual(O.entry_weight(F1_ARGS, F1_ATT, attacks, accepted, "dalal"), 3)

    def test_att_only_ignores_acceptance_flips(self):
        goal = L.parse_goal("acc(u) & att(t,u) & att(z,u)")
        best, solutions = O.revision(F1_ARGS, F1_ATT, goal, O.unit_att_pins(goal),
                                     "att-only", 10**5)
        self.assertEqual(best, 2)
        self.assertIn(F2_ATT, {s[0] for s in solutions})


class Enthymemes(unittest.TestCase):
    def test_f3_classification(self):
        # (d1,e1): gamma in e1's fixed part against d1's claim, both inside
        # the fixed parts; (d2,d1): deductive, !delta against delta; (e2,d2):
        # e2 conflicts only through its added rule and full claim.  e1's
        # claim gamma also defeats d1, which is not declared.
        fw = w_enthymeme.read_eaf((DATA / "f3.eaf").read_text())
        self.assertEqual(fw.ids, ("e1", "d1", "d2", "e2"))
        self.assertEqual(fw.certain, {("d1", "e1"), ("d2", "d1")})
        self.assertEqual(fw.questionable, {("e2", "d2")})
        self.assertEqual(fw.core, {("d2", "d1")})
        self.assertEqual(fw.warnings, ["undeclared defeater (e1,d1)"])

    def test_f3_acceptability(self):
        # Dropping (e2,d2) needs e2 consistent with d2's epsilon.  Its current
        # completion claims !epsilon; from the beliefs only eta -> iota gives a
        # tight completion (claim iota), the others add a droppable formula.
        fw = w_enthymeme.read_eaf((DATA / "f3.eaf").read_text())
        beliefs = L.parse_lines((DATA / "beliefs_completion.txt").read_text())
        claims = L.parse_lines((DATA / "claims_completion.txt").read_text())
        ok, witness = O.acceptability(fw.args, fw.declared, {("d2", "d1"), ("d1", "e1")},
                                      beliefs, claims)
        self.assertTrue(ok)
        self.assertEqual(list(witness), ["e2"])
        self.assertEqual((witness["e2"].support, witness["e2"].full_claim),
                         ((L.parse("eta"), L.parse("eta -> iota")), L.parse("iota")))
        ok, _ = O.acceptability(fw.args, fw.declared, {("d2", "d1"), ("d1", "e1")}, [], [])
        self.assertFalse(ok)

    def test_exhaustive_graph(self):
        # {a, a->b} gives b; {a->b, !b} gives !a; each claim defeats the other
        a, ab, nb = L.parse("a"), L.parse("a -> b"), L.parse("!b")
        args, attacks = O.exhaustive_graph([a, ab, nb], [L.parse("b"), L.parse("!a")])
        self.assertEqual([(x.id, x.support, x.full_claim) for x in args],
                         [("a1", (a, ab), L.parse("b")), ("a2", (ab, nb), L.parse("!a"))])
        self.assertEqual(attacks, {("a1", "a2"), ("a2", "a1")})

    def test_abbreviate(self):
        from fractions import Fraction
        f, g = L.parse("r"), L.parse("r -> u")
        self.assertEqual(O.abbreviate([f, g], {g: Fraction(9, 10)}, Fraction(1, 2)), [f])


if __name__ == "__main__":
    unittest.main()
