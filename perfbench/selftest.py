"""Self-tests of the benchmark's own code.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import gen, oracle, spans  # noqa: E402
from perfbench.workloads import p90  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        first, second = gen.generate(120, 7), gen.generate(120, 7)
        self.assertEqual(first.rings, second.rings)
        self.assertEqual(first.defective, second.defective)
        self.assertEqual(first.border, second.border)
        self.assertEqual(gen.to_xml(first), gen.to_xml(second))
        plan_a, plan_b = gen.edit_plan(first, 3), gen.edit_plan(second, 3)
        self.assertEqual([next(plan_a) for _ in range(20)], [next(plan_b) for _ in range(20)])

    def test_other_seed_other_geometry_same_shares(self):
        first, second = gen.generate(120, 7), gen.generate(120, 8)
        self.assertNotEqual(first.rings, second.rings)
        self.assertEqual(first.shares(), second.shares())

    def test_border_edge_lies_on_or_one_ulp_off_the_neighbour_line(self):
        inputs = gen.generate(300, 11)
        self.assertEqual(len(inputs.border), 6)
        for index, (neighbour, variant) in inputs.border.items():
            line = min(x for x, _ in inputs.rings[neighbour])
            expected = {
                "on": line,
                "above": math.nextafter(line, math.inf),
                "below": math.nextafter(line, -math.inf),
            }[variant]
            edge = [x for x, _ in inputs.rings[index] if x == expected]
            self.assertEqual(len(edge), 2, (index, variant))
            self.assertEqual(max(x for x, _ in inputs.rings[index]), expected)
            self.assertTrue(gen._simple(inputs.rings[index]))

    def test_defective_rings_are_repaired_by_lenient_ingestion(self):
        from repro.cardirect.xmlio import configuration_from_xml

        inputs = gen.generate(200, 5)
        repairs = {}
        configuration, _ = configuration_from_xml(gen.to_xml(inputs), mode="lenient", repairs=repairs)
        self.assertEqual(len(configuration), 200)
        self.assertEqual(set(repairs), {inputs.ids[i] for i in inputs.defective})


class OracleTest(unittest.TestCase):
    def setUp(self):
        from repro.core.engine import create_engine

        self.inputs = gen.generate(40, 3)
        configuration = gen.configuration(self.inputs)
        self.regions, _broken = oracle.healthy_regions(configuration)
        self.ids = list(configuration.region_ids)
        exact = create_engine("exact")
        self.truth = {
            (p, q): exact.relation(self.regions[p], self.regions[q].bounding_box())
            for p in self.ids
            for q in self.ids
            if p != q
        }

    def test_exact_answers_all_agree(self):
        tally = oracle.Tally()
        oracle.check_relations(tally, lambda p, q: self.truth[(p, q)], self.regions, self.ids, self.ids[:5])
        self.assertEqual((tally.verified, tally.wrong), (5 * 39, 0))

    def test_a_corrupted_relation_is_flagged(self):
        from repro.core.relation import CardinalDirection

        answers = dict(self.truth)
        victim = (self.ids[0], self.ids[1])
        answers[victim] = CardinalDirection.parse("B:N" if str(answers[victim]) != "B:N" else "S")
        tally = oracle.Tally()
        oracle.check_relations(tally, lambda p, q: answers[(p, q)], self.regions, self.ids, self.ids[:2])
        self.assertEqual(tally.wrong, 1)
        self.assertLess(tally.agree_share, 1.0)
        self.assertIn(self.ids[0], tally.examples[0])

    def test_unanswered_pairs_are_skipped(self):
        answers = dict(self.truth)
        del answers[(self.ids[0], self.ids[1])]
        tally = oracle.Tally()
        oracle.check_relations(tally, lambda p, q: answers.get((p, q)), self.regions, self.ids, self.ids[:1])
        self.assertEqual((tally.verified, tally.wrong), (38, 0))

    def test_percentage_matrix_checks(self):
        from repro.core.matrix import PercentageMatrix
        from repro.core.relation import CardinalDirection
        from repro.core.tiles import Tile

        matrix = PercentageMatrix({Tile.N: 60.0, Tile.NE: 40.0, Tile.B: 1e-14})
        oracle.check_percentage_matrix(matrix, CardinalDirection.parse("N:NE"), "residue")
        with self.assertRaises(oracle.CheckFailed):
            oracle.check_percentage_matrix(matrix, CardinalDirection.parse("N"), "missing tile")
        with self.assertRaises(oracle.CheckFailed):
            oracle.check_percentage_matrix(matrix, CardinalDirection.parse("N:NE:E"), "empty tile")

    def test_round_trip_difference_is_found(self):
        from repro.core.relation import CardinalDirection

        changed = dict(self.truth)
        key = next(iter(changed))
        self.assertIsNone(oracle.first_difference(self.truth, changed))
        changed[key] = CardinalDirection.parse("SW")
        self.assertIn(str(key), oracle.first_difference(self.truth, changed) or "")
        with self.assertRaises(oracle.CheckFailed):
            oracle.check_pair_count(len(changed) - 1, 40, "pairs")


class LayerTableTest(unittest.TestCase):
    def spans(self):
        # iteration 0..10 s: parse 0..2, store 2..8 (engine 3..7), write 8..9.5
        def span(id, name, start, end, parent):
            return spans.Span(id, name, start, end, parent, 1)

        return [
            span(0, spans.ROOT, 0.0, 10.0, None),
            span(1, "parse", 0.0, 2.0, 0),
            span(2, "store", 2.0, 8.0, 0),
            span(3, "engine", 3.0, 7.0, 2),
            span(4, "write", 8.0, 9.5, 0),
        ]

    def test_self_times(self):
        own = spans.self_times(self.spans())
        self.assertEqual(own, {0: 0.5, 1: 2.0, 2: 2.0, 3: 4.0, 4: 1.5})

    def test_table_and_unattributed_share(self):
        table = {row["name"]: row for row in spans.layer_table(self.spans())}
        self.assertAlmostEqual(table["engine"]["share"], 0.4)
        self.assertAlmostEqual(table["store"]["total_s"], 6.0)
        self.assertAlmostEqual(sum(row["self_s"] for row in table.values()), 10.0)
        self.assertAlmostEqual(spans.unattributed_share(self.spans()), 0.05)

    def test_recorder_nests_and_groups_by_iteration(self):
        recorder = spans.Recorder()
        for _ in range(2):
            with recorder.iteration():
                with recorder.span("a"):
                    with recorder.span("b"):
                        pass
        names = [(s.name, s.parent, s.iteration) for s in recorder.spans]
        self.assertEqual(
            names,
            [(spans.ROOT, None, 1), ("a", 0, 1), ("b", 1, 1),
             (spans.ROOT, None, 2), ("a", 3, 2), ("b", 4, 2)],
        )
        self.assertEqual(len(spans.per_iteration(recorder.spans, "b")), 2)
        self.assertEqual(spans.Recorder(enabled=False).spans, [])

    def test_p90_has_ten_samples_beyond_at_a_hundred(self):
        values = list(range(1, 101))
        self.assertEqual(p90(values), 90)
        self.assertEqual(sum(1 for v in values if v > p90(values)), 10)


if __name__ == "__main__":
    unittest.main()
