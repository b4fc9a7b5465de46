"""Tests of the benchmark's own arithmetic (perfbench/lib/benchlib.py).

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "lib"))
import benchlib  # noqa: E402


def span(id_, parent, name, start, end):
    return {"id": id_, "parent": parent, "name": name, "start_ns": start,
            "end_ns": end, "item": -1}


class NearestRank(unittest.TestCase):
    def test_picks_a_sample_never_interpolates(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.nearest_rank(values, 50), 50)
        self.assertEqual(benchlib.nearest_rank(values, 99), 99)
        self.assertEqual(benchlib.nearest_rank(values, 100), 100)
        self.assertEqual(benchlib.nearest_rank([3.0, 1.0, 2.0], 50), 2.0)

    def test_rank_rounds_up(self):
        # ceil(0.99 * 1000) = 990: ten samples lie beyond p99.
        values = list(range(1000))
        self.assertEqual(benchlib.nearest_rank(values, 99), 989)
        self.assertEqual(benchlib.beyond(1000, 99), 10)
        self.assertEqual(benchlib.beyond(999, 99), 9)
        # Under 100 samples p99 is the maximum.
        self.assertEqual(benchlib.nearest_rank([5, 1, 9, 2], 99), 9)

    def test_failures_sort_last(self):
        values = [1.0] * 98 + [math.inf, math.inf]
        self.assertEqual(benchlib.nearest_rank(values, 98), 1.0)
        self.assertEqual(benchlib.nearest_rank(values, 99), math.inf)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([1], 0)


class Sliced(unittest.TestCase):
    def test_one_slice_is_the_plain_percentile(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(benchlib.sliced(values, 50, 1),
                         benchlib.nearest_rank(values, 50))

    def test_a_disturbed_slice_does_not_move_the_median(self):
        calm = [1.0] * 100
        stalled = [1.0] * 90 + [50.0] * 10
        values = calm + stalled + calm
        self.assertEqual(benchlib.nearest_rank(values, 99), 50.0)
        self.assertEqual(benchlib.sliced(values, 99, 3), 1.0)

    def test_slices_are_contiguous_and_cover_every_sample(self):
        # Equal-count slices [1 2] [2 3 3] [3 4] [4 4 4]: maxima 2 3 4 4.
        values = [1, 2, 2, 3, 3, 3, 4, 4, 4, 4]
        self.assertEqual(benchlib.sliced(values, 100, 4), 3.5)
        with self.assertRaises(ValueError):
            benchlib.sliced([1, 2], 50, 3)


class SliceCount(unittest.TestCase):
    def test_every_slice_keeps_ten_beyond_its_percentile(self):
        self.assertEqual(benchlib.slice_count(120000, 99, 16), 16)
        self.assertEqual(benchlib.slice_count(1080, 99, 8), 1)
        self.assertEqual(benchlib.slice_count(1080, 50, 8), 8)
        self.assertEqual(benchlib.slice_count(2500, 99, 8), 2)
        self.assertEqual(benchlib.slice_count(50, 99, 8), 1)
        for n, pct, most in ((120000, 99, 16), (1080, 50, 8), (2500, 99, 8)):
            k = benchlib.slice_count(n, pct, most)
            self.assertGreaterEqual(benchlib.beyond(n // k, pct), 10)


class BacklogAndLadder(unittest.TestCase):
    def test_flat_backlog_is_not_growing(self):
        self.assertFalse(benchlib.backlog_growing([4, 6, 5, 4, 6, 5], 1000, 5))

    def test_growth_within_littles_law_slack_is_allowed(self):
        # 1000 req/s under a 5 ms limit allows 5 more in flight.
        self.assertFalse(benchlib.backlog_growing([2, 2, 4, 6, 7, 7], 1000, 5))
        self.assertTrue(benchlib.backlog_growing([2, 2, 5, 9, 9, 9], 1000, 5))

    def test_short_series_is_not_judged(self):
        self.assertFalse(benchlib.backlog_growing([0, 100], 1000, 5))

    def test_step_verdict_rules_in_order(self):
        ok = [1.0] * 200
        flat = [3, 3, 3, 3, 3, 3]
        self.assertEqual(benchlib.step_verdict(ok, flat, 1000, 5, 0.1, 1),
                         "pass")
        self.assertEqual(benchlib.step_verdict(ok, flat, 1000, 5, 2.0, 1),
                         "generator_late")
        slow = [1.0] * 190 + [9.0] * 10
        self.assertEqual(benchlib.step_verdict(slow, flat, 1000, 5, 0.1, 1),
                         "p99_over_limit")
        failed = [1.0] * 197 + [math.inf] * 3
        self.assertEqual(benchlib.step_verdict(failed, flat, 1000, 5, 0.1, 1),
                         "p99_over_limit")
        growing = [0, 0, 50, 100, 200, 300]
        self.assertEqual(benchlib.step_verdict(ok, growing, 1000, 5, 0.1, 1),
                         "backlog_growing")
        self.assertEqual(benchlib.step_verdict([], flat, 1000, 5, 0.1, 1),
                         "empty")
        # Sliced: a stall confined to one of four slices does not fail it.
        stall = [1.0] * 150 + [9.0] * 10 + [1.0] * 40
        self.assertEqual(benchlib.step_verdict(stall, flat, 1000, 5, 0.1, 1),
                         "p99_over_limit")
        self.assertEqual(
            benchlib.step_verdict(stall, flat, 1000, 5, 0.1, 1, slices=4),
            "pass")

    def test_ladder_bisects_to_the_last_passing_rung(self):
        measured = []

        def measure(rate):
            measured.append(rate)
            return "pass" if rate <= 3000 else "p99_over_limit"
        ladder = [1000, 5000, 2000, 3000, 4000, 6000, 7000]
        best, walked = benchlib.ladder_max_rate(ladder, measure)
        self.assertEqual(best, 3000)
        self.assertEqual(measured, [4000, 2000, 3000])
        self.assertEqual(walked, [(4000, "p99_over_limit"), (2000, "pass"),
                                  (3000, "pass")])

    def test_ladder_edges(self):
        best, walked = benchlib.ladder_max_rate([100, 200, 300],
                                                lambda rate: "backlog_growing")
        self.assertEqual(best, 0)
        self.assertEqual([r for r, _ in walked], [200, 100])
        best, _ = benchlib.ladder_max_rate([100, 200, 300], lambda r: "pass")
        self.assertEqual(best, 300)
        rungs = [round(4000 * 1.05 ** k) for k in range(48)]
        for capacity in (4100, 9000, 25000, 39000):
            best, walked = benchlib.ladder_max_rate(
                rungs, lambda r: "pass" if r <= capacity else "x")
            self.assertEqual(best, max(r for r in rungs if r <= capacity))
            self.assertLessEqual(len(walked), 6)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        spans = [span(1, 0, "a", 0, 10)]
        self.assertEqual(benchlib.self_times(spans), {1: 10})

    def test_children_are_subtracted(self):
        spans = [span(1, 0, "req", 0, 100), span(2, 1, "parse", 10, 20),
                 span(3, 1, "sim", 30, 80)]
        self.assertEqual(benchlib.self_times(spans), {1: 40, 2: 10, 3: 50})

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, "fanout", 0, 100), span(2, 1, "cell", 10, 60),
                 span(3, 1, "cell", 40, 90)]
        self.assertEqual(benchlib.self_times(spans)[1], 100 - 80)

    def test_children_outside_the_parent_are_clipped(self):
        spans = [span(1, 0, "req", 10, 20), span(2, 1, "late", 0, 15),
                 span(3, 1, "wire", 18, 40)]
        self.assertEqual(benchlib.self_times(spans)[1], 10 - 5 - 2)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(1, 0, "cell", 0, 100), span(2, 1, "run", 0, 90),
                 span(3, 2, "step", 0, 60)]
        self.assertEqual(benchlib.self_times(spans), {1: 10, 2: 30, 3: 60})


class LayerTable(unittest.TestCase):
    def test_shares_of_lane_thread_time(self):
        # Two lanes of 100 ns each under one fan-out: 200 ns of thread time.
        spans = [span(1, 0, "exec.fanout", 0, 100),
                 span(2, 1, "exec.lane", 0, 100),
                 span(3, 1, "exec.lane", 0, 100),
                 span(4, 2, "exec.cell", 0, 80),
                 span(5, 4, "core.run", 10, 80),
                 span(6, 3, "exec.cell", 0, 100),
                 span(7, 6, "core.run", 0, 90),
                 span(8, 0, "unrelated", 0, 1000)]
        rows = {name: (ns, share) for name, ns, share in
                benchlib.layer_table(spans, {"exec.lane"})}
        self.assertEqual(rows["core.run"], (160, 0.8))
        self.assertEqual(rows["exec.cell"], (20, 0.1))
        self.assertEqual(rows["exec.lane"], (20, 0.1))
        self.assertNotIn("unrelated", rows)
        self.assertNotIn("exec.fanout", rows)
        self.assertAlmostEqual(sum(share for _, share in rows.values()), 1.0)

    def test_request_path_table(self):
        spans = [span(1, 0, "client.hit", 0, 10), span(2, 1, "gen.late", 0, 2),
                 span(3, 1, "client.wire", 2, 10),
                 span(4, 0, "client.request", 20, 50),
                 span(5, 4, "client.wire", 20, 50)]
        rows = {name: ns for name, ns, _ in
                benchlib.layer_table(spans, {"client.hit", "client.request"})}
        self.assertEqual(rows, {"client.hit": 0, "gen.late": 2,
                                "client.wire": 38, "client.request": 0})


if __name__ == "__main__":
    unittest.main()
