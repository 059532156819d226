"""Tests of the benchmark's own reductions: tail rule, error_frac, self
time, and the trace file round trip through the harness's writer.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import stats  # noqa: E402


def span(idx, name, start, end, parent=-1):
    return {"name": name, "start_ns": start, "end_ns": end, "span": idx,
            "parent": parent, "id": 7, "lane": 0}


# The tree the harness's trace-selftest mode writes: two overlapping children
# (cover 2000..8000 of the root) and a grandchild inside the second child.
TREE = [
    span(0, "root", 1000, 11000),
    span(1, "child", 2000, 5000, 0),
    span(2, "child", 4000, 8000, 0),
    span(3, "grandchild", 4500, 5500, 2),
    span(4, "other", 12000, 12001),
]


class TailRule(unittest.TestCase):
    def check(self, n, want_p, want_beyond):
        p, value, beyond = stats.tail(list(range(n, 0, -1)))  # any order
        self.assertEqual((p, beyond), (want_p, want_beyond))
        self.assertEqual(value, n - want_beyond)  # values are 1..n

    def test_ten_beyond_is_enough(self):
        self.check(100, 90.0, 10)

    def test_nine_beyond_is_not(self):
        self.check(99, 50.0, 49)
        self.check(20, 50.0, 10)

    def test_ladder_tops_out_at_p90(self):
        self.check(200000, 90.0, 20000)

    def test_too_few_samples_fall_back_to_median(self):
        self.check(5, 50.0, 2)

    def test_nearest_rank(self):
        s = [float(x) for x in range(1, 11)]
        self.assertEqual(stats.percentile(s, 50), (5.0, 5))
        self.assertEqual(stats.percentile(s, 90), (9.0, 1))
        self.assertEqual(stats.percentile(s, 99), (10.0, 0))
        # Exact in integers, where 99.9 / 100 * 10000 is not.
        self.assertEqual(stats.percentile(list(range(10000)), 99.9), (9989, 10))
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class MedianRate(unittest.TestCase):
    def test_steady_completions(self):
        ends = [1_000_000 * k for k in range(1, 101)]  # one per ms
        self.assertAlmostEqual(stats.median_rate(0, ends), 1000.0)

    def test_a_stall_slows_one_group_only(self):
        ends = [1_000_000 * k for k in range(1, 101)]
        ends[50:] = [e + 500_000_000 for e in ends[50:]]  # 0.5 s stall
        self.assertAlmostEqual(stats.median_rate(0, ends), 1000.0)

    def test_order_of_completions_does_not_matter(self):
        ends = [3_000_000, 1_000_000, 2_000_000, 4_000_000]
        self.assertAlmostEqual(stats.median_rate(0, ends, groups=2), 1000.0)

    def test_no_completions(self):
        self.assertEqual(stats.median_rate(0, []), 0.0)


class ErrorFrac(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(stats.error_frac(10, 0), 0.0)
        self.assertEqual(stats.error_frac(8, 2), 0.25)
        self.assertEqual(stats.error_frac(5, 5), 1.0)

    def test_nothing_attempted_is_total_failure(self):
        self.assertEqual(stats.error_frac(0, 0), 1.0)


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        self.assertEqual(stats.self_times(TREE),
                         {0: 4000, 1: 3000, 2: 3000, 3: 1000, 4: 1})

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, "p", 100, 200), span(1, "c", 150, 300, 0)]
        self.assertEqual(stats.self_times(spans)[0], 50)

    def test_contained_child_counts_once(self):
        spans = [span(0, "p", 0, 100), span(1, "c", 10, 90, 0),
                 span(2, "c", 20, 30, 0)]
        self.assertEqual(stats.self_times(spans)[0], 20)


class TraceRoundTrip(unittest.TestCase):
    def test_harness_writer_to_reader(self):
        run.build()
        with tempfile.TemporaryDirectory() as d:
            run.run_quiet([str(run.BINARY), "--mode", "trace-selftest",
                           "--workdir", d], 60)
            meta, spans = stats.load_trace(Path(d) / "trace.json")
        self.assertEqual(meta, {"selftest": True})
        # The writer rebases stamps on the earliest span.
        want = [dict(s, start_ns=s["start_ns"] - 1000, end_ns=s["end_ns"] - 1000,
                     id=8 if s["name"] == "other" else 7,
                     lane={1: 1, 2: 2, 3: 2}.get(s["span"], 0))
                for s in TREE]
        self.assertEqual(spans, want)
        self.assertEqual(stats.self_times(spans)[0], 4000)


if __name__ == "__main__":
    unittest.main()
