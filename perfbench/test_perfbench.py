"""Self-tests of the benchmark: `python3 perfbench/run.py --selftest`."""

import itertools
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402

DEPSETS = [
    json.dumps({"program": "a", "funcs": ["vfs_read", "vfs_write"],
                "fields": {"file": {"f_mode": {"type": "fmode_t", "guarded": False}}},
                "tracepoints": ["sched_switch"], "syscalls": [], "lsm_hooks": []},
               separators=(", ", ": ")),
    json.dumps({"program": "b", "funcs": ["tcp_connect"], "fields": {"sock": {}},
                "tracepoints": [], "syscalls": ["openat2"], "lsm_hooks": ["file_open"]},
               separators=(", ", ": ")),
]
OBJECTS = ["objs/a.o", "objs/b.o"]


def stream_bytes(seed, batches):
    stream = gen.serve_batches(seed, DEPSETS, OBJECTS)
    return "\n".join(line for batch in itertools.islice(stream, batches)
                     for _, line in batch).encode()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(stream_bytes(7, 200), stream_bytes(7, 200))
        self.assertEqual(gen.object_order(7, ["x", "y", "z"], 10),
                         gen.object_order(7, ["x", "y", "z"], 10))
        self.assertEqual(gen.derived_seed(7, "ds17"), gen.derived_seed(7, "ds17"))

    def test_other_seed_other_bytes(self):
        self.assertNotEqual(stream_bytes(7, 200), stream_bytes(8, 200))
        self.assertNotEqual(gen.derived_seed(7, "ds17"), gen.derived_seed(8, "ds17"))

    def test_mix_shares_and_keys(self):
        batch_list = list(itertools.islice(gen.serve_batches(3, DEPSETS, OBJECTS), 400))
        requests = [pair for batch in batch_list for pair in batch]
        self.assertTrue(all(len(batch) == gen.BATCH_SIZE for batch in batch_list))
        hot = sum(key in DEPSETS for key, _ in requests) / len(requests)
        obj = sum('"object"' in key for key, _ in requests) / len(requests)
        self.assertAlmostEqual(hot, gen.HOT_SHARE, delta=0.02)
        self.assertAlmostEqual(obj, 1 - gen.HOT_SHARE - gen.COLD_SHARE, delta=0.01)
        ids = [json.loads(line)["id"] for _, line in requests]
        self.assertEqual(ids, list(range(1, len(requests) + 1)))
        for key, line in requests:
            request = json.loads(line)
            del request["id"]
            self.assertEqual(request, json.loads(key))

    def test_object_order_cycles_the_corpus(self):
        order = gen.object_order(5, ["x", "y", "z"], 7)
        self.assertEqual(sorted(order[:3]), ["x", "y", "z"])
        self.assertEqual(sorted(order[3:6]), ["x", "y", "z"])


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        for n in (20, 21, 36, 54, 99, 100, 200, 999, 1000, 5000, 10000):
            values = list(range(n, 0, -1))
            p, value = gen.tail(values)
            ordered = sorted(values)
            self.assertGreaterEqual(sum(v > value for v in ordered), 10, n)
            higher = [q for q in gen.TAIL_LADDER if q > p]
            if higher:
                self.assertLess(gen.nearest_rank(ordered, min(higher))[1], 10, n)

    def test_known_points(self):
        self.assertEqual(gen.tail(range(1, 21)), (50.0, 10))
        self.assertEqual(gen.tail(range(1, 1001))[0], 99.0)
        self.assertEqual(gen.tail(range(1, 10001))[0], 99.9)
        self.assertEqual(gen.tail(range(1, 37))[0], 70.0)

    def test_too_few_samples_fail(self):
        for n in (0, 1, 2, 19):
            with self.assertRaises(gen.TooFewSamples):
                gen.tail(range(n))
        with self.assertRaises(gen.TooFewSamples):
            gen.percentile(range(999), 99)
        self.assertEqual(gen.percentile(range(1, 1001), 99), 990)


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = gen.load_spec()

    def test_names_and_units(self):
        self.assertEqual(gen.check_names(self.spec), [])

    def test_checker_catches_bad_entries(self):
        bad = json.loads(json.dumps(self.spec))
        bad["per_layer"].append({"name": "bad name", "unit": "ms", "better": "lower"})
        bad["per_layer"].append({"name": "no.unit", "unit": "", "better": "lower"})
        bad["workloads"].append({"name": "setup_s", "why": "clash"})
        problems = gen.check_names(bad)
        self.assertEqual(len(problems), 3, problems)

    def test_workloads_have_runners(self):
        import run
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]), sorted(run.RUNNERS))
        self.assertIn("setup_s", [m["name"] for m in self.spec["end_to_end"]])


if __name__ == "__main__":
    unittest.main()
