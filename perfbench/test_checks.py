"""Tests of the benchmark's own checks and of its independent UTS reference.

Run from the repository root:
  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import reference  # noqa: E402


def good_sim():
    return {
        "tasks": 125768, "steals": 4000, "steal_attempts": 90000,
        "tasks_stolen": 9000, "remote_ops": 300000, "blocking_ops": 250000,
        "blocking_ns": 10**9, "occupancy_wait_ns": 10**6,
        "makespan_ns": 2_000_000, "compute_ns": 125768 * 400,
        "steal_ns": 10**7, "search_ns": 10**8,
        "phase_ns": {"working": 1, "probing": 2},
    }


class NodeCount(unittest.TestCase):
    def test_accepts_exact_count(self):
        self.assertIsNone(checks.check_node_count(125768, 125768))

    def test_refuses_one_off(self):
        self.assertIsNotNone(checks.check_node_count(125767, 125768))
        self.assertIsNotNone(checks.check_node_count(125769, 125768))


class WorkLaw(unittest.TestCase):
    def test_accepts_makespan_at_bound(self):
        self.assertIsNone(checks.check_work_law(400 * 1000 // 4, 1000, 400, 4))

    def test_refuses_makespan_below_bound(self):
        self.assertIsNotNone(
            checks.check_work_law(400 * 1000 // 4 - 1, 1000, 400, 4))


class Repeatable(unittest.TestCase):
    def test_accepts_identical_results(self):
        self.assertIsNone(checks.check_repeatable(good_sim(), good_sim()))

    def test_ignores_host_measurements(self):
        a, b = good_sim(), good_sim()
        a["wall_s"], b["wall_s"] = 3.1, 3.4
        self.assertIsNone(checks.check_repeatable(a, b))

    def test_refuses_differing_virtual_results(self):
        for key in ("tasks", "steals", "remote_ops", "makespan_ns"):
            sim = good_sim()
            sim[key] += 1
            self.assertIsNotNone(checks.check_repeatable(sim, good_sim()), key)
        sim = good_sim()
        sim["phase_ns"] = {"working": 2, "probing": 1}
        self.assertIsNotNone(checks.check_repeatable(sim, good_sim()))


class Fig2(unittest.TestCase):
    def test_accepts_fewer_sws_ops(self):
        self.assertIsNone(checks.check_fig2(2.02, 5.1))

    def test_refuses_equal_or_more_sws_ops(self):
        self.assertIsNotNone(checks.check_fig2(5.1, 5.1))
        self.assertIsNotNone(checks.check_fig2(6.0, 5.1))


class CheckSim(unittest.TestCase):
    def test_good_simulation_passes(self):
        self.assertEqual(checks.check_sim(good_sim(), good_sim(), 125768, 400, 256), [])

    def test_collects_every_reason(self):
        sim = good_sim()
        sim["tasks"] -= 1
        sim["makespan_ns"] = 1
        self.assertEqual(len(checks.check_sim(sim, good_sim(), 125768, 400, 256)), 3)


class Reference(unittest.TestCase):
    def test_small_trees(self):
        # Depth-10 tree of seed 19 is the 16-PE smoke tree of
        # bench/engine_scale.cpp, which reports 4186 nodes and max depth 10.
        nodes, leaves, max_level = reference.tree_info(19, 10)
        self.assertEqual((nodes, max_level), (4186, 10))
        self.assertLess(leaves, nodes)


if __name__ == "__main__":
    unittest.main()
