"""Self-tests of the benchmark's own arithmetic, checks and tracing.

    python3 perfbench/selftest.py

Run from the root of a checkout.  The traced-op tests run the real
pipeline on scenario3 and scenario1 and take about ten seconds.
"""

import json
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import check  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import trace  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = {0: (None, 0.0, 10.0),
                 1: (0, 1.0, 4.0), 2: (1, 2.0, 3.0),
                 3: (0, 5.0, 9.0)}
        self.assertEqual(stats.self_times(spans),
                         {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})

    def test_self_times_sum_to_the_root(self):
        spans = {0: (None, 0.0, 8.0), 1: (0, 0.5, 7.5), 2: (1, 1.0, 2.0),
                 3: (1, 2.0, 6.0), 4: (3, 3.0, 4.0)}
        self.assertAlmostEqual(sum(stats.self_times(spans).values()), 8.0)


class PercentileTest(unittest.TestCase):
    def test_median_and_tail_with_counts(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), (50.5, 50))
        value, beyond = stats.percentile(xs, 90)
        self.assertAlmostEqual(value, 90.1)
        self.assertEqual(beyond, 10)
        self.assertEqual(stats.percentile(xs, 100), (100, 0))
        self.assertEqual(stats.percentile(xs, 0), (1, 99))

    def test_order_and_ties(self):
        self.assertEqual(stats.percentile([3.0, 1.0, 2.0], 50), (2.0, 1))
        self.assertEqual(stats.percentile([5.0] * 4, 90), (5.0, 0))
        self.assertEqual(stats.percentile([7.0], 50), (7.0, 0))

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


class ScaledLatencyTest(unittest.TestCase):
    def test_wall_times_scale_by_the_nearby_reference_median(self):
        ref = run.REFERENCE_S
        recs = [{"wall": 1.0, "reference": ref * f}
                for f in (1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0)]
        scaled = run.scaled_latencies(recs)
        # op 0 sees references of ops 0..2; op 3 sees ops 1..5
        self.assertAlmostEqual(scaled[0], 1.0)
        self.assertAlmostEqual(scaled[3], 0.5)
        self.assertAlmostEqual(scaled[6], 0.5)

    def test_a_uniform_slowdown_cancels(self):
        quiet = [{"wall": w, "reference": 0.01} for w in (0.1, 0.2, 0.3)]
        slow = [{"wall": 1.5 * r["wall"], "reference": 1.5 * r["reference"]}
                for r in quiet]
        for a, b in zip(run.scaled_latencies(quiet),
                        run.scaled_latencies(slow)):
            self.assertAlmostEqual(a, b)


class GmeanTest(unittest.TestCase):
    def test_every_input_weighs_the_same(self):
        # medians 1 and 4: a slow input run once counts like a fast one
        # run many times
        self.assertAlmostEqual(stats.gmean_of_medians(
            [[1.0, 0.9, 1.1, 1.0, 5.0], [4.0]]), 2.0)
        with self.assertRaises(ValueError):
            stats.gmean_of_medians([])


class NameTest(unittest.TestCase):
    def test_charset(self):
        for good in ("latency_s.p50", "scenario_cli.attempt_fail.optimize-"
                     "infeasible", "9lives", "a" * 64):
            self.assertTrue(stats.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a:b", "a" * 65, "é"):
            self.assertFalse(stats.valid_name(bad), bad)
        for good in ("ms", "1/s", "%", "attempts/op", "s/op"):
            self.assertTrue(stats.valid_unit(good), good)
        for bad in ("", "a b", "x" * 17, "m²"):
            self.assertFalse(stats.valid_unit(bad), bad)

    def test_every_emitted_name_and_unit_is_valid(self):
        layer = trace.LayerTotals().metrics()
        for name in list(run.E2E_UNITS) + list(layer) + list(
                run.ALL_WORKLOADS):
            self.assertTrue(stats.valid_name(name), name)
        for unit in list(run.E2E_UNITS.values()) + [
                trace.metric_unit(n) for n in layer]:
            self.assertTrue(stats.valid_unit(unit), unit)

    def test_benchmark_json_lists_emitted_metrics(self):
        path = HERE.parent / "BENCHMARK.json"
        spec = json.loads(path.read_text())
        layer = trace.LayerTotals().metrics()
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         set(run.E2E_UNITS))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], run.E2E_UNITS[m["name"]])
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         list(trace.REPORTED))
        for m in spec["per_layer"]:
            self.assertIn(m["name"], layer)
            self.assertEqual(m["unit"], trace.metric_unit(m["name"]))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.LISTED_WORKLOADS))


TINY = {
    "tau": 0.5,
    "workspace": {"bounds": [[0, 4], [0, 4]],
                  "obstacles": [[[1.5, 2.0], [0.0, 2.5]]],
                  "regions": {"a": [[2.5, 3.5], [2.5, 3.5]],
                              "b": [[0.0, 1.0], [3.0, 4.0]]}},
    "formula": "F[0,1] G[0,0.5] a & !b U[0,1.5] a",
    "x0": [0.5, 0.5, 0.0],
    "dynamics": {"model": "unicycle"},
}


class IndependentCheckTest(unittest.TestCase):
    def setUp(self):
        self.spec = check.TaskSpec(TINY)

    def test_clauses_and_until_strengthening(self):
        kinds = [c[0] for c in self.spec.clauses]
        self.assertEqual(kinds, ["FG", "G", "F"])
        self.assertEqual(self.spec.horizon, 3)
        inside = np.array([[3.0, 3.0]] * 4)
        self.assertEqual(check.task_problems(self.spec, inside), [])
        late = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [3.0, 3.0]])
        self.assertEqual(len(check.task_problems(self.spec, late)), 1)
        in_b = np.array([[0.5, 3.5], [3.0, 3.0], [3.0, 3.0], [3.0, 3.0]])
        self.assertEqual(len(check.task_problems(self.spec, in_b)), 1)

    def test_segments_crossing_or_touching_an_obstacle_hit(self):
        a = np.array([[1.0, 1.0], [1.0, 3.0], [1.0, 1.0], [1.5, 3.0]])
        b = np.array([[2.5, 1.0], [2.5, 3.0], [1.5, 1.0], [1.5, 2.6]])
        lo, hi = self.spec.obstacles[0]
        self.assertEqual(check.segment_hits(a, b, lo, hi).tolist(),
                         [True, False, True, False])

    def test_defect_input_bounds_and_collision_are_caught(self):
        tau = self.spec.tau
        states = np.array([[0.5, 0.5, 0.0], [1.0, 0.5, 0.0],
                           [1.0, 0.5, np.pi / 2], [1.0, 1.0, np.pi / 2]])
        inputs = np.array([[1.0, 0.0], [0.0, np.pi / 2 / tau],
                           [1.0, 0.0]])
        self.assertLess(check.dynamics_defect(self.spec, states, inputs),
                        1e-12)
        states[2, 0] += 1e-3
        self.assertAlmostEqual(
            check.dynamics_defect(self.spec, states, inputs), 1e-3)

        def csv(st, u):
            rows = ["k,t,x,y,theta,v,omega"]
            for k, s in enumerate(st):
                tail = f"{u[k][0]},{u[k][1]}" if k < len(u) else ","
                rows.append(f"{k},{k * tau},{s[0]},{s[1]},{s[2]},{tail}")
            return "\n".join(rows) + "\n"
        problems = check.trajectory_problems(self.spec, csv(states, inputs))
        self.assertTrue(any("defect" in p for p in problems), problems)
        self.assertTrue(any("does not hold" in p for p in problems))
        self.assertTrue(any("input" in p for p in problems))
        wall = np.array([[1.0, 1.0, 0.0], [2.5, 1.0, 0.0],
                         [2.5, 1.0, 0.0], [2.5, 1.0, 0.0]])
        self.assertTrue(check.path_problems(self.spec, wall[:, :2],
                                            polyline=True))


def _span(name, parent, start, end, error=None):
    return {"name": name, "parent": parent, "start": start, "end": end,
            "error": error, "info": None}


class CoverageTest(unittest.TestCase):
    """coverage and coverage_problem on hand-made spans of a two-attempt op."""

    def spans(self, solve_end):
        # op 0..10 s: decompose, then attempt 1 (1..4 s) fails to build,
        # attempt 2 (4..10 s) plans, builds and solves until solve_end
        return {0: _span("bench.op", None, 0.0, 10.0),
                1: _span("decomposer.decompose", 0, 0.0, 1.0),
                2: _span("st_planner.plan_global", 0, 1.0, 2.0),
                3: _span("optimizer.build_nlp", 0, 2.0, 4.0,
                         "InfeasibleConstraintError"),
                4: _span("st_planner.plan_global", 0, 4.0, 5.0),
                5: _span("optimizer.build_nlp", 0, 5.0, 6.0),
                6: dict(_span("optimizer.solve_nlp", 0, 6.0, solve_end),
                        info={"converged": True})}

    def test_covered_attempts_pass(self):
        spans = self.spans(9.8)
        attempts = trace.attempts_of(spans, 0)
        self.assertEqual([a["seconds"] for a in attempts], [3.0, 6.0])
        covered, problems = trace.coverage(spans, 0, attempts)
        self.assertAlmostEqual(covered, 9.8)
        self.assertEqual(problems, [])
        self.assertIsNone(trace.coverage_problem(covered, 10.0))

    def test_an_unwrapped_stage_is_uncovered_time(self):
        # 2 s of attempt 2 run in something no span wraps
        spans = self.spans(8.0)
        covered, problems = trace.coverage(spans, 0,
                                           trace.attempts_of(spans, 0))
        self.assertEqual(problems, [])
        self.assertIn("20.0%", trace.coverage_problem(covered, 10.0))

    def test_a_stage_before_the_first_attempt(self):
        spans = self.spans(9.8)
        spans[7] = _span("optimizer.build_nlp", 0, 0.2, 0.9)
        _, problems = trace.coverage(spans, 0, trace.attempts_of(spans, 0))
        self.assertEqual(problems, ["the first attempt overlaps other "
                                    "stages"])


class AttemptCountTest(unittest.TestCase):
    def test_a_failed_op_counts_every_attempt(self):
        outcomes = ["failed:corridor"] * 3 + ["failed:optimize"]

        def give_up(*args):
            raise ops.OpFailed("no luck", outcomes)
        stub = SimpleNamespace(
            ops=SimpleNamespace(run_op=give_up, OpFailed=ops.OpFailed),
            pkg=None, args=SimpleNamespace(workload="plan"),
            out_dir=lambda case: None)
        rec = run.Run.execute(stub, SimpleNamespace(name="s"), 1)
        self.assertFalse(rec["ok"])
        self.assertEqual(rec["attempts"], outcomes)
        rec["scenario"] = "s"
        passed = {"scenario": "t", "seed": 2, "ok": True, "wall": 1.0,
                  "reference": run.REFERENCE_S, "length": 3.0,
                  "attempts": ["satisfied"]}
        fake = SimpleNamespace(records=[rec, passed], t_start=0.0,
                               t_last=2.0)
        table, _ = run.e2e_metrics(fake, 0.5)
        self.assertEqual(table["attempts_per_op"], (2.5, 2))
        self.assertEqual(table["success_rate"], (0.5, 2))


class TracedOpTest(unittest.TestCase):
    """Real ops under the tracer: stage spans cover each op, attempts
    match run_pipeline's record, and tracing leaves outputs unchanged."""

    @classmethod
    def setUpClass(cls):
        cls.pkg = ops.Pkg()
        cls.cases = {c.name: c for c in ops.load_cases(cls.pkg)}

    def traced(self, name, seed, workload="matrix", tracer=trace.Tracer):
        case = self.cases[name]
        out = run.WORK / "selftest" / name
        plain_out, plain_raw = ops.run_op(self.pkg, workload, case, seed, out)
        plain_digest = ops.check_op(self.pkg, workload, case, plain_raw)[0]
        with tracer(self.pkg) as tr:
            root = tr.begin("bench.op")
            t0 = trace.clock()
            outcomes, raw = ops.run_op(self.pkg, workload, case, seed, out)
            wall = trace.clock() - t0
            tr.end(root)
            digest, _, problems = ops.check_op(self.pkg, workload, case,
                                               raw)
            spans, _ = tr.take()
        self.assertEqual(problems, [])
        self.assertEqual(digest, plain_digest)
        self.assertEqual(outcomes, plain_out)
        # the check ran outside the op's span and recorded nothing
        self.assertTrue(all(s["end"] <= spans[root]["end"]
                            for s in spans.values()))
        attempts = trace.attempts_of(spans, root)
        covered, problems = trace.coverage(spans, root, attempts)
        problem = trace.coverage_problem(covered, wall)
        return outcomes, attempts, problems + ([problem] if problem else [])

    def test_single_attempt_pipeline_op(self):
        outcomes, attempts, problems = self.traced("scenario3", 0)
        self.assertEqual(problems, [])
        self.assertEqual(outcomes, ["satisfied"])
        self.assertEqual([a["outcome"] for a in attempts], ["satisfied"])

    def test_replan_after_a_doorless_corridor(self):
        outcomes, attempts, problems = self.traced("scenario1", 3)
        self.assertEqual(problems, [])
        self.assertEqual(outcomes, ["failed:optimize-infeasible",
                                    "satisfied"])
        self.assertEqual([a["outcome"] for a in attempts], outcomes)
        self.assertIn("optimizer.build_nlp", attempts[0]["stages"])
        self.assertNotIn("optimizer.solve_nlp", attempts[0]["stages"])
        self.assertIn("optimizer.solve_nlp", attempts[1]["stages"])

    def test_plan_op_attempts(self):
        outcomes, attempts, problems = self.traced("scenario1", 3,
                                                   workload="plan")
        self.assertEqual(problems, [])
        self.assertEqual(outcomes, ["failed:optimize-infeasible", "planned"])
        self.assertEqual([a["outcome"] for a in attempts], outcomes)

    def test_an_unwrapped_solve_is_caught(self):
        class NoSolveSpan(trace.Tracer):
            def targets(self):
                return [t for t in super().targets()
                        if t[1] != "solve_nlp"]
        _, attempts, problems = self.traced("scenario3", 0,
                                            tracer=NoSolveSpan)
        self.assertEqual(len(problems), 1, problems)
        self.assertIn("uncovered", problems[0])

    def test_tracer_restores_the_package(self):
        before = self.pkg.scenario_cli.solve_nlp
        with trace.Tracer(self.pkg):
            self.assertIsNot(self.pkg.scenario_cli.solve_nlp, before)
        self.assertIs(self.pkg.scenario_cli.solve_nlp, before)
        self.assertIs(self.pkg.optimizer.solve_nlp, before)


if __name__ == "__main__":
    unittest.main()
