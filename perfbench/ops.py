"""Workload inputs and the operations the benchmark times.

An input is (scenario, pipeline seed); nothing about an input depends
on how earlier ops turned out.

  plan         PLAN_INPUTS inputs, round-robin over the shipped
               scenarios with pipeline seeds SEED_BLOCK * s, +1, ... for
               workload seed s, run in passes until time is up
  pipeline     each shipped scenario at the seed its file names (what
               `stlplan run <scenario>` does), in passes over the three
               whose order the workload seed shuffles
  matrix       op j: shipped scenario j mod 3, pipeline seed
               10 * s + j // 3, so workload seed 0 walks the matrix of
               the shipped scenarios over seeds 0..9

The pipeline workload keeps its inputs fixed because run_pipeline's cost
varies far more between seeds (0.3 s to 8 s, and 40 s to 110 s when a
solve stalls) than a run of tens of ops can average out; the matrix
workload measures that variation.
"""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import numpy as np

import check

SCENARIOS = ("scenario3", "scenario2", "scenario1")
SEED_BLOCK = 10_000
PLAN_INPUTS = 120
MATRIX_SEEDS = 10


class OpFailed(Exception):
    """The program gave up on an input (a classified failure, not a
    wrong answer).  outcomes lists how each attempt it made ended."""

    def __init__(self, message, outcomes):
        super().__init__(message)
        self.outcomes = outcomes


class Pkg:
    """The stlplan modules, looked up at call time so that a tracer's
    wrappers are seen."""

    def __init__(self):
        import stlplan.corridor
        import stlplan.decomposer
        import stlplan.optimizer
        import stlplan.satisfaction
        import stlplan.scenario_cli
        import stlplan.st_planner
        import stlplan.stl_core
        self.corridor = stlplan.corridor
        self.decomposer = stlplan.decomposer
        self.optimizer = stlplan.optimizer
        self.satisfaction = stlplan.satisfaction
        self.scenario_cli = stlplan.scenario_cli
        self.st_planner = stlplan.st_planner
        self.stl_core = stlplan.stl_core


class Case:
    """One scenario as the program loads it plus the independent spec."""

    def __init__(self, pkg, path):
        text = Path(path).read_text()
        self.scenario = pkg.scenario_cli.load_scenario(str(path))
        self.spec = check.TaskSpec(json.loads(text))
        self.name = self.scenario.name


def shipped_scenario_paths(pkg):
    base = Path(pkg.scenario_cli.__file__).parent / "scenarios"
    return [base / f"{name}.json" for name in SCENARIOS]


def load_cases(pkg):
    return [Case(pkg, p) for p in shipped_scenario_paths(pkg)]


class Inputs:
    """The input sequence of one run: inputs[j] is op j's."""

    def __init__(self, workload, cases, workload_seed):
        self.workload = workload
        self.cases = cases
        self.seed = workload_seed
        self._order = []
        self._rng = random.Random(workload_seed)

    def __getitem__(self, j):
        n = len(self.cases)
        if self.workload == "plan":
            j %= PLAN_INPUTS
            return self.cases[j % n], SEED_BLOCK * self.seed + j // n
        if self.workload == "pipeline":
            while len(self._order) <= j:
                self._order += self._rng.sample(range(n), n)
            case = self.cases[self._order[j]]
            return case, case.scenario.seed
        return self.cases[j % n], MATRIX_SEEDS * self.seed + j // n


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()


def _polyline_length(points):
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


def plan_op(pkg, case, seed, out_dir):
    """Everything one pipeline attempt does before solve_nlp, replanning
    on corridor and transcription failures with run_pipeline's own seed
    stride and replan limit."""
    cli = pkg.scenario_cli
    sc = case.scenario
    ws = sc.workspace
    v_max = sc.model.speed_limit
    K = sc.horizon_steps
    dec = pkg.decomposer.decompose(sc.formula, sc.tau)
    outcomes = []
    for attempt in range(1 + cli._REPLAN_LIMIT):
        params = replace(sc.planner,
                         rng_seed=seed + cli._SEED_STRIDE * attempt)
        try:
            plan = pkg.st_planner.plan_global(dec, sc.x0[:2], ws, params,
                                              tau=sc.tau, v_max=v_max)
            plan.validate(ws, v_max, expected_len=K + 1)
        except pkg.stl_core.StlError as err:
            outcomes.append("failed:plan")
            raise OpFailed(f"failed:plan ({err})", outcomes) from None
        try:
            cor = pkg.corridor.construct_safe_corridor(plan.waypoints, ws,
                                                       sc.corridor_step)
            cor.validate(ws, plan.waypoints.positions)
        except pkg.corridor.CorridorError:
            outcomes.append("failed:corridor")
            continue
        try:
            problem = pkg.optimizer.build_nlp(plan, cor, ws, sc.model, sc.x0,
                                              q_weights=sc.q_weights,
                                              r_weights=sc.r_weights)
        except pkg.optimizer.InfeasibleConstraintError:
            outcomes.append("failed:optimize-infeasible")
            continue
        states, inputs = pkg.optimizer.initial_guess(
            problem, plan.waypoints.positions)
        outcomes.append("planned")
        return outcomes, (plan, cor, problem, states, inputs)
    raise OpFailed(f"no attempt planned: {outcomes}", outcomes)


def check_plan(pkg, case, raw):
    plan, cor, problem, states, inputs = raw
    cli = pkg.scenario_cli
    pts = plan.waypoints.positions
    pairs = [(p.k, p.label) for p in plan.pairs]
    boxes = [(b.lo, b.hi) for b in cor.boxes]
    problems = check.plan_problems(case.spec, pts, pairs, boxes)
    lb, ub = problem.flat_bounds()
    z = problem.pack(states, inputs)
    if np.any(z < lb) or np.any(z > ub):
        problems.append("initial guess leaves the transcription bounds")
    digest = _sha(cli.plan_csv_text(plan), cli.pairs_csv_text(plan),
                  cli.corridor_csv_text(cor), states.tobytes(),
                  inputs.tobytes())
    return digest, _polyline_length(pts), problems


def pipeline_op(pkg, case, seed, out_dir):
    """run_pipeline exactly as a library user calls it."""
    report = pkg.scenario_cli.run_pipeline(case.scenario, seed=seed,
                                           out_dir=str(out_dir))
    outcomes = list(report.metrics.get("attempt_outcomes", []))
    if not report.satisfied:
        raise OpFailed(f"{report.status}: {report.error}", outcomes)
    return outcomes, report


def check_pipeline(pkg, case, report):
    text = pkg.scenario_cli.traj_csv_text(report.solution, case.scenario.tau)
    problems = check.trajectory_problems(case.spec, text)
    states, _ = check.parse_traj_csv(text)
    return _sha(text), _polyline_length(states[:, :2]), problems


WORKLOADS = {
    "plan": (plan_op, check_plan),
    "pipeline": (pipeline_op, check_pipeline),
    "matrix": (pipeline_op, check_pipeline),
}


def run_op(pkg, workload, case, seed, out_dir):
    """Run one op; the caller times this call and nothing else."""
    return WORKLOADS[workload][0](pkg, case, seed, out_dir)


def check_op(pkg, workload, case, raw):
    """(output digest, delivered path length, problems) of one op."""
    return WORKLOADS[workload][1](pkg, case, raw)
