"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (also echoed in the terminal
summary) and asserts it.  The run matrix drives every shipped scenario
over seeds 0..9 through the full pipeline exactly as the CLI would.
"""

import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from helpers import (dense_dynamics_jacobian, direct_eval, honoring_sequence,
                     random_instance, rollout)
from stlplan.decomposer import decompose
from stlplan.optimizer import (DynamicsModel, NlpProblem, SolverTolerances,
                               solve_nlp, unicycle_model)
from stlplan.satisfaction import stl_sat
from stlplan.scenario_cli import load_scenario, main, run_pipeline

SCENARIOS = ("scenario1", "scenario2", "scenario3")
SEEDS = tuple(range(10))
TIME_LIMIT = 120.0
LENGTH_REFS = {"scenario1": 32.15, "scenario2": 20.50, "scenario3": 14.97}


def _record(tag, ok, detail):
    line = f"{tag}: {'PASS' if ok else 'FAIL'} -- {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """All shipped scenarios over seeds 0..9, full pipeline per run."""
    out = tmp_path_factory.mktemp("matrix")
    runs = {}
    for name in SCENARIOS:
        scenario = load_scenario(name)
        rows = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            report = run_pipeline(scenario, seed=seed,
                                  out_dir=out / f"{name}-seed{seed}")
            rows.append((seed, report, time.perf_counter() - t0))
        runs[name] = (scenario, rows)
    return runs


def test_criterion_1_run_matrix_success_rate(matrix):
    parts = []
    ok = True
    for name in SCENARIOS:
        _, rows = matrix[name]
        good = sum(1 for _, rep, secs in rows
                   if rep.satisfied and secs <= TIME_LIMIT)
        slowest = max(secs for _, _, secs in rows)
        parts.append(f"{name} {good}/10 (slowest {slowest:.1f}s)")
        ok = ok and good >= 8
    _record("criterion 1 (>=8/10 satisfied runs per scenario, "
            "<=120s each)", ok, ", ".join(parts))


def test_criterion_2_trajectory_lengths(matrix):
    parts = []
    ok = True
    for name in SCENARIOS:
        _, rows = matrix[name]
        lengths = [rep.metrics["traj_length"] for _, rep, _ in rows
                   if rep.satisfied]
        ref = LENGTH_REFS[name]
        best = min(lengths) if lengths else math.inf
        parts.append(f"{name} best {best:.2f}m vs {ref:.2f}m")
        ok = ok and lengths and ref / 2.0 <= best <= 2.0 * ref
    _record("criterion 2 (best-of-10 length within 2x of the reference)",
            ok, ", ".join(parts))


def test_criterion_3_first_scenario_decomposition():
    scenario = load_scenario("scenario1")
    dec = decompose(scenario.formula, scenario.tau)
    ok = dec.cuts == (0, 200, 300, 500, 600)
    windows = [str(t.window) for t in dec.local_tasks]
    ok = ok and windows == ["[0,20]", "[20,30]", "[30,50]", "[50,60]"]
    subtasks = [sorted(str(s) for s in t.subtasks) for t in dec.local_tasks]
    ok = ok and subtasks == [
        ["G[0,10] F[0,10] mu1&mu2", "G[0,20] !mu4"],
        ["G[20,30] !mu4"],
        ["G[30,46] F[0,4] mu5"],
        []]
    dsets = {str(d.origin): [str(p) for p in d.pieces]
             for d in dec.disjunctive_sets}
    ok = ok and dsets == {
        "F[0,30] mu3": ["F[0,20] mu3", "F[20,30] mu3"],
        "F[0,60] mu6": ["F[0,20] mu6", "F[20,30] mu6", "F[30,50] mu6",
                        "F[50,60] mu6"]}
    _record("criterion 3 (first scenario cuts and local tasks, exact)",
            ok, f"cuts {dec.cuts}, {len(dec.local_tasks)} local tasks, "
                f"{len(dec.disjunctive_sets)} disjunctive sets")


def test_criterion_4_checker_agrees_with_the_oracle():
    rng = np.random.default_rng(2024)
    counts = {"F": 0, "G": 0, "FG": 0, "GF": 0}
    exact = 0
    mismatches = 0
    unsound_gf = 0
    for _ in range(2000):
        seq, sub = random_instance(rng, max_samples=40)
        counts[sub.kind] += 1
        ok, _ = stl_sat(seq, sub)
        truth = direct_eval(seq, sub)
        if sub.kind == "GF":
            if ok and not truth:
                unsound_gf += 1
        else:
            if ok == truth:
                exact += 1
            else:
                mismatches += 1
    ok = mismatches == 0 and unsound_gf == 0 and all(
        counts[k] > 100 for k in counts)
    _record("criterion 4 (2000 randomized instances agree with the "
            "direct double-loop evaluator)", ok,
            f"{exact} exact F/G/FG, {mismatches} mismatches, "
            f"{unsound_gf} unsound GF, mix {counts}")


def test_criterion_5_pairs_are_sufficient():
    rng = np.random.default_rng(77)
    satisfied = 0
    broken = 0
    while satisfied < 500:
        seq, sub = random_instance(rng, max_samples=30, inside_bias=0.8)
        ok, pairs = stl_sat(seq, sub)
        if not ok:
            continue
        satisfied += 1
        other = honoring_sequence(seq, sub, pairs, rng)
        if not direct_eval(other, sub):
            broken += 1
    _record("criterion 5 (pairs force satisfaction of any honoring "
            "sequence)", broken == 0,
            f"{satisfied} satisfied instances, {broken} broken replays")


def test_criterion_6_corridor_invariants(matrix):
    checked = 0
    violations = 0
    for name in SCENARIOS:
        scenario, rows = matrix[name]
        ws = scenario.workspace
        for _, rep, _ in rows:
            if rep.corridor is None:
                continue
            checked += 1
            cor = rep.corridor
            pts = rep.plan.waypoints.positions
            try:
                cor.validate(ws, pts)
            except Exception:
                violations += 1
                continue
            for box, p in zip(cor.boxes, pts):
                inside_ws = all(
                    bl <= l and h <= bh for l, h, bl, bh in
                    zip(box.lo, box.hi, ws.bounds.lo, ws.bounds.hi))
                if not (box.contains(p) and inside_ws):
                    violations += 1
                    break
                if any(box.open_intersects(o) for o in ws.obstacles):
                    violations += 1
                    break
            for k in range(1, len(cor.boxes)):
                # a waypoint still inside the previous box must reuse it
                if cor.boxes[k - 1].contains(pts[k]) and \
                        cor.boxes[k] is not cor.boxes[k - 1]:
                    violations += 1
                    break
    _record("criterion 6 (corridor invariants on every pipeline run)",
            checked >= 24 and violations == 0,
            f"{checked} corridors checked, {violations} violations")


def _fd_gradient_errors(rng):
    """Worst relative error of the analytic derivatives against central
    finite differences at one random trajectory point."""
    model = unicycle_model(0.1)
    K = 5
    n, m = model.state_dim, model.input_dim
    prob = NlpProblem(model=model, horizon=K, x0=np.zeros(n),
                      state_lb=np.full((K + 1, n), -np.inf),
                      state_ub=np.full((K + 1, n), np.inf),
                      input_lb=np.tile(model.input_lo, (K, 1)),
                      input_ub=np.tile(model.input_hi, (K, 1)),
                      q_weights=rng.uniform(0.5, 2.0, m),
                      r_weights=rng.uniform(0.5, 2.0, n))
    states = rng.uniform(-2.0, 2.0, size=(K + 1, n))
    inputs = rng.uniform(-1.0, 1.0, size=(K, m))
    lam = rng.normal(size=(K, n))
    rho = 10.0

    def merit(z):
        S, U = prob.unpack(z)
        c = prob.residuals(S, U)
        return (prob.cost(S, U) + float((lam * c).sum())
                + 0.5 * rho * float((c * c).sum()))

    z = prob.pack(states, inputs)
    gs, gu = prob.cost_grad(states, inputs)
    J = dense_dynamics_jacobian(prob,
                                *model.linearize(states[:-1], inputs)[1:])
    y = (lam + rho * prob.residuals(states, inputs)).ravel()
    grad = prob.pack(gs, gu) + J.T @ y

    h = 1e-6
    worst = 0.0
    for i in rng.integers(0, len(z), size=6):
        e = np.zeros_like(z)
        e[i] = h
        fd = (merit(z + e) - merit(z - e)) / (2 * h)
        worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(fd)))
        Sp, Up = prob.unpack(z + e)
        Sm, Um = prob.unpack(z - e)
        fd_col = (prob.residuals(Sp, Up)
                  - prob.residuals(Sm, Um)).ravel() / (2 * h)
        col = J[:, i]
        worst = max(worst, float(np.max(np.abs(col - fd_col)
                                        / np.maximum(1.0, np.abs(fd_col)))))
    return worst


def test_criterion_7_derivatives_kkt_and_violations(matrix):
    rng = np.random.default_rng(4242)
    worst_fd = max(_fd_gradient_errors(rng) for _ in range(50))
    fd_ok = worst_fd <= 1e-5

    # two-step scalar integrator with the hand-solved optimum
    def linearize(x, u):
        eye = np.ones(x.shape[:-1] + (1, 1))
        return x + u, eye, eye.copy()
    model = DynamicsModel(state_dim=1, input_dim=1, tau=1.0,
                          linearize_fn=linearize,
                          input_lo=(-10.0,), input_hi=(10.0,))
    prob = NlpProblem(model=model, horizon=2, x0=np.zeros(1),
                      state_lb=np.array([[0.0], [-np.inf], [1.0]]),
                      state_ub=np.array([[0.0], [np.inf], [2.0]]),
                      input_lb=np.full((2, 1), -10.0),
                      input_ub=np.full((2, 1), 10.0),
                      q_weights=np.ones(1), r_weights=np.ones(1))
    sol = solve_nlp(prob, init=(np.array([[0.0], [0.0], [1.0]]),
                                np.zeros((2, 1))),
                    tolerances=SolverTolerances(eps_feas=1e-9, eps_opt=1e-8,
                                                max_outer=60,
                                                max_inner=200))
    kkt_err = max(float(np.max(np.abs(sol.inputs.ravel() - [0.5, 0.5]))),
                  abs(sol.cost - 0.5),
                  float(np.max(np.abs(rollout(model, prob.x0, sol.inputs)
                                      - sol.states))))
    kkt_ok = sol.converged and kkt_err <= 1e-6

    worst_dyn = 0.0
    worst_bound = 0.0
    for name in SCENARIOS:
        for _, rep, _ in matrix[name][1]:
            if not rep.satisfied:
                continue
            worst_dyn = max(worst_dyn, rep.metrics["dynamics_violation"])
            worst_bound = max(worst_bound, rep.metrics["bound_violation"])
    viol_ok = worst_dyn <= 1e-4 and worst_bound <= 1e-4

    _record("criterion 7 (derivatives vs FD, 2-step optimum, re-checked "
            "violations)", fd_ok and kkt_ok and viol_ok,
            f"worst FD error {worst_fd:.2e}, 2-step error {kkt_err:.2e}, "
            f"worst dynamics defect {worst_dyn:.2e}, worst bound "
            f"violation {worst_bound:.2e}")


def test_criterion_8_repeated_runs_are_byte_identical(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        code = main(["run", "scenario1.json", "--seed", "7",
                     "--out", str(out)])
        assert code in (0, 2, 3)
        outs.append(out)
    names = ("plan.csv", "pairs.csv", "corridor.csv", "traj.csv")
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in names)
    present = all((o / n).exists() for o in outs for n in names)
    _record("criterion 8 (seed 7 reruns write byte-identical CSVs)",
            present and same,
            f"{len(names)} artifact files compared across two runs")
