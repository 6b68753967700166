import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from helpers import (band_to_dense, count_calls, dense_cost_hessian,
                     dense_dynamics_jacobian, make_ws,
                     reference_initial_guess, reference_newton_band,
                     reference_position_bounds,
                     reference_projected_gradient_norm, region_atom,
                     rollout)
from stlplan import optimizer, scenario_cli
from stlplan.corridor import (DEFAULT_STEP, SafeCorridor,
                              construct_safe_corridor)
from stlplan.optimizer import (DEFAULT_MARGIN, DynamicsModel,
                               InfeasibleConstraintError, NlpProblem,
                               OptimizationError, SolverTolerances,
                               _avoid_faces, _NewtonBand, _position_bounds,
                               build_nlp,
                               evaluate_solution, initial_guess,
                               solve_nlp, unicycle_linearize, unicycle_model)
from stlplan.satisfaction import SatisfactionPair, stl_sat
from stlplan.st_planner import GlobalPlan
from stlplan.stl_core import Box, PointSequence


# the cost weights of the transcription tests: every squared difference
# of consecutive inputs and states weighs 1
UNIT_WEIGHTS = {"q_weights": (1.0, 1.0), "r_weights": (1.0, 1.0, 1.0)}


def _plan(points, tau=0.1, pairs=()):
    return GlobalPlan(PointSequence(0, tau, points), pairs)


def _integrator(dim=1):
    """Scalar-per-axis single integrator, the smallest test model."""
    def linearize(x, u):
        batch = x.shape[:-1]
        eye = np.broadcast_to(np.eye(dim), batch + (dim, dim)).copy()
        return x + u, eye, eye.copy()
    return DynamicsModel(state_dim=dim, input_dim=dim, tau=1.0,
                         linearize_fn=linearize,
                         input_lo=(-10.0,) * dim, input_hi=(10.0,) * dim)


def _unicycle_step(x, u, tau):
    return unicycle_linearize(x, u, tau)[0]


def _unicycle_jacobians(x, u, tau):
    return unicycle_linearize(x, u, tau)[1:]


# ---------------------------------------------------------------------------
# dynamics

def test_unicycle_step_drives_straight():
    x1 = _unicycle_step([0.0, 0.0, 0.0], [1.0, 0.0], 0.1)
    assert np.allclose(x1, [0.1, 0.0, 0.0], atol=1e-15)


def test_unicycle_step_turns_while_heading_up():
    x1 = _unicycle_step([0.0, 0.0, math.pi / 2], [2.0, 1.0], 0.1)
    assert abs(x1[0]) <= 1e-12
    assert x1[1] == pytest.approx(0.2, abs=1e-12)
    assert x1[2] == pytest.approx(math.pi / 2 + 0.1, abs=1e-15)


def test_unicycle_jacobians_at_a_known_point():
    A, B = _unicycle_jacobians([0.0, 0.0, math.pi / 2], [2.0, 1.0], 0.1)
    assert np.allclose(A, [[1.0, 0.0, -0.2],
                           [0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0]], atol=1e-12)
    assert np.allclose(B, [[0.0, 0.0],
                           [0.1, 0.0],
                           [0.0, 0.1]], atol=1e-12)


def _two_evaluation_jacobians(x, u, tau):
    """The unicycle Jacobians with the sine and cosine of the heading
    evaluated once for A and again for B."""
    v, th = u[..., 0], x[..., 2]
    A = np.zeros(x.shape[:-1] + (3, 3))
    A[..., 0, 0] = A[..., 1, 1] = A[..., 2, 2] = 1.0
    A[..., 0, 2] = -tau * v * np.sin(th)
    A[..., 1, 2] = tau * v * np.cos(th)
    B = np.zeros(x.shape[:-1] + (3, 2))
    B[..., 0, 0] = tau * np.cos(th)
    B[..., 1, 0] = tau * np.sin(th)
    B[..., 2, 1] = tau
    return A, B


def test_unicycle_jacobians_match_finite_differences():
    rng = np.random.default_rng(7)
    tau = 0.1
    h = 1e-6
    # one sine and cosine per heading gives the two-evaluation bytes
    for _ in range(20):
        x = rng.uniform([-5, -5, -30.0], [5, 5, 30.0], size=(600, 3))
        u = rng.uniform([-4, -math.pi / 3], [4, math.pi / 3], size=(600, 2))
        for got, want in zip(_unicycle_jacobians(x, u, tau),
                             _two_evaluation_jacobians(x, u, tau)):
            assert got.tobytes() == want.tobytes()
    for _ in range(100):
        x = rng.uniform([-5, -5, -3 * math.pi], [5, 5, 3 * math.pi])
        u = rng.uniform([-4, -math.pi / 3], [4, math.pi / 3])
        A, B = _unicycle_jacobians(x, u, tau)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            col = (_unicycle_step(x + e, u, tau)
                   - _unicycle_step(x - e, u, tau)) / (2 * h)
            assert np.allclose(A[:, j], col, atol=1e-6)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            col = (_unicycle_step(x, u + e, tau)
                   - _unicycle_step(x, u - e, tau)) / (2 * h)
            assert np.allclose(B[:, j], col, atol=1e-6)


def test_batched_step_matches_per_row_calls():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-3, 3, size=(20, 3))
    us = rng.uniform(-2, 2, size=(20, 2))
    batch = _unicycle_step(xs, us, 0.1)
    for x, u, b in zip(xs, us, batch):
        assert np.allclose(_unicycle_step(x, u, 0.1), b, atol=1e-15)
    A, B = _unicycle_jacobians(xs, us, 0.1)
    for k in range(20):
        Ak, Bk = _unicycle_jacobians(xs[k], us[k], 0.1)
        assert np.allclose(A[k], Ak) and np.allclose(B[k], Bk)


def test_the_model_takes_sine_and_cosine_once_per_set_of_headings(
        monkeypatch):
    # one linearization gives the step and both Jacobians of the solver's
    # iterate from a single cosine and sine of its headings
    rng = np.random.default_rng(5)
    states = rng.uniform([-5, -5, -30.0], [5, 5, 30.0], size=(600, 3))
    u = rng.uniform([-4, -1], [4, 1], size=(600, 2))
    cos, sin = np.cos(states[:, 2]), np.sin(states[:, 2])
    calls = count_calls(monkeypatch, optimizer.np, "cos")
    sines = count_calls(monkeypatch, optimizer.np, "sin")
    step, A, B = unicycle_model(0.1).linearize(states, u)
    assert len(calls) == len(sines) == 1
    # the float operations on these headings' own cosine and sine
    v = u[:, 0]
    assert step[:, 0].tobytes() == (states[:, 0] + 0.1 * v * cos).tobytes()
    assert step[:, 1].tobytes() == (states[:, 1] + 0.1 * v * sin).tobytes()
    assert A[:, 0, 2].tobytes() == (-0.1 * v * sin).tobytes()
    assert A[:, 1, 2].tobytes() == (0.1 * v * cos).tobytes()
    assert B[:, 0, 0].tobytes() == (0.1 * cos).tobytes()
    assert B[:, 1, 0].tobytes() == (0.1 * sin).tobytes()


def test_rollout_chains_the_step_function():
    model = unicycle_model(0.1)
    rng = np.random.default_rng(3)
    inputs = rng.uniform([-4, -1], [4, 1], size=(30, 2))
    states = rollout(model, [1.0, 2.0, 0.3], inputs)
    assert states.shape == (31, 3)
    x = np.array([1.0, 2.0, 0.3])
    for k in range(30):
        x = model.step(x, inputs[k])
        assert np.allclose(states[k + 1], x, atol=1e-15)


def test_speed_limit_comes_from_the_input_bounds():
    assert unicycle_model(0.1).speed_limit == 4.0
    assert unicycle_model(0.1, v_bounds=(-1.0, 2.5)).speed_limit == 2.5


# ---------------------------------------------------------------------------
# transcription assembly

def test_one_step_problem_has_minimal_counts():
    ws = make_ws()
    plan = _plan([[1.0, 1.0], [1.2, 1.0]])
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    model = unicycle_model(0.1)
    prob = build_nlp(plan, cor, ws, model, np.array([1.0, 1.0, 0.0]),
                     **UNIT_WEIGHTS)
    assert prob.horizon == 1
    assert prob.state_lb.shape == (2, 3)
    assert prob.input_lb.shape == (1, 2)


def test_first_scenario_problem_counts(first_scenario_artifacts):
    prob = first_scenario_artifacts["problem"]
    assert prob.horizon == 600
    assert prob.state_lb.shape == (601, 3)
    assert prob.input_lb.shape == (600, 2)
    # at each certified step the position bounds lie inside a region to
    # visit and, for a region to avoid, clear of it on some axis
    for pair in first_scenario_artifacts["plan"].pairs:
        lb, ub = prob.state_lb[pair.k, :2], prob.state_ub[pair.k, :2]
        box = pair.prop.region.box
        if pair.prop.negated:
            assert np.any((ub < box.lo) | (lb > box.hi)), pair
        else:
            assert np.all((lb >= box.lo) & (ub <= box.hi)), pair


def test_initial_state_is_pinned_and_heading_is_free():
    ws = make_ws()
    plan = _plan([[1.0, 1.0], [1.2, 1.0], [1.4, 1.0]])
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    x0 = np.array([1.0, 1.0, 0.7])
    prob = build_nlp(plan, cor, ws, unicycle_model(0.1), x0, **UNIT_WEIGHTS)
    assert np.array_equal(prob.state_lb[0], x0)
    assert np.array_equal(prob.state_ub[0], x0)
    assert np.all(prob.state_lb[1:, 2] == -np.inf)
    assert np.all(prob.state_ub[1:, 2] == np.inf)


def test_margin_retreats_faces_but_never_past_a_waypoint():
    # waypoints ride the y = 0 workspace face, so the margin must yield
    # there while still holding on the x side
    ws = make_ws()
    pts = [[0.0, 0.0], [0.4, 0.0], [0.8, 0.0]]
    plan = _plan(pts)
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    prob = build_nlp(plan, cor, ws, unicycle_model(0.1),
                     np.array([0.0, 0.0, 0.0]), **UNIT_WEIGHTS)
    assert prob.state_lb[1, 1] == 0.0
    assert prob.state_lb[1, 0] == pytest.approx(DEFAULT_MARGIN)
    assert prob.state_ub[1, 0] == pytest.approx(10.0 - DEFAULT_MARGIN)


def test_membership_pairs_tighten_the_position_bounds():
    ws = make_ws()
    atom = region_atom("goal", (2.0, 2.0), (3.0, 3.0))
    pair = SatisfactionPair(2, atom.label, atom)
    plan = _plan([[1.0, 1.0], [1.7, 1.7], [2.4, 2.4]], pairs=[pair])
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    prob = build_nlp(plan, cor, ws, unicycle_model(0.1),
                     np.array([1.0, 1.0, 0.0]), **UNIT_WEIGHTS)
    assert tuple(prob.state_lb[2, :2]) == (2.0, 2.0)
    assert tuple(prob.state_ub[2, :2]) == (3.0, 3.0)


def test_avoidance_pairs_bound_one_axis_by_the_best_face():
    ws = make_ws()
    atom = region_atom("bad", (2.0, 2.0), (3.0, 3.0), negated=True)
    pair = SatisfactionPair(1, atom.label, atom)
    plan = _plan([[1.0, 2.5], [1.0, 2.5], [1.0, 2.5]], pairs=[pair])
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    prob = build_nlp(plan, cor, ws, unicycle_model(0.1),
                     np.array([1.0, 2.5, 0.0]), **UNIT_WEIGHTS)
    assert prob.state_ub[1, 0] == pytest.approx(2.0 - DEFAULT_MARGIN)
    assert prob.state_ub[1, 1] > 9.0  # other axes untouched


def test_avoid_face_selection_rules():
    lo = np.tile([2.0, 2.0], (4, 1))
    hi = np.tile([3.0, 3.0], (4, 1))
    wps = np.array([[1.0, 2.5], [3.5, 2.5], [1.5, 1.5], [2.5, 2.5]])
    axis, side, bound, clearance = _avoid_faces(lo, hi, wps, 1e-6)
    # left of the box: x is bounded from above, short of the low face
    assert (axis[0], side[0]) == (0, 0)
    assert bound[0] == pytest.approx(2.0 - 1e-6)
    # right of it: x is bounded from below, past the high face
    assert (axis[1], side[1]) == (0, 1)
    assert bound[1] == pytest.approx(3.0 + 1e-6)
    # exact tie between the x and y faces goes to the lower axis
    assert axis[2] == 0
    # inside the box no face has positive clearance
    assert clearance[3] <= 0.0


def test_waypoint_inside_a_certified_avoid_region_fails_early():
    ws = make_ws()
    atom = region_atom("bad", (2.0, 2.0), (3.0, 3.0), negated=True)
    pair = SatisfactionPair(1, atom.label, atom)
    plan = _plan([[2.5, 2.5], [2.5, 2.5]], pairs=[pair])
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    with pytest.raises(InfeasibleConstraintError):
        build_nlp(plan, cor, ws, unicycle_model(0.1),
                  np.array([2.5, 2.5, 0.0]), **UNIT_WEIGHTS)


def test_disjoint_membership_and_corridor_fail_early():
    # a full-height wall clips the corridor box at x = 3 while the pair
    # demands membership in a region entirely beyond the wall
    ws = make_ws(obstacles=[((3.0, 0.0), (4.0, 10.0))])
    atom = region_atom("far", (5.0, 5.0), (6.0, 6.0))
    pair = SatisfactionPair(1, atom.label, atom)
    plan = _plan([[1.0, 1.0], [1.0, 1.0]], pairs=[pair])
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    with pytest.raises(InfeasibleConstraintError):
        build_nlp(plan, cor, ws, unicycle_model(0.1),
                  np.array([1.0, 1.0, 0.0]), **UNIT_WEIGHTS)


def test_handoff_states_are_confined_to_the_doorway():
    ws = make_ws(bounds=((0.0, 0.0), (8.0, 6.0)))
    box_a = Box((0.0, 0.0), (4.0, 6.0))
    box_b = Box((3.0, 0.0), (8.0, 6.0))
    cor = SafeCorridor((box_a, box_a, box_b, box_b))
    plan = _plan([[1.0, 3.0], [2.0, 3.0], [4.5, 3.0], [5.0, 3.0]])
    prob = build_nlp(plan, cor, ws, unicycle_model(0.1),
                     np.array([1.0, 3.0, 0.0]), **UNIT_WEIGHTS)
    m = DEFAULT_MARGIN
    assert prob.state_lb[2, 0] == pytest.approx(3.0 + m)
    assert prob.state_ub[2, 0] == pytest.approx(4.0 - m)
    assert prob.state_lb[2, 1] == pytest.approx(0.0 + m)
    assert prob.state_ub[2, 1] == pytest.approx(6.0 - m)
    # neighbours keep their own box bounds
    assert prob.state_ub[1, 0] == pytest.approx(4.0 - m)
    assert prob.state_lb[3, 0] == pytest.approx(3.0 + m)


def test_zero_width_doorways_stay_pinned_to_the_shared_face():
    ws = make_ws(bounds=((0.0, 0.0), (8.0, 6.0)))
    box_a = Box((0.0, 0.0), (4.0, 6.0))
    box_b = Box((4.0, 0.0), (8.0, 6.0))
    cor = SafeCorridor((box_a, box_b))
    plan = _plan([[3.9, 3.0], [4.1, 3.0]])
    prob = build_nlp(plan, cor, ws, unicycle_model(0.1),
                     np.array([3.9, 3.0, 0.0]), **UNIT_WEIGHTS)
    assert prob.state_lb[1, 0] == 4.0
    assert prob.state_ub[1, 0] == 4.0


def test_boxes_sharing_no_doorway_fail_early():
    ws = make_ws()
    box_a = Box((0.0, 0.0), (2.0, 2.0))
    box_b = Box((3.0, 3.0), (5.0, 5.0))
    cor = SafeCorridor((box_a, box_b))
    plan = _plan([[1.0, 1.0], [4.0, 4.0]])
    with pytest.raises(InfeasibleConstraintError):
        build_nlp(plan, cor, ws, unicycle_model(0.1),
                  np.array([1.0, 1.0, 0.0]), **UNIT_WEIGHTS)


def _bounds_outcome(fn, pts, boxes, ws, pairs, margin):
    """What a bound assembly gives on the first len(pts) steps: the
    bounds' bytes, or the error's type and message."""
    try:
        lb, ub = fn(pts, SafeCorridor(boxes), ws, pairs, margin)
    except InfeasibleConstraintError as err:
        return type(err), str(err)
    return lb.tobytes(), ub.tobytes()


def _assert_bounds_match_the_reference(pts, boxes, ws, pairs, margin):
    """Equal outcomes on every prefix of the steps, with the pairs of
    its steps, which pins the failing step even where the message does
    not name it.  Returns the outcome on all steps."""
    for j in range(1, len(pts) + 1):
        args = (pts[:j], boxes[:j], ws, [p for p in pairs if p.k < j],
                margin)
        got = _bounds_outcome(_position_bounds, *args)
        assert got == _bounds_outcome(reference_position_bounds, *args)
    return got


def _random_bounds_case(rng):
    """Boxes, waypoints and regions on a half-unit grid, so that faces
    touch, doorways have zero width or none, waypoints sit on faces, and
    avoid-face clearances tie exactly or within 1e-12."""
    def grid(size):
        return rng.integers(0, 17, size=size) / 2.0

    steps = int(rng.integers(1, 10))
    boxes = []
    while len(boxes) < steps:
        lo = grid(2)
        box = Box(lo, np.minimum(lo + rng.integers(1, 9, size=2) / 2.0,
                                 10.0))
        boxes += [box] * int(rng.integers(1, 4))
    boxes = boxes[:steps]
    pts = np.array([box.sample(rng) if rng.random() < 0.5
                    else np.clip(grid(2) + rng.choice(
                        [0.0, 5e-13, 1e-12, -1e-12, 2e-12], size=2), 0, 10)
                    for box in boxes])
    pairs = []
    for i in range(int(rng.integers(0, 7))):
        lo = grid(2)
        atom = region_atom(f"r{i}", tuple(lo),
                           tuple(lo + rng.integers(1, 7, size=2) / 2.0),
                           negated=bool(rng.random() < 0.5))
        pairs.append(SatisfactionPair(int(rng.integers(0, steps + 2)),
                                      atom.label, atom))
    margin = float(rng.choice([DEFAULT_MARGIN, 0.25]))
    return pts, boxes, _plan(pts, pairs=pairs).pairs, margin


def test_position_bounds_match_the_per_step_reference():
    rng = np.random.default_rng(8)
    ws = make_ws()
    seen = set()
    for _ in range(400):
        pts, boxes, pairs, margin = _random_bounds_case(rng)
        got = _assert_bounds_match_the_reference(pts, boxes, ws, pairs,
                                                 margin)
        seen.add(got[1].split(" ")[0] if got[0] is
                 InfeasibleConstraintError else "ok")
    assert seen == {"ok", "corridor", "waypoint", "constraints"}


def test_position_bounds_edge_cases_match_the_reference():
    ws = make_ws(bounds=((0.0, 0.0), (8.0, 6.0)))
    a = Box((0.0, 0.0), (4.0, 6.0))
    b = Box((4.0, 0.0), (8.0, 6.0))
    far = Box((5.0, 0.0), (8.0, 6.0))

    def pair(k, lo, hi, negated=False):
        atom = region_atom(f"r{lo}{hi}{negated}", lo, hi, negated)
        return SatisfactionPair(k, atom.label, atom)

    # clearances of the x and y low faces differ by under 1e-12
    tie = [[1.0, 1.0 + 5e-13], [1.0 + 5e-13, 1.0], [1.0, 1.0]]
    cases = {
        "zero-width doorway": ([[3.9, 3.0], [4.1, 3.0]], [a, b], []),
        "disjoint doorway": ([[3.9, 3.0], [5.5, 3.0]], [a, far], []),
        "tied clearances": (tie, [a, a, a],
                            [pair(k, (2.0, 2.0), (3.0, 3.0), True)
                             for k in range(3)]),
        "inside an avoided region": ([[1.0, 1.0], [2.5, 2.5]], [a, a],
                                     [pair(1, (2.0, 2.0), (3.0, 3.0),
                                           True)]),
        "empty membership": ([[1.0, 1.0], [1.0, 1.0]], [a, a],
                             [pair(1, (5.0, 5.0), (6.0, 6.0))]),
        # two failures at step 1: the doorway comes first ...
        "doorway and avoid": ([[3.9, 3.0], [5.5, 3.0]], [a, far],
                              [pair(1, (5.0, 2.0), (6.0, 4.0), True)]),
        # ... and a waypoint inside an avoided region before emptiness
        "avoid and empty": ([[1.0, 1.0], [2.5, 2.5]], [a, a],
                            [pair(1, (2.0, 2.0), (3.0, 3.0), True),
                             pair(1, (5.0, 5.0), (6.0, 6.0))]),
        # of the avoided regions at one step, the error names the first
        # in plan order that holds the waypoint
        "two avoided regions hold it": ([[1.0, 1.0], [2.5, 2.5]], [a, a],
                                        [pair(1, (2.4, 2.4), (2.6, 2.6),
                                              True),
                                         pair(1, (1.0, 1.0), (1.5, 1.5),
                                              True),
                                         pair(1, (2.0, 2.0), (3.0, 3.0),
                                              True)]),
        # the earliest failing step wins over a later one of higher rank
        "empty before doorway": ([[1.0, 1.0], [1.0, 1.0], [5.5, 3.0]],
                                 [a, a, far],
                                 [pair(1, (5.0, 5.0), (6.0, 6.0))]),
    }
    expected = {"zero-width doorway": None,
                "disjoint doorway": "steps 0 and 1 share no doorway",
                "tied clearances": None,
                "inside an avoided region":
                    "waypoint at step 1 sits inside a region it must avoid "
                    "(!r(2.0, 2.0)(3.0, 3.0)True)",
                "empty membership": "step 1 have empty intersection",
                "doorway and avoid": "steps 0 and 1 share no doorway",
                "avoid and empty": "step 1 sits inside a region",
                "two avoided regions hold it": "(!r(2.0, 2.0)(3.0, 3.0)True)",
                "empty before doorway": "step 1 have empty intersection"}
    for name, (pts, boxes, pairs) in cases.items():
        got = _assert_bounds_match_the_reference(
            np.array(pts), boxes, ws, _plan(pts, pairs=pairs).pairs,
            DEFAULT_MARGIN)
        if expected[name] is None:
            assert got[0] is not InfeasibleConstraintError, name
        else:
            assert expected[name] in got[1], name


def test_build_rejects_inconsistent_inputs():
    ws = make_ws()
    plan = _plan([[1.0, 1.0], [1.2, 1.0]])
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    model = unicycle_model(0.1)
    with pytest.raises(OptimizationError):
        build_nlp(plan, SafeCorridor(cor.boxes[:1]), ws, model,
                  np.array([1.0, 1.0, 0.0]), **UNIT_WEIGHTS)
    with pytest.raises(OptimizationError):
        build_nlp(plan, cor, ws, model, np.array([9.0, 9.0, 0.0]),
                  **UNIT_WEIGHTS)
    with pytest.raises(OptimizationError):
        build_nlp(plan, cor, ws, model, np.array([1.0, 1.0]), **UNIT_WEIGHTS)


@pytest.mark.parametrize("k", [-2, 4])
def test_build_rejects_a_pair_outside_the_plan_steps(k):
    # the plan has steps 0..1: a pair at step 4 (K + 3) or -2 names no
    # state, and dropping it would leave its region unconstrained
    ws = make_ws()
    atom = region_atom("r", (0.0, 0.0), (2.0, 2.0))
    plan = _plan([[1.0, 1.0], [1.2, 1.0]],
                 pairs=[SatisfactionPair(k, atom.label, atom)])
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    with pytest.raises(OptimizationError, match=f"pair r at step {k} lies "
                       r"outside the plan's steps 0\.\.1"):
        build_nlp(plan, cor, ws, unicycle_model(0.1),
                  np.array([1.0, 1.0, 0.0]), **UNIT_WEIGHTS)


def test_build_rejects_a_model_of_another_step():
    # a model of 0.5 s steps would transcribe the 0.1 s plan over five
    # times its horizon
    ws = make_ws()
    plan = _plan([[1.0, 1.0], [1.2, 1.0]])
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    with pytest.raises(OptimizationError, match=r"model step 0\.5 s differs "
                       r"from the plan's grid step 0\.1 s"):
        build_nlp(plan, cor, ws, unicycle_model(0.5),
                  np.array([1.0, 1.0, 0.0]), **UNIT_WEIGHTS)


# ---------------------------------------------------------------------------
# derivatives

def _random_problem(rng, K=6, model=None):
    model = model or unicycle_model(0.1)
    n, m = model.state_dim, model.input_dim
    prob = NlpProblem(model=model, horizon=K,
                      x0=np.zeros(n),
                      state_lb=np.full((K + 1, n), -np.inf),
                      state_ub=np.full((K + 1, n), np.inf),
                      input_lb=np.tile(model.input_lo, (K, 1)),
                      input_ub=np.tile(model.input_hi, (K, 1)),
                      q_weights=rng.uniform(0.5, 2.0, m),
                      r_weights=rng.uniform(0.5, 2.0, n))
    states = rng.uniform(-2.0, 2.0, size=(K + 1, n))
    inputs = rng.uniform(-1.0, 1.0, size=(K, m))
    return prob, states, inputs


def _n_vars(prob):
    """Length of the packed vector of a problem."""
    K, n, m = prob.horizon, prob.model.state_dim, prob.model.input_dim
    return (K + 1) * n + K * m


def test_cost_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    h = 1e-6
    for _ in range(50):
        prob, states, inputs = _random_problem(rng)
        gs, gu = prob.cost_grad(states, inputs)
        g = prob.pack(gs, gu)
        z = prob.pack(states, inputs)
        idx = rng.integers(0, len(z), size=8)
        for i in idx:
            e = np.zeros_like(z)
            e[i] = h
            sp_, up_ = prob.unpack(z + e)
            sm_, um_ = prob.unpack(z - e)
            fd = (prob.cost(sp_, up_) - prob.cost(sm_, um_)) / (2 * h)
            scale = max(1.0, abs(fd))
            assert abs(g[i] - fd) / scale <= 1e-5


def _assert_time_major(z, S, U):
    """z holds x_k at k(n+m) .. k(n+m)+n-1, u_k right after it, and x_K
    last."""
    (K1, n), m = S.shape, U.shape[1]
    assert z.shape == (K1 * n + (K1 - 1) * m,)
    for k in range(K1):
        for i in range(n):
            assert z[k * (n + m) + i] == S[k, i]
        for j in range(m if k < K1 - 1 else 0):
            assert z[k * (n + m) + n + j] == U[k, j]
    assert np.array_equal(z[len(z) - n:], S[-1])


@pytest.mark.parametrize("kind", ["unicycle", "integrator", "dense"])
@pytest.mark.parametrize("K", [0, 1, 5])
def test_pack_unpack_and_bounds_share_the_time_major_layout(K, kind):
    rng = np.random.default_rng(61)
    model = {"unicycle": None, "integrator": _integrator(2),
             "dense": _dense_linear_model(rng)}[kind]
    prob, states, inputs = _random_problem(rng, K=K, model=model)
    n, m = prob.model.state_dim, prob.model.input_dim
    z = prob.pack(states, inputs)
    _assert_time_major(z, states, inputs)
    S, U = prob.unpack(z)
    assert np.array_equal(S, states) and np.array_equal(U, inputs)
    S[K, 0] = 7.0
    assert z[K * (n + m)] == 7.0
    if K:
        U[K - 1, m - 1] = -7.0
        assert z[(K - 1) * (n + m) + n + m - 1] == -7.0

    prob = replace(prob, state_lb=rng.uniform(-3.0, -1.0, (K + 1, n)),
                   state_ub=rng.uniform(1.0, 3.0, (K + 1, n)),
                   input_lb=rng.uniform(-3.0, -1.0, (K, m)),
                   input_ub=rng.uniform(1.0, 3.0, (K, m)))
    lb, ub = prob.flat_bounds()
    _assert_time_major(lb, prob.state_lb, prob.input_lb)
    _assert_time_major(ub, prob.state_ub, prob.input_ub)

    with pytest.raises(ValueError):
        prob.unpack(np.repeat(z, 2)[::2])  # same values, not contiguous
    with pytest.raises(ValueError):
        prob.unpack(z[:-1])


def _fd_dynamics_jacobian(prob, states, inputs, h):
    """Central-difference Jacobian of the defects, one column per packed
    variable."""
    z = prob.pack(states, inputs)
    cols = []
    for i in range(len(z)):
        e = np.zeros_like(z)
        e[i] = h
        sp_, up_ = prob.unpack(z + e)
        sm_, um_ = prob.unpack(z - e)
        cols.append((prob.residuals(sp_, up_)
                     - prob.residuals(sm_, um_)).ravel() / (2 * h))
    return np.stack(cols, axis=1)


def test_dynamics_jacobian_matches_finite_differences():
    rng = np.random.default_rng(23)
    h = 1e-6
    for _ in range(50):
        prob, states, inputs = _random_problem(rng, K=4)
        A, B = prob.model.linearize(states[:-1], inputs)[1:]
        J = dense_dynamics_jacobian(prob, A, B)
        z = prob.pack(states, inputs)
        idx = rng.integers(0, len(z), size=6)
        for i in idx:
            e = np.zeros_like(z)
            e[i] = h
            sp_, up_ = prob.unpack(z + e)
            sm_, um_ = prob.unpack(z - e)
            fd = (prob.residuals(sp_, up_)
                  - prob.residuals(sm_, um_)).ravel() / (2 * h)
            scale = np.maximum(1.0, np.abs(fd))
            assert np.all(np.abs(J[:, i] - fd) / scale <= 1e-5)


def test_cost_hessian_reproduces_the_quadratic_cost():
    rng = np.random.default_rng(29)
    prob, states, inputs = _random_problem(rng)
    band = _NewtonBand(prob)
    H = band_to_dense(band.hq)
    np.testing.assert_allclose(H, dense_cost_hessian(prob), rtol=1e-12,
                               atol=0.0)
    z = prob.pack(states, inputs)
    assert prob.cost(states, inputs) == pytest.approx(
        0.5 * float(z @ (H @ z)), rel=1e-12)


def test_newton_band_matches_the_finite_difference_gauss_newton_matrix():
    # nothing active: the band is Hq + rho J'J with J from central
    # differences of the residuals
    rng = np.random.default_rng(31)
    h = 1e-6
    for K in (1, 2, 3, 4, 5, 6) * 4:
        prob, states, inputs = _random_problem(rng, K=K)
        n, m = prob.model.state_dim, prob.model.input_dim
        rho = float(rng.uniform(1.0, 1e3))
        band = _NewtonBand(prob)
        A, B = prob.model.linearize(states[:-1], inputs)[1:]
        active = np.zeros(_n_vars(prob), dtype=bool)
        ab = band.matrix(A, B, rho, active)
        # lower band storage of half-width 2n+m-1
        assert ab.shape == (2 * n + m, _n_vars(prob))
        H = band_to_dense(ab)
        J_fd = _fd_dynamics_jacobian(prob, states, inputs, h)
        ref = dense_cost_hessian(prob) + rho * (J_fd.T @ J_fd)
        assert np.all(np.abs(H - ref) / np.maximum(1.0, np.abs(ref))
                      <= 1e-5)


def _sliced_step(prob, A, B, rho, g, active):
    """Reference step: dense solve on the free rows and columns."""
    J = dense_dynamics_jacobian(prob, A, B)
    H = dense_cost_hessian(prob) + rho * (J.T @ J)
    free = np.flatnonzero(~active)
    H_ff = H[np.ix_(free, free)] + 1e-10 * np.eye(free.size)
    p = np.zeros_like(g)
    p[free] = np.linalg.solve(H_ff, -g[free])
    return p


def test_pinning_active_variables_equals_slicing_them_out():
    rng = np.random.default_rng(37)
    for trial in range(40):
        K = 1 if trial % 4 == 0 else int(rng.integers(2, 8))
        prob, states, inputs = _random_problem(rng, K=K)
        n = prob.model.state_dim
        rho = float(rng.uniform(1.0, 1e3))
        A, B = prob.model.linearize(states[:-1], inputs)[1:]
        band = _NewtonBand(prob)
        N = _n_vars(prob)
        g = rng.normal(size=N)
        if trial % 5 == 1:  # all but one active
            active = np.ones(N, dtype=bool)
            active[rng.integers(n, N)] = False
        else:
            active = rng.random(N) < rng.uniform(0.0, 0.8)
        active[:n] = True  # x_0 is fixed, as in every built problem
        step = band.step(g, A, B, rho, active)
        ref = _sliced_step(prob, A, B, rho, g, active)
        assert np.all(step[active] == 0.0)
        assert (np.max(np.abs(step - ref))
                <= 1e-8 * np.max(np.abs(ref)))


def _dense_linear_model(rng, n=3, m=2):
    """Linear model x' = A x + B u with dense random A and B, so every
    window's J_k'J_k is dense and fills the band to offset 2n+m-1."""
    A0 = rng.normal(size=(n, n))
    B0 = rng.normal(size=(n, m))

    def linearize(x, u):
        batch = x.shape[:-1]
        return (x @ A0.T + u @ B0.T,
                np.broadcast_to(A0, batch + (n, n)).copy(),
                np.broadcast_to(B0, batch + (n, m)).copy())
    return DynamicsModel(state_dim=n, input_dim=m, tau=0.1,
                         linearize_fn=linearize,
                         input_lo=(-1.0,) * m, input_hi=(1.0,) * m)


def test_newton_band_holds_a_full_width_band():
    # the unicycle's windows reach only offset 5 of the band's 7
    rng = np.random.default_rng(43)
    for trial in range(24):
        K = 1 + trial % 6
        prob, states, inputs = _random_problem(
            rng, K, model=_dense_linear_model(rng))
        n, m = prob.model.state_dim, prob.model.input_dim
        bw = 2 * n + m - 1
        rho = float(rng.uniform(1.0, 1e3))
        A, B = prob.model.linearize(states[:-1], inputs)[1:]
        band = _NewtonBand(prob)
        N = _n_vars(prob)
        J = dense_dynamics_jacobian(prob, A, B)
        ref = dense_cost_hessian(prob) + rho * (J.T @ J) + 1e-10 * np.eye(N)
        assert np.any(np.diagonal(ref, -bw) != 0.0)
        ab = band.matrix(A, B, rho, np.zeros(N, dtype=bool))
        assert ab.shape == (bw + 1, N)
        np.testing.assert_allclose(band_to_dense(ab), ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(ref)))
        g = rng.normal(size=N)
        active = rng.random(N) < rng.uniform(0.0, 0.6)
        active[:n] = True
        step = band.step(g, A, B, rho, active)
        ref_step = _sliced_step(prob, A, B, rho, g, active)
        assert np.all(step[active] == 0.0)
        assert (np.max(np.abs(step - ref_step))
                <= 1e-8 * np.max(np.abs(ref_step)))


def test_no_factorization_runs_when_every_variable_is_active(monkeypatch):
    calls = count_calls(monkeypatch, optimizer, "splu")
    rng = np.random.default_rng(41)
    prob, states, inputs = _random_problem(rng, K=3)
    band = _NewtonBand(prob)
    g = rng.normal(size=_n_vars(prob))
    A, B = prob.model.linearize(states[:-1], inputs)[1:]
    step = band.step(g, A, B, 10.0, np.ones(len(g), dtype=bool))
    assert np.all(step == 0.0)
    assert calls == []


def _band_cases(rng):
    """(problem, A, B) on random unicycle, integrator and dense linear
    problems of 1 to 7 steps."""
    for trial in range(18):
        model = (None, _integrator(2), _dense_linear_model(rng))[trial % 3]
        prob, states, inputs = _random_problem(rng, K=1 + trial % 7,
                                               model=model)
        yield (prob, *prob.model.linearize(states[:-1], inputs)[1:])


def _active_masks(rng, prob):
    """None active, random, all but one, and whole windows pinned."""
    n, m, N = prob.model.state_dim, prob.model.input_dim, _n_vars(prob)
    none = np.zeros(N, dtype=bool)
    random = rng.random(N) < 0.3
    all_but_one = np.ones(N, dtype=bool)
    all_but_one[rng.integers(N)] = False
    windows = np.zeros(N, dtype=bool)
    K = (N - n) // (n + m)
    for k in rng.choice(K, size=max(K // 2, 1), replace=False):
        windows[k * (n + m):k * (n + m) + 2 * n + m] = True
    return none, random, all_but_one, windows


def _step_bytes(step):
    return None if step is None else step.tobytes()


def test_newton_band_matches_the_reference_kernel_bit_for_bit():
    rng = np.random.default_rng(47)
    for prob, A, B in _band_cases(rng):
        band, ref = _NewtonBand(prob), reference_newton_band(prob)
        g = rng.normal(size=_n_vars(prob))
        for rho in (1.0, 10.0, 1234.5, 1e8):
            for active in _active_masks(rng, prob):
                ab = band.matrix(A, B, rho, active)
                assert ab.flags.f_contiguous
                assert (np.ascontiguousarray(ab).tobytes()
                        == ref.matrix(A, B, rho, active).tobytes())
                assert (_step_bytes(band.step(g, A, B, rho, active))
                        == _step_bytes(ref.step(g, A, B, rho, active)))


def test_reusing_the_band_workspace_leaks_nothing_between_calls():
    # one instance through changing active sets, penalties, Jacobians
    # and a failed factorization gives what a fresh instance gives
    rng = np.random.default_rng(53)
    for prob, A, B in _band_cases(rng):
        band = _NewtonBand(prob)
        masks = _active_masks(rng, prob)
        for i in range(8):
            active = masks[int(rng.integers(len(masks)))]
            rho = float(rng.choice([1.0, 10.0, 1e4, 1e8]))
            A2, B2 = A * rng.uniform(0.5, 2.0), B * rng.uniform(0.5, 2.0)
            g = rng.normal(size=_n_vars(prob))
            if i == 3:
                # negative penalty: the factorization fails part way
                assert band.step(g, A2, B2, -1e3, masks[0]) is None
            fresh = _NewtonBand(prob)
            assert (np.ascontiguousarray(band.matrix(A2, B2, rho,
                                                     active)).tobytes()
                    == np.ascontiguousarray(fresh.matrix(A2, B2, rho,
                                                         active)).tobytes())
            assert (_step_bytes(band.step(g, A2, B2, rho, active))
                    == _step_bytes(_NewtonBand(prob).step(g, A2, B2, rho,
                                                          active)))


def test_splu_factors_in_place_and_rejects_an_indefinite_band():
    rng = np.random.default_rng(59)
    prob, states, inputs = _random_problem(rng, K=4)
    band = _NewtonBand(prob)
    A, B = prob.model.linearize(states[:-1], inputs)[1:]
    ab = band.matrix(A, B, 10.0, np.zeros(_n_vars(prob), dtype=bool))
    H = band_to_dense(ab)
    factor = optimizer.splu(ab)
    assert np.shares_memory(factor, ab)
    L = np.tril(band_to_dense(factor))
    np.testing.assert_allclose(L @ L.T, H, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(H)))
    indefinite = np.asfortranarray([[1.0, 1.0, 1.0], [2.0, 2.0, 0.0]])
    with pytest.raises(LinAlgError):
        optimizer.splu(indefinite)


# ---------------------------------------------------------------------------
# solving

def _two_step_problem():
    """Smallest nontrivial instance with a known optimum.

    Scalar integrator, x0 = 0, x2 constrained to [1, 2], unit weights:
    minimize (u1-u0)^2 + u0^2 + u1^2 subject to u0+u1 >= 1, whose
    optimum is u = (0.5, 0.5), x = (0, 0.5, 1), cost 0.5.
    """
    model = _integrator()
    state_lb = np.array([[0.0], [-np.inf], [1.0]])
    state_ub = np.array([[0.0], [np.inf], [2.0]])
    prob = NlpProblem(model=model, horizon=2, x0=np.zeros(1),
                      state_lb=state_lb, state_ub=state_ub,
                      input_lb=np.full((2, 1), -10.0),
                      input_ub=np.full((2, 1), 10.0),
                      q_weights=np.ones(1), r_weights=np.ones(1))
    return prob


def test_two_step_problem_reaches_the_hand_optimum():
    prob = _two_step_problem()
    init = (np.array([[0.0], [0.0], [1.0]]), np.zeros((2, 1)))
    tol = SolverTolerances(eps_feas=1e-9, eps_opt=1e-8, max_outer=60,
                           max_inner=200)
    sol = solve_nlp(prob, init=init, tolerances=tol)
    assert sol.converged
    assert np.allclose(sol.inputs.ravel(), [0.5, 0.5], atol=1e-6)
    assert np.allclose(sol.states.ravel(), [0.0, 0.5, 1.0], atol=1e-6)
    assert sol.cost == pytest.approx(0.5, abs=1e-6)
    assert sol.max_violation <= 1e-9
    rerolled = rollout(prob.model, prob.x0, sol.inputs)
    assert np.max(np.abs(rerolled - sol.states)) <= 1e-6


def test_merit_never_rises_within_an_outer_iteration():
    prob = _two_step_problem()
    init = (np.array([[0.0], [0.3], [1.5]]), np.zeros((2, 1)))
    sol = solve_nlp(prob, init=init, tolerances=SolverTolerances())
    assert len(sol.log) >= 1
    for entry in sol.log:
        assert entry["merit_end"] <= entry["merit_start"] + 1e-9


def test_outer_budget_of_one_reports_non_convergence():
    prob = _two_step_problem()
    init = (np.array([[0.0], [0.0], [1.0]]), np.zeros((2, 1)))
    tol = SolverTolerances(eps_feas=1e-12, eps_opt=1e-12, max_outer=1)
    sol = solve_nlp(prob, init=init, tolerances=tol)
    assert not sol.converged
    assert sol.outer_iterations == 1


def _unreachable_corner_problem():
    """Unicycle with |v| <= 1 and tau = 0.1 from the origin, with x_4
    pinned at (1, 1): four steps reach at most 0.4 m, so the defects
    cannot all vanish."""
    model = unicycle_model(0.1, v_bounds=(-1.0, 1.0))
    K = 4
    state_lb = np.full((K + 1, 3), -np.inf)
    state_ub = np.full((K + 1, 3), np.inf)
    state_lb[0] = state_ub[0] = 0.0
    state_lb[K, :2] = state_ub[K, :2] = 1.0
    prob = NlpProblem(model=model, horizon=K, x0=np.zeros(3),
                      state_lb=state_lb, state_ub=state_ub,
                      input_lb=np.tile(model.input_lo, (K, 1)),
                      input_ub=np.tile(model.input_hi, (K, 1)),
                      q_weights=np.ones(2), r_weights=np.ones(3))
    states = np.zeros((K + 1, 3))
    states[:, :2] = np.linspace(0.0, 1.0, K + 1)[:, None]
    return prob, (states, np.zeros((K, 2)))


@pytest.mark.parametrize("max_inner", [1, 2, 120])
def test_infeasible_solve_ends_at_the_penalty_limit(max_inner):
    # the penalty grows on every outer iteration that cuts the violation
    # by less than 4x, whether or not the inner solve hit its cap
    prob, init = _unreachable_corner_problem()
    sol = solve_nlp(prob, init=init,
                    tolerances=SolverTolerances(max_inner=max_inner))
    assert not sol.converged
    assert sol.message.startswith(
        "penalty limit reached without feasibility")
    assert sol.outer_iterations <= 12


@pytest.mark.parametrize("max_outer", [0, 1, 50])
def test_failure_message_names_the_worst_defect_and_its_step(max_outer):
    prob, init = _unreachable_corner_problem()
    sol = solve_nlp(prob, init=init,
                    tolerances=SolverTolerances(max_outer=max_outer))
    assert not sol.converged
    defect = np.max(np.abs(prob.residuals(sol.states, sol.inputs)), axis=1)
    k = int(np.argmax(defect))
    assert sol.message.endswith(f"(worst defect {defect[k]:.2e} at step "
                                f"{k})")
    assert defect[k] == pytest.approx(sol.max_violation)


@pytest.mark.parametrize("max_outer", [0, 5])
def test_a_one_waypoint_solve_has_no_defect_to_name(max_outer):
    # K = 0: the one state is pinned at x0 and there is no input, so the
    # defect array is empty and a failure message names no worst step
    ws = make_ws()
    plan = _plan([[1.0, 1.0]])
    problem = build_nlp(plan, SafeCorridor((ws.bounds,)), ws,
                        unicycle_model(0.1), np.array([1.0, 1.0, 0.0]),
                        **UNIT_WEIGHTS)
    sol = solve_nlp(problem, initial_guess(problem, plan.waypoints.positions),
                    SolverTolerances(max_outer=max_outer))
    assert sol.max_violation == 0.0
    assert sol.states.shape == (1, 3) and sol.inputs.shape == (0, 2)
    assert "worst defect" not in sol.message
    assert sol.converged == (max_outer > 0)


def test_earliest_reach_witnesses_stall_scenario1_seed_8(monkeypatch):
    # the first-attempt NLP of scenario1 seed 8, but with each F pair
    # moved back to the first index of its visit, as certified before:
    # pinned to the tree's fastest arrival, the solve stalls at step 0
    from stlplan import st_planner
    from stlplan.decomposer import decompose

    scenario = scenario_cli.load_scenario("scenario1")
    dec = decompose(scenario.formula, scenario.tau)

    def earliest_witness(seq, sub):
        ok, pairs = stl_sat(seq, sub)
        if ok and sub.kind == "F":
            k = pairs[0].k
            first = sub.active_interval().lo
            while k > first and sub.prop.holds(seq.at_index(k - 1)):
                k -= 1
            pairs = (SatisfactionPair(k, sub.prop.label, sub.prop),)
        return ok, pairs

    def first_attempt_plan():
        params = replace(scenario.planner, rng_seed=8)
        return st_planner.plan_global(
            dec, scenario.x0[:2], scenario.workspace, params,
            tau=scenario.tau, v_max=scenario.model.speed_limit)

    plan = first_attempt_plan()
    monkeypatch.setattr(st_planner, "stl_sat", earliest_witness)
    early = first_attempt_plan()
    assert early.waypoints.positions.tobytes() == \
        plan.waypoints.positions.tobytes()
    moved = {(p.k, p.label) for p in plan.pairs} ^ \
        {(p.k, p.label) for p in early.pairs}
    assert len(early.pairs) == len(plan.pairs) and moved
    cor = construct_safe_corridor(early.waypoints, scenario.workspace,
                                  scenario.corridor_step)
    prob = build_nlp(early, cor, scenario.workspace, scenario.model,
                     scenario.x0, q_weights=scenario.q_weights,
                     r_weights=scenario.r_weights)
    sol = solve_nlp(prob, initial_guess(prob, early.waypoints.positions),
                    scenario.tolerances)
    assert not sol.converged
    assert sol.message.endswith(" at step 0)")


def _solve_counting_derivatives(monkeypatch):
    """Solve the unreachable-corner problem counting linearizations,
    cost gradient evaluations, the inner iterations' value evaluations
    and the linearizations their gradient calls make."""
    calls = {"linearize": 0, "cost_grad": 0, "value": 0,
             "grad_linearize": 0}
    base = unicycle_model(0.1, v_bounds=(-1.0, 1.0))

    def linearize(x, u):
        calls["linearize"] += 1
        return base.linearize_fn(x, u)

    cost_grad = NlpProblem.cost_grad

    def counted_cost_grad(self, states, inputs):
        calls["cost_grad"] += 1
        return cost_grad(self, states, inputs)

    inner = optimizer._inner_gauss_newton

    def counted_inner(z, bounds, al, al_grad, *rest):
        def value(zv):
            calls["value"] += 1
            return al(zv)

        def grad(c, point):
            before = calls["linearize"]
            g = al_grad(c, point)
            calls["grad_linearize"] += calls["linearize"] - before
            return g
        return inner(z, bounds, value, grad, *rest)

    monkeypatch.setattr(NlpProblem, "cost_grad", counted_cost_grad)
    monkeypatch.setattr(optimizer, "_inner_gauss_newton", counted_inner)
    prob, init = _unreachable_corner_problem()
    prob.model = replace(base, linearize_fn=linearize)
    return calls, solve_nlp(prob, init=init, tolerances=SolverTolerances())


def test_dynamics_jacobians_are_evaluated_once_per_al_evaluation(
        monkeypatch):
    # each value evaluation linearizes its point once, and the gradient
    # and the Gauss-Newton matrix reuse that linearization; the one more
    # gives the starting defects
    calls, sol = _solve_counting_derivatives(monkeypatch)
    assert sum(e["inner_iterations"] for e in sol.log) > 0
    assert calls["linearize"] == calls["value"] + 1 > 1
    assert calls["grad_linearize"] == 0


def test_line_search_trials_evaluate_no_derivatives(monkeypatch):
    # the gradient runs at each inner solve's start iterate and at
    # accepted ones; a rejected trial costs one value evaluation only
    calls, sol = _solve_counting_derivatives(monkeypatch)
    budget = sol.outer_iterations + sum(e["inner_iterations"]
                                        for e in sol.log)
    assert 0 < calls["cost_grad"] <= budget


def test_one_factorization_per_inner_iteration(monkeypatch):
    # perfbench counts optimizer.splu calls as Gauss-Newton iterations
    calls = count_calls(monkeypatch, optimizer, "splu")
    prob, init = _unreachable_corner_problem()
    sol = solve_nlp(prob, init=init, tolerances=SolverTolerances())
    assert len(calls) == sum(e["inner_iterations"] for e in sol.log) > 0


def test_newton_fallbacks_count_the_gradient_steps(monkeypatch):
    prob, init = _unreachable_corner_problem()
    sol = solve_nlp(prob, init=init, tolerances=SolverTolerances())
    assert all(0 <= e["newton_fallbacks"] <= e["inner_iterations"]
               for e in sol.log)

    def failing(ab):
        raise LinAlgError("leading minor not positive definite")
    monkeypatch.setattr(optimizer, "splu", failing)
    sol = solve_nlp(prob, init=init, tolerances=SolverTolerances())
    assert sum(e["inner_iterations"] for e in sol.log) > 0
    assert all(e["newton_fallbacks"] == e["inner_iterations"]
               for e in sol.log)


def test_an_indefinite_band_falls_back_to_the_gradient_step(monkeypatch):
    # a negative input-difference weight makes Hq + rho J'J indefinite
    # on the dynamics' null space, whatever the penalty
    model = _integrator()
    K = 3
    state_lb = np.full((K + 1, 1), -np.inf)
    state_ub = np.full((K + 1, 1), np.inf)
    state_lb[0] = state_ub[0] = 0.0
    prob = NlpProblem(model=model, horizon=K, x0=np.zeros(1),
                      state_lb=state_lb, state_ub=state_ub,
                      input_lb=np.full((K, 1), -10.0),
                      input_ub=np.full((K, 1), 10.0),
                      q_weights=np.array([-5.0]), r_weights=np.ones(1))
    raised = []
    splu = optimizer.splu

    def recording(ab):
        try:
            return splu(ab)
        except LinAlgError:
            raised.append(True)
            raise
    monkeypatch.setattr(optimizer, "splu", recording)
    init = (np.zeros((K + 1, 1)), np.array([[0.5], [-0.5], [0.5]]))
    sol = solve_nlp(prob, init=init,
                    tolerances=SolverTolerances(max_outer=1, max_inner=3))
    assert raised
    assert sol.log[0]["newton_fallbacks"] >= len(raised)


def test_projected_gradient_norm_matches_the_reference():
    rng = np.random.default_rng(61)
    for trial in range(200):
        N = int(rng.integers(0, 30))
        lb = rng.uniform(-1.0, 0.0, N)
        ub = lb + rng.choice([0.0, 1e-13, 0.5, np.inf], N)
        # on a bound, within 1e-12 or 1e-11 of one, or inside
        z = np.where(rng.random(N) < 0.5, lb, ub) + rng.choice(
            [0.0, 5e-13, -5e-13, 5e-12, 0.25], N)
        z = np.where(np.isfinite(z), z, lb + 0.5)
        g = rng.normal(size=N) * (rng.random(N) < 0.8)
        bounds = optimizer._Bounds(lb, ub)
        assert (bounds.projected_gradient_norm(z, g)
                == reference_projected_gradient_norm(z, g, lb, ub))


def test_inner_iteration_returns_the_defects_and_stationarity_of_its_end():
    # solve_nlp logs the defects and projected gradient the inner
    # iteration hands back, so they must be those of the iterate it
    # returns, whichever way the iteration ended
    prob, (states, inputs) = _unreachable_corner_problem()
    lb, ub = prob.flat_bounds()
    bounds = optimizer._Bounds(lb, ub)
    rho = 10.0

    def al(z):
        S, U = prob.unpack(z)
        nxt, A, B = prob.model.linearize(S[:-1], U)
        c = S[1:] - nxt
        return (prob.cost(S, U) + 0.5 * rho * float((c * c).sum()), c,
                (S, U, A, B))

    def al_grad(c, point):
        S, U, A, B = point
        gs, gu = prob.cost_grad(S, U)
        y = rho * c
        gs[1:] += y
        gs[:-1] -= np.einsum("kij,ki->kj", A, y)
        gu -= np.einsum("kij,ki->kj", B, y)
        return prob.pack(gs, gu)

    z0 = np.clip(prob.pack(states, inputs), lb, ub)
    for max_iter, gtol in ((0, 1e-3), (1, 1e-3), (3, 1e-3), (120, 1e-3),
                           (120, 1e3)):
        z, f_start, f, c, pg, counts = optimizer._inner_gauss_newton(
            z0, bounds, al, al_grad, _NewtonBand(prob), rho, gtol,
            max_iter)
        assert counts["inner_iterations"] <= max_iter
        assert c.tobytes() == prob.residuals(*prob.unpack(z)).tobytes()
        assert f == al(z)[0] and f <= f_start
        assert pg == reference_projected_gradient_norm(
            z, al_grad(c, al(z)[2]), lb, ub)


def test_solver_log_counts_active_set_churn(monkeypatch):
    # entered and left sum, per outer iteration, the variables whose
    # active flag switched on or off between consecutive inner iterations
    masks = []
    active = optimizer._Bounds.active

    def recording(self, z, g):
        masks[-1].append(active(self, z, g))
        return masks[-1][-1]
    inner = optimizer._inner_gauss_newton

    def outer(*args):
        masks.append([])
        return inner(*args)
    monkeypatch.setattr(optimizer._Bounds, "active", recording)
    monkeypatch.setattr(optimizer, "_inner_gauss_newton", outer)
    prob, init = _unreachable_corner_problem()
    sol = solve_nlp(prob, init=init, tolerances=SolverTolerances())
    assert len(masks) == len(sol.log)
    for entry, seen in zip(sol.log, masks):
        assert len(seen) == entry["inner_iterations"]
        assert entry["active_entered"] == sum(
            int(np.sum(b & ~a)) for a, b in zip(seen, seen[1:]))
        assert entry["active_left"] == sum(
            int(np.sum(a & ~b)) for a, b in zip(seen, seen[1:]))
    assert sum(e["active_entered"] + e["active_left"] for e in sol.log) > 0


def test_solves_match_the_reference_kernel_on_the_shipped_scenarios(
        monkeypatch, tmp_path):
    # every solve of each shipped scenario at its own seed, repeated
    # with the bincount band kernel in place of the workspace one
    calls = []
    solve = scenario_cli.solve_nlp

    def recording(*args):
        calls.append(args)
        return solve(*args)
    monkeypatch.setattr(scenario_cli, "solve_nlp", recording)
    for name in scenario_cli.BUILTIN_SCENARIOS:
        scenario = scenario_cli.load_scenario(name)
        scenario_cli.run_pipeline(scenario, seed=scenario.seed,
                                  out_dir=tmp_path / name)
    assert len(calls) >= 3
    for args in calls:
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "_NewtonBand", reference_newton_band)
            ref = solve_nlp(*args)
        sol = solve_nlp(*args)
        assert sol.states.tobytes() == ref.states.tobytes()
        assert sol.inputs.tobytes() == ref.inputs.tobytes()
        assert sol.log == ref.log
        assert sol.message == ref.message


# the plan workload's stage chain on scenario3, reporting after each step
# whether SciPy is loaded
_STAGES_THEN_SOLVE = """
import json, sys
from dataclasses import replace

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import stlplan
seen = {"import": scipy_loaded()}
from stlplan.corridor import construct_safe_corridor
from stlplan.decomposer import decompose
from stlplan.optimizer import build_nlp, initial_guess, solve_nlp
from stlplan.scenario_cli import load_scenario
from stlplan.st_planner import plan_global

sc = load_scenario("scenario3")
dec = decompose(sc.formula, sc.tau)
plan = plan_global(dec, sc.x0[:2], sc.workspace,
                   replace(sc.planner, rng_seed=sc.seed), tau=sc.tau,
                   v_max=sc.model.speed_limit)
cor = construct_safe_corridor(plan.waypoints, sc.workspace, sc.corridor_step)
problem = build_nlp(plan, cor, sc.workspace, sc.model, sc.x0,
                    q_weights=sc.q_weights, r_weights=sc.r_weights)
init = initial_guess(problem, plan.waypoints.positions)
seen["stages"] = scipy_loaded()
solve_nlp(problem, init, sc.tolerances)
seen["solve"] = "scipy.linalg" in sys.modules
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def scenario3_run(tmp_path_factory):
    """run_pipeline in this process on the third shipped scenario at its
    own seed; the report's out_dir holds the artifacts."""
    scenario = scenario_cli.load_scenario("scenario3")
    return scenario_cli.run_pipeline(scenario, scenario.seed,
                                     tmp_path_factory.mktemp("scenario3"))


def _src_env():
    src = str(Path(optimizer.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src)


def test_scipy_loads_at_the_first_solve_only():
    done = subprocess.run([sys.executable, "-c", _STAGES_THEN_SOLVE],
                          capture_output=True, text=True, env=_src_env())
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen == {"import": [], "stages": [], "solve": True}


@pytest.mark.parametrize("command", ["validate", "decompose", "plan",
                                     "check", "run"])
def test_only_the_command_that_solves_loads_scipy(scenario3_run, tmp_path,
                                                  command):
    traj = str(Path(scenario3_run.out_dir) / "traj.csv")
    args = {"validate": ["scenario3"], "decompose": ["scenario3"],
            "plan": ["scenario3", "--out", str(tmp_path)],
            "check": [traj, "scenario3"],
            "run": ["scenario3", "--out", str(tmp_path)]}[command]
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "stlplan", command, *args],
        capture_output=True, text=True, env=_src_env())
    assert done.returncode == 0, done.stderr
    # -X importtime writes one "import time: self | cumulative | name"
    # line per module imported
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "stlplan.scenario_cli" in imported
    scipy = {m for m in imported if m.split(".")[0] == "scipy"}
    if command == "run":
        assert "scipy.linalg" in scipy
    else:
        assert scipy == set()


# stlplan run scenario3 in an interpreter that has loaded no SciPy yet,
# printing the log of every solve
_FIRST_RUN = """
import json, sys
from stlplan import scenario_cli
assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
logs = []
solve_nlp = scenario_cli.solve_nlp

def logged(*args):
    solution = solve_nlp(*args)
    logs.append(repr(solution.log))
    return solution

scenario_cli.solve_nlp = logged
code = scenario_cli.main(["run", "scenario3", "--out", sys.argv[1]])
print(json.dumps({"code": code, "logs": logs}))
"""


def test_the_first_solve_of_a_fresh_process_is_byte_identical(
        scenario3_run, tmp_path):
    done = subprocess.run([sys.executable, "-c", _FIRST_RUN, str(tmp_path)],
                          capture_output=True, text=True, env=_src_env())
    assert done.returncode == 0, done.stderr
    fresh = json.loads(done.stdout.splitlines()[-1])
    assert fresh["code"] == scenario3_run.exit_code() == 0
    assert fresh["logs"] == [repr(a.solution.log)
                             for a in scenario3_run.attempts
                             if a.solution is not None]
    for name in ("traj.csv", "pairs.csv"):
        assert ((tmp_path / name).read_bytes()
                == (Path(scenario3_run.out_dir) / name).read_bytes()), name


def test_stationary_feasible_start_converges_immediately():
    ws = make_ws()
    pts = [[2.0, 2.0]] * 4
    plan = _plan(pts)
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    prob = build_nlp(plan, cor, ws, unicycle_model(0.1),
                     np.array([2.0, 2.0, 0.5]), **UNIT_WEIGHTS)
    init = initial_guess(prob, plan.waypoints.positions)
    sol = solve_nlp(prob, init=init, tolerances=SolverTolerances())
    assert sol.converged
    assert sol.cost <= 1e-12
    assert sol.max_violation <= 1e-12
    assert np.allclose(sol.inputs, 0.0, atol=1e-9)


def test_initial_guess_is_dynamically_exact_on_straight_lines():
    ws = make_ws()
    pts = [[0.5 + 0.1 * k, 1.0] for k in range(11)]
    plan = _plan(pts)
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    prob = build_nlp(plan, cor, ws, unicycle_model(0.1),
                     np.array([0.5, 1.0, 0.0]), **UNIT_WEIGHTS)
    states, inputs = initial_guess(prob, plan.waypoints.positions)
    assert np.allclose(inputs[:, 0], 1.0, atol=1e-9)
    assert np.allclose(inputs[:, 1], 0.0, atol=1e-9)
    assert np.max(np.abs(prob.residuals(states, inputs))) <= 1e-9


def test_initial_guess_carries_heading_through_standstills():
    ws = make_ws()
    pts = [[1.0, 1.0], [1.5, 1.5], [1.5, 1.5], [1.5, 1.5], [2.0, 2.0]]
    plan = _plan(pts, tau=1.0)
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    prob = build_nlp(plan, cor, ws, unicycle_model(1.0),
                     np.array([1.0, 1.0, 0.0]), **UNIT_WEIGHTS)
    states, _ = initial_guess(prob, plan.waypoints.positions)
    assert states[2, 2] == states[1, 2] == states[3, 2]
    assert states[1, 2] == pytest.approx(math.pi / 4)


def _guess_problem(pts, heading, tau=0.1):
    model = unicycle_model(tau)
    K = len(pts) - 1
    return NlpProblem(model=model, horizon=K,
                      x0=np.array([pts[0][0], pts[0][1], heading]),
                      state_lb=np.full((K + 1, 3), -np.inf),
                      state_ub=np.full((K + 1, 3), np.inf),
                      input_lb=np.tile(model.input_lo, (K, 1)),
                      input_ub=np.tile(model.input_hi, (K, 1)),
                      q_weights=np.ones(2), r_weights=np.ones(3))


def _assert_guess_matches_the_reference(pts, heading):
    prob = _guess_problem(pts, heading)
    got = initial_guess(prob, pts)
    want = reference_initial_guess(prob, pts)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    return got


def test_initial_guess_matches_the_per_step_reference():
    # random walks with exact and sub-threshold standstills, loops whose
    # headings cross +-pi many times, and starting headings far off
    # the first displacement
    rng = np.random.default_rng(41)
    for _ in range(200):
        K = int(rng.integers(1, 80))
        if rng.random() < 0.5:
            scale = rng.choice([0.1, 0.0, 1e-10, 9.9e-10, 1e-9],
                               size=(K, 1), p=[0.6, 0.1, 0.1, 0.1, 0.1])
            steps = rng.normal(size=(K, 2)) * scale
        else:
            turn = np.cumsum(rng.uniform(-0.5, 2.0, size=K))
            steps = 0.1 * np.stack([np.cos(turn), np.sin(turn)], axis=1)
        pts = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]) + 5.0
        _assert_guess_matches_the_reference(pts, rng.uniform(-10.0, 10.0))


def test_initial_guess_named_cases_match_the_reference():
    # a standstill, then a counter-clockwise loop starting west, where
    # atan2 jumps from +pi to -pi/2, then a closing standstill
    pts = np.array([[5.0, 5.0], [5.0, 5.0], [4.9, 5.0], [4.9, 4.9],
                    [5.0, 4.9], [5.0, 5.0], [4.9, 5.0], [4.9, 5.0]])
    states, _ = _assert_guess_matches_the_reference(pts, math.pi)
    assert states[1, 2] == states[2, 2] == math.pi
    assert states[3, 2] == pytest.approx(1.5 * math.pi)
    assert states[-1, 2] == states[-2, 2] == pytest.approx(3.0 * math.pi)
    # the same loop backwards turns clockwise after heading east
    states, _ = _assert_guess_matches_the_reference(pts[::-1].copy(),
                                                    -math.pi + 1e-3)
    assert states[-1, 2] == pytest.approx(-2.0 * math.pi)


def test_initial_guess_never_wraps_the_heading():
    # three quarter-turns left; a wrapped heading would jump by -2 pi
    ws = make_ws()
    pts = [[5.0, 5.0], [6.0, 5.0], [6.0, 6.0], [5.0, 6.0], [5.0, 5.0],
           [6.0, 5.0]]
    plan = _plan(pts, tau=1.0)
    cor = construct_safe_corridor(plan.waypoints, ws, DEFAULT_STEP)
    prob = build_nlp(plan, cor, ws, unicycle_model(1.0),
                     np.array([5.0, 5.0, 0.0]), **UNIT_WEIGHTS)
    states, _ = initial_guess(prob, plan.waypoints.positions)
    theta = states[:, 2]
    assert np.all(np.abs(np.diff(theta)) <= math.pi / 2 + 1e-9)
    assert theta[-1] == pytest.approx(2.0 * math.pi)


def test_evaluate_solution_reports_defects_and_bound_violations():
    prob = _two_step_problem()
    good = evaluate_solution(prob, [[0.0], [0.5], [1.0]],
                             [[0.5], [0.5]])
    assert set(good) == {"dynamics_violation", "bound_violation"}
    assert good["dynamics_violation"] <= 1e-15
    assert good["bound_violation"] == 0.0
    bad = evaluate_solution(prob, [[0.0], [0.8], [0.9]],
                            [[0.5], [0.5]])
    assert bad["dynamics_violation"] == pytest.approx(0.4)
    assert bad["bound_violation"] == pytest.approx(0.1)

