import math

import numpy as np
import pytest

from helpers import make_ws, reference_discretize_path, region_atom
from stlplan.decomposer import LocalTask, decompose
from stlplan.satisfaction import SatisfactionSet, stl_sat
from stlplan import st_planner
from stlplan.st_planner import (Goal, GlobalPlan, Guard, PlannerParams,
                                PlanningError, TreeFailure, _attempt,
                                _next_goal, discretize_path, grow_tree,
                                nearest, plan_global, plan_local, sample,
                                steer)
from stlplan.stl_core import (PointSequence, SubTask, TimeInterval,
                              grid_ceil, oracle_satisfies,
                              oracle_satisfies_formula, parse_formula)

PARAMS = PlannerParams()
OPEN_WS = make_ws()


# ---------------------------------------------------------------------------
# sampling

def test_goal_bias_one_always_samples_the_target():
    rng = np.random.default_rng(0)
    target = region_atom("t", (2.0, 2.0), (4.0, 4.0)).region.box
    params = PlannerParams(goal_bias=1.0)
    for _ in range(200):
        pos, t = sample(OPEN_WS, target, (0.0, 5.0), params, rng)
        assert target.contains(pos)
        assert 0.0 <= t <= 5.0


def test_goal_bias_zero_matches_the_area_ratio():
    rng = np.random.default_rng(1)
    target = region_atom("t", (2.0, 2.0), (4.0, 4.0)).region.box
    params = PlannerParams(goal_bias=0.0)
    n = 10000
    hits = sum(target.contains(sample(OPEN_WS, target, (0.0, 5.0), params,
                                      rng)[0])
               for _ in range(n))
    p = 4.0 / 100.0
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sigma


def test_sample_streams_are_seed_deterministic():
    target = region_atom("t", (2.0, 2.0), (4.0, 4.0)).region.box
    draws = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        draws.append([sample(OPEN_WS, target, (0.0, 5.0), PARAMS, rng)
                      for _ in range(50)])
    for (p1, t1), (p2, t2) in zip(*draws):
        assert np.array_equal(p1, p2) and t1 == t2


def test_sample_respects_active_keep_in_windows():
    rng = np.random.default_rng(3)
    target = region_atom("t", (8.0, 8.0), (9.0, 9.0)).region.box
    keep = Guard(region_atom("k", (1.0, 1.0), (3.0, 3.0)).region.box,
                 0.0, 2.0, keep_in=True)
    for _ in range(200):
        pos, t = sample(OPEN_WS, target, (0.0, 5.0), PARAMS, rng,
                        keepins=(keep,))
        if t <= 2.0:
            assert keep.box.contains(pos)


# ---------------------------------------------------------------------------
# nearest / steer

def test_nearest_prefers_strictly_earlier_vertices():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    times = np.array([0.0, 1.0, 2.0])
    assert nearest(positions, times, [2.0, 0.0], 1.5) == 1
    assert nearest(positions, times, [2.0, 0.0], 0.5) == 0
    assert nearest(positions, times, [2.0, 0.0], 0.0) is None


def test_nearest_breaks_ties_by_insertion_order():
    positions = np.array([[0.0, 1.0], [0.0, -1.0]])  # same distance to 0
    times = np.array([0.0, 0.0])
    assert nearest(positions, times, [0.0, 0.0], 1.0) == 0


def test_nearest_matches_a_linear_scan():
    rng = np.random.default_rng(8)
    positions = [rng.uniform(0, 10, 2)]
    times = [0.0]
    for i in range(99):
        positions.append(rng.uniform(0, 10, 2))
        times.append(rng.uniform(0, 10))
    positions = np.array(positions)
    times = np.array(times)
    for _ in range(50):
        q = rng.uniform(0, 10, 2)
        t = rng.uniform(0, 12)
        best = None
        for i in range(len(times)):
            if times[i] >= t:
                continue
            d = np.linalg.norm(positions[i] - q)
            if best is None or d < best[0] - 1e-15:
                best = (d, i)
        got = nearest(positions, times, q, t)
        assert got == (None if best is None else best[1])


def test_steer_reaches_nearby_samples_exactly():
    p, t = steer([0.0, 0.0], 0.0, [0.2, 0.1], 3.0, PARAMS, 0.1)
    assert np.array_equal(p, [0.2, 0.1])
    assert t == min(0.0 + 0.5, 3.0)


def test_steer_clamps_to_the_spatial_step():
    p, _ = steer([0.0, 0.0], 0.0, [1.0, 0.0], 3.0, PARAMS, 0.1)
    assert np.allclose(p, [0.5, 0.0])
    assert np.linalg.norm(p) == pytest.approx(PARAMS.step)


def test_steer_clamps_time_to_the_sample():
    _, t = steer([0.0, 0.0], 0.0, [0.1, 0.0], 0.3, PARAMS, 0.1)
    assert t == 0.3


# ---------------------------------------------------------------------------
# tree growth

def test_tree_completes_immediately_inside_the_target():
    rng = np.random.default_rng(2)
    goal = Goal(region_atom("t", (0.0, 0.0), (2.0, 2.0)), (0.0, 5.0))
    positions, times, arrival = grow_tree(np.array([1.0, 1.0]), 0.0, goal,
                                          OPEN_WS, 5.0, PARAMS, rng,
                                          tau=0.1)
    # the root itself is the arrival: no vertex follows it
    assert positions.shape == (0, 2) and times.shape == (0,)
    assert arrival == 0


def test_tree_reaches_an_open_room_target_reliably():
    goal = Goal(region_atom("t", (8.0, 8.0), (9.0, 9.0)), (0.0, 20.0))
    params = PlannerParams(goal_bias=0.5)
    wins = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        try:
            positions, _, _ = grow_tree(np.array([1.0, 1.0]), 0.0, goal,
                                        OPEN_WS, 20.0, params, rng,
                                        tau=0.1)
        except TreeFailure:
            continue
        assert goal.prop.holds(positions[-1])
        wins += 1
    assert wins >= 48


def test_tree_fails_on_an_enclosed_target():
    ws = make_ws(obstacles=[((3.5, 3.5), (6.5, 4.0)),
                            ((3.5, 6.0), (6.5, 6.5)),
                            ((3.5, 4.0), (4.0, 6.0)),
                            ((6.0, 4.0), (6.5, 6.0))],
                 regions=[("t", (4.5, 4.5), (5.5, 5.5))])
    goal = Goal(region_atom("t", (4.5, 4.5), (5.5, 5.5)), (0.0, 20.0))
    params = PlannerParams(max_iters_per_tree=300)
    with pytest.raises(TreeFailure):
        grow_tree(np.array([1.0, 1.0]), 0.0, goal, ws, 20.0, params,
                  np.random.default_rng(4), tau=0.1)


def test_tree_rejects_a_root_violating_a_guard():
    guard = Guard(region_atom("k", (5.0, 5.0), (6.0, 6.0)).region.box,
                  0.0, 8.0, keep_in=True)
    goal = Goal(region_atom("t", (5.0, 5.0), (6.0, 6.0)), (0.0, 8.0))
    with pytest.raises(PlanningError):
        grow_tree(np.array([1.0, 1.0]), 0.0, goal, OPEN_WS, 8.0,
                  PARAMS, np.random.default_rng(5), tau=0.1,
                  guards=(guard,))


def _check_tree_path(positions, times, root_pos, root_time, goal, arrival,
                     ws, params, tau, v_max):
    """With the root prepended, the path strictly increases in time,
    moves within the speed limit, the spatial step and the time stride
    and through free space, and ends with the completion tail: the
    completing vertex, a wait to the grid arrival and the hold, all at
    one position."""
    assert positions.shape == (len(times), len(root_pos))
    positions = np.vstack([root_pos, positions])
    times = np.concatenate([[root_time], times])
    dts = np.diff(times)
    assert np.all(dts > 0)
    steps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    assert np.all(steps <= v_max * dts * (1.0 + 1e-9))
    moves = steps > 0
    assert np.all(steps[moves] <= params.step * (1.0 + 1e-9))
    assert np.all(dts[moves] <= params.resolved_time_step(tau) + 1e-9)
    assert not any(ws.segment_collides(a, b)
                   for a, b in zip(positions[:-1], positions[1:]))
    end, end_time = positions[-1], times[-1]
    if goal.prop is None:
        assert arrival is None
        assert end_time >= goal.window[0]
        return
    assert goal.prop.holds(end)
    g = arrival * tau
    assert goal.window[0] - 1e-9 <= g <= goal.window[1] + 1e-9
    hold = grid_ceil(goal.hold_after, tau) if goal.hold_after else 0
    assert abs(end_time - (arrival + hold) * tau) <= 1e-9
    # the tail holds one position from its first vertex, no later than
    # the grid arrival, to the end
    first = len(times) - 1
    while first > 0 and np.array_equal(positions[first - 1], end):
        first -= 1
    assert times[first] <= g + 1e-9


def test_tree_paths_start_at_the_root_and_end_with_the_tail():
    tau = 0.1
    target = region_atom("t", (4.0, 4.0), (6.0, 6.0))
    far = np.array([1.0, 1.0])
    inside = np.array([5.0, 5.0])
    # a wall between far and the target, passable above y = 7
    wall = make_ws(obstacles=[((3.0, 0.0), (3.5, 7.0))])
    cases = [
        # reach, arriving before the window opens and waiting
        (far, 0.0, Goal(target, (4.0, 9.0))),
        (far, 0.0, Goal(target, (0.0, 9.0))),
        # one step from the target, so a root edge can complete
        (np.array([3.8, 5.0]), 0.0, Goal(target, (0.0, 9.0))),
        # reach and hold
        (far, 0.0, Goal(target, (2.0, 9.0), hold_after=1.5)),
        (far, 0.0, Goal(target, (0.0, 9.0), hold_after=0.3)),
        # fillers
        (far, 0.0, Goal.by_time(3.0)),
        (far, 3.0, Goal.by_time(3.0)),
        (far, 3.05, Goal.by_time(3.0)),
        # roots already inside the target, on the grid, a rounding step
        # off it and between grid points
        (inside, 1.0, Goal(target, (0.0, 9.0))),
        (inside, 0.3, Goal(target, (0.0, 9.0))),
        (inside, 3 * tau, Goal(target, (0.0, 9.0), hold_after=0.5)),
        (inside, 1.03, Goal(target, (0.0, 9.0))),
        (inside, 1.03, Goal(target, (0.0, 9.0), hold_after=0.5)),
        (inside, 1.0, Goal(target, (2.5, 9.0))),
        (inside, 1.03, Goal(target, (2.5, 9.0), hold_after=1.0)),
    ]
    params = PlannerParams(goal_bias=0.5)
    failures = 0
    for seed in range(10):
        for ws in (OPEN_WS, wall):
            for pos, t0, goal in cases:
                rng = np.random.default_rng(seed)
                try:
                    positions, times, arrival = grow_tree(
                        pos, t0, goal, ws, max(t0, goal.deadline),
                        params, rng, tau=tau, v_max=2.0)
                except TreeFailure:
                    failures += 1
                    continue
                _check_tree_path(positions, times, pos, t0, goal, arrival,
                                 ws, params, tau, 2.0)
    assert failures <= 5


# ---------------------------------------------------------------------------
# discretization

def test_two_vertex_path_interpolates_the_midpoint():
    seq = discretize_path(np.array([[0.0, 0.0], [1.0, 2.0]]),
                          np.array([0.0, 1.0]), 0, 2, 0.5)
    assert len(seq) == 3
    assert np.array_equal(seq.positions[0], [0.0, 0.0])
    assert np.array_equal(seq.positions[1], [0.5, 1.0])
    assert np.array_equal(seq.positions[2], [1.0, 2.0])


def test_on_grid_vertices_are_taken_verbatim():
    pts = [[0.3, 0.7], [1.1, 0.2], [2.9, 3.3]]
    seq = discretize_path(np.array(pts), 0.5 * np.arange(3), 0, 2, 0.5)
    for expected, got in zip(pts, seq.positions):
        assert np.array_equal(got, expected)


def _segment_distance(p, a, b):
    d = b - a
    denom = float(d @ d)
    s = 0.0 if denom == 0.0 else np.clip((p - a) @ d / denom, 0.0, 1.0)
    return float(np.linalg.norm(p - (a + s * d)))


def test_discretized_points_stay_on_the_polyline():
    rng = np.random.default_rng(13)
    for _ in range(50):
        times = np.sort(rng.uniform(0.0, 10.0, size=6))
        times[0], times[-1] = 0.0, 10.0
        if np.any(np.diff(times) <= 1e-6):
            continue
        verts = np.array([rng.uniform(0, 10, 2) for _ in times])
        seq = discretize_path(verts, times, 0, 100, 0.1)
        assert len(seq) == 101
        for p in seq.positions:
            dist = min(_segment_distance(p, verts[i], verts[i + 1])
                       for i in range(len(verts) - 1))
            assert dist <= 1e-9


def _sample_outcome(sample, positions, times, k_lo, k_hi, tau):
    try:
        return sample(positions, times, k_lo, k_hi, tau).positions.tobytes()
    except ValueError as err:
        return str(err)


def test_discretize_path_matches_the_per_point_reference():
    # vertex times snap to grid times (some a rounding step off), the
    # path ends past the window or just short of it within tolerance,
    # and single-vertex paths cover a one-point window
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(400):
        tau = float(rng.choice([0.1, 0.05, 0.25, 1.0 / 3.0]))
        k_lo = int(rng.integers(0, 20))
        k_hi = k_lo + int(rng.integers(0, 30))
        times = rng.uniform(k_lo * tau, k_hi * tau,
                            size=int(rng.integers(0, 12)))
        snap = rng.random(len(times)) < 0.5
        times[snap] = rng.integers(k_lo, k_hi + 1, size=snap.sum()) * tau
        ends = [k_lo * tau - rng.choice([0.0, 5e-10, 0.2]),
                k_hi * tau + rng.choice([0.0, -5e-10, 0.3, -0.2])]
        times = np.unique(np.concatenate([ends, times]))
        if rng.random() < 0.1:
            times = times[:1]
        positions = np.array([rng.uniform(0.0, 10.0, size=2) for _ in times])
        got = _sample_outcome(discretize_path, positions, times, k_lo, k_hi,
                              tau)
        assert got == _sample_outcome(reference_discretize_path, positions,
                                      times, k_lo, k_hi, tau)
        seen.add(type(got))
    assert seen == {bytes, str}


def test_vertices_on_grid_times_match_the_reference():
    # verbatim down to the sign of zero, which interpolating with s = 0
    # would lose
    tau = 0.1
    times = np.array([0.0, 3 * tau, 0.35, 7 * tau, 1.0, 1.7])
    positions = np.array([[float(i), -0.0] for i in range(len(times))])
    args = (positions, times, 0, 15, tau)
    got = discretize_path(*args).positions
    assert got.tobytes() == reference_discretize_path(*args).positions \
        .tobytes()
    assert np.array_equal(got[[0, 3, 7, 10], 0], [0.0, 1.0, 3.0, 4.0])
    assert np.all(np.signbit(got[[0, 3, 7, 10], 1]))


def test_paths_must_span_the_requested_window():
    positions = np.array([[0.0, 0.0], [1.0, 0.0]])
    times = np.array([0.2, 1.0])
    with pytest.raises(ValueError, match="starts after"):
        discretize_path(positions, times, 0, 2, 0.5)
    with pytest.raises(ValueError, match="strictly increase"):
        discretize_path(positions[::-1], times[::-1], 0, 2, 0.5)
    with pytest.raises(ValueError, match="ends before"):
        discretize_path(positions, times, 1, 3, 0.5)


# ---------------------------------------------------------------------------
# local and global planning

def test_plan_local_serves_a_single_reach_goal():
    ws = make_ws(regions=[("t", (4.0, 4.0), (6.0, 6.0))])
    sub = SubTask("F", TimeInterval(3, 6), None,
                  region_atom("t", (4.0, 4.0), (6.0, 6.0)))
    task = LocalTask(1, TimeInterval(0, 6), (sub,))
    rng = np.random.default_rng(21)
    seq, pairs = plan_local(task, (np.array([1.0, 1.0]), 0.0), ws, PARAMS,
                            rng, [], tau=0.5)
    assert seq.k0 == 0 and seq.k_last == 12
    assert len(pairs) == 1
    ok, _ = stl_sat(seq, sub)
    assert ok


def test_attempt_joins_its_trees_into_one_path():
    # one reach goal long before the window ends: the joined path starts
    # at q_init, strictly increases in time, and stands still in the
    # target from the arrival to the window end; from inside the target
    # the tree adds no row and the path is q_init plus the standstill
    target = region_atom("t", (4.0, 4.0), (6.0, 6.0))
    sub = SubTask("F", TimeInterval(0, 3), None, target)
    for start, rows in (([1.0, 1.0], None), ([5.0, 5.0], 2)):
        for seed in range(5):
            positions, times = _attempt(
                (np.array(start), 0.0), OPEN_WS, PARAMS,
                np.random.default_rng(seed), (sub,), [], 0.5, 2.0, 6.0)
            assert positions.shape == (len(times), 2)
            assert np.array_equal(positions[0], start) and times[0] == 0.0
            assert np.all(np.diff(times) > 0) and times[-1] == 6.0
            assert np.array_equal(positions[-1], positions[-2])
            assert target.holds(positions[-1])
            assert rows is None or len(times) == rows


def test_next_goal_schedules_each_kind_of_sub_task():
    target = region_atom("t", (4.0, 4.0), (6.0, 6.0))
    reach = SubTask("F", TimeInterval(3, 6), None, target)
    assert _next_goal(reach, None, 0.5) == Goal(target, (3, 6))
    assert _next_goal(reach, 8, 0.5) is None
    hold = SubTask("FG", TimeInterval(3, 6), TimeInterval(0, 2), target)
    assert _next_goal(hold, None, 0.5) == Goal(target, (3, 6),
                                               hold_after=2)
    assert _next_goal(hold, 8, 0.5) is None
    assert _next_goal(SubTask("G", TimeInterval(0, 6), None, target),
                      None, 0.5) is None
    # a patrol over the active interval [0, 3.7]: a visit within 0.7 s of
    # the start and of every arrival, until 0.7 s covers the end
    tau = 0.1
    patrol = SubTask("GF", TimeInterval(0, 3), TimeInterval(0, 0.7), target)
    assert _next_goal(patrol, None, tau) == Goal(target, (0, 0.7))
    assert _next_goal(patrol, 5, tau) == Goal(target, (6 * tau,
                                                       5 * tau + 0.7))
    assert _next_goal(patrol, 29, tau) == Goal(target, (30 * tau,
                                                        29 * tau + 0.7))
    # 3.7 - 30 * tau is 0.7000000000000002: the window closing at 3.7
    # was the last one
    assert 3.7 - 30 * tau > 0.7
    assert _next_goal(patrol, 30, tau) is None
    assert _next_goal(patrol, 37, tau) is None


def test_attempt_serves_a_reach_before_a_patrol_of_equal_deadline(
        monkeypatch):
    # the patrol comes first in sub-task order and its first window
    # closes at 3, as the reach's does; the reach is grown to first
    target = region_atom("t", (4.0, 4.0), (6.0, 6.0))
    patrol = SubTask("GF", TimeInterval(0, 4), TimeInterval(0, 3), target)
    reach = SubTask("F", TimeInterval(1, 3), None, target)
    calls = []

    def record(root_pos, root_time, goal, ws, end_time, *args, **kwargs):
        calls.append((goal.window, end_time))
        return (np.zeros((0, 2)), np.zeros(0),
                grid_ceil(goal.deadline, kwargs["tau"]))

    monkeypatch.setattr(st_planner, "grow_tree", record)
    positions, times = _attempt((np.array([5.0, 5.0]), 0.0), OPEN_WS,
                                PARAMS, np.random.default_rng(0),
                                (patrol, reach), [], 0.5, 2.0, 8.0)
    assert calls == [((1, 3), 8.0), ((0, 3), 8.0), ((3.5, 6), 8.0)]
    assert times.tolist() == [0.0, 8.0]


def test_plan_local_gives_up_on_an_impossible_hold():
    # the keep-in box is disjoint from the start, so every restart fails
    ws = make_ws(regions=[("k", (5.0, 5.0), (6.0, 6.0))])
    sub = SubTask("G", TimeInterval(0, 2), None,
                  region_atom("k", (5.0, 5.0), (6.0, 6.0)))
    task = LocalTask(1, TimeInterval(0, 2), (sub,))
    params = PlannerParams(max_iters_per_tree=50, max_restarts=2)
    with pytest.raises(PlanningError):
        plan_local(task, (np.array([1.0, 1.0]), 0.0), ws, params,
                   np.random.default_rng(31), [Guard.from_subtask(sub)],
                   tau=0.5)


def test_global_plan_covers_the_whole_grid(first_scenario_artifacts):
    plan = first_scenario_artifacts["plan"]
    assert len(plan.waypoints) == 601
    assert plan.waypoints.k0 == 0 and plan.waypoints.k_last == 600


def test_global_plan_satisfies_every_subtask(first_scenario_artifacts):
    plan = first_scenario_artifacts["plan"]
    scenario = first_scenario_artifacts["scenario"]
    dec = first_scenario_artifacts["decomposition"]
    assert oracle_satisfies_formula(plan.waypoints, scenario.formula)
    for d in dec.disjunctive_sets:
        assert any(oracle_satisfies(plan.waypoints, p) for p in d.pieces)


def test_global_plan_respects_speed_and_free_space(
        first_scenario_artifacts):
    plan = first_scenario_artifacts["plan"]
    scenario = first_scenario_artifacts["scenario"]
    ws = scenario.workspace
    pts = plan.waypoints.positions
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert steps.max() <= scenario.model.speed_limit * scenario.tau * \
        (1.0 + 1e-6)
    for a, b in zip(pts[:-1], pts[1:]):
        assert not ws.segment_collides(a, b)
    plan.validate(ws, scenario.model.speed_limit, expected_len=601)


def test_global_plan_validation_names_the_first_offending_step():
    ws = make_ws(obstacles=[((4.0, 4.0), (6.0, 6.0))])

    def plan(points):
        return GlobalPlan(PointSequence(0, 0.5, points), SatisfactionSet())
    # v_max 2 and tau 0.5 allow 1 m per step
    fast = plan([[1.0, 1.0], [1.5, 1.0], [3.0, 1.0], [5.0, 1.0]])
    with pytest.raises(PlanningError, match=r"speed limit at step 1: "
                                            r"1\.5 m to step 2"):
        fast.validate(ws, 2.0)
    blocked = plan([[3.0, 5.0], [3.5, 5.0], [4.0, 5.0], [4.5, 5.0]])
    with pytest.raises(PlanningError, match=r"waypoint \[4\.0, 5\.0\] at "
                                            r"step 2 is not in free space"):
        blocked.validate(ws, 2.0)


def test_global_plan_starts_at_the_initial_position(
        first_scenario_artifacts):
    plan = first_scenario_artifacts["plan"]
    scenario = first_scenario_artifacts["scenario"]
    assert np.array_equal(plan.waypoints.positions[0], scenario.x0[:2])


def test_replanning_with_the_same_seed_is_byte_identical():
    from dataclasses import replace
    from stlplan.scenario_cli import load_scenario

    scenario = load_scenario("scenario3")
    dec = decompose(scenario.formula, scenario.tau)
    params = replace(scenario.planner, rng_seed=7)
    plans = [plan_global(dec, scenario.x0[:2], scenario.workspace, params,
                         tau=scenario.tau,
                         v_max=scenario.model.speed_limit)
             for _ in range(2)]
    a, b = plans
    assert a.waypoints.positions.tobytes() == b.waypoints.positions.tobytes()
    assert [(p.k, p.label) for p in a.pairs] == \
        [(p.k, p.label) for p in b.pairs]


def test_disjunctive_fallback_fires_only_when_no_earlier_piece_holds():
    ws = make_ws(regions=[("a", (2.0, 2.0), (3.0, 3.0)),
                          ("t", (4.0, 4.0), (6.0, 6.0))])
    formula = parse_formula("F[0,2] a & F[0,4] t", ws, tau=0.5)
    dec = decompose(formula, 0.5)
    assert len(dec.disjunctive_sets) == 1
    for seed in range(5):
        params = PlannerParams(rng_seed=seed)
        # from (1, 1), t is over 4 m away: out of reach before 2 s
        plan = plan_global(dec, (1.0, 1.0), ws, params, tau=0.5, v_max=2.0)
        t_ks = [p.k for p in plan.pairs if p.label == "t"]
        assert len(t_ks) == 1 and 4 <= t_ks[0] <= 8
        # starting inside t, the earlier piece already holds at k=0
        plan = plan_global(dec, (5.0, 5.0), ws, params, tau=0.5, v_max=2.0)
        assert [p.k for p in plan.pairs if p.label == "t"] == [0]


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
def test_each_disjunctive_set_is_certified_by_its_first_holding_piece(name):
    from dataclasses import replace
    from stlplan.scenario_cli import load_scenario

    scenario = load_scenario(name)
    dec = decompose(scenario.formula, scenario.tau)
    assert dec.disjunctive_sets
    for seed in range(3):
        params = replace(scenario.planner, rng_seed=seed)
        plan = plan_global(dec, scenario.x0[:2], scenario.workspace, params,
                           tau=scenario.tau,
                           v_max=scenario.model.speed_limit)
        for d in dec.disjunctive_sets:
            # the set's label occurs in no other clause of these formulas
            label = d.origin.prop.label
            first = next(pairs for ok, pairs in
                         (stl_sat(plan.waypoints, p) for p in d.pieces) if ok)
            assert [(p.k, p.label) for p in plan.pairs
                    if p.label == label] == \
                [(p.k, p.label) for p in first]
