import math

import numpy as np
import pytest

from helpers import (direct_eval, make_ws, reference_contains,
                     reference_discretize_path, reference_in_obstacle,
                     reference_segment_collides,
                     reference_segment_intersects, reference_stl_sat,
                     region_atom)
from stlplan.decomposer import LocalTask, decompose
from stlplan.satisfaction import SatisfactionPair, stl_sat
from stlplan import st_planner
from stlplan.st_planner import (Goal, GlobalPlan, Guard, PlannerParams,
                                PlanningError, TreeFailure, _attempt,
                                _edge_ok, _next_goal, _try_complete,
                                discretize_path, grow_tree,
                                nearest, plan_global, plan_local, sample,
                                steer)
from stlplan.stl_core import (Box, PointSequence, SubTask, TimeInterval,
                              Workspace, parse_formula)

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


@pytest.mark.parametrize("order", ["ab", "aba"])
def test_keep_ins_with_no_common_box_leave_the_draw_unconstrained(order):
    # both boxes are active over the whole window but share no point: the
    # draw must be the one without keep-ins, not one from a box found
    # before or after the empty intersection
    target = region_atom("t", (4.0, 4.0), (5.0, 5.0)).region.box
    boxes = {"a": ((1.0, 1.0), (3.0, 3.0)), "b": ((6.0, 6.0), (8.0, 8.0))}
    keepins = tuple(Guard(Box(*boxes[name]), 0.0, 5.0, keep_in=True)
                    for name in order)
    for seed in range(50):
        (p1, t1), (p2, t2) = (sample(OPEN_WS, target, (0.0, 5.0), PARAMS,
                                     np.random.default_rng(seed),
                                     keepins=guards)
                              for guards in (keepins, ()))
        assert np.array_equal(p1, p2) and t1 == t2, seed


# ---------------------------------------------------------------------------
# nearest / steer

def test_nearest_prefers_strictly_earlier_vertices():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    times = np.array([0.0, 1.0, 2.0])
    assert nearest(positions, times, [2.0, 0.0], 1.5) == 1
    assert nearest(positions, times, [2.0, 0.0], 0.5) == 0
    assert nearest(positions, times, [2.0, 0.0], 0.0) is None


def test_nearest_skips_a_nearer_vertex_at_the_sample_time():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    times = np.array([0.0, 1.0, 2.0])
    assert nearest(positions, times, [2.0, 0.0], 1.0) == 0
    assert nearest(positions, times, [2.0, 0.0], 2.0) == 1


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


def test_edge_points_use_the_array_interpolation_formula():
    # guards test the edge at a window's ends on plain floats; the points
    # must be those of numpy's p0 + s * (p1 - p0), bit for bit
    rng = np.random.default_rng(4)
    for _ in range(2000):
        p0, p1 = rng.uniform(-10, 10, (2, 2))
        t0, t1 = sorted(rng.uniform(0, 10, 2))
        t = float(rng.uniform(t0, t1))
        s = (t - t0) / (t1 - t0)
        want = p0 + s * (p1 - p0)
        got = st_planner._interp(p0.tolist(), t0, p1.tolist(), t1, t)
        assert np.array(got).tobytes() == want.tobytes()


def _speed_limit_for(threshold):
    """A v_max whose one-second speed threshold in _edge_ok,
    v_max * 1.0 * (1.0 + 1e-9), is exactly threshold, or None."""
    v = threshold / (1.0 + 1e-9)
    for _ in range(4):
        got = v * 1.0 * (1.0 + 1e-9)
        if got == threshold:
            return v
        v = float(np.nextafter(v, math.inf if got < threshold else 0.0))
    return None


def test_tree_lengths_are_the_plain_float_formula_to_the_bit():
    # sqrt(dx*dx + dy*dy), in that order on plain floats: a BLAS dot
    # product may fuse the multiply-add, and math.hypot rounds
    # differently, each one ulp off on several percent of such vectors,
    # and either would move plans
    vectors = np.random.default_rng(0).uniform(-10, 10, (20000, 2))
    origin = np.zeros(2)
    clamped = speed_tests = 0
    for d in vectors:
        dx, dy = d.tolist()
        dist = math.sqrt(dx * dx + dy * dy)
        p, _ = steer(origin, 0.0, d, 1.0, PARAMS, 0.1)
        if dist > PARAMS.step:
            clamped += 1
            assert p.tobytes() == (d * (PARAMS.step / dist)).tobytes()
        # a speed threshold equal to the length passes the edge, one ulp
        # below it fails the edge
        for threshold, ok in ((dist, True),
                              (float(np.nextafter(dist, 0.0)), False)):
            v_max = _speed_limit_for(threshold)
            if v_max is not None:
                speed_tests += 1
                assert _edge_ok(OPEN_WS, (), origin, 0.0, d, 1.0,
                                v_max) is ok
    assert clamped > 19000 and speed_tests > 38000


# ---------------------------------------------------------------------------
# tree growth

def _no_tree(*args, **kwargs):
    raise AssertionError("grow_tree was called")


def test_tree_completes_immediately_inside_the_target(monkeypatch):
    # the attempt completes a goal that the start already meets in place:
    # no tree grows, no row follows the start but the window's end, and
    # the reach is certified
    monkeypatch.setattr(st_planner, "grow_tree", _no_tree)
    target = region_atom("t", (0.0, 0.0), (2.0, 2.0))
    sub = SubTask("F", TimeInterval(0, 50, 0.1), None, target)
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    positions, times = _attempt((np.array([1.0, 1.0]), 0.0), OPEN_WS,
                                PARAMS, rng, (sub,), [], 0.1, math.inf, 50)
    assert positions.tolist() == [[1.0, 1.0], [1.0, 1.0]]
    assert times.tolist() == [0.0, 5.0]
    assert rng.bit_generator.state == state
    assert stl_sat(discretize_path(positions, times, 0, 50, 0.1), sub)[1] \
        == (SatisfactionPair(50, target.label, target),)


def test_tree_reaches_an_open_room_target_reliably():
    goal = Goal(region_atom("t", (8.0, 8.0), (9.0, 9.0)), (0, 200))
    params = PlannerParams(goal_bias=0.5)
    wins = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        try:
            positions, _, _ = grow_tree(np.array([1.0, 1.0]), 0.0, goal,
                                        OPEN_WS, 20.0, params, rng,
                                        tau=0.1, v_max=math.inf, guards=())
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
    goal = Goal(region_atom("t", (4.5, 4.5), (5.5, 5.5)), (0, 200))
    params = PlannerParams(max_iters_per_tree=300)
    with pytest.raises(TreeFailure):
        grow_tree(np.array([1.0, 1.0]), 0.0, goal, ws, 20.0, params,
                  np.random.default_rng(4), tau=0.1, v_max=math.inf,
                  guards=())


def test_tree_rejects_a_root_violating_a_guard(monkeypatch):
    # plan_local checks the window's start against the guards once,
    # before any attempt: no tree and no restart can repair it
    monkeypatch.setattr(st_planner, "grow_tree", _no_tree)
    guard = Guard(region_atom("k", (5.0, 5.0), (6.0, 6.0)).region.box,
                  0.0, 8.0, keep_in=True)
    sub = SubTask("F", TimeInterval(0, 80, 0.1), None,
                  region_atom("t", (5.0, 5.0), (6.0, 6.0)))
    task = LocalTask(1, TimeInterval(0, 80, 0.1), (sub,))
    with pytest.raises(PlanningError, match="violates an always-constraint"):
        plan_local(task, (np.array([1.0, 1.0]), 0.0), OPEN_WS, PARAMS,
                   np.random.default_rng(5), [guard], tau=0.1,
                   v_max=math.inf)


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
        # the window's end: the path ends exactly there, on the grid
        assert end_time == goal.window[1] * tau
        assert arrival == goal.window[1]
        return
    assert goal.prop.holds(end)
    g = arrival * tau
    assert goal.window[0] <= arrival <= goal.window[1]
    assert abs(end_time - (arrival + goal.hold_after) * tau) <= 1e-9
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
        (far, 0.0, Goal(target, (40, 90))),
        (far, 0.0, Goal(target, (0, 90))),
        # one step from the target, so a root edge can complete
        (np.array([3.8, 5.0]), 0.0, Goal(target, (0, 90))),
        # reach and hold
        (far, 0.0, Goal(target, (20, 90), hold_after=15)),
        (far, 0.0, Goal(target, (0, 90), hold_after=3)),
        # the window's end, from a root before it
        (far, 0.0, Goal(None, (30, 30))),
        # roots already inside the target, on the grid, a rounding step
        # off it and between grid points: the tree still grows an edge
        (inside, 1.0, Goal(target, (0, 90))),
        (inside, 0.3, Goal(target, (0, 90))),
        (inside, 3 * tau, Goal(target, (0, 90), hold_after=5)),
        (inside, 1.03, Goal(target, (0, 90))),
        (inside, 1.03, Goal(target, (0, 90), hold_after=5)),
        (inside, 1.0, Goal(target, (25, 90))),
        (inside, 1.03, Goal(target, (25, 90), hold_after=10)),
    ]
    params = PlannerParams(goal_bias=0.5)
    failures = 0
    for seed in range(10):
        for ws in (OPEN_WS, wall):
            for pos, t0, goal in cases:
                rng = np.random.default_rng(seed)
                try:
                    positions, times, arrival = grow_tree(
                        pos, t0, goal, ws, max(t0, goal.deadline * tau),
                        params, rng, tau=tau, v_max=2.0, guards=())
                except TreeFailure:
                    failures += 1
                    continue
                _check_tree_path(positions, times, pos, t0, goal, arrival,
                                 ws, params, tau, 2.0)
    assert failures <= 5
    # a root already at the window's end completes in place, as the
    # attempt completes it before any tree
    for ws in (OPEN_WS, wall):
        assert _try_complete(Goal(None, (30, 30)), far, 3.0, tau, ws,
                             ()) == ([3.0], 30)


def test_a_hold_is_checked_against_the_guards_up_to_its_end():
    # arriving on the grid at 0.5 s and holding 20 steps ends at 2.5 s: a
    # keep-out of the goal's own region from 2.5 s forbids the hold, one
    # from 2.6 s does not
    tau = 0.1
    mu = region_atom("mu", (4.0, 4.0), (6.0, 6.0))
    goal = Goal(mu, (0, 10), hold_after=20)
    p = np.array([5.0, 5.0])

    def complete(*guards):
        return _try_complete(goal, p, 0.5, tau, OPEN_WS, guards)
    assert complete() == ([0.5, 2.5], 5)
    assert complete(Guard(mu.region.box, 2.5, 3.0, keep_in=False)) is None
    assert complete(Guard(mu.region.box, 2.6, 3.0, keep_in=False)) == \
        ([0.5, 2.5], 5)


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
    sub = SubTask("F", TimeInterval(6, 12, 0.5), None,
                  region_atom("t", (4.0, 4.0), (6.0, 6.0)))
    task = LocalTask(1, TimeInterval(0, 12, 0.5), (sub,))
    rng = np.random.default_rng(21)
    seq, pairs = plan_local(task, (np.array([1.0, 1.0]), 0.0), ws, PARAMS,
                            rng, [], tau=0.5, v_max=math.inf)
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
    sub = SubTask("F", TimeInterval(0, 6, 0.5), None, target)
    for start, rows in (([1.0, 1.0], None), ([5.0, 5.0], 2)):
        for seed in range(5):
            positions, times = _attempt(
                (np.array(start), 0.0), OPEN_WS, PARAMS,
                np.random.default_rng(seed), (sub,), [], 0.5, 2.0, 12)
            assert positions.shape == (len(times), 2)
            assert np.array_equal(positions[0], start) and times[0] == 0.0
            assert np.all(np.diff(times) > 0) and times[-1] == 6.0
            assert np.array_equal(positions[-1], positions[-2])
            assert target.holds(positions[-1])
            assert rows is None or len(times) == rows


def test_next_goal_schedules_each_kind_of_sub_task():
    target = region_atom("t", (4.0, 4.0), (6.0, 6.0))
    reach = SubTask("F", TimeInterval(6, 12, 0.5), None, target)
    assert _next_goal(reach, None) == Goal(target, (6, 12))
    assert _next_goal(reach, 8) is None
    hold = SubTask("FG", TimeInterval(6, 12, 0.5), TimeInterval(0, 4, 0.5),
                   target)
    assert _next_goal(hold, None) == Goal(target, (6, 12), hold_after=4)
    assert _next_goal(hold, 8) is None
    # a keep-in G arrives by its window's start once; a keep-out G is
    # served by the guards alone
    keep = SubTask("G", TimeInterval(6, 12, 0.5), None, target)
    assert _next_goal(keep, None) == Goal(target, (6, 6))
    assert _next_goal(keep, 6) is None
    avoid = SubTask("G", TimeInterval(6, 12, 0.5), None,
                    region_atom("t", (4.0, 4.0), (6.0, 6.0), negated=True))
    assert _next_goal(avoid, None) is None
    # a patrol over the active interval [0, 37] (3.7 s at tau 0.1): a
    # visit within 7 steps of the start and of every arrival, until 7
    # steps cover the end
    tau = 0.1
    patrol = SubTask("GF", TimeInterval(0, 30, tau), TimeInterval(0, 7, tau),
                     target)
    assert _next_goal(patrol, None) == Goal(target, (0, 7))
    assert _next_goal(patrol, 5) == Goal(target, (6, 12))
    assert _next_goal(patrol, 29) == Goal(target, (30, 36))
    # 37 - 30 is the gap: the window closing at step 37 was the last one,
    # though 3.7 - 30 * tau s is 0.7000000000000002 s, past the 0.7 s gap
    assert _next_goal(patrol, 30) is None
    assert _next_goal(patrol, 37) is None
    # a zero-gap patrol over [30, 50] visits every grid step: the window
    # after each arrival is the next grid index, never empty
    every = SubTask("GF", TimeInterval(30, 50, tau), TimeInterval(0, 0, tau),
                    target)
    assert _next_goal(every, None) == Goal(target, (30, 30))
    assert _next_goal(every, 30) == Goal(target, (31, 31))
    assert _next_goal(every, 49) == Goal(target, (50, 50))
    assert _next_goal(every, 50) is None


def test_attempt_serves_a_reach_before_a_patrol_of_equal_deadline(
        monkeypatch):
    # the patrol comes first in sub-task order and its first window
    # closes at 3, as the reach's does; the reach is grown to first.  The
    # stand-in tree waits one second outside the target, so no goal is
    # ever met in place
    target = region_atom("t", (4.0, 4.0), (6.0, 6.0))
    patrol = SubTask("GF", TimeInterval(0, 8, 0.5), TimeInterval(0, 6, 0.5),
                     target)
    reach = SubTask("F", TimeInterval(2, 6, 0.5), None, target)
    calls = []

    def record(root_pos, root_time, goal, ws, end_time, *args, **kwargs):
        calls.append((goal.window, end_time))
        return (root_pos[None], np.array([root_time + 1.0]), goal.deadline)

    monkeypatch.setattr(st_planner, "grow_tree", record)
    positions, times = _attempt((np.array([1.0, 1.0]), 0.0), OPEN_WS,
                                PARAMS, np.random.default_rng(0),
                                (patrol, reach), [], 0.5, 2.0, 16)
    assert calls == [((2, 6), 8.0), ((0, 6), 8.0), ((7, 12), 8.0)]
    assert times.tolist() == [0.0, 1.0, 2.0, 3.0, 8.0]


def test_attempt_serves_a_patrol_in_place_without_trees(monkeypatch):
    # a vehicle that starts inside its patrol region meets every visit
    # where it stands: the whole schedule is served in place
    monkeypatch.setattr(st_planner, "grow_tree", _no_tree)
    target = region_atom("t", (4.0, 4.0), (6.0, 6.0))
    patrol = SubTask("GF", TimeInterval(0, 40, 0.1), TimeInterval(0, 5, 0.1),
                     target)
    task = LocalTask(1, TimeInterval(0, 45, 0.1), (patrol,))
    seq, pairs = plan_local(task, (np.array([5.0, 5.0]), 0.0), OPEN_WS,
                            PARAMS, np.random.default_rng(0), [], tau=0.1,
                            v_max=2.0)
    assert np.all(seq.positions == [5.0, 5.0])
    assert [p.k for p in pairs] == list(range(46))


@pytest.mark.parametrize("after_hold", [False, True],
                         ids=["alone", "after-a-hold"])
def test_keep_in_always_clause_is_entered_by_its_start(after_hold):
    # G[3,5] k from outside k: the attempt arrives in k by 3 and waits,
    # and the guard keeps it there.  After a hold in k that lasts past
    # 3, the keep-in goal's time has passed when it falls due; the guard
    # has held the path in k since then, so it is met
    k = region_atom("k", (3.0, 3.0), (4.0, 4.0))
    keep = SubTask("G", TimeInterval(30, 50, 0.1), None, k)
    hold = SubTask("FG", TimeInterval(0, 20, 0.1), TimeInterval(0, 30, 0.1),
                   k)
    subs = (hold, keep) if after_hold else (keep,)
    task = LocalTask(1, TimeInterval(0, 50, 0.1), subs)
    seq, pairs = plan_local(task, (np.array([1.0, 1.0]), 0.0), OPEN_WS,
                            PARAMS, np.random.default_rng(3),
                            [Guard.from_subtask(keep, 0.1)], tau=0.1,
                            v_max=4.0)
    assert all(stl_sat(seq, sub)[0] for sub in subs)
    assert {p.k for p in pairs} >= set(range(30, 51))


def test_plan_local_gives_up_on_an_impossible_hold():
    # the keep-in box is disjoint from the start, so every restart fails
    ws = make_ws(regions=[("k", (5.0, 5.0), (6.0, 6.0))])
    sub = SubTask("G", TimeInterval(0, 4, 0.5), None,
                  region_atom("k", (5.0, 5.0), (6.0, 6.0)))
    task = LocalTask(1, TimeInterval(0, 4, 0.5), (sub,))
    params = PlannerParams(max_iters_per_tree=50, max_restarts=2)
    with pytest.raises(PlanningError):
        plan_local(task, (np.array([1.0, 1.0]), 0.0), ws, params,
                   np.random.default_rng(31), [Guard.from_subtask(sub, 0.5)],
                   tau=0.5, v_max=math.inf)


def test_global_plan_covers_the_whole_grid(first_scenario_artifacts):
    plan = first_scenario_artifacts["plan"]
    assert len(plan.waypoints) == 601
    assert plan.waypoints.k0 == 0 and plan.waypoints.k_last == 600


def test_global_plan_satisfies_every_subtask(first_scenario_artifacts):
    plan = first_scenario_artifacts["plan"]
    scenario = first_scenario_artifacts["scenario"]
    dec = first_scenario_artifacts["decomposition"]
    assert all(direct_eval(plan.waypoints, sub)
               for sub in scenario.formula.subtasks)
    for d in dec.disjunctive_sets:
        assert any(direct_eval(plan.waypoints, p) for p in d.pieces)


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


def test_global_plan_deduplicates_and_orders_its_pairs():
    atom = region_atom("a", (0.0, 0.0), (1.0, 1.0))
    twin = region_atom("a", (0.0, 0.0), (2.0, 2.0))
    other = region_atom("b", (0.0, 0.0), (1.0, 1.0))
    seq = PointSequence(0, 0.5, [[0.5, 0.5]] * 6)
    given = [SatisfactionPair(k, prop.label, prop)
             for k, prop in ((4, atom), (1, atom), (4, other), (2, atom),
                             (4, twin))]
    pairs = GlobalPlan(seq, given).pairs
    assert [(p.k, p.label) for p in pairs] == [(1, "a"), (2, "a"), (4, "a"),
                                                (4, "b")]
    # of pairs sharing (k, label) the last given is kept
    assert pairs[2].prop is twin
    assert isinstance(pairs, tuple)


def test_global_plan_validation_names_the_first_offending_step():
    ws = make_ws(obstacles=[((4.0, 4.0), (6.0, 6.0))])

    def plan(points):
        return GlobalPlan(PointSequence(0, 0.5, points), ())
    # v_max 2 and tau 0.5 allow 1 m per step
    fast = plan([[1.0, 1.0], [1.5, 1.0], [3.0, 1.0], [5.0, 1.0]])
    with pytest.raises(PlanningError, match=r"speed limit at step 1: "
                                            r"1\.5 m to step 2"):
        fast.validate(ws, 2.0, expected_len=4)
    blocked = plan([[3.0, 5.0], [3.5, 5.0], [4.0, 5.0], [4.5, 5.0]])
    with pytest.raises(PlanningError, match=r"waypoint \[4\.0, 5\.0\] at "
                                            r"step 2 is not in free space"):
        blocked.validate(ws, 2.0, expected_len=4)


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


def test_plan_global_rejects_a_step_other_than_the_decompositions():
    # scenario3 is decomposed at tau 0.1; planned at 0.2 its steps would
    # be read as twice as long, a plan over twice the task's horizon
    from stlplan.scenario_cli import load_scenario

    scenario = load_scenario("scenario3")
    dec = decompose(scenario.formula, scenario.tau)
    with pytest.raises(PlanningError, match=r"planner step 0\.2 s differs "
                       r"from the decomposition's grid step 0\.1 s"):
        plan_global(dec, scenario.x0[:2], scenario.workspace,
                    scenario.planner, tau=0.2,
                    v_max=scenario.model.speed_limit)


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
        # starting inside t, the earlier piece already holds from k=0 on,
        # and it is certified where that first visit ends
        plan = plan_global(dec, (5.0, 5.0), ws, params, tau=0.5, v_max=2.0)
        t_box = ws.regions[1].box
        last = 0
        while last < 8 and t_box.contains(plan.waypoints.at_index(last + 1)):
            last += 1
        assert [p.k for p in plan.pairs if p.label == "t"] == [last]


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


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
def test_each_reach_pair_ends_the_first_visit(name):
    # checked point by point with AtomicProp.holds, not via the reference
    from dataclasses import replace
    from stlplan.scenario_cli import load_scenario

    scenario = load_scenario(name)
    dec = decompose(scenario.formula, scenario.tau)
    clauses = [[s] for task in dec.local_tasks for s in task.subtasks
               if s.kind == "F"]
    clauses += [list(d.pieces) for d in dec.disjunctive_sets]
    assert clauses
    for seed in range(3):
        params = replace(scenario.planner, rng_seed=seed)
        plan = plan_global(dec, scenario.x0[:2], scenario.workspace, params,
                           tau=scenario.tau,
                           v_max=scenario.model.speed_limit)
        seq, keys = plan.waypoints, {(p.k, p.label) for p in plan.pairs}
        for pieces in clauses:
            # the plan certifies the clause through one of its pieces
            sub, pair = next((s, pairs[0]) for s, (ok, pairs) in
                             ((s, stl_sat(seq, s)) for s in pieces)
                             if ok and (pairs[0].k, pairs[0].label) in keys)
            ai = sub.active_interval()
            ks = range(ai.lo, ai.hi + 1)
            holds = [sub.prop.holds(seq.at_index(k)) for k in ks]
            first, i = holds.index(True), ks.index(pair.k)
            assert all(holds[first:i + 1])
            assert i + 1 == len(ks) or not holds[i + 1]


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
def test_plans_match_those_of_the_reference_predicates(name, monkeypatch):
    from dataclasses import replace
    from stlplan.scenario_cli import load_scenario

    scenario = load_scenario(name)
    dec = decompose(scenario.formula, scenario.tau)

    def plans():
        out = []
        for seed in range(5):
            params = replace(scenario.planner, rng_seed=seed)
            plan = plan_global(dec, scenario.x0[:2], scenario.workspace,
                               params, tau=scenario.tau,
                               v_max=scenario.model.speed_limit)
            out.append((plan.waypoints.positions.tobytes(),
                        [(p.k, p.label) for p in plan.pairs]))
        return out

    fast = plans()
    monkeypatch.setattr(Box, "contains", reference_contains)
    monkeypatch.setattr(Box, "segment_intersects",
                        reference_segment_intersects)
    monkeypatch.setattr(Workspace, "in_obstacle", reference_in_obstacle)
    monkeypatch.setattr(Workspace, "segment_collides",
                        reference_segment_collides)
    monkeypatch.setattr(st_planner, "stl_sat", reference_stl_sat)
    assert plans() == fast
