import numpy as np
import pytest

from helpers import make_ws, reference_validate
from stlplan.corridor import (DEFAULT_STEP, CorridorError, SafeCorridor,
                              construct_safe_corridor, safe_cor)
from stlplan.stl_core import Box


def test_no_obstacles_expands_to_the_full_workspace():
    ws = make_ws(bounds=((0.0, 0.0), (10.0, 6.0)))
    box = safe_cor((3.0, 2.0), ws)
    assert box.lo == (0.0, 0.0)
    assert box.hi == (10.0, 6.0)


def test_single_wall_clips_one_face_exactly():
    ws = make_ws(bounds=((0.0, 0.0), (10.0, 6.0)),
                 obstacles=[((4.0, 0.0), (5.0, 6.0))])
    box = safe_cor((1.0, 1.0), ws)
    assert box.lo == (0.0, 0.0)
    assert box.hi == (4.0, 6.0)


def test_frozen_faces_snap_with_zero_gap():
    # seed almost touching the wall: the face freezes on the wall itself,
    # never short of it, whatever the step size
    ws = make_ws(bounds=((0.0, 0.0), (10.0, 6.0)),
                 obstacles=[((4.0, 0.0), (5.0, 6.0))])
    for step in (0.05, 0.3, 1.0):
        box = safe_cor((3.97, 1.0), ws, step)
        assert box.hi[0] == 4.0
        assert box.lo == (0.0, 0.0)
        assert box.hi[1] == 6.0


def test_result_is_step_size_independent_here():
    ws = make_ws(bounds=((0.0, 0.0), (10.0, 6.0)),
                 obstacles=[((4.0, 0.0), (5.0, 6.0))])
    boxes = [safe_cor((1.0, 1.0), ws, s) for s in (0.01, 0.05, 0.25)]
    for b in boxes[1:]:
        assert b.lo == boxes[0].lo and b.hi == boxes[0].hi


def test_expansion_respects_diagonal_neighbours():
    # the obstacle sits diagonally off the seed; the x face must still
    # stop at it once the y extent has grown into the shared band
    ws = make_ws(bounds=((0.0, 0.0), (10.0, 10.0)),
                 obstacles=[((5.0, 5.0), (6.0, 6.0))])
    box = safe_cor((4.0, 4.0), ws, 0.05)
    assert not box.open_intersects(Box((5.0, 5.0), (6.0, 6.0)))


def test_seed_inside_an_obstacle_is_rejected():
    ws = make_ws(obstacles=[((4.0, 4.0), (6.0, 6.0))])
    with pytest.raises(CorridorError):
        safe_cor((5.0, 5.0), ws)


def test_seed_outside_the_bounds_is_rejected():
    ws = make_ws()
    with pytest.raises(CorridorError):
        safe_cor((11.0, 5.0), ws)


def test_corridor_reuses_boxes_while_points_stay_inside():
    ws = make_ws(bounds=((0.0, 0.0), (10.0, 6.0)),
                 obstacles=[((4.0, 0.0), (5.0, 6.0))])
    pts = [(1.0, 1.0), (2.0, 2.0), (3.9, 5.9),  # all inside [0,4]x[0,6]
           (6.0, 3.0),                          # crosses to the far side
           (7.0, 3.0)]
    cor = construct_safe_corridor(pts, ws)
    assert len(cor) == 5
    assert cor[0] is cor[1] is cor[2]
    assert cor[3] is cor[4]
    assert cor[0] is not cor[3]
    assert len(cor.distinct()) == 2
    assert cor[0].lo == (0.0, 0.0) and cor[0].hi == (4.0, 6.0)
    assert cor[3].lo == (5.0, 0.0) and cor[3].hi == (10.0, 6.0)


def test_revisiting_a_region_grows_a_fresh_box():
    # distinct() keeps first-use order and only merges consecutive reuse,
    # so coming back to an earlier region grows an equal but new box
    ws = make_ws(bounds=((0.0, 0.0), (10.0, 6.0)),
                 obstacles=[((4.0, 0.0), (5.0, 6.0))])
    pts = [(1.0, 1.0), (6.0, 3.0), (1.0, 1.0)]
    cor = construct_safe_corridor(pts, ws)
    assert len(cor.distinct()) == 3
    assert cor[0] is not cor[2]
    assert cor[0].lo == cor[2].lo and cor[0].hi == cor[2].hi


def test_validate_accepts_a_good_corridor():
    ws = make_ws(obstacles=[((4.0, 0.0), (5.0, 6.0))])
    pts = [(1.0, 1.0), (2.0, 2.0)]
    cor = construct_safe_corridor(pts, ws)
    cor.validate(ws, pts)


def test_validate_rejects_broken_corridors():
    ws = make_ws(obstacles=[((4.0, 4.0), (6.0, 6.0))])
    good = construct_safe_corridor([(1.0, 1.0)], ws)
    with pytest.raises(CorridorError):
        good.validate(ws, [(1.0, 1.0), (2.0, 2.0)])  # length mismatch
    stray = SafeCorridor((Box((8.0, 8.0), (9.0, 9.0)),))
    with pytest.raises(CorridorError):
        stray.validate(ws, [(1.0, 1.0)])  # waypoint not contained
    overhang = SafeCorridor((Box((-1.0, 0.0), (2.0, 2.0)),))
    with pytest.raises(CorridorError):
        overhang.validate(ws, [(1.0, 1.0)])  # leaves the workspace
    overlap = SafeCorridor((Box((1.0, 1.0), (5.0, 5.0)),))
    with pytest.raises(CorridorError):
        overlap.validate(ws, [(1.0, 1.0)])  # open overlap with obstacle


def test_touching_an_obstacle_face_is_allowed():
    # sharing a face is fine; only open overlap is an error
    ws = make_ws(obstacles=[((4.0, 0.0), (5.0, 6.0))])
    flush = SafeCorridor((Box((0.0, 0.0), (4.0, 6.0)),))
    flush.validate(ws, [(1.0, 1.0)])


def _validate_outcome(validate, cor, ws, pts):
    try:
        validate(cor, ws, pts)
    except CorridorError as err:
        return str(err)
    return "ok"


def test_validate_matches_the_per_step_reference():
    # boxes on a half-unit grid touch obstacles and the workspace exactly
    # and often fail several checks at one step, which tests precedence
    rng = np.random.default_rng(5)
    seen = set()
    for trial in range(300):
        obstacles = []
        for _ in range(int(rng.integers(0, 4))):
            lo = rng.integers(0, 17, size=2) / 2.0
            obstacles.append((tuple(lo),
                              tuple(lo + rng.integers(1, 5, size=2) / 2.0)))
        ws = make_ws(obstacles=obstacles)
        boxes = []
        while len(boxes) < 8:
            lo = rng.integers(-1, 19, size=2) / 2.0
            box = Box(lo, lo + rng.integers(1, 9, size=2) / 2.0)
            boxes += [box] * int(rng.integers(1, 4))
        pts = np.array([b.sample(rng) if rng.random() < 0.8
                        else rng.integers(0, 21, size=2) / 2.0
                        for b in boxes[:8]])
        for j in range(9):
            cor = SafeCorridor(boxes[:j])
            got = _validate_outcome(SafeCorridor.validate, cor, ws, pts[:j])
            assert got == _validate_outcome(reference_validate, cor, ws,
                                            pts[:j])
            seen.add(got.split(" ", 2)[-1])
        mismatch = SafeCorridor(boxes[:3])
        assert _validate_outcome(SafeCorridor.validate, mismatch, ws,
                                 pts[:2]) == \
            _validate_outcome(reference_validate, mismatch, ws, pts[:2])
    assert seen == {"ok", "does not contain its waypoint",
                    "leaves the workspace", "overlaps an obstacle"}


def test_randomized_corridors_hold_the_invariants():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n_obs = int(rng.integers(0, 5))
        obstacles = []
        for _ in range(n_obs):
            lo = rng.uniform(0.0, 8.0, size=2)
            hi = lo + rng.uniform(0.5, 2.0, size=2)
            obstacles.append((tuple(lo), tuple(np.minimum(hi, 10.0))))
        ws = make_ws(obstacles=obstacles)
        pts = []
        while len(pts) < 30:
            p = rng.uniform(0.0, 10.0, size=2)
            if ws.point_free(p):
                pts.append(p)
        cor = construct_safe_corridor(pts, ws, 0.1)
        cor.validate(ws, pts)
        for box, p in zip(cor.boxes, pts):
            assert box.contains(p)


def test_pipeline_corridor_passes_validation(first_scenario_artifacts):
    cor = first_scenario_artifacts["corridor"]
    plan = first_scenario_artifacts["plan"]
    ws = first_scenario_artifacts["scenario"].workspace
    assert len(cor) == len(plan.waypoints)
    cor.validate(ws, plan.waypoints.positions)
    assert 1 <= len(cor.distinct()) < len(cor)
