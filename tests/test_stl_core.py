import math
import re

import numpy as np
import pytest

from helpers import (direct_eval, make_ws, oracle_satisfies_until,
                     random_instance, region_atom)
from stlplan.stl_core import (AtomicProp, Box, CoverageError,
                              FormulaSyntaxError, IntervalAlignmentError,
                              NestedOverlapError, PointSequence, Region,
                              SubTask, TimeInterval, UnknownRegionError,
                              Workspace, grid_ceil, grid_floor,
                              oracle_satisfies,
                              oracle_satisfies_formula, parse_formula, pretty,
                              snap_index)

WS = make_ws(regions=[
    ("mu1", (7.0, 4.0), (9.0, 6.0)),
    ("mu2", (8.0, 4.0), (9.5, 6.0)),
    ("mu3", (0.5, 4.0), (1.5, 5.0)),
    ("mu4", (4.0, 3.0), (5.5, 6.0)),
    ("mu5", (3.0, 3.5), (4.0, 5.0)),
    ("mu6", (1.5, 0.5), (2.5, 1.5)),
])


# ---------------------------------------------------------------------------
# grid arithmetic

def test_snap_index_exact_multiples():
    assert snap_index(0.0, 0.1) == 0
    assert snap_index(60.0, 0.1) == 600
    assert snap_index(0.30000000000000004, 0.1) == 3


def test_snap_index_rejects_off_grid():
    assert snap_index(0.15, 0.1) is None
    assert snap_index(0.1001, 0.1) is None


def test_grid_ceil_floor_tolerate_float_noise():
    assert grid_ceil(0.30000000000000004, 0.1) == 3
    assert grid_floor(0.29999999999999993, 0.1) == 3
    assert grid_ceil(0.21, 0.1) == 3
    assert grid_floor(0.29, 0.1) == 2


# ---------------------------------------------------------------------------
# geometry

def test_point_on_box_boundary_is_inside():
    box = Box((1.0, 1.0), (2.0, 2.0))
    assert box.contains((1.0, 1.5))
    assert box.contains((2.0, 2.0))


def test_segment_far_from_box_misses():
    box = Box((1.0, 1.0), (2.0, 2.0))
    assert not box.segment_intersects((3.0, 3.0), (5.0, 4.0))
    assert not box.segment_intersects((0.0, 0.0), (0.5, 3.0))


def test_segment_grazing_corner_counts_as_hit():
    # the diagonal x + y = 4 touches [1,2]x[1,2] only at the corner (2,2)
    box = Box((1.0, 1.0), (2.0, 2.0))
    a, b = np.array([1.5, 2.5]), np.array([2.5, 1.5])
    assert box.segment_intersects(a, b)
    # dense sampling at 1e-3 steps confirms a contact point exists
    ts = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    samples = a[None, :] + ts[:, None] * (b - a)[None, :]
    assert any(box.contains(p) for p in samples)


def test_segment_test_never_misses_a_densely_sampled_hit():
    rng = np.random.default_rng(7)
    box = Box((2.0, 2.0), (5.0, 4.0))
    for _ in range(300):
        a = rng.uniform(0.0, 7.0, size=2)
        b = rng.uniform(0.0, 7.0, size=2)
        ts = np.linspace(0.0, 1.0, 1001)
        samples = a[None, :] + ts[:, None] * (b - a)[None, :]
        dense_hit = any(box.contains(p) for p in samples)
        if dense_hit:
            assert box.segment_intersects(a, b)
        if not box.segment_intersects(a, b):
            assert not dense_hit


def test_workspace_segment_collides_checks_every_obstacle():
    ws = make_ws(obstacles=[((4.0, 0.0), (5.0, 6.0))])
    assert ws.segment_collides((1.0, 1.0), (9.0, 1.0))
    assert not ws.segment_collides((1.0, 7.0), (3.0, 9.0))
    assert ws.point_free((1.0, 1.0))
    assert not ws.point_free((4.5, 3.0))


def _scalar_and_batched(ws, A, B):
    """Each point and segment tested one at a time and all at once."""
    scalar = ([ws.point_free(p) for p in A],
              [ws.segment_collides(a, b) for a, b in zip(A, B)])
    batched = (ws.points_free(A).tolist(),
               ws.segments_collide(A, B).tolist())
    return scalar, batched


def test_batched_predicates_match_the_scalar_ones():
    # half-unit grid coordinates put points on faces and corners and make
    # segments graze them; zeroed axes give axis-parallel and zero-length
    # segments
    rng = np.random.default_rng(11)
    hits = [0, 0]
    for trial in range(200):
        obstacles = []
        for _ in range(int(rng.integers(0, 5))):
            lo = rng.integers(0, 17, size=2) / 2.0
            obstacles.append((tuple(lo),
                              tuple(lo + rng.integers(1, 5, size=2) / 2.0)))
        ws = make_ws(obstacles=obstacles)
        A = rng.integers(-1, 22, size=(40, 2)) / 2.0
        A[:20] += rng.uniform(-0.5, 0.5, size=(20, 2))
        D = rng.integers(-6, 7, size=(40, 2)) / 2.0
        D[rng.random((40, 2)) < 0.3] = 0.0
        scalar, batched = _scalar_and_batched(ws, A, A + D)
        assert scalar == batched
        hits[0] += sum(scalar[1])
        hits[1] += len(A) - sum(scalar[1])
    assert min(hits) > 100


def test_batched_predicates_on_touching_and_degenerate_segments():
    ws = make_ws(obstacles=[((4.0, 4.0), (6.0, 6.0))])
    A = np.array([[4.0, 3.0], [3.0, 5.0], [7.0, 3.0], [3.0, 3.0],
                  [6.0, 6.0], [3.0, 2.0], [5.0, 5.0], [3.9, 5.0]])
    B = np.array([[4.0, 1.0], [4.0, 5.0], [6.0, 4.0], [5.0, 3.0],
                  [6.0, 6.0], [7.0, 2.0], [5.0, 5.0], [3.9, 5.0]])
    scalar, batched = _scalar_and_batched(ws, A, B)
    assert scalar == batched
    # touching a face, touching a corner, a zero-length segment on the
    # corner and one inside count as hits
    assert batched[1] == [False, True, True, False, True, False, True,
                          False]
    empty = make_ws()
    scalar, batched = _scalar_and_batched(empty, A, B)
    assert scalar == batched
    assert batched == ([True] * 8, [False] * 8)
    assert empty.segments_collide(A[:0], B[:0]).shape == (0,)


def test_duplicate_region_names_rejected():
    with pytest.raises(ValueError):
        Workspace(Box((0, 0), (1, 1)),
                  (),
                  (Region("a", Box((0, 0), (1, 1))),
                   Region("a", Box((0, 0), (1, 1)))))


# ---------------------------------------------------------------------------
# time intervals

def test_minkowski_sum_examples():
    assert TimeInterval(30, 46).minkowski(TimeInterval(0, 4)) == \
        TimeInterval(30, 50)
    assert TimeInterval(0, 10).minkowski(TimeInterval(0, 10)) == \
        TimeInterval(0, 20)


def test_minkowski_commutative_and_monotone():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = sorted(rng.uniform(0, 50, size=2))
        b = sorted(rng.uniform(0, 50, size=2))
        p = TimeInterval(a[0], a[1])
        q = TimeInterval(b[0], b[1])
        assert p.minkowski(q) == q.minkowski(p)
        wider = TimeInterval(b[0], b[1] + 1.0)
        assert p.minkowski(wider).hi > p.minkowski(q).hi - 1e-12
        assert p.minkowski(wider).lo == p.minkowski(q).lo


def test_active_interval_plain_and_nested():
    f = SubTask("F", TimeInterval(0, 60), None, region_atom("r", (0, 0),
                                                            (1, 1)))
    assert f.active_interval() == TimeInterval(0, 60)
    gf = SubTask("GF", TimeInterval(0, 10), TimeInterval(0, 10),
                 region_atom("r", (0, 0), (1, 1)))
    assert gf.active_interval() == TimeInterval(0, 20)
    fg = SubTask("FG", TimeInterval(30, 46), TimeInterval(0, 4),
                 region_atom("r", (0, 0), (1, 1)))
    assert fg.active_interval() == TimeInterval(30, 50)


def test_negative_time_interval_rejected():
    with pytest.raises(ValueError):
        TimeInterval(-1.0, 2.0)
    with pytest.raises(ValueError):
        TimeInterval(3.0, 2.0)


# ---------------------------------------------------------------------------
# parser

def test_parse_single_eventually():
    f = parse_formula("F[0,60] mu6", WS, tau=0.1)
    assert len(f.subtasks) == 1
    sub = f.subtasks[0]
    assert sub.kind == "F"
    assert sub.outer == TimeInterval(0, 60)
    assert sub.inner is None
    assert sub.prop.region.name == "mu6"
    assert not sub.prop.negated


def test_parse_until_rewrites_to_hold_and_reach():
    f = parse_formula("!mu4 U[0,30] mu3", WS, tau=0.1)
    assert len(f.subtasks) == 2
    g, r = f.subtasks
    assert (g.kind, g.outer, g.prop.label) == ("G", TimeInterval(0, 30),
                                               "!mu4")
    assert (r.kind, r.outer, r.prop.label) == ("F", TimeInterval(0, 30),
                                               "mu3")


def test_parse_nested_with_intersected_atoms():
    f = parse_formula("G[0,10] F[0,10] (mu1 & mu2)", WS, tau=0.1)
    sub = f.subtasks[0]
    assert sub.kind == "GF"
    assert sub.outer == TimeInterval(0, 10)
    assert sub.inner == TimeInterval(0, 10)
    # parse-time intersection of the two rectangles
    assert sub.prop.region.box == Box((8.0, 4.0), (9.0, 6.0))


def test_parse_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("F[0,60] mu6 %", WS)
    assert err.value.position == 12
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("F[0 60] mu6", WS)
    assert err.value.position == 4


def test_parse_rejects_unknown_region():
    with pytest.raises(UnknownRegionError):
        parse_formula("F[0,1] nowhere", WS)


def test_parse_rejects_same_operator_nesting():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("F[0,1] F[0,1] mu1", WS)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("G[0,1] G[0,1] mu1", WS)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("G[0,2] F[0,1] G[0,1] mu1", WS)


def test_parse_rejects_inverted_interval():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("F[3,1] mu1", WS)


def test_parse_rejects_empty_intersection():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("F[0,1] (mu3 & mu6)", WS)


def test_endpoint_off_the_sampling_grid_rejected():
    with pytest.raises(IntervalAlignmentError):
        parse_formula("F[0,0.15] mu6", WS, tau=0.1)
    # fine without a grid to validate against
    parse_formula("F[0,0.15] mu6", WS)


def test_overlapping_nested_active_intervals_rejected():
    text = "G[0,10] F[0,10] mu1 & F[15,30] G[0,5] mu5"
    with pytest.raises(NestedOverlapError):
        parse_formula(text, WS, tau=0.1)
    # disjoint interiors are allowed, boundary contact included
    parse_formula("G[0,10] F[0,10] mu1 & F[20,30] G[0,5] mu5", WS, tau=0.1)


def _squash(text):
    return re.sub(r"\s+", "", text)


@pytest.mark.parametrize("text", [
    "F[0,60] mu6",
    "!mu4 U[0,30] mu3",
    "G[0,10] F[0,10] (mu1 & mu2) & !mu4 U[0,30] mu3 & G[30,46] F[0,4] mu5 "
    "& F[0,60] mu6",
    "!mu4 U[0,20] mu1 & !mu5 U[20,40] mu2 & F[0,60] mu3",
    "F[0,10] G[0,5] mu1 & F[0,25] mu2 & F[30,40] G[0,5] mu3 & F[30,50] mu4",
])
def test_round_trip_printing(text):
    ws = make_ws(regions=[(f"mu{i}", (i * 0.5, 0.0), (i * 0.5 + 2.0, 1.0))
                          for i in range(1, 7)])
    f = parse_formula(text, ws)
    printed = pretty(f)
    assert _squash(printed) == _squash(text)
    assert parse_formula(printed, ws) == f


def test_formula_horizon_is_last_constrained_time():
    f = parse_formula("G[0,10] F[0,10] (mu1 & mu2) & F[0,60] mu6", WS,
                      tau=0.1)
    assert f.horizon == 60.0


# ---------------------------------------------------------------------------
# point sequences

def test_sequence_indexing_and_coverage():
    seq = PointSequence(10, 0.5, [[0, 0], [1, 0], [2, 0]])
    assert seq.k_last == 12
    assert np.array_equal(seq.at_index(11), [1, 0])
    assert seq.covers(TimeInterval(5.0, 6.0))
    assert not seq.covers(TimeInterval(5.0, 6.5))
    with pytest.raises(CoverageError):
        seq.at_index(13)
    with pytest.raises(CoverageError):
        seq.require_coverage(TimeInterval(0.0, 6.0))


def test_sequence_concat_requires_shared_junction():
    a = PointSequence(0, 0.5, [[0, 0], [1, 0]])
    b = PointSequence(1, 0.5, [[1, 0], [2, 0]])
    joined = a.concat(b)
    assert len(joined) == 3
    assert joined.k0 == 0 and joined.k_last == 2
    with pytest.raises(ValueError):
        a.concat(PointSequence(2, 0.5, [[9, 9], [2, 0]]))
    with pytest.raises(ValueError):
        a.concat(PointSequence(1, 0.5, [[9, 9], [2, 0]]))


# ---------------------------------------------------------------------------
# oracle

def test_oracle_trivial_cases():
    atom = region_atom("r", (0.0, 0.0), (1.0, 1.0))
    inside = PointSequence(0, 0.1, [[0.5, 0.5]] * 11)
    outside = PointSequence(0, 0.1, [[5.0, 5.0]] * 11)
    g = SubTask("G", TimeInterval(0, 1), None, atom)
    f = SubTask("F", TimeInterval(0, 1), None, atom)
    assert oracle_satisfies(inside, g)
    assert not oracle_satisfies(outside, f)


def test_oracle_requires_grid_coverage():
    atom = region_atom("r", (0.0, 0.0), (1.0, 1.0))
    seq = PointSequence(0, 0.1, [[0.5, 0.5]] * 5)
    with pytest.raises(CoverageError):
        oracle_satisfies(seq, SubTask("F", TimeInterval(0, 1), None, atom))


def test_oracle_agrees_with_independent_double_loop():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        seq, sub = random_instance(rng, max_samples=30)
        assert oracle_satisfies(seq, sub) == direct_eval(seq, sub)


def test_until_rewrite_implies_until_semantics():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(400):
        tau = float(rng.choice([0.5, 1.0]))
        hi = int(rng.integers(2, 9))
        ival = TimeInterval(0.0, hi * tau)
        negated = bool(rng.random() < 0.5)
        lbox = (0.0, 0.0, 2.0, 2.0) if negated else (0.0, 0.0, 9.0, 9.0)
        left = region_atom("l", lbox[:2], lbox[2:], negated=negated)
        right = region_atom("r", (2.0, 2.0), (8.0, 8.0))
        pts = np.empty((hi + 1, 2))
        for j in range(hi + 1):
            # bias points toward holding the left atom so the rewrite
            # premise is reachable often enough to be informative
            p = rng.uniform(0.0, 10.0, size=2)
            while rng.random() < 0.9 and not left.holds(p):
                p = rng.uniform(0.0, 10.0, size=2)
            pts[j] = p
        seq = PointSequence(0, tau, pts)
        g = SubTask("G", ival, None, left)
        f = SubTask("F", ival, None, right)
        if oracle_satisfies(seq, g) and oracle_satisfies(seq, f):
            checked += 1
            assert oracle_satisfies_until(seq, left, ival, right)
    assert checked > 20


def test_until_rewrite_is_strictly_stronger():
    # leaving the hold region after the witness satisfies the until but
    # not the rewrite, so the two are not equivalent
    left = region_atom("l", (0.0, 0.0), (3.0, 1.0))
    right = region_atom("r", (2.0, 0.0), (3.0, 1.0))
    seq = PointSequence(0, 1.0, [[0.5, 0.5], [2.5, 0.5], [5.0, 5.0]])
    ival = TimeInterval(0, 2)
    assert oracle_satisfies_until(seq, left, ival, right)
    assert not oracle_satisfies(seq, SubTask("G", ival, None, left))


def test_formula_conjunction_checks_every_subtask():
    ws = make_ws(regions=[("a", (0.0, 0.0), (1.0, 1.0)),
                          ("b", (0.5, 0.5), (5.0, 5.0))])
    f = parse_formula("G[0,1] a & F[0,1] b", ws, tau=0.5)
    stay = PointSequence(0, 0.5, [[0.2, 0.2]] * 3)
    assert not oracle_satisfies_formula(stay, f)  # never reaches b
    leave = PointSequence(0, 0.5, [[0.2, 0.2], [0.2, 0.2], [4.5, 4.5]])
    assert not oracle_satisfies_formula(leave, f)  # exits a at t=1
    both = PointSequence(0, 0.5, [[0.2, 0.2], [0.75, 0.75], [0.2, 0.2]])
    assert oracle_satisfies_formula(both, f)
