import math

import numpy as np
import pytest

from helpers import (direct_eval, make_ws, oracle_satisfies_until,
                     random_instance, reference_contains,
                     reference_in_obstacle, reference_segment_collides,
                     reference_segment_intersects, region_atom)
from stlplan.stl_core import (AtomicProp, Box, CoverageError, Formula,
                              FormulaSyntaxError, IntervalAlignmentError,
                              NestedOverlapError, PointSequence, Region,
                              StlError, SubTask, TimeInterval,
                              UnknownRegionError, Workspace, grid_ceil,
                              is_identifier, oracle_satisfies_formula,
                              parse_formula, snap_index)

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


def test_grid_ceil_tolerates_float_noise():
    assert grid_ceil(0.30000000000000004, 0.1) == 3
    assert grid_ceil(0.29999999999999993, 0.1) == 3
    assert grid_ceil(0.21, 0.1) == 3
    assert grid_ceil(0.29, 0.1) == 3


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


def test_batched_predicates_on_non_finite_endpoints():
    # a checked traj.csv can hold nan or inf; both tests give the same
    # verdict on them, segment by segment
    ws = make_ws(obstacles=[((4.0, 4.0), (6.0, 6.0))])
    nan, inf = np.nan, np.inf
    A = np.array([[nan, 5.0], [3.0, 5.0], [inf, 5.0], [3.0, 5.0],
                  [3.0, inf], [-inf, 5.0]])
    B = np.array([[7.0, 5.0], [nan, 5.0], [7.0, 5.0], [inf, 5.0],
                  [3.0, 5.0], [inf, 5.0]])
    scalar, batched = _scalar_and_batched(ws, A, B)
    assert scalar == batched


def _point_forms(p):
    return [np.array(p, dtype=float), [float(v) for v in p],
            tuple(float(v) for v in p)]


def _scalar_and_reference(ws, a, b):
    """Every float predicate on a and on the segment a-b, in numpy, list
    and tuple form, beside the generator references on the same input."""
    got, want = [], []
    for pa, pb in zip(_point_forms(a), _point_forms(b)):
        got.append((ws.in_obstacle(pa), ws.point_free(pa),
                    ws.segment_collides(pa, pb),
                    [o.contains(pa) for o in ws.obstacles],
                    [o.segment_intersects(pa, pb) for o in ws.obstacles]))
        want.append((reference_in_obstacle(ws, pa),
                     reference_contains(ws.bounds, pa)
                     and not reference_in_obstacle(ws, pa),
                     reference_segment_collides(ws, pa, pb),
                     [reference_contains(o, pa) for o in ws.obstacles],
                     [reference_segment_intersects(o, pa, pb)
                      for o in ws.obstacles]))
    return got, want


def test_float_predicates_match_the_generator_references():
    # half-unit grid coordinates put points on faces and corners, make
    # obstacles touch and segments graze them; zeroed axes give
    # axis-parallel and zero-length segments
    rng = np.random.default_rng(23)
    hits = [0, 0]
    for trial in range(150):
        obstacles = []
        for _ in range(int(rng.integers(1, 5))):
            lo = rng.integers(0, 17, size=2) / 2.0
            obstacles.append((tuple(lo),
                              tuple(lo + rng.integers(1, 5, size=2) / 2.0)))
        ws = make_ws(obstacles=obstacles)
        for _ in range(20):
            a = rng.integers(-1, 22, size=2) / 2.0
            if rng.random() < 0.5:
                a += rng.uniform(-0.5, 0.5, size=2)
            d = rng.integers(-6, 7, size=2) / 2.0
            d[rng.random(2) < 0.3] = 0.0
            got, want = _scalar_and_reference(ws, a, a + d)
            assert got == want
            hits[got[0][2]] += 1
    assert min(hits) > 200


@pytest.mark.parametrize("a, b, hit", [
    ((4.0, 5.0), (4.0, 5.0), True),    # zero length, on the shared face
    ((6.0, 4.5), (6.0, 4.5), True),    # zero length, on the outer face
    ((6.0001, 5.0), (6.0001, 5.0), False),
    ((4.0, 2.0), (4.0, 8.0), True),    # along the shared face
    ((2.0, 4.0), (8.0, 4.0), True),    # along the bottom faces
    ((2.0, 3.9), (8.0, 3.9), False),   # parallel, just below
    ((3.0, 7.0), (7.0, 3.0), True),    # through the corner (5, 5)
    ((1.0, 4.5), (3.0, 2.5), False),   # diagonal passing below (2, 4)
    ((7.0, 7.0), (6.0, 6.0), True),    # ending on the outer corner
    ((5.0, 5.0), (3.0, 5.0), True),    # from inside out across a face
], ids=["zero-length-shared-face", "zero-length-face", "zero-length-off",
        "along-shared-face", "along-bottom-faces", "parallel-below",
        "through-corner", "diagonal-miss", "ending-on-corner",
        "inside-out"])
def test_float_predicates_on_named_cases(a, b, hit):
    # two obstacles touching along x = 4
    ws = make_ws(obstacles=[((2.0, 4.0), (4.0, 6.0)),
                            ((4.0, 4.0), (6.0, 6.0))])
    got, want = _scalar_and_reference(ws, a, b)
    assert got == want
    assert all(g[2] == hit for g in got)


def test_duplicate_region_names_rejected():
    with pytest.raises(ValueError):
        Workspace(Box((0, 0), (1, 1)),
                  (),
                  (Region("a", Box((0, 0), (1, 1))),
                   Region("a", Box((0, 0), (1, 1)))))


# ---------------------------------------------------------------------------
# time intervals

def test_minkowski_sum_examples():
    assert TimeInterval(30, 46, 1.0).minkowski(TimeInterval(0, 4, 1.0)) == \
        TimeInterval(30, 50, 1.0)
    assert TimeInterval(0, 10, 1.0).minkowski(TimeInterval(0, 10, 1.0)) == \
        TimeInterval(0, 20, 1.0)


def test_minkowski_commutative_and_monotone():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = sorted(rng.integers(0, 50, size=2).tolist())
        b = sorted(rng.integers(0, 50, size=2).tolist())
        p = TimeInterval(a[0], a[1], 0.1)
        q = TimeInterval(b[0], b[1], 0.1)
        assert p.minkowski(q) == q.minkowski(p)
        wider = TimeInterval(b[0], b[1] + 1, 0.1)
        assert p.minkowski(wider).hi == p.minkowski(q).hi + 1
        assert p.minkowski(wider).lo == p.minkowski(q).lo


def test_active_interval_plain_and_nested():
    f = SubTask("F", TimeInterval(0, 60, 1.0), None,
                region_atom("r", (0, 0), (1, 1)))
    assert f.active_interval() == TimeInterval(0, 60, 1.0)
    gf = SubTask("GF", TimeInterval(0, 10, 1.0), TimeInterval(0, 10, 1.0),
                 region_atom("r", (0, 0), (1, 1)))
    assert gf.active_interval() == TimeInterval(0, 20, 1.0)
    fg = SubTask("FG", TimeInterval(30, 46, 1.0), TimeInterval(0, 4, 1.0),
                 region_atom("r", (0, 0), (1, 1)))
    assert fg.active_interval() == TimeInterval(30, 50, 1.0)


def test_negative_time_interval_rejected():
    with pytest.raises(ValueError):
        TimeInterval(-1, 2, 1.0)
    with pytest.raises(ValueError):
        TimeInterval(3, 2, 1.0)
    # endpoints are grid steps, never seconds
    with pytest.raises(ValueError):
        TimeInterval(0.0, 2.0, 1.0)


# ---------------------------------------------------------------------------
# parser

def test_parse_single_eventually():
    f = parse_formula("F[0,60] mu6", WS, tau=0.1)
    assert len(f.subtasks) == 1
    sub = f.subtasks[0]
    assert sub.kind == "F"
    assert sub.outer == TimeInterval(0, 600, 0.1)
    assert sub.inner is None
    assert sub.prop.region.name == "mu6"
    assert not sub.prop.negated


def test_parse_until_rewrites_to_hold_and_reach():
    f = parse_formula("!mu4 U[0,30] mu3", WS, tau=0.1)
    assert len(f.subtasks) == 2
    g, r = f.subtasks
    assert (g.kind, g.outer, g.prop.label) == (
        "G", TimeInterval(0, 300, 0.1), "!mu4")
    assert (r.kind, r.outer, r.prop.label) == (
        "F", TimeInterval(0, 300, 0.1), "mu3")


def test_parse_nested_with_intersected_atoms():
    f = parse_formula("G[0,10] F[0,10] (mu1 & mu2)", WS, tau=0.1)
    sub = f.subtasks[0]
    assert sub.kind == "GF"
    assert sub.outer == TimeInterval(0, 100, 0.1)
    assert sub.inner == TimeInterval(0, 100, 0.1)
    # parse-time intersection of the two rectangles
    assert sub.prop.region.box == Box((8.0, 4.0), (9.0, 6.0))
    # a three-name atom intersects every box it names
    three = parse_formula("F[0,5] (mu1 & mu2 & mu1)", WS, tau=0.1)
    assert three.subtasks[0].prop.region.box == sub.prop.region.box
    with pytest.raises(FormulaSyntaxError,
                       match="regions mu1 & mu2 & mu4 have empty "
                             "intersection"):
        parse_formula("F[0,5] (mu1 & mu2 & mu4)", WS, tau=0.1)


def test_parse_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("F[0,60] mu6 %", WS, tau=0.1)
    assert err.value.position == 12
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("F[0 60] mu6", WS, tau=0.1)
    assert err.value.position == 4
    # a second atom after a complete clause, and an atom before F
    with pytest.raises(FormulaSyntaxError, match="unexpected 'mu2'") as err:
        parse_formula("F[0,5] mu1 mu2", WS, tau=0.1)
    assert err.value.position == 11
    with pytest.raises(FormulaSyntaxError, match="expected U") as err:
        parse_formula("mu1 F[0,5] mu2", WS, tau=0.1)
    assert err.value.position == 4


# one formula per place the parser raises, with the exact exception type,
# message and position (None where the error carries none)
_PARSE_ERRORS = [
    pytest.param("F[0,1] mu1 #", FormulaSyntaxError,
                 "unexpected character '#' (at position 11)", 11,
                 id="unexpected-character"),
    pytest.param("F(0,1] mu1", FormulaSyntaxError,
                 "expected '[', found '(' (at position 1)", 1,
                 id="expected-kind-found-token"),
    pytest.param("F[0,1]", FormulaSyntaxError,
                 "expected a region name, found end of input (at position 6)",
                 6, id="expected-kind-at-end"),
    pytest.param("F[0,1] mu1 mu2", FormulaSyntaxError,
                 "unexpected 'mu2' (at position 11)", 11,
                 id="trailing-token"),
    pytest.param("mu1 F[0,5] mu2", FormulaSyntaxError,
                 "expected U, found 'F' (at position 4)", 4,
                 id="expected-until"),
    pytest.param("mu1", FormulaSyntaxError,
                 "expected U, found end of input (at position 3)", 3,
                 id="expected-until-at-end"),
    pytest.param("F[a,1] mu1", FormulaSyntaxError,
                 "expected a number, found 'a' (at position 2)", 2,
                 id="expected-number"),
    pytest.param("G[0,1] G[0,1] mu1", FormulaSyntaxError,
                 "G may not nest another G (at position 7)", 7,
                 id="same-operator-nesting"),
    pytest.param("G[0,2] F[0,1] G[0,1] mu1", FormulaSyntaxError,
                 "nesting deeper than two operators (at position 14)", 14,
                 id="nesting-deeper-than-two"),
    pytest.param("F[3,1] mu1", FormulaSyntaxError,
                 "interval upper bound 1 below lower bound 3 (at position 5)",
                 5, id="inverted-interval"),
    pytest.param("F[0," + "9" * 400 + "] mu1", FormulaSyntaxError,
                 "endpoint is too large (at position 4)", 4,
                 id="endpoint-too-large"),
    pytest.param("F[0,0.15] mu1", IntervalAlignmentError,
                 "endpoint 0.15 is not a multiple of the sampling step 0.1 "
                 "(at position 4)", 4, id="endpoint-off-grid"),
    pytest.param("F[0,1] (mu3 & mu6)", FormulaSyntaxError,
                 "regions mu3 & mu6 have empty intersection (at position 17)",
                 17, id="empty-intersection"),
    pytest.param("F[0,1] (mu1)", FormulaSyntaxError,
                 "expected '&', found ')' (at position 11)", 11,
                 id="single-name-group"),
    pytest.param("F[0,1] !(mu1 & mu2)", FormulaSyntaxError,
                 "expected a region name, found '(' (at position 8)", 8,
                 id="negation-without-name"),
    pytest.param("F[0,1] nowhere", UnknownRegionError,
                 "unknown region 'nowhere'", None, id="unknown-region"),
]


@pytest.mark.parametrize("text, kind, message, position", _PARSE_ERRORS)
def test_every_parse_error_is_pinned(text, kind, message, position):
    with pytest.raises(StlError) as err:
        parse_formula(text, WS, tau=0.1)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert getattr(err.value, "position", None) == position


@pytest.mark.parametrize("name, ok", [
    ("mu1", True), ("FG", True), ("U1", True), ("F", False), ("1a", False),
    ("a b", False), ("", False), ("é", False),
])
def test_is_identifier(name, ok):
    assert is_identifier(name) is ok


def test_parse_rejects_unknown_region():
    with pytest.raises(UnknownRegionError):
        parse_formula("F[0,1] nowhere", WS, tau=0.1)


def test_parse_rejects_same_operator_nesting():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("F[0,1] F[0,1] mu1", WS, tau=0.1)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("G[0,1] G[0,1] mu1", WS, tau=0.1)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("G[0,2] F[0,1] G[0,1] mu1", WS, tau=0.1)


def test_parse_rejects_inverted_interval():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("F[3,1] mu1", WS, tau=0.1)


def test_parse_rejects_empty_intersection():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("F[0,1] (mu3 & mu6)", WS, tau=0.1)


def test_endpoint_off_the_sampling_grid_rejected():
    with pytest.raises(IntervalAlignmentError) as err:
        parse_formula("F[0,0.15] mu6", WS, tau=0.1)
    assert err.value.position == 4
    # fine on a grid it lies on, as the step it names
    f = parse_formula("F[0,0.15] mu6", WS, tau=0.05)
    assert f.subtasks[0].outer == TimeInterval(0, 3, 0.05)


@pytest.mark.parametrize("digits", [308, 400])
def test_an_endpoint_too_large_for_a_float_is_a_syntax_error(digits):
    # 400 nines overflow the float to inf; 308 stay finite, but their
    # step count at tau 0.1 does not
    with pytest.raises(FormulaSyntaxError, match="too large") as err:
        parse_formula("F[0," + "9" * digits + "] mu6", WS, tau=0.1)
    assert err.value.position == 4


def test_endpoints_snap_to_steps_before_any_sum():
    # 0.1 + 0.2 is 0.30000000000000004 s, but step 1 + step 2 is step 3:
    # the two active intervals touch at step 3 and do not overlap
    f = parse_formula("F[0,0.1] G[0,0.2] mu1 & F[0.3,0.4] G[0,0.1] mu3",
                      WS, tau=0.1)
    assert [s.active_interval() for s in f.subtasks] == [
        TimeInterval(0, 3, 0.1), TimeInterval(3, 5, 0.1)]
    assert [str(s) for s in f.subtasks] == [
        "F[0,0.1] G[0,0.2] mu1", "F[0.3,0.4] G[0,0.1] mu3"]


def test_overlapping_nested_active_intervals_rejected():
    text = "G[0,10] F[0,10] mu1 & F[15,30] G[0,5] mu5"
    with pytest.raises(NestedOverlapError):
        parse_formula(text, WS, tau=0.1)
    # disjoint interiors are allowed, boundary contact included
    parse_formula("G[0,10] F[0,10] mu1 & F[20,30] G[0,5] mu5", WS, tau=0.1)


# formula texts and the str() of each sub-task they parse to
_PARSED = [
    ("F[0,60] mu6", ["F[0,60] mu6"]),
    ("!mu4 U[0,30] mu3", ["G[0,30] !mu4", "F[0,30] mu3"]),
    ("G[0,10] F[0,10] (mu1 & mu2) & !mu4 U[0,30] mu3 & G[30,46] F[0,4] mu5 "
     "& F[0,60] mu6",
     ["G[0,10] F[0,10] mu1&mu2", "G[0,30] !mu4", "F[0,30] mu3",
      "G[30,46] F[0,4] mu5", "F[0,60] mu6"]),
    ("!mu4 U[0,20] mu1 & !mu5 U[20,40] mu2 & F[0,60] mu3",
     ["G[0,20] !mu4", "F[0,20] mu1", "G[20,40] !mu5", "F[20,40] mu2",
      "F[0,60] mu3"]),
    ("F[0,10] G[0,5] mu1 & F[0,25] mu2 & F[30,40] G[0,5] mu3 & F[30,50] mu4",
     ["F[0,10] G[0,5] mu1", "F[0,25] mu2", "F[30,40] G[0,5] mu3",
      "F[30,50] mu4"]),
]


@pytest.mark.parametrize("text, expected", _PARSED,
                         ids=[text for text, _ in _PARSED])
def test_round_trip_printing(text, expected):
    # each clause parses straight to its sub-tasks, an until to its G and
    # F pieces, and SubTask.__str__ prints each one back
    ws = make_ws(regions=[(f"mu{i}", (i * 0.5, 0.0), (i * 0.5 + 2.0, 1.0))
                          for i in range(1, 7)])
    assert [str(sub) for sub in parse_formula(text, ws, tau=0.1).subtasks] \
        == expected


def test_formula_horizon_is_last_constrained_time():
    f = parse_formula("G[0,10] F[0,10] (mu1 & mu2) & F[0,60] mu6", WS,
                      tau=0.1)
    assert f.horizon == 600


# ---------------------------------------------------------------------------
# point sequences

def test_sequence_indexing_and_coverage():
    seq = PointSequence(10, 0.5, [[0, 0], [1, 0], [2, 0]])
    assert seq.k_last == 12
    assert np.array_equal(seq.at_index(11), [1, 0])
    seq.require_coverage(TimeInterval(10, 12, 0.5))
    with pytest.raises(CoverageError):
        seq.require_coverage(TimeInterval(10, 13, 0.5))
    with pytest.raises(CoverageError):
        seq.at_index(13)
    with pytest.raises(CoverageError):
        seq.require_coverage(TimeInterval(0, 12, 0.5))


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


def test_sequence_concat_compares_the_junction_exactly():
    # a window starts at the last point of the one before, taken
    # verbatim, so a junction 1e-9 m off is a fault; numpy's default
    # relative tolerance would let 1e-4 m pass on a 10 m workspace
    a = PointSequence(0, 0.1, [[0.0, 0.0], [7.0, 3.0]])
    for off in ([1e-9, 0.0], [0.0, -1e-9], [1e-4, 0.0]):
        with pytest.raises(ValueError, match="junction"):
            a.concat(PointSequence(1, 0.1, [np.add([7.0, 3.0], off),
                                            [8.0, 3.0]]))
    b = PointSequence(0, 0.1, [[1.0, -0.0]])
    assert b.concat(PointSequence(0, 0.1, [[1.0, 0.0], [2.0, 0.0]])).k_last \
        == 1


# ---------------------------------------------------------------------------
# formula satisfaction

def _formula(*subtasks):
    return Formula(subtasks)


def test_oracle_trivial_cases():
    atom = region_atom("r", (0.0, 0.0), (1.0, 1.0))
    inside = PointSequence(0, 0.1, [[0.5, 0.5]] * 11)
    outside = PointSequence(0, 0.1, [[5.0, 5.0]] * 11)
    g = SubTask("G", TimeInterval(0, 10, 0.1), None, atom)
    f = SubTask("F", TimeInterval(0, 10, 0.1), None, atom)
    assert oracle_satisfies_formula(inside, _formula(g))
    assert not oracle_satisfies_formula(outside, _formula(f))


def test_oracle_requires_grid_coverage():
    atom = region_atom("r", (0.0, 0.0), (1.0, 1.0))
    seq = PointSequence(0, 0.1, [[0.5, 0.5]] * 5)
    with pytest.raises(CoverageError):
        oracle_satisfies_formula(
            seq, _formula(SubTask("F", TimeInterval(0, 10, 0.1), None,
                                  atom)))


def test_oracle_agrees_with_independent_double_loop():
    rng = np.random.default_rng(42)
    seen = {"F": 0, "G": 0, "FG": 0, "GF": 0}
    for _ in range(1000):
        seq, sub = random_instance(rng, max_samples=30)
        seen[sub.kind] += 1
        assert oracle_satisfies_formula(seq, _formula(sub)) == \
            direct_eval(seq, sub)
    assert min(seen.values()) > 100


def test_until_rewrite_implies_until_semantics():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(400):
        tau = float(rng.choice([0.5, 1.0]))
        hi = int(rng.integers(2, 9))
        ival = TimeInterval(0, hi, tau)
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
        if direct_eval(seq, g) and direct_eval(seq, f):
            checked += 1
            assert oracle_satisfies_until(seq, left, ival, right)
    assert checked > 20


def test_until_rewrite_is_strictly_stronger():
    # leaving the hold region after the witness satisfies the until but
    # not the rewrite, so the two are not equivalent
    left = region_atom("l", (0.0, 0.0), (3.0, 1.0))
    right = region_atom("r", (2.0, 0.0), (3.0, 1.0))
    seq = PointSequence(0, 1.0, [[0.5, 0.5], [2.5, 0.5], [5.0, 5.0]])
    ival = TimeInterval(0, 2, 1.0)
    assert oracle_satisfies_until(seq, left, ival, right)
    assert not direct_eval(seq, SubTask("G", ival, None, left))


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
