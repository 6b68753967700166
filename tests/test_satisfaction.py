import numpy as np
import pytest

from helpers import (direct_eval, honoring_sequence, make_ws,
                     random_instance, reference_stl_sat, region_atom)
from stlplan.satisfaction import stl_sat
from stlplan.stl_core import (AtomicProp, CoverageError, Formula,
                              PointSequence, SubTask, TimeInterval,
                              oracle_satisfies_formula, parse_formula)

ATOM = region_atom("mu", (0.0, 0.0), (1.0, 1.0))
WS = make_ws(regions=[("mu", (0.0, 0.0), (1.0, 1.0))])
FAR = np.array([5.0, 5.0])
IN = np.array([0.5, 0.5])


def _seq(inside_ks, tau, length, k0=0):
    pts = np.tile(FAR, (length, 1))
    for k in inside_ks:
        pts[k - k0] = IN
    return PointSequence(k0, tau, pts)


def test_reach_returns_first_witness_only():
    seq = _seq([3], 0.1, 11)
    ok, pairs = stl_sat(seq, SubTask("F", TimeInterval(0, 10, 0.1), None,
                                     ATOM))
    assert ok
    assert [(p.k, p.label) for p in pairs] == [(3, "mu")]
    assert pairs[0].k * 0.1 == pytest.approx(0.3)

    two = _seq([3, 7], 0.1, 11)
    ok, pairs = stl_sat(two, SubTask("F", TimeInterval(0, 10, 0.1), None,
                                     ATOM))
    assert ok
    assert [p.k for p in pairs] == [3]


def test_reach_fails_with_empty_pairs():
    seq = _seq([], 0.1, 11)
    ok, pairs = stl_sat(seq, SubTask("F", TimeInterval(0, 10, 0.1), None,
                                     ATOM))
    assert not ok
    assert len(pairs) == 0


def test_hold_emits_one_pair_per_grid_point():
    seq = _seq(range(11), 0.1, 11)
    ok, pairs = stl_sat(seq, SubTask("G", TimeInterval(0, 10, 0.1), None,
                                     ATOM))
    assert ok
    assert [p.k for p in pairs] == list(range(11))
    assert len(pairs) == 11

    broken = _seq([k for k in range(11) if k != 6], 0.1, 11)
    ok, pairs = stl_sat(broken, SubTask("G", TimeInterval(0, 10, 0.1), None,
                                        ATOM))
    assert not ok and len(pairs) == 0


def test_reach_hold_emits_first_satisfying_window():
    # hold window [0,4] anchored in [30,46]; inside exactly during [32,36]
    sub = SubTask("FG", TimeInterval(300, 460, 0.1), TimeInterval(0, 40, 0.1),
                  ATOM)
    seq = _seq(range(320, 361), 0.1, 501)
    ok, pairs = stl_sat(seq, sub)
    assert ok
    assert [p.k for p in pairs] == list(range(320, 361))
    assert pairs[0].k * 0.1 == pytest.approx(32.0)
    assert pairs[-1].k * 0.1 == pytest.approx(36.0)

    short = _seq(range(320, 358), 0.1, 501)  # 3.7 s hold, too short
    ok, pairs = stl_sat(short, sub)
    assert not ok and len(pairs) == 0


def test_patrol_gap_test_on_two_visits():
    sub = SubTask("GF", TimeInterval(0, 10, 1.0), TimeInterval(0, 10, 1.0),
                  ATOM)
    # visits at 5 and 14: every window [k, k + 10], k = 0..10, holds one
    ok, pairs = stl_sat(_seq([5, 14], 1.0, 21), sub)
    assert ok
    assert [p.k for p in pairs] == [5, 14]
    # a single visit at 5 leaves a 15 s tail gap
    ok, pairs = stl_sat(_seq([5], 1.0, 21), sub)
    assert not ok and len(pairs) == 0


def test_patrol_rejects_wide_gaps_anywhere():
    sub = SubTask("GF", TimeInterval(0, 10, 1.0), TimeInterval(0, 3, 1.0),
                  ATOM)
    assert stl_sat(_seq([2, 5, 8, 11], 1.0, 14), sub)[0]
    assert not stl_sat(_seq([4, 6, 9, 12], 1.0, 14), sub)[0]  # late start
    assert not stl_sat(_seq([2, 8, 11], 1.0, 14), sub)[0]     # 6 s hole


def test_patrol_accepts_visits_aligned_with_every_window():
    # every anchored window holds a visit although consecutive visits
    # are further apart than the window length
    sub = SubTask("GF", TimeInterval(0, 2, 1.0), TimeInterval(0, 1, 1.0),
                  ATOM)
    seq = _seq([1, 3], 1.0, 4)
    assert direct_eval(seq, sub)
    ok, pairs = stl_sat(seq, sub)
    assert ok
    assert [p.k for p in pairs] == [1, 3]


def test_checker_needs_full_coverage():
    sub = SubTask("F", TimeInterval(0, 2, 1.0), None, ATOM)
    with pytest.raises(CoverageError):
        stl_sat(_seq([1], 1.0, 2), sub)


def test_emitted_pairs_replay_against_the_geometry():
    rng = np.random.default_rng(55)
    replayed = 0
    for _ in range(400):
        seq, sub = random_instance(rng, inside_bias=0.7)
        ok, pairs = stl_sat(seq, sub)
        if not ok:
            assert len(pairs) == 0
            continue
        ai = sub.active_interval()
        for pair in pairs:
            replayed += 1
            assert sub.prop.holds(seq.at_index(pair.k))
            assert ai.lo <= pair.k <= ai.hi
    assert replayed > 200


def test_any_sequence_honoring_the_pairs_satisfies_the_subtask():
    rng = np.random.default_rng(77)
    produced = 0
    while produced < 300:
        seq, sub = random_instance(rng, inside_bias=0.8)
        ok, pairs = stl_sat(seq, sub)
        if not ok:
            continue
        produced += 1
        other = honoring_sequence(seq, sub, pairs, rng)
        assert direct_eval(other, sub)


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("kind", ["F", "G", "FG", "GF"])
def test_nan_rows_lie_outside_every_box(kind, negated):
    # a row with a NaN coordinate is outside every closed box, so a plain
    # atom fails there and a negated atom holds: stl_sat and the formula
    # verdict must agree with the double loop on sequences with such rows
    rng = np.random.default_rng(31)
    verdicts = []
    while len(verdicts) < 200:
        seq, sub = random_instance(rng)
        if sub.kind != kind:
            continue
        sub = SubTask(kind, sub.outer, sub.inner,
                      AtomicProp(sub.prop.region, negated))
        pts = seq.positions.copy()
        rows = rng.random(len(pts)) < 0.4
        axes = rng.integers(0, 3, len(pts))  # x, y or both
        pts[rows & (axes != 1), 0] = np.nan
        pts[rows & (axes != 0), 1] = np.nan
        first = not verdicts
        if first:  # every row NaN: only a negated atom can hold
            pts[:] = np.nan
        seq = PointSequence(seq.k0, seq.tau, pts)
        truth = direct_eval(seq, sub)
        if first:
            assert truth == negated
        assert stl_sat(seq, sub)[0] == truth
        assert oracle_satisfies_formula(seq, Formula((sub,))) == truth
        verdicts.append(truth)
    assert 0 < sum(verdicts) < len(verdicts)


def _same_verdict(seq, sub):
    ok, pairs = stl_sat(seq, sub)
    ref_ok, ref_pairs = reference_stl_sat(seq, sub)
    assert ok == ref_ok
    assert pairs == ref_pairs
    return ok, pairs


def test_membership_checker_matches_the_per_point_reference():
    rng = np.random.default_rng(202)
    seen = {(kind, ok): 0 for kind in ("F", "G", "FG", "GF")
            for ok in (False, True)}
    for _ in range(1200):
        seq, sub = random_instance(rng, inside_bias=float(rng.random()))
        if rng.random() < 0.3:
            # every coordinate on a face of the region or just past it
            box = sub.prop.region.box
            grid = np.array([box.lo, box.hi, np.nextafter(box.lo, -1.0),
                             np.nextafter(box.hi, 11.0)])
            pick = rng.integers(0, 4, seq.positions.shape)
            seq = PointSequence(seq.k0, seq.tau,
                                np.take_along_axis(grid, pick, axis=0))
        if rng.random() < 0.3:
            # the same rows, with the sequence and the clause 7 steps later
            seq = PointSequence(7, seq.tau, seq.positions)
            sub = SubTask(sub.kind, TimeInterval(sub.outer.lo + 7,
                                                 sub.outer.hi + 7, seq.tau),
                          sub.inner, sub.prop)
        ok, _ = _same_verdict(seq, sub)
        seen[sub.kind, ok] += 1
    assert min(seen.values()) > 20


EXPECTED_AT_THE_ENDS = {
    ("F", "first"): [True, True, False, True],
    ("F", "last"): [True, True, False, True],
    ("G", "first"): [False, False, False, True],
    ("G", "last"): [False, False, False, True],
    ("FG", "first"): [True, True, False, True],
    ("FG", "last"): [True, True, False, True],
    ("GF", "first"): [False, True, False, True],
    ("GF", "last"): [False, True, False, True],
}


@pytest.mark.parametrize("kind", ["F", "G", "FG", "GF"])
@pytest.mark.parametrize("end", ["first", "last"])
def test_membership_checker_at_both_ends_of_the_active_interval(kind, end):
    # outer [1, 3], inner [0, 1], tau 0.5: the active interval of F/G is
    # grid 2..6 and that of FG/GF grid 2..8, inside a sequence 0..10
    inner = TimeInterval(0, 2, 0.5) if kind in ("FG", "GF") else None
    sub = SubTask(kind, TimeInterval(2, 6, 0.5), inner, ATOM)
    ai = sub.active_interval()
    ks = range(ai.lo, ai.hi + 1)
    edge = ks[0] if end == "first" else ks[-1]
    width = 3 if kind in ("FG", "GF") else 1  # one inner window of rows
    rows = range(edge, edge + width) if end == "first" else \
        range(edge - width + 1, edge + 1)
    # the prop holds only on rows at the chosen end, then also on every
    # row of the active interval but the one at that end
    verdicts = [_same_verdict(_seq(inside, 0.5, 11), sub)[0]
                for inside in (list(rows), [k for k in ks if k != edge])]
    # and one row past the end, where the clause must not look
    beyond = edge - 1 if end == "first" else edge + 1
    verdicts += [_same_verdict(_seq(inside, 0.5, 11), sub)[0]
                 for inside in ([beyond], [k for k in range(11)
                                           if k != beyond])]
    assert verdicts == EXPECTED_AT_THE_ENDS[kind, end]


def test_reach_hold_endpoints_within_the_tolerance_snap_to_steps():
    # both upper endpoints sit just below the grid, within the alignment
    # tolerance: they snap to steps 10 and 5, so the active interval and
    # the last hold window (anchored at k=10) both end at k=15
    tau = 0.1
    sub, = parse_formula("F[0,0.99999999993] G[0,0.49999999994] mu", WS,
                         tau=tau).subtasks
    assert sub.active_interval() == TimeInterval(0, 15, tau)
    ok, pairs = _same_verdict(_seq(range(10, 16), tau, 16), sub)
    assert ok and [p.k for p in pairs] == list(range(10, 16))
    assert not _same_verdict(_seq(range(10, 15), tau, 16), sub)[0]


@pytest.mark.parametrize("text", [
    "F[0.1,0.3] G[0.2,0.3] mu", "G[0.1,0.3] F[0,0.2] mu",
    "F[0.7,0.7] G[0,0.1] mu", "G[0.1,0.2] F[0.1,0.6] mu"])
def test_stl_sat_agrees_with_the_double_loop_where_seconds_do_not_add_up(
        text):
    # at tau 0.1 the float sums 0.1 + 0.2 = 0.30000000000000004 and
    # 0.7 + 0.1 = 0.7999999999999999 miss the grid time they name; the
    # steps add up exactly.  Every pattern of rows inside the region
    # over the active interval gets the same verdict from both.
    sub, = parse_formula(text, WS, tau=0.1).subtasks
    rows = sub.active_interval().hi + 1
    verdicts = set()
    for mask in range(2 ** rows):
        seq = _seq([k for k in range(rows) if mask >> k & 1], 0.1, rows)
        truth = direct_eval(seq, sub)
        assert stl_sat(seq, sub)[0] == truth, (text, mask)
        verdicts.add(truth)
    assert verdicts == {False, True}


def _short_clauses(kind):
    """Every clause of the kind whose outer interval starts at step 2:
    F and G with active intervals of 1 to 8 steps, FG and GF with outer
    lengths 0-3, inner offsets 0-2 and inner lengths 0-3."""
    if kind in ("F", "G"):
        return [(TimeInterval(2, 2 + o, 0.5), None) for o in range(8)]
    return [(TimeInterval(2, 2 + o, 0.5), TimeInterval(c, c + n, 0.5))
            for o in range(4) for c in range(3) for n in range(4)]


@pytest.mark.parametrize("kind", ["F", "G", "FG", "GF"])
def test_every_pattern_of_every_short_active_interval(kind):
    # each pattern of rows inside the region over the active interval,
    # for the atom and its negation, in a sequence that starts at step 1
    # and ends one step past the active interval; the rows outside it
    # are all inside or all outside the region, and must not matter
    seen = set()
    for outer, inner in _short_clauses(kind):
        ai = SubTask(kind, outer, inner, ATOM).active_interval()
        for pad in (IN, FAR):
            pts = np.tile(pad, (ai.hi + 1, 1))
            for mask in range(2 ** (ai.hi - ai.lo + 1)):
                for j in range(ai.hi - ai.lo + 1):
                    pts[ai.lo - 1 + j] = IN if mask >> j & 1 else FAR
                seq = PointSequence(1, 0.5, pts)
                for negated in (False, True):
                    sub = SubTask(kind, outer, inner,
                                  AtomicProp(ATOM.region, negated))
                    ok, _ = _same_verdict(seq, sub)
                    assert ok == direct_eval(seq, sub), (sub, mask, pad)
                    seen.add(ok)
    assert seen == {False, True}
