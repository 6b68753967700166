import numpy as np
import pytest

from helpers import honoring_sequence, random_instance, region_atom
from stlplan.satisfaction import SatisfactionPair, SatisfactionSet, stl_sat
from stlplan.stl_core import (CoverageError, PointSequence, SubTask,
                              TimeInterval, oracle_satisfies)

ATOM = region_atom("mu", (0.0, 0.0), (1.0, 1.0))
FAR = np.array([5.0, 5.0])
IN = np.array([0.5, 0.5])


def _seq(inside_ks, tau, length, k0=0):
    pts = np.tile(FAR, (length, 1))
    for k in inside_ks:
        pts[k - k0] = IN
    return PointSequence(k0, tau, pts)


def test_reach_returns_first_witness_only():
    seq = _seq([3], 0.1, 11)
    ok, pairs = stl_sat(seq, SubTask("F", TimeInterval(0, 1), None, ATOM))
    assert ok
    assert [(p.k, p.label) for p in pairs] == [(3, "mu")]
    assert pairs[0].k * 0.1 == pytest.approx(0.3)

    two = _seq([3, 7], 0.1, 11)
    ok, pairs = stl_sat(two, SubTask("F", TimeInterval(0, 1), None, ATOM))
    assert ok
    assert [p.k for p in pairs] == [3]


def test_reach_fails_with_empty_pairs():
    seq = _seq([], 0.1, 11)
    ok, pairs = stl_sat(seq, SubTask("F", TimeInterval(0, 1), None, ATOM))
    assert not ok
    assert len(pairs) == 0


def test_hold_emits_one_pair_per_grid_point():
    seq = _seq(range(11), 0.1, 11)
    ok, pairs = stl_sat(seq, SubTask("G", TimeInterval(0, 1), None, ATOM))
    assert ok
    assert [p.k for p in pairs] == list(range(11))
    assert len(pairs) == 11

    broken = _seq([k for k in range(11) if k != 6], 0.1, 11)
    ok, pairs = stl_sat(broken, SubTask("G", TimeInterval(0, 1), None, ATOM))
    assert not ok and len(pairs) == 0


def test_reach_hold_emits_first_satisfying_window():
    # hold window [0,4] anchored in [30,46]; inside exactly during [32,36]
    sub = SubTask("FG", TimeInterval(30, 46), TimeInterval(0, 4), ATOM)
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
    sub = SubTask("GF", TimeInterval(0, 10), TimeInterval(0, 10), ATOM)
    # visits at 5 and 14: every window [k, k + 10], k = 0..10, holds one
    ok, pairs = stl_sat(_seq([5, 14], 1.0, 21), sub)
    assert ok
    assert [p.k for p in pairs] == [5, 14]
    # a single visit at 5 leaves a 15 s tail gap
    ok, pairs = stl_sat(_seq([5], 1.0, 21), sub)
    assert not ok and len(pairs) == 0


def test_patrol_rejects_wide_gaps_anywhere():
    sub = SubTask("GF", TimeInterval(0, 10), TimeInterval(0, 3), ATOM)
    assert stl_sat(_seq([2, 5, 8, 11], 1.0, 14), sub)[0]
    assert not stl_sat(_seq([4, 6, 9, 12], 1.0, 14), sub)[0]  # late start
    assert not stl_sat(_seq([2, 8, 11], 1.0, 14), sub)[0]     # 6 s hole


def test_patrol_accepts_visits_aligned_with_every_window():
    # every anchored window holds a visit although consecutive visits
    # are further apart than the window length
    sub = SubTask("GF", TimeInterval(0, 2), TimeInterval(0, 1), ATOM)
    seq = _seq([1, 3], 1.0, 4)
    assert oracle_satisfies(seq, sub)
    ok, pairs = stl_sat(seq, sub)
    assert ok
    assert [p.k for p in pairs] == [1, 3]


def test_checker_needs_full_coverage():
    sub = SubTask("F", TimeInterval(0, 2), None, ATOM)
    with pytest.raises(CoverageError):
        stl_sat(_seq([1], 1.0, 2), sub)


def test_pair_set_deduplicates_and_orders():
    pairs = SatisfactionSet([SatisfactionPair.make(4, ATOM),
                             SatisfactionPair.make(1, ATOM),
                             SatisfactionPair.make(4, ATOM)])
    assert [p.k for p in pairs] == [1, 4]
    merged = SatisfactionSet(pairs.pairs + (SatisfactionPair.make(2, ATOM),))
    assert [p.k for p in merged] == [1, 2, 4]


def test_checker_matches_oracle_on_exhaustive_branches():
    rng = np.random.default_rng(101)
    seen = {"F": 0, "G": 0, "FG": 0, "GF": 0}
    for _ in range(800):
        seq, sub = random_instance(rng)
        ok, _ = stl_sat(seq, sub)
        truth = oracle_satisfies(seq, sub)
        seen[sub.kind] += 1
        assert ok == truth
    assert min(seen.values()) > 100


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
            assert ai.lo - 1e-9 <= pair.k * seq.tau <= ai.hi + 1e-9
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
        assert oracle_satisfies(other, sub)
