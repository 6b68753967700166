import numpy as np
import pytest

from helpers import direct_eval, make_ws, region_atom
from stlplan.decomposer import (Decomposition, DisjunctiveFSet, LocalTask,
                                compute_cuts, decompose, split_subtask)
from stlplan.scenario_cli import load_scenario
from stlplan.stl_core import (PointSequence, StlError, SubTask, TimeInterval,
                              parse_formula)


def _sub(kind, outer, inner=None, negated=False, box=((0, 0), (2, 2))):
    """A sub-task on a 1 s grid, so that steps read as seconds."""
    prop = region_atom("r", box[0], box[1], negated=negated)
    iv = TimeInterval(*outer, 1.0)
    return SubTask(kind, iv, TimeInterval(*inner, 1.0) if inner else None,
                   prop)


# ---------------------------------------------------------------------------
# cuts

def test_cuts_of_the_shipped_scenarios():
    for name, expected in [("scenario1", (0, 200, 300, 500, 600)),
                           ("scenario2", (0, 200, 400, 600)),
                           ("scenario3", (0, 150, 250, 450, 500))]:
        scenario = load_scenario(name)
        assert compute_cuts(scenario.formula) == expected


def test_single_subtask_cuts_are_start_and_horizon():
    ws = make_ws(regions=[("mu", (0.0, 0.0), (1.0, 1.0))])
    f = parse_formula("F[0,60] mu", ws, tau=0.1)
    assert compute_cuts(f) == (0, 600)


def test_upper_bounds_inside_nested_spans_are_skipped():
    ws = make_ws(regions=[("a", (0.0, 0.0), (1.0, 1.0)),
                          ("b", (2.0, 2.0), (3.0, 3.0))])
    # the F upper bound 15 falls strictly inside the patrol span [0,20]
    f = parse_formula("G[0,10] F[0,10] a & F[0,15] b", ws, tau=0.1)
    assert compute_cuts(f) == (0, 200)


# ---------------------------------------------------------------------------
# splitting

def test_split_hold_subtask_into_window_pieces():
    cuts = (0, 20, 30, 50, 60)
    g = _sub("G", (0, 30), negated=True)
    pieces = split_subtask(g, cuts)
    assert [(p.kind, p.outer.lo, p.outer.hi) for p in pieces] == \
        [("G", 0, 20), ("G", 20, 30)]
    assert all(p.prop is g.prop for p in pieces)


def test_split_reach_subtask_becomes_disjunctive_set():
    cuts = (0, 20, 30, 50, 60)
    f = _sub("F", (0, 60))
    dset = split_subtask(f, cuts)
    assert isinstance(dset, DisjunctiveFSet)
    assert [(p.outer.lo, p.outer.hi) for p in dset.pieces] == \
        [(0, 20), (20, 30), (30, 50), (50, 60)]
    assert dset.origin is f
    assert dset.final_piece.outer == TimeInterval(50, 60, 1.0)


def test_split_leaves_single_window_subtasks_alone():
    cuts = (0, 20, 30, 50, 60)
    f = _sub("F", (50, 60))
    assert split_subtask(f, cuts) == [f]
    gf = _sub("GF", (0, 10), (0, 10))
    assert split_subtask(gf, cuts) == [gf]


def test_a_cut_inside_a_nested_subtask_is_an_error():
    gf = _sub("GF", (0, 10), (0, 10))
    with pytest.raises(StlError) as err:
        split_subtask(gf, (0, 5, 15, 20))
    assert str(err.value) == "cut at 5 s splits nested sub-task " \
                             "G[0,10] F[0,10] r"


def test_split_pieces_tile_the_original_interval():
    rng = np.random.default_rng(5)
    for _ in range(200):
        ends = np.unique(rng.integers(0, 40, size=rng.integers(2, 6)))
        if len(ends) < 2:
            continue
        cuts = tuple(int(c) for c in ends)
        lo = int(rng.integers(0, 39))
        hi = int(rng.integers(lo, 40))
        sub = _sub(str(rng.choice(["F", "G"])), (lo, hi))
        pieces = split_subtask(sub, cuts)
        if isinstance(pieces, DisjunctiveFSet):
            pieces = pieces.pieces
        assert pieces[0].outer.lo == lo
        assert pieces[-1].outer.hi == hi
        for a, b in zip(pieces[:-1], pieces[1:]):
            assert a.outer.hi == b.outer.lo


# ---------------------------------------------------------------------------
# full decomposition

def test_first_scenario_decomposes_into_four_windows():
    scenario = load_scenario("scenario1")
    dec = decompose(scenario.formula, scenario.tau)
    assert dec.cuts == (0, 200, 300, 500, 600)
    windows = [(t.window.lo, t.window.hi) for t in dec.local_tasks]
    assert windows == [(0, 200), (200, 300), (300, 500), (500, 600)]

    by_window = {t.index: sorted(str(s) for s in t.subtasks)
                 for t in dec.local_tasks}
    assert by_window[1] == ["G[0,10] F[0,10] mu1&mu2", "G[0,20] !mu4"]
    assert by_window[2] == ["G[20,30] !mu4"]
    assert by_window[3] == ["G[30,46] F[0,4] mu5"]
    assert by_window[4] == []

    sets = {str(d.origin): d for d in dec.disjunctive_sets}
    reach3 = sets["F[0,30] mu3"]
    assert [str(p) for p in reach3.pieces] == ["F[0,20] mu3",
                                               "F[20,30] mu3"]
    assert dec.local_tasks[1].choices == (reach3,)
    reach6 = sets["F[0,60] mu6"]
    assert [str(p) for p in reach6.pieces] == \
        ["F[0,20] mu6", "F[20,30] mu6", "F[30,50] mu6", "F[50,60] mu6"]
    assert dec.local_tasks[3].choices == (reach6,)
    assert dec.local_tasks[0].choices == dec.local_tasks[2].choices == ()


def test_single_subtask_formula_decomposes_to_itself():
    ws = make_ws(regions=[("mu", (0.0, 0.0), (1.0, 1.0))])
    f = parse_formula("F[0,60] mu", ws, tau=0.1)
    dec = decompose(f, 0.1)
    assert len(dec.local_tasks) == 1
    assert dec.local_tasks[0].subtasks == f.subtasks
    assert dec.disjunctive_sets == ()


def test_nested_windows_that_touch_at_a_step_decompose_apart():
    # 0.1 + 0.2 s is 0.30000000000000004 s, past 0.3 s; steps 1 + 2 are
    # step 3, so the two reach-and-hold clauses touch and do not overlap
    ws = make_ws(regions=[("mu1", (0.0, 0.0), (1.0, 1.0)),
                          ("mu3", (2.0, 2.0), (3.0, 3.0))])
    f = parse_formula("F[0,0.1] G[0,0.2] mu1 & F[0.3,0.4] G[0,0.1] mu3", ws,
                      tau=0.1)
    dec = decompose(f, 0.1)
    assert dec.cuts == (0, 3, 5)
    assert [(t.window.lo, t.window.hi) for t in dec.local_tasks] == \
        [(0, 3), (3, 5)]
    assert [[str(s) for s in t.subtasks] for t in dec.local_tasks] == \
        [["F[0,0.1] G[0,0.2] mu1"], ["F[0.3,0.4] G[0,0.1] mu3"]]
    assert dec.explain().startswith("horizon 0.5 s, cut times (0, 0.3, 0.5)")


def test_zero_horizon_formula_is_rejected():
    ws = make_ws(regions=[("mu", (0.0, 0.0), (1.0, 1.0))])
    f = parse_formula("F[0,0] mu", ws, tau=0.1)
    with pytest.raises(StlError):
        decompose(f, 0.1)


def test_guard_subtasks_collects_every_hold_piece():
    scenario = load_scenario("scenario1")
    dec = decompose(scenario.formula, scenario.tau)
    guards = dec.guard_subtasks()
    assert sorted(str(g) for g in guards) == ["G[0,20] !mu4",
                                              "G[20,30] !mu4"]


# the text of explain(), which report.txt embeds, for each shipped
# scenario: one block per window, then the disjunctive sets in formula
# order, each with the window of its fallback piece
EXPLAINED = {
    "scenario1": (
        "horizon 60 s, cut times (0, 20, 30, 50, 60)\n"
        "local task 1 over [0,20]:\n"
        "  G[0,10] F[0,10] mu1&mu2  [kept whole]\n"
        "  G[0,20] !mu4  [must hold]\n"
        "local task 2 over [20,30]:\n"
        "  G[20,30] !mu4  [must hold]\n"
        "local task 3 over [30,50]:\n"
        "  G[30,46] F[0,4] mu5  [kept whole]\n"
        "local task 4 over [50,60]:\n"
        "  (no assigned sub-tasks)\n"
        "disjunctive reach choices (one piece each):\n"
        "  F[0,30] mu3 -> F[0,20] mu3 | F[20,30] mu3\n"
        "    fallback piece F[20,30] mu3 in local task 2\n"
        "  F[0,60] mu6 -> F[0,20] mu6 | F[20,30] mu6 | F[30,50] mu6 | "
        "F[50,60] mu6\n"
        "    fallback piece F[50,60] mu6 in local task 4"),
    "scenario2": (
        "horizon 60 s, cut times (0, 20, 40, 60)\n"
        "local task 1 over [0,20]:\n"
        "  G[0,20] !mu4  [must hold]\n"
        "  F[0,20] mu1  [must hold]\n"
        "local task 2 over [20,40]:\n"
        "  G[20,40] !mu5  [must hold]\n"
        "  F[20,40] mu2  [must hold]\n"
        "local task 3 over [40,60]:\n"
        "  (no assigned sub-tasks)\n"
        "disjunctive reach choices (one piece each):\n"
        "  F[0,60] mu3 -> F[0,20] mu3 | F[20,40] mu3 | F[40,60] mu3\n"
        "    fallback piece F[40,60] mu3 in local task 3"),
    "scenario3": (
        "horizon 50 s, cut times (0, 15, 25, 45, 50)\n"
        "local task 1 over [0,15]:\n"
        "  F[0,10] G[0,5] mu1  [kept whole]\n"
        "local task 2 over [15,25]:\n"
        "  (no assigned sub-tasks)\n"
        "local task 3 over [25,45]:\n"
        "  F[30,40] G[0,5] mu3  [kept whole]\n"
        "local task 4 over [45,50]:\n"
        "  (no assigned sub-tasks)\n"
        "disjunctive reach choices (one piece each):\n"
        "  F[0,25] mu2 -> F[0,15] mu2 | F[15,25] mu2\n"
        "    fallback piece F[15,25] mu2 in local task 2\n"
        "  F[30,50] mu4 -> F[30,45] mu4 | F[45,50] mu4\n"
        "    fallback piece F[45,50] mu4 in local task 4"),
}


def test_explain_lists_cuts_and_fallbacks():
    for name, text in EXPLAINED.items():
        scenario = load_scenario(name)
        assert decompose(scenario.formula, scenario.tau).explain() == text


def test_explain_keeps_formula_order_when_fallback_windows_run_backwards():
    # a's fallback piece is in window 3 and b's in window 2; each window
    # files its own choice, and explain still lists a before b
    ws = make_ws(regions=[("a", (0, 0), (1, 1)), ("b", (2, 0), (3, 1)),
                          ("c", (4, 0), (5, 1))])
    f = parse_formula("F[0,60] a & F[0,30] b & F[0,20] c", ws, tau=0.5)
    dec = decompose(f, 0.5)
    assert [[str(d.origin) for d in t.choices] for t in dec.local_tasks] == \
        [[], ["F[0,30] b"], ["F[0,60] a"]]
    assert dec.explain() == (
        "horizon 60 s, cut times (0, 20, 30, 60)\n"
        "local task 1 over [0,20]:\n"
        "  F[0,20] c  [must hold]\n"
        "local task 2 over [20,30]:\n"
        "  (no assigned sub-tasks)\n"
        "local task 3 over [30,60]:\n"
        "  (no assigned sub-tasks)\n"
        "disjunctive reach choices (one piece each):\n"
        "  F[0,60] a -> F[0,20] a | F[20,30] a | F[30,60] a\n"
        "    fallback piece F[30,60] a in local task 3\n"
        "  F[0,30] b -> F[0,20] b | F[20,30] b\n"
        "    fallback piece F[20,30] b in local task 2")


# ---------------------------------------------------------------------------
# semantic properties

def _random_formula(rng):
    """A validated random conjunction on a 1 s grid."""
    subtasks = []
    n = int(rng.integers(1, 4))
    nested_spans = []
    for _ in range(n):
        kind = str(rng.choice(["F", "G", "FG", "GF"]))
        lo = rng.uniform(0.0, 6.0, size=2)
        prop = region_atom("r", tuple(lo), tuple(lo + 3.0),
                           negated=bool(kind == "G" and rng.random() < 0.4))
        if kind in ("F", "G"):
            a = int(rng.integers(0, 20))
            b = int(rng.integers(a + 1, 25))
            subtasks.append(SubTask(kind, TimeInterval(a, b, 1.0), None,
                                    prop))
            continue
        for _ in range(20):
            a = int(rng.integers(0, 15))
            b = int(rng.integers(a, 18))
            d = int(rng.integers(1, 5))
            span = (a, b + d)
            if all(span[1] <= s[0] or s[1] <= span[0]
                   for s in nested_spans):
                nested_spans.append(span)
                subtasks.append(SubTask(kind, TimeInterval(a, b, 1.0),
                                        TimeInterval(0, d, 1.0), prop))
                break
    if not subtasks:
        subtasks.append(SubTask("F", TimeInterval(0, 5, 1.0), None,
                                region_atom("r", (0, 0), (3, 3))))
    from stlplan.stl_core import Formula
    return Formula(subtasks)


def test_decomposition_is_sound_for_random_formulas():
    rng = np.random.default_rng(17)
    premise_held = 0
    for _ in range(200):
        formula = _random_formula(rng)
        dec = decompose(formula, 1.0)
        k_hi = formula.horizon
        targets = [s.prop.region.box for s in formula.subtasks
                   if not s.prop.negated]
        pts = np.empty((k_hi + 1, 2))
        for j in range(k_hi + 1):
            # mostly inside the reach/stay regions, to make the premise
            # reachable often enough
            if targets and rng.random() < 0.8:
                pts[j] = targets[int(rng.integers(len(targets)))].sample(rng)
            else:
                pts[j] = rng.uniform(0.0, 10.0, size=2)
        seq = PointSequence(0, 1.0, pts)
        assigned_ok = all(direct_eval(seq, s)
                          for t in dec.local_tasks for s in t.subtasks)
        sets_ok = all(any(direct_eval(seq, p) for p in d.pieces)
                      for d in dec.disjunctive_sets)
        if assigned_ok and sets_ok:
            premise_held += 1
            for sub in formula.subtasks:
                assert direct_eval(seq, sub)
    assert premise_held > 10


def test_hold_split_is_equivalent_to_the_original():
    rng = np.random.default_rng(23)
    for _ in range(300):
        a = int(rng.integers(0, 10))
        b = int(rng.integers(a + 2, 21))
        sub = _sub("G", (a, b), negated=bool(rng.random() < 0.3))
        inner = sorted(set(int(c) for c in rng.integers(a + 1, b, size=2)
                           if a < c < b))
        cuts = tuple([a] + inner + [b])
        pieces = split_subtask(sub, cuts)
        pts = np.where(rng.random((b + 1, 2)) < 0.5,
                       rng.uniform(0, 2, (b + 1, 2)),
                       rng.uniform(0, 10, (b + 1, 2)))
        seq = PointSequence(0, 1.0, pts)
        whole = direct_eval(seq, sub)
        assert whole == all(direct_eval(seq, p) for p in pieces)


def test_reach_split_covers_exactly_the_original():
    rng = np.random.default_rng(29)
    for _ in range(300):
        a = int(rng.integers(0, 10))
        b = int(rng.integers(a + 2, 20))
        sub = _sub("F", (a, b))
        mid = int(rng.integers(a + 1, b))
        cuts = (a, mid, b)
        result = split_subtask(sub, cuts)
        pieces = result.pieces if isinstance(result, DisjunctiveFSet) \
            else result
        pts = np.where(rng.random((b + 1, 2)) < 0.15,
                       rng.uniform(0, 2, (b + 1, 2)),
                       rng.uniform(2.5, 10, (b + 1, 2)))
        seq = PointSequence(0, 1.0, pts)
        whole = direct_eval(seq, sub)
        assert whole == any(direct_eval(seq, p) for p in pieces)
