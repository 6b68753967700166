"""Satisfaction checking of sub-tasks over uniform waypoint sequences.

`stl_sat`, the package's only satisfaction evaluator, decides each
sub-task kind over the sample grid and, when satisfied, returns the
step/region pairs that certify it.  `run` and `check` reach it through
stl_core.oracle_satisfies_formula.  Sub-task intervals are grid steps,
so every quantifier ranges over integers and nothing is rounded.  Per
call it compares the sequence's rows with the prop's box once, as one
boolean array over the grid rows the check reads, and decides from
that array alone.  Downstream the pairs become pointwise constraints of
the trajectory optimizer, so the checker keeps them minimal where it
can:

* F: one witness, the last grid point of the first visit (the end of
  the first run of True rows, or the interval's last grid point when
  that run reaches it).  The tree enters a region at up to full speed,
  so its arrival would pin the trajectory to that speed; the end of the
  visit leaves the optimizer the time the tree spent inside.
* G: every grid point in the window (all True).
* FG: the grid points of the first satisfying hold window (the first
  window whose prefix-sum count of True rows is its length).
* GF: every visit inside the active interval, accepted when every
  anchored inner window holds a visit (a bisection over the True
  rows).
"""

from __future__ import annotations

import bisect
from typing import NamedTuple

import numpy as np


class SatisfactionPair(NamedTuple):
    """One certified sample: the sequence is inside (or outside, for a
    negated atom) the region at grid index k.  A named tuple, because a
    plan builds hundreds of them."""

    k: int
    label: str
    prop: object


def stl_sat(seq, sub):
    """Decide one sub-task over a uniform sequence.

    Quantifiers range over the grid steps of each interval, an inner
    window over the steps of the inner interval offset by the outer
    step.  Box membership is closed and a row with a NaN coordinate lies
    outside every box, so a negated atom holds there.  Raises
    CoverageError when the sequence misses a step of the active
    interval.  Returns (satisfied, pairs): a tuple of the certifying
    pairs, unique and in increasing k, empty whenever the sub-task is
    unsatisfied.
    """
    ai = sub.active_interval()
    seq.require_coverage(ai)
    ks = range(ai.lo, ai.hi + 1)
    holds = _holds(seq, sub.prop, ks)
    if sub.kind == "F":
        return _sat_eventually(sub, ks, holds)
    if sub.kind == "G":
        return _sat_always(sub, ks, holds)
    if sub.kind == "FG":
        return _sat_reach_hold(sub, ks, holds)
    return _sat_recurring(sub, ks, holds)


def _holds(seq, prop, ks):
    """Whether prop holds at each grid index of the range ks, as one
    boolean array: AtomicProp.holds' closed box comparisons, row-wise."""
    j = ks.start - seq.k0
    pts = seq.positions[j:j + len(ks)]
    box = prop.region.box
    inside = np.all((pts >= box.lo) & (pts <= box.hi), axis=1)
    return ~inside if prop.negated else inside


def _pairs(prop, ks):
    label = prop.label
    return tuple(SatisfactionPair(k, label, prop) for k in ks)


def _sat_eventually(sub, ks, holds):
    j = int(holds.argmax())
    if not holds[j]:
        return False, ()
    # certify the last index of the first visit, not the tree's arrival
    end = j + int(holds[j:].argmin())
    if holds[end]:
        end = len(ks)  # the visit lasts to the interval's end
    return True, _pairs(sub.prop, ks[end - 1:end])


def _sat_always(sub, ks, holds):
    if not holds.all():
        return False, ()
    return True, _pairs(sub.prop, ks)


def _sat_reach_hold(sub, ks, holds):
    # held[i] counts the rows before ks[i] at which the prop holds
    held = np.concatenate(([0], np.cumsum(holds))).tolist()
    for k1 in range(sub.outer.lo, sub.outer.hi + 1):
        window = range(k1 + sub.inner.lo, k1 + sub.inner.hi + 1)
        a, b = window.start - ks.start, window.stop - ks.start
        if held[b] - held[a] == b - a:
            return True, _pairs(sub.prop, window)
    return False, ()


def _sat_recurring(sub, ks, holds):
    visit_ks = [ks[j] for j in np.flatnonzero(holds).tolist()]
    for k1 in range(sub.outer.lo, sub.outer.hi + 1):
        # the first visit at or after the window opens must lie inside it
        window = range(k1 + sub.inner.lo, k1 + sub.inner.hi + 1)
        i = bisect.bisect_left(visit_ks, window.start)
        if i == len(visit_ks) or visit_ks[i] not in window:
            return False, ()
    return True, _pairs(sub.prop, visit_ks)
