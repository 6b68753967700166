"""Satisfaction checking of sub-tasks over uniform waypoint sequences.

`stl_sat`, the package's only satisfaction evaluator, decides each
sub-task over the sample grid and, when satisfied, returns the
step/region pairs that certify it.  `run` and `check` reach it through
stl_core.oracle_satisfies_formula.  Sub-task intervals are grid steps,
so every quantifier ranges over integers and nothing is rounded.

Every kind is decided by one rule.  Per call the sequence's rows are
compared with the prop's box once, as one boolean array `holds` over
the steps of the active interval.  A nested clause (FG, GF) has one
window per outer step k1, the steps [k1 + inner.lo, k1 + inner.hi], so
window i starts at row i; a plain clause (F, G) has one window, its
whole interval.  One prefix sum of `holds` counts the rows that hold in
each window.  A window passes when it holds a visit (F, GF) or is full
(G, FG), and the clause holds when every window passes (G, GF) or one
does (F, FG): the max and min of STL robustness, with membership for
the margins.

Downstream the pairs become pointwise constraints of the trajectory
optimizer, so the checker keeps them minimal where it can:

* F: one witness, the last grid point of the first visit (the end of
  the first run of rows that hold, or the interval's last grid point
  when that run reaches it).  The tree enters a region at up to full
  speed, so its arrival would pin the trajectory to that speed; the end
  of the visit leaves the optimizer the time the tree spent inside.
* FG: the grid points of the first full window.
* G, GF: every grid point of the active interval at which the prop
  holds (for G, all of them).
"""

from __future__ import annotations

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
    # count[i] counts the rows before row i at which the prop holds
    count = np.concatenate(([0], np.cumsum(holds)))
    width = sub.inner.length + 1 if sub.nested else len(ks)
    in_window = count[width:] - count[:-width]
    passes = in_window > 0 if sub.kind in ("F", "GF") else \
        in_window == width
    every = sub.kind in ("G", "GF")
    if not (passes.all() if every else passes.any()):
        return False, ()
    if every:
        held = np.flatnonzero(holds) + ks.start
        return True, _pairs(sub.prop, held.tolist())
    if sub.kind == "FG":
        i = int(passes.argmax())
        return True, _pairs(sub.prop, ks[i:i + width])
    # certify the last row of the first visit, not the tree's arrival
    j = int(holds.argmax())
    end = j + int(holds[j:].argmin())
    if holds[end]:
        end = len(ks)  # the visit lasts to the interval's end
    return True, _pairs(sub.prop, ks[end - 1:end])


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
