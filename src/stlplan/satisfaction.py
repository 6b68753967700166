"""Satisfaction checking of sub-tasks over uniform waypoint sequences.

`stl_sat` decides each sub-task kind over the sample grid and, when
satisfied, returns the time/region pairs that certify it.  Downstream
the pairs become pointwise constraints of the trajectory optimizer, so
the checker keeps them minimal where it can:

* F: the earliest witness only.
* G: every grid point in the window.
* FG: the grid points of the first satisfying hold window.
* GF: every visit inside the active interval, accepted when every
  anchored inner window holds a visit (the oracle's grid test).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .stl_core import CoverageError, _window_indices


@dataclass(frozen=True, order=True)
class SatisfactionPair:
    """One certified sample: the sequence is inside (or outside, for a
    negated atom) the region at grid index k."""

    k: int
    label: str
    prop: object = None

    @classmethod
    def make(cls, k, prop):
        return cls(k, prop.label, prop)


class SatisfactionSet:
    """Deduplicated, ordered collection of satisfaction pairs; of pairs
    sharing (k, label) the last one given is kept."""

    def __init__(self, pairs=()):
        unique = {(p.k, p.label): p for p in pairs}
        self.pairs = tuple(unique[key] for key in sorted(unique))

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __repr__(self):
        inner = ", ".join(f"({p.k}, {p.label})" for p in self.pairs)
        return f"SatisfactionSet([{inner}])"


def stl_sat(seq, sub):
    """Decide one sub-task over a uniform sequence.

    Returns (satisfied, pairs): a tuple of the certifying pairs, unique
    and in increasing k, empty whenever the sub-task is unsatisfied.
    """
    seq.require_coverage(sub.active_interval())
    outer_ks = sub.outer.grid_indices(seq.tau)
    if len(outer_ks) == 0:
        raise CoverageError(f"no grid point falls inside {sub.outer} at "
                            f"step {seq.tau}")
    if sub.kind == "F":
        return _sat_eventually(seq, sub, outer_ks)
    if sub.kind == "G":
        return _sat_always(seq, sub, outer_ks)
    if sub.kind == "FG":
        return _sat_reach_hold(seq, sub, outer_ks)
    return _sat_recurring(seq, sub, outer_ks)


def _sat_eventually(seq, sub, outer_ks):
    for k in outer_ks:
        if sub.prop.holds(seq.at_index(k)):
            return True, (SatisfactionPair.make(k, sub.prop),)
    return False, ()


def _sat_always(seq, sub, outer_ks):
    pairs = []
    for k in outer_ks:
        if not sub.prop.holds(seq.at_index(k)):
            return False, ()
        pairs.append(SatisfactionPair.make(k, sub.prop))
    return True, tuple(pairs)


def _sat_reach_hold(seq, sub, outer_ks):
    for k1 in outer_ks:
        window = _window_indices(k1, sub.inner, seq.tau)
        if all(sub.prop.holds(seq.at_index(k2)) for k2 in window):
            return True, tuple(SatisfactionPair.make(k2, sub.prop)
                               for k2 in window)
    return False, ()


def _sat_recurring(seq, sub, outer_ks):
    visit_ks = [k for k in sub.active_interval().grid_indices(seq.tau)
                if sub.prop.holds(seq.at_index(k))]
    for k1 in outer_ks:
        # the first visit at or after the window opens must lie inside it
        window = _window_indices(k1, sub.inner, seq.tau)
        i = bisect.bisect_left(visit_ks, window.start)
        if i == len(visit_ks) or visit_ks[i] not in window:
            return False, ()
    return True, tuple(SatisfactionPair.make(k, sub.prop) for k in visit_ks)
