"""Shared test fixtures: workspace builders, an independently coded
satisfaction evaluator, randomized instance generators, dense
references for the Newton system of a transcription, and a call
counter.

The evaluator here deliberately repeats none of the package code: it
works on float time lists with tolerant interval membership instead of
integer grid indices, so agreement between the two is meaningful.
"""

import numpy as np

from stlplan.optimizer import _step_jacobians, _time_major_order
from stlplan.stl_core import (AtomicProp, Box, PointSequence, Region,
                              SubTask, TimeInterval, Workspace)

TIME_EPS = 1e-9


def make_ws(bounds=((0.0, 0.0), (10.0, 10.0)), obstacles=(), regions=()):
    """Workspace from plain tuples: bounds/obstacles as (lo, hi) pairs,
    regions as (name, lo, hi) triples."""
    bbox = Box(bounds[0], bounds[1])
    obs = tuple(Box(lo, hi) for lo, hi in obstacles)
    regs = tuple(Region(name, Box(lo, hi)) for name, lo, hi in regions)
    return Workspace(bbox, obs, regs)


def region_atom(name, lo, hi, negated=False):
    return AtomicProp(Region(name, Box(lo, hi)), negated=negated)


def direct_eval(seq, sub):
    """Double-loop satisfaction over float times; the reference the
    package oracle is checked against."""
    times = [(seq.k0 + j) * seq.tau for j in range(len(seq))]
    inside = [bool(sub.prop.holds(seq.positions[j]))
              for j in range(len(seq))]

    def within(t, lo, hi):
        return lo - TIME_EPS <= t <= hi + TIME_EPS

    outer = [j for j, t in enumerate(times)
             if within(t, sub.outer.lo, sub.outer.hi)]
    if sub.kind == "F":
        return any(inside[j] for j in outer)
    if sub.kind == "G":
        return all(inside[j] for j in outer)
    if sub.kind == "FG":
        for j in outer:
            window = [i for i, t in enumerate(times)
                      if within(t, times[j] + sub.inner.lo,
                                times[j] + sub.inner.hi)]
            if all(inside[i] for i in window):
                return True
        return False
    for j in outer:
        window = [i for i, t in enumerate(times)
                  if within(t, times[j] + sub.inner.lo,
                            times[j] + sub.inner.hi)]
        if not any(inside[i] for i in window):
            return False
    return True


def random_instance(rng, max_samples=40, inside_bias=0.5):
    """One randomized (sequence, sub-task) pair on a unit grid.

    The sequence always starts at k0 = 0 and covers the sub-task's
    active interval; in total at most max_samples grid points.
    """
    tau = float(rng.choice([0.1, 0.25, 0.5, 1.0]))
    last = int(rng.integers(1, max_samples))  # index of the final sample
    kind = str(rng.choice(["F", "G", "FG", "GF"]))
    if kind in ("F", "G"):
        a = int(rng.integers(0, last))
        b = int(rng.integers(a, last + 1))
        outer = TimeInterval(a * tau, b * tau)
        inner = None
    else:
        d = int(rng.integers(1, max(2, last // 2)))
        b = int(rng.integers(0, last - d + 1))
        a = int(rng.integers(0, b + 1))
        c = int(rng.integers(0, d + 1))
        outer = TimeInterval(a * tau, b * tau)
        inner = TimeInterval(c * tau, d * tau)
    lo = rng.uniform(0.0, 6.0, size=2)
    hi = lo + rng.uniform(1.0, 4.0, size=2)
    negated = bool(rng.random() < 0.25)
    prop = region_atom("r", tuple(lo), tuple(np.minimum(hi, 10.0)),
                       negated=negated)
    sub = SubTask(kind, outer, inner, prop)

    box = prop.region.box
    pts = np.empty((last + 1, 2))
    for j in range(last + 1):
        if rng.random() < inside_bias:
            pts[j] = box.sample(rng)
        else:
            pts[j] = rng.uniform(0.0, 10.0, size=2)
    return PointSequence(0, tau, pts), sub


def honoring_sequence(seq, sub, pairs, rng):
    """A fresh random sequence on seq's grid that agrees with the pairs:
    inside the pair region at each pair time (outside for a negated
    atom), arbitrary everywhere else."""
    pts = rng.uniform(0.0, 10.0, size=(len(seq), 2))
    for pair in pairs:
        j = pair.k - seq.k0
        box = pair.prop.region.box
        if pair.prop.negated:
            p = rng.uniform(0.0, 10.0, size=2)
            while box.contains(p):
                p = rng.uniform(0.0, 10.0, size=2)
            pts[j] = p
        else:
            pts[j] = box.sample(rng)
    return PointSequence(seq.k0, seq.tau, pts)


def dense_dynamics_jacobian(prob, A, B):
    """Jacobian of the defects with respect to the packed variables,
    scattered from the per-step window blocks the Newton band uses."""
    K, n, m = prob.horizon, prob.model.state_dim, prob.model.input_dim
    order = _time_major_order(K, n, m)
    Jk = _step_jacobians(A, B)
    J = np.zeros((K * n, len(order)))
    for k in range(K):
        window = order[k * (n + m):k * (n + m) + 2 * n + m]
        J[k * n:(k + 1) * n, window] = Jk[k]
    return J


def _dense_difference_hessian(count, weights):
    # Hessian of sum_j ||y_{j+1} - y_j||^2_w over y in R^(count x len(w))
    D = np.diff(np.eye(count), axis=0)
    return 2.0 * np.kron(D.T @ D, np.diag(weights))


def dense_cost_hessian(prob):
    """Hessian of the quadratic cost over the packed variables."""
    Hx = _dense_difference_hessian(prob.horizon + 1, prob.r_weights)
    Hu = _dense_difference_hessian(prob.horizon, prob.q_weights)
    H = np.zeros((len(Hx) + len(Hu),) * 2)
    H[:len(Hx), :len(Hx)] = Hx
    H[len(Hx):, len(Hx):] = Hu
    return H


def band_to_dense(ab):
    """Symmetric matrix from LAPACK lower band storage,
    ab[d, j] = H[j + d, j]."""
    N = ab.shape[1]
    H = np.zeros((N, N))
    for d in range(min(len(ab), N)):
        j = np.arange(N - d)
        H[j + d, j] = ab[d, :N - d]
        H[j, j + d] = ab[d, :N - d]
    return H


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call in the
    returned list before calling through."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls
