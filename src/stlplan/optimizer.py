"""Direct-transcription trajectory optimization over a corridor.

Decision variables are the states x_0..x_K and inputs u_0..u_{K-1} of a
discrete-time model.  The cost penalizes input differences and state
differences, so the result is a smooth trajectory threading the
waypoints' corridor.  Dynamics enter as equality constraints driven to
feasibility by an augmented Lagrangian outer loop; every inequality of
the problem (workspace, corridor box per step, region membership or
avoidance at certified times, input limits, fixed initial state) is
axis-aligned and folds into per-variable bounds.  Each subproblem is
minimized by projected Gauss-Newton steps: the cost is an exact
quadratic, the penalty contributes rho J'J from the dynamics Jacobian,
and bounds hold exactly at every iterate.  In time-major order the
normal equations form a symmetric band of half-width at most 2n+m-1,
held in LAPACK lower band storage; variables held at an active bound
are pinned to a zero step rather than sliced out, and the band is
factored by Cholesky.  If the factorization fails, the iteration takes
the projected gradient step instead.

Avoidance of a box region is nonconvex; it is enforced by picking, per
certified time, the separating face with the largest clearance at the
waypoint and bounding the coordinate by that face.  The heading is left
unbounded during optimization and is only wrapped for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

from .stl_core import StlError

DEFAULT_MARGIN = 1e-6


class OptimizationError(StlError):
    pass


class InfeasibleConstraintError(OptimizationError):
    """Bounds at some step have empty intersection before solving."""


@dataclass(frozen=True)
class SolverTolerances:
    eps_feas: float = 1e-4
    eps_opt: float = 1e-3
    max_outer: int = 50
    max_inner: int = 120


@dataclass(frozen=True)
class DynamicsModel:
    """Discrete-time model with batched step and Jacobian evaluation."""

    name: str
    state_dim: int
    input_dim: int
    pos_dim: int
    tau: float
    step_fn: object
    jac_fn: object
    input_lo: tuple
    input_hi: tuple

    def step(self, x, u):
        return self.step_fn(np.asarray(x, dtype=float),
                            np.asarray(u, dtype=float))

    def jacobians(self, x, u):
        return self.jac_fn(np.asarray(x, dtype=float),
                           np.asarray(u, dtype=float))

    @property
    def speed_limit(self):
        return max(abs(self.input_lo[0]), abs(self.input_hi[0]))


def unicycle_step(x, u, tau):
    """One step of the unicycle: positions advance along the heading at
    the commanded speed, the heading advances at the commanded rate."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v, w = u[..., 0], u[..., 1]
    th = x[..., 2]
    out = x.copy()
    out[..., 0] += tau * v * np.cos(th)
    out[..., 1] += tau * v * np.sin(th)
    out[..., 2] += tau * w
    return out


def unicycle_jacobians(x, u, tau):
    """State and input Jacobians of the unicycle step."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    batch = x.shape[:-1]
    v = u[..., 0]
    th = x[..., 2]
    A = np.zeros(batch + (3, 3))
    A[..., 0, 0] = 1.0
    A[..., 1, 1] = 1.0
    A[..., 2, 2] = 1.0
    A[..., 0, 2] = -tau * v * np.sin(th)
    A[..., 1, 2] = tau * v * np.cos(th)
    B = np.zeros(batch + (3, 2))
    B[..., 0, 0] = tau * np.cos(th)
    B[..., 1, 0] = tau * np.sin(th)
    B[..., 2, 1] = tau
    return A, B


def unicycle_model(tau, v_bounds=(-4.0, 4.0),
                   omega_bounds=(-math.pi / 3, math.pi / 3)):
    return DynamicsModel(
        name="unicycle", state_dim=3, input_dim=2, pos_dim=2, tau=tau,
        step_fn=lambda x, u: unicycle_step(x, u, tau),
        jac_fn=lambda x, u: unicycle_jacobians(x, u, tau),
        input_lo=(float(v_bounds[0]), float(omega_bounds[0])),
        input_hi=(float(v_bounds[1]), float(omega_bounds[1])))


def rollout(model, x0, inputs):
    """Apply an input sequence from x0; returns the K+1 visited states."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    states = np.empty((len(inputs) + 1, model.state_dim))
    states[0] = np.asarray(x0, dtype=float)
    for k, u in enumerate(inputs):
        states[k + 1] = model.step(states[k], u)
    return states


@dataclass
class NlpProblem:
    """Bounds, weights, and metadata of one transcription instance."""

    model: DynamicsModel
    horizon: int
    x0: np.ndarray
    state_lb: np.ndarray
    state_ub: np.ndarray
    input_lb: np.ndarray
    input_ub: np.ndarray
    q_weights: np.ndarray
    r_weights: np.ndarray
    pair_rows: tuple = ()

    @property
    def num_dynamics_constraints(self):
        return self.horizon

    def pack(self, states, inputs):
        return np.concatenate([np.asarray(states, dtype=float).ravel(),
                               np.asarray(inputs, dtype=float).ravel()])

    def unpack(self, z):
        n = (self.horizon + 1) * self.model.state_dim
        states = z[:n].reshape(self.horizon + 1, self.model.state_dim)
        inputs = z[n:].reshape(self.horizon, self.model.input_dim)
        return states, inputs

    def flat_bounds(self):
        lb = np.concatenate([self.state_lb.ravel(), self.input_lb.ravel()])
        ub = np.concatenate([self.state_ub.ravel(), self.input_ub.ravel()])
        return lb, ub

    def cost(self, states, inputs):
        du = np.diff(inputs, axis=0)
        dx = np.diff(states, axis=0)
        return float((du ** 2 @ self.q_weights).sum()
                     + (dx ** 2 @ self.r_weights).sum())

    def cost_grad(self, states, inputs):
        gs = np.zeros_like(states)
        gu = np.zeros_like(inputs)
        du = np.diff(inputs, axis=0) * (2.0 * self.q_weights)
        gu[1:] += du
        gu[:-1] -= du
        dx = np.diff(states, axis=0) * (2.0 * self.r_weights)
        gs[1:] += dx
        gs[:-1] -= dx
        return gs, gu

    def residuals(self, states, inputs):
        return states[1:] - self.model.step(states[:-1], inputs)


def _avoid_faces(lo, hi, wps, margin):
    """Axis-aligned half-planes keeping each waypoint wps[i] outside the
    box lo[i]..hi[i], all rows at once.

    Per row the candidate faces are scanned low then high, axis by axis,
    and a later face replaces the best so far only when its clearance at
    the waypoint is larger by over 1e-12, so ties go to the earlier face.
    Returns (axis, side, bound, clearance): side 0 bounds the coordinate
    from above by `bound`, side 1 from below.  The face retreats by the
    margin but never past the waypoint; a clearance <= 0 means the
    waypoint sits inside the box and no face keeps it out.
    """
    rows = np.arange(len(wps))
    cand = np.stack([lo - wps, wps - hi], axis=2).reshape(len(wps),
                                                          2 * wps.shape[1])
    best = cand[:, 0]
    pick = np.zeros(len(wps), dtype=np.intp)
    for j in range(1, cand.shape[1]):
        better = cand[:, j] > best + 1e-12
        best = np.where(better, cand[:, j], best)
        pick = np.where(better, j, pick)
    axis, side = np.divmod(pick, 2)
    wp = wps[rows, axis]
    below = np.maximum(np.minimum(lo[rows, axis] - margin, wp + best), wp)
    above = np.minimum(np.maximum(hi[rows, axis] + margin, wp - best), wp)
    return axis, side, np.where(side == 0, below, above), best


def _position_bounds(pts, corridor, ws, pairs, margin):
    """Per-step position bounds (lb, ub) of shape (K+1, d) and the pair
    rows (k, label, prop) in (k, plan) order; see build_nlp.

    Raises InfeasibleConstraintError for the earliest step whose bounds
    cannot be assembled or are empty.
    """
    K1 = len(pts)
    run, distinct = corridor.runs()
    lo = np.array([b.lo for b in distinct])[run]
    hi = np.array([b.hi for b in distinct])[run]
    lb = np.maximum(ws.bounds.lo, np.minimum(lo + margin, pts))
    ub = np.minimum(ws.bounds.hi, np.maximum(hi - margin, pts))

    # at a handoff the state is confined to the doorway both boxes share
    hand = np.flatnonzero(run[1:] != run[:-1]) + 1
    door_lb = np.maximum(lo[hand], lo[hand - 1])
    door_ub = np.minimum(hi[hand], hi[hand - 1])
    disjoint = np.zeros(K1, dtype=bool)
    disjoint[hand] = np.any(door_lb > door_ub, axis=1)
    # only strictly wide axes can afford the boundary margin; a seam
    # axis stays pinned to the shared face
    wide = door_ub - door_lb > 2.0 * margin
    lb[hand] = np.maximum(ws.bounds.lo, door_lb + wide * margin)
    ub[hand] = np.minimum(ws.bounds.hi, door_ub - wide * margin)

    rows = sorted((p for p in pairs if 0 <= p.k < K1), key=lambda p: p.k)
    ks = np.array([p.k for p in rows], dtype=np.intp)
    shape = (len(rows), pts.shape[1])
    rlo = np.array([p.prop.region.box.lo for p in rows]).reshape(shape)
    rhi = np.array([p.prop.region.box.hi for p in rows]).reshape(shape)
    neg = np.array([p.prop.negated for p in rows], dtype=bool)
    np.maximum.at(lb, ks[~neg], rlo[~neg])
    np.minimum.at(ub, ks[~neg], rhi[~neg])
    ka = ks[neg]
    axis, side, bound, clearance = _avoid_faces(rlo[neg], rhi[neg], pts[ka],
                                                margin)
    np.minimum.at(ub, (ka[side == 0], axis[side == 0]), bound[side == 0])
    np.maximum.at(lb, (ka[side == 1], axis[side == 1]), bound[side == 1])
    inside = np.zeros(K1, dtype=bool)
    inside[ka[clearance <= 0.0]] = True

    empty = np.any(lb > ub, axis=1)
    bad = np.flatnonzero(disjoint | inside | empty)
    if bad.size:
        k = int(bad[0])
        if disjoint[k]:
            raise InfeasibleConstraintError(
                f"corridor boxes at steps {k - 1} and {k} share no "
                f"doorway")
        if inside[k]:
            first = np.flatnonzero(neg)[np.argmax((ka == k) &
                                                  (clearance <= 0.0))]
            raise InfeasibleConstraintError(
                f"waypoint at step {k} sits inside a region it must avoid "
                f"({rows[first].label})")
        raise InfeasibleConstraintError(
            f"constraints at step {k} have empty intersection "
            f"(corridor box against certified regions)")
    return lb, ub, tuple((p.k, p.label, p.prop) for p in rows)


def build_nlp(plan, corridor, ws, model, x0, *, q_weights=None,
              r_weights=None, margin=DEFAULT_MARGIN):
    """Assemble the transcription for a plan and its corridor.

    plan supplies the waypoints (initialization and relaxation anchors)
    and the certified time/region pairs; the corridor supplies the
    per-step free boxes.  Corridor faces retreat by a small margin
    (never past the waypoint) so the smoothed trajectory stays strictly
    off obstacle boundaries; region-membership bounds stay exact.

    Where the corridor hands off from one box to the next, the state at
    the handoff is confined to the doorway both boxes share.  Every
    trajectory segment then has both endpoints inside one convex free
    box, so the segment itself cannot cross an obstacle.

    The position bounds are assembled as (K+1, d) arrays: the workspace
    intersected with each step's margin-retreated box, or at a handoff
    with the doorway; then membership pairs intersect their region and
    each avoidance pair bounds one coordinate by its best face.  The
    earliest step that cannot be bounded raises
    InfeasibleConstraintError; at one step a doorway shared by no two
    boxes comes first, then a waypoint inside a region it must avoid
    (named by the label of the first such pair at that step), then an
    empty intersection.
    """
    pts = plan.waypoints.positions
    K = len(pts) - 1
    if len(corridor.boxes) != K + 1:
        raise OptimizationError("corridor and plan lengths disagree")
    n, m = model.state_dim, model.input_dim
    d = model.pos_dim
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise OptimizationError(f"initial state must have {n} entries")
    if not np.allclose(x0[:d], pts[0], atol=1e-9):
        raise OptimizationError("initial state does not match the first "
                                "waypoint")

    lb, ub, pair_rows = _position_bounds(pts, corridor, ws, plan.pairs,
                                         margin)
    state_lb = np.full((K + 1, n), -np.inf)
    state_ub = np.full((K + 1, n), np.inf)
    state_lb[:, :d] = lb
    state_ub[:, :d] = ub
    state_lb[0] = x0
    state_ub[0] = x0

    input_lb = np.tile(np.asarray(model.input_lo, dtype=float), (K, 1))
    input_ub = np.tile(np.asarray(model.input_hi, dtype=float), (K, 1))
    if q_weights is None:
        q_weights = np.ones(m)
    if r_weights is None:
        r_weights = np.ones(n)
    return NlpProblem(model=model, horizon=K, x0=x0,
                      state_lb=state_lb, state_ub=state_ub,
                      input_lb=input_lb, input_ub=input_ub,
                      q_weights=np.asarray(q_weights, dtype=float),
                      r_weights=np.asarray(r_weights, dtype=float),
                      pair_rows=pair_rows)


def initial_guess(problem, waypoints):
    """States and inputs consistent with the waypoints: headings follow
    the displacement directions (continued through standstills and never
    wrapped), inputs come from inverse kinematics clipped to bounds.

    The step norms and standstill tests run as arrays; only the heading
    recurrence, which carries each heading into the next, walks the
    steps, on plain floats.
    """
    pts = np.asarray(waypoints, dtype=float)
    K = problem.horizon
    model = problem.model
    tau = model.tau
    states = np.zeros((K + 1, model.state_dim))
    states[:, :model.pos_dim] = pts
    diffs = np.diff(pts, axis=0)
    still = (np.linalg.norm(diffs, axis=1) < 1e-9).tolist()
    angle = float(problem.x0[2]) if model.state_dim > 2 else 0.0
    headings = [angle]
    # math.atan2, not np.arctan2: the two differ in the last bit on some
    # inputs, so the vectorized one would change the guess
    for stop, dx, dy in zip(still, diffs[:, 0].tolist(),
                            diffs[:, 1].tolist()):
        if not stop:
            raw = math.atan2(dy, dx)
            angle += (raw - angle + math.pi) % (2.0 * math.pi) - math.pi
        headings.append(angle)
    theta = np.array(headings)
    if model.state_dim > 2:
        states[:, 2] = theta
    inputs = np.zeros((K, model.input_dim))
    if model.name == "unicycle":
        heading = np.stack([np.cos(theta[:-1]), np.sin(theta[:-1])], axis=1)
        inputs[:, 0] = (diffs * heading).sum(axis=1) / tau
        inputs[:, 1] = np.diff(theta) / tau
    inputs = np.clip(inputs, problem.input_lb, problem.input_ub)
    states = np.clip(states, problem.state_lb, problem.state_ub)
    return states, inputs


@dataclass
class NlpSolution:
    states: np.ndarray
    inputs: np.ndarray
    cost: float
    max_violation: float
    outer_iterations: int
    converged: bool
    message: str
    log: list = field(default_factory=list)


def _projected_gradient_norm(z, g, lb, ub):
    pg = np.array(g, dtype=float)
    at_lb = z <= lb + 1e-12
    at_ub = z >= ub - 1e-12
    fixed = at_lb & at_ub
    pg[at_lb] = np.minimum(pg[at_lb], 0.0)
    pg[at_ub] = np.maximum(pg[at_ub], 0.0)
    pg[fixed] = 0.0
    return float(np.max(np.abs(pg))) if len(pg) else 0.0


def _time_major_order(K, n, m):
    """Packed index of each variable in time-major order
    (x_0, u_0, x_1, u_1, ..., u_{K-1}, x_K)."""
    nx = (K + 1) * n
    x = np.arange(nx).reshape(K + 1, n)
    u = np.arange(nx, nx + K * m).reshape(K, m)
    return np.concatenate([np.hstack([x[:-1], u]).ravel(), x[-1]])


def _step_jacobians(A, B):
    """Jacobian of each defect c_k = x_{k+1} - f(x_k, u_k) with respect
    to its window (x_k, u_k, x_{k+1}): J_k = [-A_k, -B_k, I]."""
    K, n = A.shape[:2]
    eye = np.broadcast_to(np.eye(n), (K, n, n))
    return np.concatenate([-A, -B, eye], axis=2)


# perfbench times factorizations under this name; the rename waits for
# the benchmark change in ROADMAP item 1
def splu(ab):
    return cholesky_banded(ab, lower=True, check_finite=False)


class _NewtonBand:
    """The Gauss-Newton matrix Hq + rho J'J of one problem in LAPACK
    lower band storage.

    In time-major order step k's defect touches only the contiguous
    window (x_k, u_k, x_{k+1}), so the matrix is a band of half-width at
    most bw = 2n+m-1, stored as ab[d, j] = H[j + d, j] for d = 0..bw.
    Hq is a constant band (a variable's difference partner sits n+m
    further on), built once per solve with the slots that scatter each
    window's lower-triangle J_k'J_k into the band; an iteration only
    fills values.  Active variables are pinned (their rows and columns
    replaced by the identity's, with a zero right-hand side) instead of
    sliced out, and the band is factored by Cholesky.
    """

    def __init__(self, problem):
        model = problem.model
        K, n, m = problem.horizon, model.state_dim, model.input_dim
        N = (K + 1) * n + K * m
        s, w = n + m, 2 * n + m
        self.order = _time_major_order(K, n, m)
        self.pos = np.argsort(self.order)
        # variable j and its difference partner j + s, for j < N - s
        pairs = max(N - s, 0)
        weights = 2.0 * np.tile(np.concatenate([problem.r_weights,
                                                problem.q_weights]),
                                K + 1)[:pairs]
        self.hq = np.zeros((w, N))
        self.hq[0, :pairs] += weights
        self.hq[0, N - pairs:] += weights
        self.hq[s, :pairs] = -weights
        # window entry (a, b) of step k sits at ab[a - b, k*s + b] when
        # a >= b; the upper triangle goes to one spare slot past the end
        rows, cols = np.indices((w, w)).reshape(2, -1)
        slots = (rows - cols) * N + cols + (np.arange(K) * s)[:, None]
        slots[:, rows < cols] = w * N
        self.win_slots = slots.ravel()

    def matrix(self, A, B, rho, active):
        """Hq + rho J'J + 1e-10 I in time-major lower band storage with
        the active variables pinned."""
        Jk = _step_jacobians(A, B)
        # a contiguous left operand keeps matmul on its fast path
        JtJ = np.matmul(np.ascontiguousarray(Jk.transpose(0, 2, 1)), Jk)
        ab = self.hq + rho * np.bincount(
            self.win_slots, weights=JtJ.ravel(),
            minlength=self.hq.size + 1)[:-1].reshape(self.hq.shape)
        ab[0] += 1e-10
        keep = ~active[self.order]
        ab *= keep
        for d in range(1, len(ab)):
            ab[d, :-d] *= keep[d:]  # ab[d, j] lies in row j + d
        ab[0, ~keep] = 1.0
        return ab

    def step(self, g, A, B, rho, active):
        """Gauss-Newton step on the free variables in packed order,
        exactly 0 on the active ones; None if the factorization fails."""
        if active.all():
            return np.zeros_like(g)
        try:
            factor = splu(self.matrix(A, B, rho, active))
        except LinAlgError:
            return None
        return cho_solve_banded((factor, True),
                                np.where(active, 0.0, -g)[self.order],
                                check_finite=False)[self.pos]


def _inner_gauss_newton(z, lb, ub, al, al_grad, newton, rho, gtol,
                        max_iter):
    """Minimize one subproblem within the bounds.

    Directions come from the Gauss-Newton model of the augmented
    Lagrangian restricted to the estimated free variables; steps are
    projected back onto the bounds under an Armijo backtracking line
    search, so the subproblem value never increases.  al(z) returns the
    value and the defects c at z; al_grad(z, c) returns the gradient and
    the Jacobian blocks (A, B), and runs only at the start iterate and
    at accepted ones, never for a rejected trial.  Where the
    factorization fails or its step is no descent direction, the
    projected gradient step is taken instead; those iterations are
    counted as fallbacks.
    """
    f, c = al(z)
    g, jac = al_grad(z, c)
    f_start = f
    nit = fallbacks = 0
    for nit in range(1, max_iter + 1):
        if _projected_gradient_norm(z, g, lb, ub) <= gtol:
            nit -= 1
            break
        active = (((z <= lb + 1e-11) & (g > 0.0))
                  | ((z >= ub - 1e-11) & (g < 0.0)))
        p = np.where(active, 0.0, -g)
        step = newton.step(g, *jac, rho, active)
        if step is not None and g @ step < 0.0:
            p = step
        else:
            fallbacks += 1
        accepted = False
        alpha = 1.0
        for _ in range(40):
            z_try = np.clip(z + alpha * p, lb, ub)
            f_try, c_try = al(z_try)
            if f_try <= f + 1e-4 * float(g @ (z_try - z)) + 1e-12:
                z, f = z_try, f_try
                g, jac = al_grad(z, c_try)
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
    return z, f_start, f, g, nit, fallbacks


def solve_nlp(problem, init=None, tolerances=None):
    """Augmented Lagrangian solve of the transcription.

    Only the dynamics equalities carry multipliers; each inner problem
    is bound-constrained and minimized by projected Gauss-Newton with
    the analytic gradient, so box constraints hold exactly in the
    returned solution.  Multipliers update every outer iteration and
    the penalty grows when feasibility progress stalls; the merit value
    of an outer iteration never rises between its start and its end.
    """
    tol = tolerances or SolverTolerances()
    if init is None:
        raise OptimizationError("an initialization is required")
    states, inputs = init
    z = problem.pack(states, inputs)
    lb, ub = problem.flat_bounds()
    z = np.clip(z, lb, ub)
    model = problem.model
    K = problem.horizon
    n = model.state_dim

    lam = np.zeros((K, n))
    rho = 10.0
    viol_ref = np.inf

    def al_value(zvec, lam, rho):
        S, U = problem.unpack(zvec)
        c = problem.residuals(S, U)
        f = problem.cost(S, U) + float((lam * c).sum()) \
            + 0.5 * rho * float((c * c).sum())
        return f, c

    def al_grad(zvec, c, lam, rho):
        S, U = problem.unpack(zvec)
        y = lam + rho * c
        gs, gu = problem.cost_grad(S, U)
        A, B = model.jacobians(S[:-1], U)
        gs[1:] += y
        gs[:-1] -= np.einsum("kij,ki->kj", A, y)
        gu -= np.einsum("kij,ki->kj", B, y)
        return np.concatenate([gs.ravel(), gu.ravel()]), (A, B)

    newton = _NewtonBand(problem)
    log = []
    converged = False
    message = "outer iteration budget exhausted"
    viol = np.inf
    # inner stationarity target, loose at first and tightened as the
    # multipliers settle; early subproblems are not worth polishing
    gtol_floor = max(tol.eps_opt / 2.0, 1e-12)
    omega = max(1e-2, gtol_floor)
    for outer in range(1, tol.max_outer + 1):
        z, merit_start, f_end, g_end, nit, fallbacks = _inner_gauss_newton(
            z, lb, ub, lambda zv: al_value(zv, lam, rho),
            lambda zv, c: al_grad(zv, c, lam, rho), newton, rho, omega,
            tol.max_inner)
        S, U = problem.unpack(z)
        c = problem.residuals(S, U)
        viol = float(np.max(np.abs(c))) if c.size else 0.0
        pg = _projected_gradient_norm(z, g_end, lb, ub)
        log.append({"outer": outer, "merit_start": merit_start,
                    "merit_end": f_end, "violation": viol, "rho": rho,
                    "projected_gradient": pg, "gtol": omega,
                    "inner_iterations": nit, "newton_fallbacks": fallbacks})
        if viol <= tol.eps_feas and pg <= tol.eps_opt:
            converged = True
            message = "converged"
            break
        lam = lam + rho * c
        if viol > 0.25 * viol_ref:
            rho = min(rho * 5.0, 1e8)
            if rho >= 1e8 and viol > 10 * tol.eps_feas:
                message = "penalty limit reached without feasibility"
                break
        else:
            viol_ref = viol
        omega = max(0.3 * omega, gtol_floor)

    S, U = problem.unpack(z)
    if not converged and K:
        defect = np.max(np.abs(problem.residuals(S, U)), axis=1)
        k = int(np.argmax(defect))
        message += f" (worst defect {defect[k]:.2e} at step {k})"
    return NlpSolution(states=S, inputs=U, cost=problem.cost(S, U),
                       max_violation=viol, outer_iterations=len(log),
                       converged=converged, message=message, log=log)


def evaluate_solution(problem, states, inputs):
    """Re-evaluate all constraints outside the solver.

    Returns the worst dynamics defect, the worst bound violation, and
    per-pair region membership checks recomputed from the geometry.
    """
    states = np.asarray(states, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    c = problem.residuals(states, inputs)
    dyn = float(np.max(np.abs(c))) if c.size else 0.0
    z = problem.pack(states, inputs)
    lb, ub = problem.flat_bounds()
    bound = float(np.max(np.maximum(lb - z, z - ub)))
    pair_ok = all(prop.holds(states[k, :problem.model.pos_dim])
                  for k, _, prop in problem.pair_rows)
    return {"dynamics_violation": dyn,
            "bound_violation": max(bound, 0.0),
            "pairs_satisfied": pair_ok,
            "cost": problem.cost(states, inputs)}
