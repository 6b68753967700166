"""Direct-transcription trajectory optimization over a corridor.

Decision variables are the states x_0..x_K and inputs u_0..u_{K-1} of a
discrete-time model.  The cost penalizes input differences and state
differences, so the result is a smooth trajectory threading the
waypoints' corridor.  Dynamics enter as equality constraints driven to
feasibility by an augmented Lagrangian outer loop; every inequality of
the problem (workspace, corridor box per step, region membership or
avoidance at certified times, input limits, fixed initial state) is
axis-aligned and folds into per-variable bounds.  Each subproblem is
minimized by projected Gauss-Newton steps: the cost is an exact sparse
quadratic, the penalty contributes rho J'J from the dynamics Jacobian,
and the resulting normal equations are solved on the free variables
with a sparse factorization, so bounds hold exactly at every iterate.

Avoidance of a box region is nonconvex; it is enforced by picking, per
certified time, the separating face with the largest clearance at the
waypoint and bounding the coordinate by that face.  The heading is left
unbounded during optimization and is only wrapped for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

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


def _select_avoid_face(box, wp, margin):
    """Axis-aligned half-plane keeping a point outside a box: the face
    with the largest clearance at the waypoint, low axes first on ties."""
    best = None
    for axis in range(len(box.lo)):
        below = box.lo[axis] - wp[axis]
        above = wp[axis] - box.hi[axis]
        for clearance, side in ((below, 0), (above, 1)):
            if best is None or clearance > best[0] + 1e-12:
                best = (clearance, axis, side)
    clearance, axis, side = best
    if clearance <= 0.0:
        raise InfeasibleConstraintError(
            "waypoint sits inside a region it must avoid")
    if side == 0:
        face = box.lo[axis] - margin
        return axis, None, max(min(face, wp[axis] + clearance), wp[axis])
    face = box.hi[axis] + margin
    return axis, min(max(face, wp[axis] - clearance), wp[axis]), None


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

    state_lb = np.full((K + 1, n), -np.inf)
    state_ub = np.full((K + 1, n), np.inf)
    pair_groups = {}
    for p in plan.pairs:
        pair_groups.setdefault(p.k, []).append(p)
    pair_rows = []
    for k in range(K + 1):
        wp = pts[k]
        lb = np.array(ws.bounds.lo, dtype=float)
        ub = np.array(ws.bounds.hi, dtype=float)
        box = corridor.boxes[k]
        if k > 0 and box is not corridor.boxes[k - 1]:
            prev = corridor.boxes[k - 1]
            door_lb = np.maximum(box.lo, prev.lo)
            door_ub = np.minimum(box.hi, prev.hi)
            if np.any(door_lb > door_ub):
                raise InfeasibleConstraintError(
                    f"corridor boxes at steps {k - 1} and {k} share no "
                    f"doorway")
            # only strictly wide axes can afford the boundary margin;
            # a seam axis stays pinned to the shared face
            wide = door_ub - door_lb > 2.0 * margin
            door_lb = door_lb + wide * margin
            door_ub = door_ub - wide * margin
            raw_lb = np.maximum(lb, door_lb)
            raw_ub = np.minimum(ub, door_ub)
            lb, ub = raw_lb.copy(), raw_ub.copy()
        else:
            raw_lb = np.maximum(lb, box.lo)
            raw_ub = np.minimum(ub, box.hi)
            lb = np.maximum(lb, np.minimum(np.array(box.lo) + margin, wp))
            ub = np.minimum(ub, np.maximum(np.array(box.hi) - margin, wp))
        for pair in pair_groups.get(k, ()):
            prop = pair.prop
            rbox = prop.region.box
            if not prop.negated:
                raw_lb = np.maximum(raw_lb, rbox.lo)
                raw_ub = np.minimum(raw_ub, rbox.hi)
                lb = np.maximum(lb, rbox.lo)
                ub = np.minimum(ub, rbox.hi)
            else:
                axis, flo, fhi = _select_avoid_face(rbox, wp, margin)
                if flo is not None:
                    raw_lb[axis] = max(raw_lb[axis], flo)
                    lb[axis] = max(lb[axis], flo)
                if fhi is not None:
                    raw_ub[axis] = min(raw_ub[axis], fhi)
                    ub[axis] = min(ub[axis], fhi)
            pair_rows.append((k, pair.label, prop))
        if np.any(raw_lb > raw_ub) or np.any(lb > ub):
            raise InfeasibleConstraintError(
                f"constraints at step {k} have empty intersection "
                f"(corridor box against certified regions)")
        state_lb[k, :d] = lb
        state_ub[k, :d] = ub
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
                      pair_rows=tuple(pair_rows))


def initial_guess(problem, waypoints):
    """States and inputs consistent with the waypoints: headings follow
    the displacement directions (continued through standstills and never
    wrapped), inputs come from inverse kinematics clipped to bounds."""
    pts = np.asarray(waypoints, dtype=float)
    K = problem.horizon
    model = problem.model
    tau = model.tau
    states = np.zeros((K + 1, model.state_dim))
    states[:, :model.pos_dim] = pts
    theta = np.empty(K + 1)
    theta[0] = problem.x0[2] if model.state_dim > 2 else 0.0
    diffs = np.diff(pts, axis=0)
    for k in range(K):
        d = diffs[k]
        if np.linalg.norm(d) < 1e-9:
            theta[k + 1] = theta[k]
            continue
        raw = math.atan2(d[1], d[0])
        delta = (raw - theta[k] + math.pi) % (2.0 * math.pi) - math.pi
        theta[k + 1] = theta[k] + delta
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


def _difference_hessian(count, weights):
    # Hessian of sum_j ||y_{j+1} - y_j||^2_w over y in R^(count x len(w))
    if count < 2:
        return sp.csr_matrix((count * len(weights), count * len(weights)))
    D = sp.diags([-np.ones(count - 1), np.ones(count - 1)], [0, 1],
                 shape=(count - 1, count))
    Dk = sp.kron(D, sp.eye(len(weights)), format="csr")
    W = sp.diags(np.tile(np.asarray(weights, dtype=float), count - 1))
    return 2.0 * (Dk.T @ W @ Dk)


def _cost_hessian(problem):
    Hx = _difference_hessian(problem.horizon + 1, problem.r_weights)
    Hu = _difference_hessian(problem.horizon, problem.q_weights)
    return sp.block_diag([Hx, Hu], format="csr")


def _dynamics_jacobian(problem, states, inputs):
    """Sparse Jacobian of the defect residuals c_k = x_{k+1} - f(x_k, u_k)
    with respect to the packed variables."""
    model = problem.model
    K = problem.horizon
    n, m = model.state_dim, model.input_dim
    nx = (K + 1) * n
    A, B = model.jacobians(states[:-1], inputs)
    rows_eye = np.arange(K * n)
    rows_A = np.repeat(rows_eye, n)
    cols_A = (np.tile(np.arange(n), n)[None, :]
              + (np.arange(K) * n)[:, None]).ravel()
    rows_B = np.repeat(rows_eye, m)
    cols_B = (np.tile(np.arange(m), n)[None, :]
              + (np.arange(K) * m)[:, None]).ravel() + nx
    rows = np.concatenate([rows_eye, rows_A, rows_B])
    cols = np.concatenate([rows_eye + n, cols_A, cols_B])
    data = np.concatenate([np.ones(K * n), -A.ravel(), -B.ravel()])
    return sp.coo_matrix((data, (rows, cols)),
                         shape=(K * n, nx + K * m)).tocsr()


def _inner_gauss_newton(problem, z, lb, ub, al, Hq, rho, gtol, max_iter):
    """Minimize one subproblem within the bounds.

    Directions come from the Gauss-Newton model of the augmented
    Lagrangian restricted to the estimated free variables; steps are
    projected back onto the bounds under an Armijo backtracking line
    search, so the subproblem value never increases.
    """
    f, g = al(z)
    nit = 0
    for nit in range(1, max_iter + 1):
        if _projected_gradient_norm(z, g, lb, ub) <= gtol:
            nit -= 1
            break
        S, U = problem.unpack(z)
        J = _dynamics_jacobian(problem, S, U)
        H = Hq + rho * (J.T @ J)
        active = (((z <= lb + 1e-11) & (g > 0.0))
                  | ((z >= ub - 1e-11) & (g < 0.0)))
        free = np.flatnonzero(~active)
        p = np.where(active, 0.0, -g)
        if free.size:
            Hff = (H[free][:, free]
                   + 1e-10 * sp.eye(free.size)).tocsc()
            try:
                step = splu(Hff).solve(-g[free])
            except RuntimeError:
                step = None
            if step is not None and g[free] @ step < 0.0:
                p = np.zeros_like(z)
                p[free] = step
        accepted = False
        alpha = 1.0
        for _ in range(40):
            z_try = np.clip(z + alpha * p, lb, ub)
            f_try, g_try = al(z_try)
            if f_try <= f + 1e-4 * float(g @ (z_try - z)) + 1e-12:
                z, f, g = z_try, f_try, g_try
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
    return z, f, g, nit


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

    def al_value_grad(zvec, lam, rho):
        S, U = problem.unpack(zvec)
        c = problem.residuals(S, U)
        y = lam + rho * c
        f = problem.cost(S, U) + float((lam * c).sum()) \
            + 0.5 * rho * float((c * c).sum())
        gs, gu = problem.cost_grad(S, U)
        A, B = model.jacobians(S[:-1], U)
        gs[1:] += y
        gs[:-1] -= np.einsum("kij,ki->kj", A, y)
        gu -= np.einsum("kij,ki->kj", B, y)
        return f, np.concatenate([gs.ravel(), gu.ravel()])

    Hq = _cost_hessian(problem)
    log = []
    converged = False
    message = "outer iteration budget exhausted"
    viol = np.inf
    # inner stationarity target, loose at first and tightened as the
    # multipliers settle; early subproblems are not worth polishing
    gtol_floor = max(tol.eps_opt / 2.0, 1e-12)
    omega = max(1e-2, gtol_floor)
    for outer in range(1, tol.max_outer + 1):
        fun = lambda zv: al_value_grad(zv, lam, rho)
        merit_start = fun(z)[0]
        z, f_end, g_end, nit = _inner_gauss_newton(
            problem, z, lb, ub, fun, Hq, rho, omega, tol.max_inner)
        S, U = problem.unpack(z)
        c = problem.residuals(S, U)
        viol = float(np.max(np.abs(c))) if c.size else 0.0
        pg = _projected_gradient_norm(z, g_end, lb, ub)
        log.append({"outer": outer, "merit_start": merit_start,
                    "merit_end": f_end, "violation": viol, "rho": rho,
                    "projected_gradient": pg, "gtol": omega,
                    "inner_iterations": nit})
        if viol <= tol.eps_feas and pg <= tol.eps_opt:
            converged = True
            message = "converged"
            break
        lam = lam + rho * c
        if viol > 0.25 * viol_ref and nit < tol.max_inner:
            # the subproblem was solved yet feasibility stalled, so the
            # penalty is too weak; a capped inner solve just continues
            # from its warm start instead
            rho = min(rho * 5.0, 1e8)
            if rho >= 1e8 and viol > 10 * tol.eps_feas:
                message = "penalty limit reached without feasibility"
                break
        else:
            viol_ref = min(viol_ref, viol)
        omega = max(0.3 * omega, gtol_floor)

    S, U = problem.unpack(z)
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
