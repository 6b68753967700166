"""Direct-transcription trajectory optimization over a corridor.

Decision variables are the states x_0..x_K and inputs u_0..u_{K-1} of a
discrete-time model, packed in time-major order (x_0, u_0, x_1, u_1,
..., u_{K-1}, x_K): the bounds, the gradient, the active set and the
Newton step all index that one vector.  The cost penalizes input
differences and state differences, so the result is a smooth trajectory
threading the waypoints' corridor.  Dynamics enter as equality
constraints driven to feasibility by an augmented Lagrangian outer loop;
every inequality of the problem (workspace, corridor box per step,
region membership or avoidance at certified times, input limits, fixed
initial state) is axis-aligned and folds into per-variable bounds.  Each
subproblem is minimized by projected Gauss-Newton steps: the cost is an
exact quadratic, the penalty contributes rho J'J from the dynamics
Jacobian, and bounds hold exactly at every iterate.  The model is
linearized once per evaluated point, and an accepted point's gradient
and Newton band reuse that linearization.  In the time-major order
the normal equations form a symmetric band of half-width at most 2n+m-1,
held in LAPACK lower band storage; variables held at an active bound are
pinned to a zero step rather than sliced out.  The band lives in a
workspace allocated once per solve: each iteration fills it in place,
LAPACK pbtrf factors it by Cholesky in place (the storage is
Fortran-ordered, so nothing is copied) and pbtrs solves with the factor.
If the factorization fails, the iteration takes the projected gradient
step instead.  SciPy's LAPACK bindings are imported where they are
called, pbtrf inside splu and pbtrs once per solve by _NewtonBand, so
importing this module loads no SciPy and a process that never solves
never pays for it.

Avoidance of a box region is nonconvex; it is enforced by picking, per
certified time, the separating face with the largest clearance at the
waypoint and bounding the coordinate by that face.  The heading is left
unbounded during optimization and is only wrapped for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.linalg import LinAlgError

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
    """Discrete-time model whose batched linearization returns the next
    states together with the state and input Jacobians."""

    state_dim: int
    input_dim: int
    tau: float
    linearize_fn: object
    input_lo: tuple
    input_hi: tuple

    def linearize(self, x, u):
        """(next states, A, B) of the steps from states x under inputs
        u."""
        return self.linearize_fn(np.asarray(x, dtype=float),
                                 np.asarray(u, dtype=float))

    def step(self, x, u):
        return self.linearize(x, u)[0]

    @property
    def speed_limit(self):
        return max(abs(self.input_lo[0]), abs(self.input_hi[0]))


def unicycle_linearize(x, u, tau):
    """One step of the unicycle and its state and input Jacobians: the
    positions advance along the heading at the commanded speed, the
    heading advances at the commanded rate.  The heading's cosine and
    sine are taken once for all three."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    batch = x.shape[:-1]
    v, w = u[..., 0], u[..., 1]
    cos, sin = np.cos(x[..., 2]), np.sin(x[..., 2])
    tv = tau * v
    vcos, vsin = tv * cos, tv * sin
    out = x.copy()
    out[..., 0] += vcos
    out[..., 1] += vsin
    out[..., 2] += tau * w
    A = np.zeros(batch + (3, 3))
    A[..., 0, 0] = 1.0
    A[..., 1, 1] = 1.0
    A[..., 2, 2] = 1.0
    A[..., 0, 2] = -vsin
    A[..., 1, 2] = vcos
    B = np.zeros(batch + (3, 2))
    B[..., 0, 0] = tau * cos
    B[..., 1, 0] = tau * sin
    B[..., 2, 1] = tau
    return out, A, B


def unicycle_model(tau, v_bounds=(-4.0, 4.0),
                   omega_bounds=(-math.pi / 3, math.pi / 3)):
    return DynamicsModel(
        state_dim=3, input_dim=2, tau=tau,
        linearize_fn=partial(unicycle_linearize, tau=tau),
        input_lo=(float(v_bounds[0]), float(omega_bounds[0])),
        input_hi=(float(v_bounds[1]), float(omega_bounds[1])))


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

    def pack(self, states, inputs):
        K, n, m = self.horizon, self.model.state_dim, self.model.input_dim
        z = np.empty((K + 1) * n + K * m)
        S, U = self.unpack(z)
        S[...] = states
        U[...] = inputs
        return z

    def unpack(self, z):
        """States (K+1, n) and inputs (K, m) as strided views into z."""
        K, n, m = self.horizon, self.model.state_dim, self.model.input_dim
        row = (n + m) * z.itemsize
        states = np.ndarray((K + 1, n), buffer=z, strides=(row, z.itemsize))
        inputs = np.ndarray((K, m), buffer=z, offset=n * z.itemsize,
                            strides=(row, z.itemsize))
        return states, inputs

    def flat_bounds(self):
        return (self.pack(self.state_lb, self.input_lb),
                self.pack(self.state_ub, self.input_ub))

    def cost(self, states, inputs):
        du = inputs[1:] - inputs[:-1]
        dx = states[1:] - states[:-1]
        return float((du ** 2 @ self.q_weights).sum()
                     + (dx ** 2 @ self.r_weights).sum())

    def cost_grad(self, states, inputs):
        gs = np.zeros_like(states)
        gu = np.zeros_like(inputs)
        du = (inputs[1:] - inputs[:-1]) * (2.0 * self.q_weights)
        gu[1:] += du
        gu[:-1] -= du
        dx = (states[1:] - states[:-1]) * (2.0 * self.r_weights)
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
    """Per-step position bounds (lb, ub) of shape (K+1, d); see
    build_nlp.

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

    ks = np.array([p.k for p in pairs], dtype=np.intp)
    shape = (len(pairs), pts.shape[1])
    rlo = np.array([p.prop.region.box.lo for p in pairs]).reshape(shape)
    rhi = np.array([p.prop.region.box.hi for p in pairs]).reshape(shape)
    neg = np.array([p.prop.negated for p in pairs], dtype=bool)
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
                f"({pairs[first].label})")
        raise InfeasibleConstraintError(
            f"constraints at step {k} have empty intersection "
            f"(corridor box against certified regions)")
    return lb, ub


def build_nlp(plan, corridor, ws, model, x0, *, q_weights, r_weights):
    """Assemble the transcription for a plan and its corridor.

    plan supplies the waypoints (initialization and relaxation anchors)
    and the certified time/region pairs; the corridor supplies the
    per-step free boxes.  Corridor faces retreat by DEFAULT_MARGIN
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
    empty intersection.  Inputs that disagree (the corridor's or x0's
    shape, the model's step, a pair off the plan's steps) raise
    OptimizationError.
    """
    pts = plan.waypoints.positions
    K = len(pts) - 1
    if len(corridor.boxes) != K + 1:
        raise OptimizationError("corridor and plan lengths disagree")
    if model.tau != plan.waypoints.tau:
        raise OptimizationError(f"model step {model.tau} s differs from the "
                                f"plan's grid step {plan.waypoints.tau} s")
    for p in plan.pairs:
        if not 0 <= p.k <= K:
            raise OptimizationError(f"pair {p.label} at step {p.k} lies "
                                    f"outside the plan's steps 0..{K}")
    n, d = model.state_dim, pts.shape[1]
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise OptimizationError(f"initial state must have {n} entries")
    if not np.allclose(x0[:d], pts[0], atol=1e-9):
        raise OptimizationError("initial state does not match the first "
                                "waypoint")

    lb, ub = _position_bounds(pts, corridor, ws, plan.pairs, DEFAULT_MARGIN)
    state_lb = np.full((K + 1, n), -np.inf)
    state_ub = np.full((K + 1, n), np.inf)
    state_lb[:, :d] = lb
    state_ub[:, :d] = ub
    state_lb[0] = x0
    state_ub[0] = x0

    input_lb = np.tile(np.asarray(model.input_lo, dtype=float), (K, 1))
    input_ub = np.tile(np.asarray(model.input_hi, dtype=float), (K, 1))
    return NlpProblem(model=model, horizon=K, x0=x0,
                      state_lb=state_lb, state_ub=state_ub,
                      input_lb=input_lb, input_ub=input_ub,
                      q_weights=np.asarray(q_weights, dtype=float),
                      r_weights=np.asarray(r_weights, dtype=float))


def initial_guess(problem, waypoints):
    """Unicycle states and inputs consistent with the waypoints:
    headings follow the displacement directions (continued through
    standstills and never wrapped), inputs come from inverse kinematics
    clipped to bounds.

    The step norms and standstill tests run as arrays; only the heading
    recurrence, which carries each heading into the next, walks the
    steps, on plain floats.
    """
    pts = np.asarray(waypoints, dtype=float)
    tau = problem.model.tau
    diffs = np.diff(pts, axis=0)
    still = (np.linalg.norm(diffs, axis=1) < 1e-9).tolist()
    angle = float(problem.x0[2])
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
    heading = np.stack([np.cos(theta[:-1]), np.sin(theta[:-1])], axis=1)
    inputs = np.column_stack([(diffs * heading).sum(axis=1) / tau,
                              np.diff(theta) / tau])
    inputs = np.clip(inputs, problem.input_lb, problem.input_ub)
    states = np.clip(np.column_stack([pts, theta]), problem.state_lb,
                     problem.state_ub)
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


class _Bounds:
    """Packed bounds lb, ub and the shifted copies that the inner
    iteration's bound tests compare against, computed once per solve."""

    def __init__(self, lb, ub):
        self.lb, self.ub = lb, ub
        self._active = (lb + 1e-11, ub - 1e-11)
        self._stationary = (lb + 1e-12, ub - 1e-12)

    @staticmethod
    def _blocked(z, g, lo, hi):
        # at or below lo with the descent direction -g pointing down, or
        # at or above hi with it pointing up
        return ((z <= lo) & (g > 0.0)) | ((z >= hi) & (g < 0.0))

    def active(self, z, g):
        """Variables at a bound that the gradient pushes against."""
        return self._blocked(z, g, *self._active)

    def projected_gradient_norm(self, z, g):
        """Largest |g_i| over the variables whose descent direction no
        bound blocks; 0 when there is none."""
        blocked = self._blocked(z, g, *self._stationary)
        return float(np.where(blocked, 0.0, np.abs(g)).max(initial=0.0))


# perfbench times factorizations under this name; the rename waits for
# the benchmark change in ROADMAP item 2
def splu(ab):
    """Cholesky factor of a symmetric positive definite band in LAPACK
    lower band storage, computed by LAPACK pbtrf in place: ab is
    overwritten by its factor, which is returned.  ab must be
    Fortran-ordered, as _NewtonBand.matrix returns it; otherwise the
    factor lands in a copy.  Raises LinAlgError when a leading minor is
    not positive definite."""
    from scipy.linalg.lapack import dpbtrf

    factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise LinAlgError(f"leading minor {info} of the band is not "
                          f"positive definite")
    return factor


class _NewtonBand:
    """The Gauss-Newton matrix Hq + rho J'J of one problem in LAPACK
    lower band storage, filled in a workspace allocated once per solve.

    In the packed order step k's defect touches only the contiguous
    window (x_k, u_k, x_{k+1}), so the matrix is a band of half-width at
    most bw = 2n+m-1, stored as ab[d, j] = H[j + d, j] for d = 0..bw.
    The workspace holds that storage transposed, as an (N, 2n+m) C
    array: its transpose is Fortran-ordered, so LAPACK factors it in
    place with no copy.  Hq is a constant band built once.

    Each iteration writes J_k = [-A_k, -B_k, I] and its transpose into
    buffers whose identity blocks are written once, and forms every
    J_k'J_k with one matmul of contiguous operands.  That call stays as
    it is: OpenBLAS's kernel fuses multiply and add, so an elementwise
    or einsum product differs in the last bit.  One gather moves window
    k's lower triangle into rows k(n+m) .. k(n+m)+n+m-1 of the band.
    The rows of x_{k+1} are shared with window k+1; there window k's
    block is I'I = I exactly, so it adds 1 to their diagonal.  The band
    is scaled by rho and Hq added, in place.  Active variables are
    pinned (their rows and columns replaced by the identity's, with a
    zero right-hand side) instead of sliced out; few are active, so
    only their slots are touched.  The band and the solution are
    overwritten by the next call.
    """

    def __init__(self, problem):
        from scipy.linalg.lapack import dpbtrs

        self._pbtrs = dpbtrs
        model = problem.model
        K, n, m = problem.horizon, model.state_dim, model.input_dim
        N = (K + 1) * n + K * m
        s, w = n + m, 2 * n + m
        # variable j and its difference partner j + s, for j < N - s
        pairs = max(N - s, 0)
        weights = 2.0 * np.tile(np.concatenate([problem.r_weights,
                                                problem.q_weights]),
                                K + 1)[:pairs]
        hq = np.zeros((N, w))
        hq[:pairs, 0] += weights
        hq[N - pairs:, 0] += weights
        hq[:pairs, s] = -weights
        # + 0.0 turns the -0.0 of a zero weight into +0.0, so a zero of
        # Hq + rho J'J is +0.0 whatever the sign of the zero in J'J
        self._hq = hq + 0.0
        self.hq = self._hq.T

        self._Jk = np.zeros((K, n, w))
        self._Jk[:, :, s:] = np.eye(n)
        self._JT = np.zeros((K, w, n))
        self._JT[:, s:, :] = np.eye(n)
        # the J_k'J_k, then one zero for the band slots no window fills
        self._jtj = np.zeros(K * w * w + 1)
        self._JtJ = self._jtj[:-1].reshape(K, w, w)
        # band row k*s + b, column d holds window k's entry (b + d, b)
        k, b, d = np.ogrid[:K + 1, :s, :w]
        self._gather = np.where((k < K) & (b + d < w),
                                k * w * w + (b + d) * w + b,
                                K * w * w).reshape(-1, w)[:N]
        self._shared = np.zeros(N)
        self._shared[(s * np.arange(1, K + 1)[:, None]
                      + np.arange(n)).ravel()] = 1.0
        self._band = np.empty((N, w))
        self._diag = self._band[:, 0]
        # flat slots of variable j's column (j*w + d) and row
        # ((j - d)*w + d, negative before the first column) of the band
        self._pin_slots = np.concatenate([np.arange(w),
                                          -(w - 1) * np.arange(1, w)])
        self._pinned = np.empty(0, dtype=np.intp)
        self._rhs = np.empty(N)

    def matrix(self, A, B, rho, active):
        """Hq + rho J'J + 1e-10 I in time-major lower band storage with
        the active variables pinned, as a Fortran-ordered view of the
        workspace."""
        n = A.shape[1]
        s = n + B.shape[2]
        Jk, band, diag = self._Jk, self._band, self._diag
        np.negative(A, out=Jk[:, :, :n])
        np.negative(B, out=Jk[:, :, n:s])
        np.copyto(self._JT[:, :s], Jk[:, :, :s].transpose(0, 2, 1))
        np.matmul(self._JT, Jk, out=self._JtJ)
        np.take(self._jtj, self._gather, out=band, mode="clip")
        diag += self._shared
        band *= rho
        band += self._hq
        diag += 1e-10
        # multiplied by 0 as a full 0/1 mask would be, so every zero of
        # a pinned row or column keeps the sign of the value it replaces
        pinned = self._pinned = np.flatnonzero(active)
        slots = (band.shape[1] * pinned)[:, None] + self._pin_slots
        flat = band.reshape(-1)
        flat[slots[slots >= 0]] *= 0.0
        diag[pinned] = 1.0
        return band.T

    def step(self, g, A, B, rho, active):
        """Gauss-Newton step on the free variables, exactly 0 on the
        active ones; None if the factorization fails."""
        if active.all():
            return np.zeros_like(g)
        try:
            factor = splu(self.matrix(A, B, rho, active))
        except LinAlgError:
            return None
        rhs = np.negative(g, out=self._rhs)
        rhs[self._pinned] = 0.0
        x, _ = self._pbtrs(factor, rhs, lower=1, overwrite_b=1)
        return x


def _inner_gauss_newton(z, bounds, al, al_grad, newton, rho, gtol,
                        max_iter):
    """Minimize one subproblem within the bounds.

    Directions come from the Gauss-Newton model of the augmented
    Lagrangian restricted to the estimated free variables; steps are
    projected back onto the bounds under an Armijo backtracking line
    search, so the subproblem value never increases.  al(z) linearizes
    the dynamics at z once and returns the value, the defects c and the
    point (S, U, A, B): the states, the inputs and the Jacobian blocks.
    al_grad(c, point) builds the gradient from those alone; it runs only
    at the start iterate and at accepted ones, never for a rejected
    trial, and the Newton band takes A and B from the same point.  Where
    the factorization fails or its step is no descent direction, the
    projected gradient step is taken instead; those iterations are
    counted as fallbacks.

    Returns the final iterate, the value at the start and at the end,
    the defects and the projected gradient norm at the end, and the
    counts for the solver log: iterations, fallbacks, and the variables
    that entered and left the active set between consecutive iterations.
    """
    lb, ub = bounds.lb, bounds.ub
    f, c, point = al(z)
    g = al_grad(c, point)
    pg = bounds.projected_gradient_norm(z, g)
    f_start = f
    nit = fallbacks = entered = left = 0
    previous = None
    for nit in range(1, max_iter + 1):
        if pg <= gtol:
            nit -= 1
            break
        active = bounds.active(z, g)
        if previous is not None:
            changed = int(np.count_nonzero(active != previous))
            joined = int(np.count_nonzero(active & ~previous))
            entered += joined
            left += changed - joined
        previous = active
        p = np.where(active, 0.0, -g)
        step = newton.step(g, *point[2:], rho, active)
        if step is not None and g @ step < 0.0:
            p = step
        else:
            fallbacks += 1
        alpha = 1.0
        for _ in range(40):
            z_try = np.clip(z + alpha * p, lb, ub)
            f_try, c_try, point_try = al(z_try)
            if f_try <= f + 1e-4 * float(g @ (z_try - z)) + 1e-12:
                z, f, c, point = z_try, f_try, c_try, point_try
                g = al_grad(c, point)
                pg = bounds.projected_gradient_norm(z, g)
                break
            alpha *= 0.5
        else:
            break
    return z, f_start, f, c, pg, {
        "inner_iterations": nit, "newton_fallbacks": fallbacks,
        "active_entered": entered, "active_left": left}


def solve_nlp(problem, init, tolerances):
    """Augmented Lagrangian solve of the transcription.

    Only the dynamics equalities carry multipliers; each inner problem
    is bound-constrained and minimized by projected Gauss-Newton with
    the analytic gradient, so box constraints hold exactly in the
    returned solution.  Multipliers update every outer iteration and
    the penalty grows when feasibility progress stalls; the merit value
    of an outer iteration never rises between its start and its end.
    """
    states, inputs = init
    z = problem.pack(states, inputs)
    lb, ub = problem.flat_bounds()
    z = np.clip(z, lb, ub)
    bounds = _Bounds(lb, ub)
    model = problem.model
    K = problem.horizon
    n = model.state_dim

    lam = np.zeros((K, n))
    rho = 10.0
    viol_ref = np.inf

    # numpy runs the model and the cost several times faster on
    # contiguous copies than on unpack's strided views
    def al_value(zvec):
        S, U = map(np.ascontiguousarray, problem.unpack(zvec))
        nxt, A, B = model.linearize(S[:-1], U)
        c = S[1:] - nxt
        f = problem.cost(S, U) + float((lam * c).sum()) \
            + 0.5 * rho * float((c * c).sum())
        return f, c, (S, U, A, B)

    def al_grad(c, point):
        S, U, A, B = point
        y = lam + rho * c
        gs, gu = problem.cost_grad(S, U)
        gs[1:] += y
        gs[:-1] -= np.einsum("kij,ki->kj", A, y)
        gu -= np.einsum("kij,ki->kj", B, y)
        return problem.pack(gs, gu)

    newton = _NewtonBand(problem)
    log = []
    converged = False
    message = "outer iteration budget exhausted"
    c = problem.residuals(*problem.unpack(z))
    # inner stationarity target, loose at first and tightened as the
    # multipliers settle; early subproblems are not worth polishing
    gtol_floor = max(tolerances.eps_opt / 2.0, 1e-12)
    omega = max(1e-2, gtol_floor)
    for outer in range(1, tolerances.max_outer + 1):
        z, merit_start, f_end, c, pg, counts = _inner_gauss_newton(
            z, bounds, al_value, al_grad, newton, rho, omega,
            tolerances.max_inner)
        viol = float(np.max(np.abs(c))) if c.size else 0.0
        log.append({"outer": outer, "merit_start": merit_start,
                    "merit_end": f_end, "violation": viol, "rho": rho,
                    "projected_gradient": pg, "gtol": omega, **counts})
        if viol <= tolerances.eps_feas and pg <= tolerances.eps_opt:
            converged = True
            message = "converged"
            break
        lam = lam + rho * c
        if viol > 0.25 * viol_ref:
            rho = min(rho * 5.0, 1e8)
            if rho >= 1e8 and viol > 10 * tolerances.eps_feas:
                message = "penalty limit reached without feasibility"
                break
        else:
            viol_ref = viol
        omega = max(0.3 * omega, gtol_floor)

    S, U = problem.unpack(z)
    defect = np.max(np.abs(c), axis=1)
    if not converged and K:
        k = int(np.argmax(defect))
        message += f" (worst defect {defect[k]:.2e} at step {k})"
    return NlpSolution(states=S, inputs=U, cost=problem.cost(S, U),
                       max_violation=float(defect.max(initial=0.0)),
                       outer_iterations=len(log),
                       converged=converged, message=message, log=log)


def evaluate_solution(problem, states, inputs):
    """Re-evaluate the constraints outside the solver: the worst
    dynamics defect and the worst bound violation."""
    states = np.asarray(states, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    c = problem.residuals(states, inputs)
    dyn = float(np.max(np.abs(c))) if c.size else 0.0
    z = problem.pack(states, inputs)
    lb, ub = problem.flat_bounds()
    bound = float(np.max(np.maximum(lb - z, z - ub)))
    return {"dynamics_violation": dyn, "bound_violation": max(bound, 0.0)}
