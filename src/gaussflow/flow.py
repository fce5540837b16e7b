"""Time discretization of the gradient-image evolution problem.

The semidiscrete problem on a grid over Omega reads

    interior node i:  dU_i/dt = G(DU_i, D2U_i)
    boundary node i:  h(DU_i) = 0

with h the defining function of the gradient-image domain and all
derivatives taken from the grid's second-order stencils. Implicit Euler
steps are solved by a chord Newton iteration whose Jacobian rows combine
the operator derivatives G_r (weighting the Hessian stencils) and G_p
(weighting the gradient stencils); boundary rows use Dh(DU) times the
gradient stencils. In one dimension convexity pins the boundary
gradients to the interval ends of the image domain, so those rows are
plain gradient conditions and no root selection arises.

A residual evaluation takes the iterate's gradient and Hessian from one
product with the grid's stacked stencils, component-major (one row of N
node values per component, grid.derivative_rows), and G from its closed
trace form on those rows (geometry.metric_trace); these are the Newton
loop's per-iterate costs once a run factors only a few times. The
Jacobian's weights G_r and G_p, the boundary rows and the accepted
state's jets take the same rows, the one layout of the package, so no
array is transposed or copied between them. A candidate step is
admissible when its Hessian is positive definite, tested on its spectrum
(geometry.eigenvalues_many, in closed form for n <= 2), which the
accepted state's jets keep; the spacelike bound was already enforced by
the residual evaluation at the same gradients.

The Jacobian is filled on a sparsity pattern fixed per grid (the union
of the identity and every stencil, built from the grid's stencil table
on first use) as the sum of the row-weighted stencils: the pattern holds
each stencil's values in its CSC order, so an assembly is one gather of
row weights and one multiply-add per stencil, with no sparse products,
sums or lookups. Entries that are zero in one Jacobian stay in the
pattern as explicit zeros. The Jacobian is factored by sparse LU in the
grid's column ordering: natural for the banded 1D Jacobian, minimum
degree on A^T + A in 2D, which cuts fill against the default COLAMD.
SuperLU runs in symmetric mode with a diagonal pivot threshold of 0.01,
so the pivots stay on the diagonal and the row order is the column
order; the default partial pivoting swaps rows and so adds fill beyond
what the ordering allows.

Newton accepts an iterate once the residual max-norm is at most
max(tol_newton, eps ||J||_inf ||u||_inf), taken at every fresh
factorization from its Jacobian J and iterate u and never lowered
within the attempt. The second term is the backward-error floor of
evaluating the residual on the stencils: interior rows of J are
I - tau (G_p D1 + G_r : D2), so the floor grows with tau and the 1/h^2
of the Hessian stencils, and at large tau it lies above the default
tol_newton. Since ||u||_inf can grow by about tau C_inf over a step, a
floor taken only at the first iterate would be too low at a large
first tau; an iterate that meets the floor raised at its own Jacobian
is accepted before that Jacobian is factored. A tol_newton below the
floor is met at the floor. No guess is accepted unchanged (it would
give u_dot = C and stop a run on a step that did no work), so an attempt
makes at least one chord correction. Short of acceptance, every iterate
must at least halve the residual max-norm (a contraction monitor in the sense
of Deuflhard). An attempt factors its Jacobian once, at its first
iterate, and later iterates reuse the factor (chord Newton): at
32 x 64 one factorization costs as much as about 25 solves with it.
When a step with the reused factor fails to halve the residual, the
Jacobian is refactored at the current iterate; when a step with a
fresh factor fails, the attempt is abandoned and the caller halves
tau after two or three solves, not max_newton.

A factor outlives its attempt only at the ceiling tau = tau_max, where
the run spends its last steps while u settles onto u_inf + C t and the
Jacobian barely changes: an accepted step at tau_max hands its last
factor to the next step, which starts from it as a stale factor, so a
step at the ceiling factors only when the carried factor stops halving
the residual (lagged Jacobians in pseudo-transient continuation, Kelley
and Keyes, 1998). A step that stops halving with the stale factor and
then meets the floor raised at its fresh Jacobian, before that Jacobian
is factored, hands on the stale factor, which served it, so the next
step at the ceiling starts from it without factoring. Below the ceiling tau changes between attempts, so a
factor would be carried to a tau it was not built at; every attempt
there factors afresh. run_to_translator drops the carried
factor when the run ends, and FlowState.copy does not carry it.

Each step starts Newton from u_prev + tau C, C the mean interior rate of
the state (mean_rate), not from u_prev + tau u_dot: the nodewise rate
carries the decaying transient, which at the ceiling shrinks about 17x
per step, so extrapolating it linearly overshoots and starts Newton
farther from the step's solution. The first step starts from u_prev.

Step control is pseudo-transient continuation (Kelley and Keyes, 1998).
The flow is wanted only for its long-time limit, and tau is only a
globalization device with no accuracy to keep, so a run starts at the
ceiling, tau0 = tau_max, and backs off only where Newton fails: tau
halves after a failed attempt and triples (TAU_GROWTH), up to tau_max,
after an attempt that converged on at most one fresh factorization.
The growth test counts factorizations, not chord iterations: a chord
iteration is one pair of triangular solves, and one factor may carry a
slow linear contraction through many of them.

The long-time limit is a translator: u(x, t) -> u_inf(x) + C_inf t. The
run loop declares convergence when the nodewise rate field u_dot has
oscillation (max - min) below tol_c and the boundary residual is below
tol_b, then reports C_inf, the profile normalized to vanish at the
anchor node, and the steady residual max |G - C_inf|. At the ceiling
the mean interior rate converges linearly, and the first step under
tol_c can leave it well short of its limit, so C_inf is the Aitken
delta-squared extrapolation of the last three per-step mean rates when
they contract geometrically (ratio in (0, 0.5)), and the last mean rate
otherwise; the extrapolation costs no extra step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
# spsolve is no longer called here; the benchmark's span tracer
# (perfbench/tracer.py) still looks it up in this module by name.
from scipy.sparse.linalg import splu, spsolve  # noqa: F401

from . import domains as dom
from .errors import (
    ConvexityError,
    NonConvergenceError,
    SpacelikeViolationError,
    StepFailureError,
)
from .geometry import (
    MINKOWSKI,
    SPACELIKE_MARGIN,
    NodalJets,
    eigenvalues_many,
    is_spacelike,
    metric_trace,
)
from .grids import LineGrid, MappedDiskGrid
from .operators import g_derivatives_many

# A Newton attempt is abandoned once the residual max-norm fails to drop
# below this fraction of the previous iterate's (contraction monitor).
STAGNATION_RATIO = 0.5

# Factor by which tau grows after an attempt that converged on at most
# one fresh factorization.
TAU_GROWTH = 3.0


@dataclass
class StepControls:
    """Newton and step-size policy. All values overridable per run.

    ``tol_newton`` bounds the Newton residual max-norm from below by the
    attempt's roundoff floor (``_floor_at``, the largest over its fresh
    factorizations): a value under the floor, 1e-30 say, is met at
    the floor, so it cannot force a Newton failure; ``max_newton = 1``,
    which leaves no room for the one chord correction, does.

    ``tau0`` is the first step's tau. Unset, the run starts at the
    ceiling ``tau_max`` and halves only where Newton fails; a set
    ``tau0`` (at most ``tau_max``) wins.
    """

    tol_newton: float = 1e-10
    max_newton: int = 30
    tol_c: float = 1e-8
    tol_b: float = 1e-9
    tol_r_scale: float = 1e-6
    tau0: float | None = None  # default tau_max: start at the ceiling
    tau_min: float = 1e-14
    tau_max: float = 1.0
    max_steps: int = 100000

    def initial_tau(self) -> float:
        return self.tau_max if self.tau0 is None else self.tau0


class ChordFactor(NamedTuple):
    """Sparse LU of a Newton Jacobian, the tau it was built at and the
    Jacobian's ||J||_inf (for the roundoff floor of the iterates it
    serves)."""

    lu: object
    tau: float
    jac_norm: float


@dataclass
class FlowState:
    """One accepted snapshot of the discrete flow.

    ``jets`` is the state's nodal geometry (``NodalJets`` of u), built
    on first use. It is cached on the instance, not held as a field:
    ``dataclasses.replace`` builds a new state with fresh jets, while
    ``copy`` keeps u and shares them.

    ``factor`` is the chord factor an accepted step at tau_max hands to
    the next step (None otherwise); ``copy`` leaves it behind.
    """

    grid: object
    u: np.ndarray
    t: float
    u_dot: np.ndarray
    tau: float
    steps: int
    sig: str
    omega: dom.ConvexDomain
    omega_tilde: dom.ConvexDomain
    g0_range: tuple[float, float]
    newton_iters: int = 0
    factor: ChordFactor | None = field(default=None, repr=False, compare=False)

    @cached_property
    def jets(self) -> NodalJets:
        return NodalJets(self.grid, self.u, self.sig)

    def copy(self) -> "FlowState":
        new = replace(self, u=self.u.copy(), u_dot=self.u_dot.copy(),
                      factor=None)
        new.jets = self.jets
        return new


@dataclass
class SolitonResult:
    """Converged translator: speed, normalized profile, and diagnostics."""

    c_inf: float
    u_inf: np.ndarray
    residual: float
    steps: int
    wall_seconds: float
    state: FlowState
    history: list = field(default_factory=list, repr=False)


def build_grid(omega: dom.ConvexDomain, grid_spec):
    """Grid over omega: int N for intervals, (n_rho, n_theta) for 2D."""
    if omega.dimension == 1:
        return LineGrid(*dom.interval_ends(omega), int(grid_spec))
    if omega.dimension != 2:
        raise ValueError("full grids support n <= 2; use the radial oracle beyond")
    n_rho, n_theta = grid_spec
    return MappedDiskGrid(dom.spd_inv_sqrt(omega.shape), omega.center,
                          int(n_rho), int(n_theta))


def initialize(omega: dom.ConvexDomain, omega_tilde: dom.ConvexDomain,
               grid_spec, sig: str) -> FlowState:
    """Initial state with the exact affine-compatible quadratic.

    Any two quadrics of matching dimension are images of one another
    under a unique SPD affine map, so
    u0(x) = 0.5 (x - c)^T A (x - c) + c_tilde . x always realizes
    Du0(Omega) = Omega_tilde exactly and is uniformly convex. The state's
    jets start with the Du0 and D2u0 that G0 was evaluated on.
    """
    if omega.dimension != omega_tilde.dimension:
        raise ValueError("omega and omega_tilde must share a dimension")
    _, rad_max = omega_tilde.norm_range
    if not is_spacelike(np.array([rad_max**2]), sig):
        raise ValueError(
            f"omega_tilde reaches |p| = {rad_max:.6g}: the spacelike "
            f"constraint needs it strictly inside the unit ball "
            f"(margin {SPACELIKE_MARGIN:g})"
        )
    grid = build_grid(omega, grid_spec)
    a_mat, shift = dom.spd_affine_map(omega, omega_tilde)
    d = grid.nodes - omega.center
    u0 = 0.5 * np.einsum("ni,ij,nj->n", d, a_mat, d) + grid.nodes @ (
        a_mat @ omega.center + shift
    )
    p, r = grid.derivative_rows(u0)
    g0 = metric_trace(p, r, sig)
    state = FlowState(
        grid=grid, u=u0, t=0.0, u_dot=g0, tau=0.0, steps=0, sig=sig,
        omega=omega, omega_tilde=omega_tilde,
        g0_range=(float(np.min(g0)), float(np.max(g0))),
    )
    state.jets.p, state.jets.r = p, r
    return state


# ---------------------------------------------------------------------------
# Implicit stepping
# ---------------------------------------------------------------------------

def _boundary_rows(state: FlowState, pb: np.ndarray):
    """(values, p-gradients) of the boundary rows at their gradient rows
    pb (n, N_b): h and the rows of Dh in 2D. In 1D convex monotonicity
    pins Du at the ends to the image's ends, so they are p - (lo, hi) and
    the unit slope 1.0; |h(p)| would read 0 at either end."""
    if state.grid.dim == 1:
        return pb[0] - state.omega_tilde.ends, 1.0
    return dom.defining_jet_many(state.omega_tilde, pb)


def _residual(state: FlowState, u: np.ndarray, u_prev: np.ndarray, tau: float):
    """(residual, p, r) at the iterate u: u - u_prev - tau G(p, r) on the
    interior rows, the ``_boundary_rows`` values on the boundary rows,
    and the derivative rows p (n, N) and r (n, n, N) of u."""
    grid = state.grid
    p, r = grid.derivative_rows(u)
    res = u - u_prev - tau * metric_trace(p, r, state.sig)
    bb = grid.boundary
    res[bb], _ = _boundary_rows(state, p[:, bb])
    return res, p, r


def _jacobian(state: FlowState, p: np.ndarray, r: np.ndarray, tau: float):
    """Newton Jacobian of ``_residual``, filled on the grid's fixed pattern.

    Per-row stencil weights: interior rows take 1 on the identity,
    -tau G_p on the gradient stencils and -tau G_r on the Hessian
    stencils; boundary rows take the p-gradient of ``_boundary_rows``
    on the gradient stencils.
    """
    grid = state.grid
    pattern = grid.stencil_pattern
    ndim = grid.dim
    ii, bb = grid.interior, grid.boundary
    g_r, g_p = g_derivatives_many(p, r, state.sig)

    coef = np.zeros((pattern.n_stencils, grid.n_nodes))
    coef[0, ii] = 1.0
    coef[1:1 + ndim, ii] = -tau * g_p[:, ii]
    s = 1 + ndim
    for k in range(ndim):
        for l in range(k, ndim):
            # d_second[k][l] is d_second[l][k]: weight it by both entries
            g_kl = g_r[k, l, ii] if k == l else g_r[k, l, ii] + g_r[l, k, ii]
            coef[s, ii] = -tau * g_kl
            s += 1
    _, dh = _boundary_rows(state, p[:, bb])
    coef[1:1 + ndim, bb] = dh
    return pattern.assemble(coef)


def _inf_norm(jac) -> float:
    """||J||_inf: the row sums of |J|, one pass over the CSC data."""
    rows = np.bincount(jac.indices, weights=np.abs(jac.data),
                       minlength=jac.shape[0])
    return float(np.max(rows))


def _floor_at(jac_norm: float, u: np.ndarray) -> float:
    """eps ||J||_inf ||u||_inf: the residual's backward-error floor.

    The residual is evaluated on the stencils that J carries, so rounding
    u perturbs it by up to this much however well Newton converges.
    ``jac_norm`` is ||J||_inf, taken once per fresh Jacobian and kept in
    its ChordFactor, so a carried factor gives the floor without J.
    """
    return float(np.finfo(float).eps * jac_norm * np.max(np.abs(u)))


def _factor(jac, grid):
    """Sparse LU of a Newton Jacobian in the grid's column ordering.

    SuperLU's symmetric mode with a diagonal pivot threshold of 0.01
    keeps the pivots on the diagonal wherever they are not tiny, so the
    row order follows the symmetric fill-reducing column order (MMD on
    A^T + A in 2D) instead of breaking it with partial pivoting.
    """
    return splu(jac, permc_spec=grid.column_ordering, diag_pivot_thresh=0.01,
                options=dict(SymmetricMode=True))


def _newton_solve(state: FlowState, u_prev: np.ndarray, guess: np.ndarray,
                  tau: float, controls: StepControls,
                  carried: ChordFactor | None = None):
    """Return (u, iterations, factorizations, p, r, factor) or None if
    Newton failed for this tau.

    factorizations counts the attempt's fresh LU factorizations (0 when
    a carried factor served every iterate); p and r are the gradient and
    Hessian of the returned u, which its last residual evaluation
    computed; factor is the ChordFactor in use when u was accepted, or,
    when u was accepted before its fresh Jacobian was factored, the
    stale factor that Jacobian was to replace (None if there was none).

    An iterate is accepted when its residual max-norm is at most
    max(tol_newton, floor), with floor the largest ``_floor_at``
    of the Jacobian and iterate at any fresh factorization so far: below
    the floor the residual only wanders, so a tol_newton under it is met
    at the floor. The floor is raised before the Jacobian is factored,
    and an iterate that meets the raised floor is returned unfactored,
    with the stale factor: it served the iterates up to u, and at the
    ceiling the next step starts from it instead of factoring afresh.
    Neither test accepts the guess itself, before a chord correction.

    Chord Newton: the Jacobian is factored at the first iterate and the
    factor is reused by later iterates. Every iterate must at least
    halve the residual max-norm. When a step with a reused (stale)
    factor fails that test, the Jacobian is refactored at the current
    iterate and the iteration goes on; when a step with a fresh factor
    fails it, the attempt fails, and the caller's tau halving takes over
    at once instead of after max_newton iterations.

    A ``carried`` factor (built at this tau by an earlier step) serves
    the first iterate as a stale one, so the attempt factors only once
    it stops halving the residual; the floor then starts at
    eps ||J||_inf ||guess||_inf with the carried factor's ||J||_inf.
    """
    u = guess.copy()
    prev = np.inf
    tol = controls.tol_newton
    factor = carried
    if factor is not None:
        tol = max(tol, _floor_at(factor.jac_norm, u))
    fresh = False
    stale = None
    n_factors = 0
    for it in range(1, controls.max_newton + 1):
        try:
            res, p, r = _residual(state, u, u_prev, tau)
        except SpacelikeViolationError:
            return None
        if not np.all(np.isfinite(res)):
            return None
        rn = np.max(np.abs(res))
        if rn <= tol and it > 1:
            return u, it, n_factors, p, r, factor
        if rn > STAGNATION_RATIO * prev:
            if fresh:
                return None
            stale, factor = factor, None
        prev = rn
        fresh = factor is None
        if fresh:
            jac = _jacobian(state, p, r, tau)
            jac_norm = _inf_norm(jac)
            tol = max(tol, _floor_at(jac_norm, u))
            if rn <= tol and it > 1:
                return u, it, n_factors, p, r, stale
            try:
                factor = ChordFactor(_factor(jac, state.grid), tau, jac_norm)
            except RuntimeError:  # exactly singular Jacobian
                return None
            n_factors += 1
        delta = factor.lu.solve(res)
        if not np.all(np.isfinite(delta)):
            return None
        u = u - delta
    return None


def step_implicit(state: FlowState, controls: StepControls | None = None) -> FlowState:
    """One accepted implicit Euler step with tau adaptation.

    Newton failure (divergence, a non-finite or spacelike-violating
    iterate, or a residual that stops halving per iteration) or an
    inadmissible candidate halves tau and retries; an attempt that
    converged on at most one fresh factorization grows the next tau by
    TAU_GROWTH up to tau_max, however many chord iterations it took.
    A state without a tau (0, as initialize leaves it) starts at
    controls.initial_tau(). Newton starts from u_prev + tau C with C
    the state's mean_rate (from u_prev at the first step). Underflow
    below tau_min, or a tau too small to advance t, raises
    StepFailureError; a starting tau that is not finite and positive
    raises ValueError, so no step is accepted backwards in time.
    The accepted state's jets start with the gradient and Hessian rows of
    Newton's last residual evaluation and with the Hessian spectrum that
    the admissibility check computed.

    At the ceiling tau = tau_max the step starts Newton from the
    state's carried factor when it was built at that tau, and the
    accepted state carries the attempt's last factor on; below the
    ceiling every attempt factors afresh and no factor is carried, so
    the tau trajectory is the one fresh factors give.
    """
    controls = controls or StepControls()
    tau = state.tau if state.tau > 0 else controls.initial_tau()
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"implicit step needs a finite tau > 0, got {tau!r}")
    u_prev = state.u
    rate = mean_rate(state) if state.steps > 0 else 0.0
    while True:
        if state.t + tau <= state.t:
            raise StepFailureError(
                f"tau = {tau:g} no longer advances t = {state.t:.6g} "
                f"(step {state.steps})"
            )
        guess = u_prev + tau * rate
        carried = state.factor
        if not (tau == controls.tau_max and carried is not None
                and carried.tau == tau):
            carried = None
        got = _newton_solve(state, u_prev, guess, tau, controls, carried)
        if got is not None:
            u_new, iters, n_factors, p, r, factor = got
            # strict convexity; the last residual evaluation, at these
            # gradients, already raised SpacelikeViolationError past the bound
            lam = eigenvalues_many(r)
            if np.min(lam[0]) > 0.0:
                break
        tau *= 0.5
        if tau < controls.tau_min:
            raise StepFailureError(
                f"Newton failed at every tau down to {controls.tau_min:g} "
                f"(t = {state.t:.6g}, step {state.steps})"
            )
    u_dot = (u_new - u_prev) / tau
    tau_next = min(tau * TAU_GROWTH, controls.tau_max) if n_factors <= 1 else tau
    new = replace(
        state, u=u_new, t=state.t + tau, u_dot=u_dot, tau=tau_next,
        steps=state.steps + 1, newton_iters=iters,
        factor=factor if tau == controls.tau_max else None,
    )
    new.jets = NodalJets(state.grid, u_new, state.sig)
    new.jets.p, new.jets.r, new.jets.lam = p, r, lam
    return new


# ---------------------------------------------------------------------------
# Explicit stepping (validation path)
# ---------------------------------------------------------------------------

# Forward Euler is stable for tau up to this multiple of h^2 (times the
# spacelike limiter 1 - max |Du|^2 in the Minkowski case).
EXPLICIT_CFL = 0.2


def step_explicit(state: FlowState, tau: float) -> FlowState:
    """Forward Euler on the interior plus boundary gradient projection.

    Each boundary value is corrected by a scalar Newton solve moving the
    one-sided gradient onto {h = 0}; the derivative of that solve is the
    obliqueness pairing of Dh(Du) with the stencil direction.
    """
    grid = state.grid
    p, r = grid.derivative_rows(state.u)
    if state.sig == MINKOWSKI:
        limiter = 1.0 - np.max(np.sum(p * p, axis=0))
    else:
        limiter = 1.0
    bound = EXPLICIT_CFL * grid.h_ref**2 * limiter
    if tau > bound:
        raise ValueError(
            f"explicit step tau = {tau:g} exceeds the stability bound {bound:g}"
        )
    g = metric_trace(p, r, state.sig)
    u_new = state.u.copy()
    ii = grid.interior
    u_new[ii] += tau * g[ii]

    if grid.dim == 1:
        targets = dom.interval_ends(state.omega_tilde)
        for which, b in enumerate(grid.boundary):
            w = grid.d_first[0][b, b]
            pb = (grid.d_first[0].getrow(b) @ u_new)[0]
            u_new[b] += (targets[which] - pb) / w
    else:
        for b in grid.boundary:
            w = np.array([grid.d_first[k][b, b] for k in range(grid.dim)])
            rows = [grid.d_first[k].getrow(b) for k in range(grid.dim)]
            for _ in range(40):
                pb = np.array([(row @ u_new)[0] for row in rows])
                hb, dhb, _ = dom.defining_jet(state.omega_tilde, pb)
                if abs(hb) < 1e-13:
                    break
                slope = dhb @ w
                u_new[b] -= hb / slope
    u_dot = (u_new - state.u) / tau
    return replace(
        state, u=u_new, t=state.t + tau, u_dot=u_dot, steps=state.steps + 1,
        newton_iters=0,
    )


# ---------------------------------------------------------------------------
# Translator extraction
# ---------------------------------------------------------------------------

def boundary_residual(state: FlowState) -> float:
    """Max over boundary nodes of |boundary condition| (``_boundary_rows``)."""
    hb, _ = _boundary_rows(state, state.jets.p[:, state.grid.boundary])
    return float(np.max(np.abs(hb)))


def mean_rate(state: FlowState) -> float:
    """Mean of u_dot over the interior nodes: the C_inf estimate of a state."""
    return float(np.mean(state.u_dot[state.grid.interior]))


def _extrapolated_rate(rates) -> float:
    """C_inf from the per-step mean rates of a run, oldest first.

    When the last three contract geometrically, that is when the ratio q
    of their last two differences lies in (0, 0.5), Aitken's delta-squared
    adds the tail d q / (1 - q) of the series the last difference d
    starts; otherwise the last mean rate stands.
    """
    if len(rates) >= 3:
        d_prev, d_last = rates[-2] - rates[-3], rates[-1] - rates[-2]
        if d_prev != 0.0:
            q = d_last / d_prev
            if 0.0 < q < 0.5:
                return rates[-1] + d_last * q / (1.0 - q)
    return rates[-1]


def translator_residual(u: np.ndarray, c: float, sig: str, grid) -> float:
    """max over interior nodes of |G(Du, D2u) - c| for a convex field."""
    p, r = grid.derivative_rows(u)
    lam_min = float(np.min(eigenvalues_many(r)[0]))
    if lam_min <= 0.0:
        raise ConvexityError(
            f"translator residual needs a strictly convex field "
            f"(min Hessian eigenvalue {lam_min:.3e})"
        )
    g = metric_trace(p, r, sig)
    return float(np.max(np.abs(g[grid.interior] - c)))


def run_to_translator(state: FlowState, controls: StepControls | None = None,
                      on_accept=None) -> SolitonResult:
    """Advance implicit steps until the rate field is uniform.

    ``on_accept(state)`` fires after every accepted step (monitor hook).
    Raises NonConvergenceError carrying the light per-step history if
    max_steps is exhausted. However the loop ends, the last state drops
    its carried chord factor, so no factor outlives the run.

    The reported C_inf is ``_extrapolated_rate`` of the per-step mean
    rates; u_inf and the steady residual are taken at it.
    """
    controls = controls or StepControls()
    t_start = time.perf_counter()
    state = replace(state, tau=controls.initial_tau())
    history = []
    rates = []
    converged = False
    try:
        for _ in range(controls.max_steps):
            state = step_implicit(state, controls)
            rates.append(mean_rate(state))
            if on_accept is not None:
                on_accept(state)
            osc = float(np.max(state.u_dot) - np.min(state.u_dot))
            bres = boundary_residual(state)
            history.append((state.t, state.tau, osc, bres, state.newton_iters))
            if osc < controls.tol_c and bres < controls.tol_b:
                converged = True
                break
    except StepFailureError as exc:
        raise NonConvergenceError(str(exc), history=history) from exc
    finally:
        state.factor = None
    if not converged:
        raise NonConvergenceError(
            f"no translator after {controls.max_steps} steps "
            f"(osc = {history[-1][2] if history else float('nan'):.3e})",
            history=history,
        )

    c_inf = _extrapolated_rate(rates)
    u_inf = state.u - state.t * c_inf
    u_inf = u_inf - u_inf[state.grid.anchor]
    residual = translator_residual(u_inf, c_inf, state.sig, state.grid)
    tol_r = controls.tol_r_scale * max(1.0, abs(c_inf))
    if residual > tol_r:
        raise NonConvergenceError(
            f"translator residual {residual:.3e} exceeds {tol_r:.3e}",
            history=history,
        )
    return SolitonResult(
        c_inf=c_inf, u_inf=u_inf, residual=residual, steps=state.steps,
        wall_seconds=time.perf_counter() - t_start, state=state,
        history=history,
    )
