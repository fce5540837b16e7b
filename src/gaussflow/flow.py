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

The equation is the state's operator state.op (operators.FlowOperator):
G, its weights G_r and G_p, the boundary rows and the admissible set,
each on the component-major rows of one product with the grid's stacked
stencils (grid.derivative_rows), so no array is transposed or copied
between them. A step is admissible when its Hessian is positive definite
on the interior rows, the rows whose equation holds it; the boundary
rows' one-sided Hessians enter no equation and are not tested. The
admissibility test reads the spectrum of every node off the jets, which
keep it, and op.value already enforced the spacelike bound at the same
gradients.

The Jacobian is filled on a sparsity pattern fixed per grid (the union
of the identity and every stencil, built from the grid's stencil table
on first use) as the sum of the row-weighted stencils: the pattern holds
each stencil's values in its CSC order, so an assembly is one gather of
row weights and one multiply-add per stencil, with no sparse products,
sums or lookups. Entries that are zero in one Jacobian stay in the
pattern as explicit zeros.

The grid factors the Jacobian (grid.factor), and grids.build_grid picks
and shares the grid of a domain, so this module names no grid class and
has no branch on the grid. A line grid takes SuperLU in its natural
column ordering, which gives the banded 1D Jacobian the least fill.
SuperLU runs in symmetric mode with a diagonal pivot threshold of 0.01,
so the pivots stay on the diagonal and the row order is the column
order. A disk grid factors only M, the Jacobian's average over the angle
(its block-circulant part), which an FFT in theta splits into one banded
system over the rings per angular mode; its solve iterates on M until
the linear residual falls to grids.INNER_RTOL times the right-hand
side's. For a centred ball onto a centred ball J = M to roundoff, and
the solve is one application of M^{-1}. Where an inner iteration fails
to halve the linear residual (grids.INNER_RATIO), as on a narrow base
ellipse, the disk's factor becomes the SuperLU of J in minimum degree
order on A^T + A (grids.FourierChordFactor).

Newton accepts an iterate once the residual max-norm is at most
max(tol, eps ||J||_inf ||u||_inf), taken at every fresh factorization
from its Jacobian J and iterate u and never lowered within the attempt.
The first term is the attempt's tolerance, a number its caller gives:
step_implicit passes max(tol_newton, tau rate_tol), rate_tol = FORCING
osc in a run (below). The second term is the backward-error floor of
evaluating the residual on the stencils: interior rows of J are
I - tau (G_p D1 + G_r : D2), so the floor grows with tau and the 1/h^2
of the Hessian stencils, and at large tau it lies above the default
tol_newton. Since ||u||_inf grows by about tau C_inf over the first
step, whose predictor shift is 0 (below), a floor taken only at the
first iterate would be too low at a large first tau; an iterate that
meets the floor raised at its own Jacobian is accepted before that
Jacobian is factored. A tolerance below the
floor is met at the floor. No guess is accepted unchanged (it would
give u_dot = C and stop a run on a step that did no work), so an attempt
makes at least one chord correction. Short of acceptance, every iterate
must at least halve the residual max-norm (a contraction monitor in the sense
of Deuflhard). An attempt factors its Jacobian once, at its first
iterate, and later iterates reuse the factor (chord Newton).
When a step with the reused factor fails to halve the residual, the
Jacobian is refactored at the current iterate; when a step with a
fresh factor fails, the attempt is abandoned and the caller halves
tau after two or three solves, not max_newton.

A factor outlives its attempt only at the ceiling tau = tau_max, where
the run spends its last steps while u settles onto u_inf up to a
constant and the Jacobian barely changes: an accepted step at tau_max
hands its last factor (the stale one, if it was accepted before its
fresh Jacobian was factored) to the next step, which starts from it, so
a step at the ceiling factors only when the carried factor stops
halving the residual (lagged Jacobians in pseudo-transient
continuation, Kelley and Keyes, 1998). Below the ceiling tau changes
between attempts, and every attempt factors afresh. The factor is run
state: run_to_translator keeps it in a carry list for the run and hands
the list to each step_implicit call, never to a FlowState.

Each step solves from u_prev = u - u[anchor], so a state carries u up
to a constant and the floor does not grow with ||u||_inf drifting as
t C. Newton solves for the step's correction about the predictor u_prev
+ tau C, C the mean interior rate of the state (mean_rate), not for the
new height itself: its unknown is v = u_new - tau C, its guess is
u_prev, its interior rows read v - (u_prev - tau C) - tau G(v) (the
stencils annihilate the constant tau C, so G(v) = G(u_new)), u_dot =
(v - (u_prev - tau C)) / tau, and the accepted state stores v as its u,
still u up to a constant. So the iterate, the floor eps ||J||_inf
||v||_inf and the rounding of the stored u have the size of u_inf, not
of u_inf + tau C, whose rounding the 1/h^2 of the stencils would lift
into the translator residual on fine grids. The predictor is tau C, not
tau u_dot: the nodewise rate carries the decaying transient, which
shrinks by a large factor per step at the ceiling, so extrapolating it
linearly overshoots and starts Newton farther from the step's solution.
The first step's C is 0.

Each height is evaluated once, into one record (Evaluation, built by
_evaluate): its jets from one stencil product, G at them, and the
boundary rows' values and p-gradients from one op.boundary call. Newton
forms its residual (_residual) and its Jacobian (_jacobian) from an
iterate's record, and the accepted state keeps Newton's last record as
its own (FlowState.ev); initialize keeps the record of u0. The guess
u_prev differs from the state's u by a constant, which the stencils
annihilate, so its record is the state's up to roundoff: every attempt,
a retry after a tau halving included, starts from state.ev and
evaluates the stencils only at its corrected iterates. The first iterate
still counts as an iterate. The explicit step and the steady residual
read the state's record too.

Step control is pseudo-transient continuation (Kelley and Keyes, SIAM
J. Numer. Anal. 35, 1998). The flow is wanted only for its long-time
limit, and tau is only a globalization device with no accuracy to keep,
so a run starts at the ceiling, tau0 = tau_max, and backs off only
where Newton fails: tau halves after a failed attempt and triples
(TAU_GROWTH), up to tau_max, after an attempt that converged on at most
one fresh factorization. The growth test counts factorizations, not
chord iterations: a chord iteration is one pair of triangular solves,
and one factor may carry a slow linear contraction through many of
them.

The step controls have the units of the base domain Omega. A translator
has no length scale: over Omega scaled by R it is R u_1(x / R) with
speed C / R, and its slowest mode relaxes in a time that grows like R^2.
So StepControls states its values for a base domain of unit volume, and
a run applies them in units of l = |Omega|^(1/n)
(StepControls.for_domain): tau0, tau_min and tau_max times l^2,
tol_newton times l, tol_c over l. state.tau, t and the artifacts stay
absolute. A unit interval (l = 1) runs on the values as given, and the
unit disk (l = sqrt(pi)) has the ceiling 10 pi. In the domain's units a
ball of any radius R takes the unit ball's steps, with the same C R.

For the same reason an early step needs no tight solve: it only has to
remove part of a transient that the next steps go on removing. The run
solves each step inexactly, to a residual max-norm of tau FORCING osc
(FORCING = 1e-3, osc the oscillation of the u_dot the step starts from,
that of G0 at the first step) or tol_newton, whichever is larger. This
is a forcing term in the sense of Eisenstat and Walker (SIAM J. Sci.
Comput. 17, 1996), tied to the transient: the residual of an implicit
Euler step is tau times the error of its u_dot, so the step leaves an
error of about FORCING osc in u_dot. At the default ceiling the term
reaches tol_newton once osc < tol_newton / (FORCING tau_max) = tol_c,
all three in the base domain's units (1e-8 on a unit interval, 1e-8 /
sqrt(pi) on the unit disk), so a run's last step, which starts from a
state whose osc is at least tol_c, is solved to tau FORCING osc of that
state and leaves a thousandth of its oscillation in the u_dot that
C_inf is read from. Every step_implicit call made without a rate_tol,
such as the probe step of monitors.duality_rate_defect, is solved to
tol_newton. The intermediate states are not exact: their rows in
monitors.csv move in the digits the forcing term leaves free, and their
newton_iters are smaller.

The long-time limit is a translator: u(x, t) -> u_inf(x) + C_inf t. The
run loop declares convergence when the nodewise rate field u_dot has
oscillation (max - min) below tol_c (in the base domain's units) and
the boundary residual is below tol_b, then reports C_inf, the profile
u_inf = u - u[anchor] (never u - t C, whose rounding the stencils
amplify) and the steady residual max |G - C_inf| at the last state's
own G. At the ceiling the mean interior rate converges
linearly, and the first step under tol_c can leave it well short of its
limit, so C_inf is the Aitken delta-squared extrapolation of the last
three per-step mean rates when they contract geometrically (ratio in
(0, 0.5)), and the last mean rate otherwise; the extrapolation costs no
extra step.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
# spsolve is no longer called here; the benchmark's span tracer
# (perfbench/tracer.py) still looks it up in this module by name.
from scipy.sparse.linalg import spsolve  # noqa: F401

from . import domains as dom
from .errors import (
    ConvexityError,
    NonConvergenceError,
    SpacelikeViolationError,
    StepFailureError,
)
from .geometry import NodalJets
from .grids import build_grid
from .operators import FlowOperator

# A Newton attempt is abandoned once the residual max-norm fails to drop
# below this fraction of the previous iterate's (contraction monitor).
STAGNATION_RATIO = 0.5

# Factor by which tau grows after an attempt that converged on at most
# one fresh factorization.
TAU_GROWTH = 3.0

# Forcing term of run_to_translator's inexact steps: a step from a state
# whose rate field oscillates by osc is solved to a residual max-norm of
# tau FORCING osc (or tol_newton, whichever is larger).
FORCING = 1e-3


@dataclass(frozen=True)
class StepControls:
    """Newton and step-size policy, immutable and checked on construction.

    ``tol_newton`` is the Newton residual max-norm a step is solved to
    when nothing looser is asked for: step_implicit without a rate_tol
    solves every step to it, and run_to_translator solves an early step
    to the larger forcing term tau FORCING osc and its last steps, once
    that term falls below tol_newton, to tol_newton. The attempt's
    roundoff floor (``_floor_at``, the largest over its fresh
    factorizations) bounds either from below: a value under the floor,
    1e-30 say, is met at the floor, so it cannot force a Newton failure;
    ``max_newton = 1``, which leaves no room for the one chord
    correction, does.

    ``tau0`` is the first step's tau. Unset, the run starts at the
    ceiling ``tau_max`` and halves only where Newton fails; a set
    ``tau0`` (at most ``tau_max``) wins. The ceiling is 10: the flow is
    wanted only for its long-time limit, and at the ceiling implicit
    Euler damps the slowest mode by 1 / (1 + tau_max mu_1) per step, so
    a higher ceiling takes fewer last steps. Newton solves for the
    step's correction about the predictor tau C (``step_implicit``), so
    neither the iterate nor its roundoff floor grows with tau, and the
    audit tolerance reads min(tau_max, 1) (``monitors.RunMonitor``), so
    no ceiling above 1 loosens an audit. Every set field is finite and
    positive, and a field annotated ``int`` holds a ``numbers.Integral``.
    Only a run's input builds one; ``_newton_solve`` takes plain numbers.

    The values are stated for a base domain of unit volume. A run applies
    them in the units of its own base domain Omega, length unit l =
    |Omega|^(1/n) (``ConvexDomain.length_unit``: 1 for a unit interval,
    sqrt(pi) for the unit disk), through ``for_domain``: a translator
    over Omega scaled by R is R u_1(x / R) with speed C / R, so times
    scale like l^2, heights like l and rates like 1 / l. Read so, the
    defaults give the unit disk a ceiling of 10 pi, and a base domain of
    any size the step counts of the unit one.
    """

    tol_newton: float = 1e-10
    max_newton: int = 30
    tol_c: float = 1e-8
    tol_b: float = 1e-9
    tol_r: float = 1e-6  # steady residual gate, times max(1, |C_inf|)
    tau0: float | None = None  # default tau_max: start at the ceiling
    tau_min: float = 1e-14
    tau_max: float = 10.0
    max_steps: int = 100000

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if f.type == "int" and (isinstance(val, bool)
                                    or not isinstance(val, numbers.Integral)):
                raise ValueError(f"{f.name} must be an integer, got {val!r}")
            if val is not None and not 0 < val < np.inf:  # false for nan
                raise ValueError(f"{f.name} must be finite and positive, got {val}")
        if not self.tau_min < self.tau_max:
            raise ValueError(f"tau_min = {self.tau_min:g} must be below "
                             f"tau_max = {self.tau_max:g}")
        if self.initial_tau() > self.tau_max:
            raise ValueError(f"tau0 = {self.tau0:g} exceeds tau_max = {self.tau_max:g}")

    def initial_tau(self) -> float:
        return self.tau_max if self.tau0 is None else self.tau0

    def for_domain(self, omega: dom.ConvexDomain) -> StepControls:
        """These controls in the absolute units of a run on the base domain
        omega, l = omega.length_unit: tau0, tau_min and tau_max times l^2,
        tol_newton (a height) times l, tol_c (a rate) over l. tol_b is
        dimensionless and tol_r reads max(1, |C_inf|), so they stay, and
        so do the counts. A domain of unit volume runs on these controls
        themselves, which every step of a run would otherwise copy and
        check again."""
        ell = omega.length_unit
        area = omega.volume ** (2.0 / omega.dimension)  # pi for the unit disk
        if ell == area == 1.0:
            return self
        return replace(
            self, tol_newton=self.tol_newton * ell, tol_c=self.tol_c / ell,
            tau0=None if self.tau0 is None else self.tau0 * area,
            tau_min=self.tau_min * area, tau_max=self.tau_max * area)


class ChordFactor(NamedTuple):
    """The grid's factor of a Newton Jacobian (``_factor``) and the
    Jacobian's ||J||_inf (for the roundoff floor of the iterates it
    serves)."""

    solver: object
    jac_norm: float


@dataclass
class FlowState:
    """One accepted snapshot of the discrete flow, a value: no code
    changes a state's arrays in place and no solver cache rides on it,
    so its holders keep the state itself.

    ``ev`` is the record of u (``Evaluation``, built by ``_evaluate``,
    the one place a height becomes jets): its nodal geometry ``jets``,
    ``G`` = ``op.value`` at the jets and the boundary rows' values ``hb``
    and p-gradients; ``jets``, ``G`` and ``hb`` read it. ``initialize``
    keeps the record of u0 and a step keeps Newton's last record, whose
    jets carry the spectrum of the admissibility test, and the next
    step's first iterate reuses it (``step_implicit``). It is cached on
    the instance, not held as a field: ``dataclasses.replace`` builds a
    new state that evaluates its own on first use, so no state carries
    the record of another u.

    ``op`` is the flow's equation, built by ``initialize`` and carried
    from step to step; ``sig`` and ``omega_tilde`` read it.

    ``u`` is the height up to a constant: an implicit step stores its
    Newton unknown u_new - tau C (``step_implicit``). The solver reads
    u - u[anchor] or the derivatives of u, and the artifacts write u as
    it is.
    ``anchor`` is the node the steps solve from (u - u[anchor]) and the
    translator profile vanishes at. ``initialize`` takes the grid's
    default; an override is set with ``replace``, never on the grid,
    which the live states on its domain share.
    """

    grid: object
    u: np.ndarray
    t: float
    u_dot: np.ndarray
    tau: float
    steps: int
    op: FlowOperator
    omega: dom.ConvexDomain
    anchor: int
    newton_iters: int = 0

    sig = property(lambda self: self.op.sig)
    omega_tilde = property(lambda self: self.op.omega_tilde)

    @cached_property
    def ev(self) -> Evaluation:
        return _evaluate(self.grid, self.op, self.u)

    jets = property(lambda self: self.ev.jets)
    G = property(lambda self: self.ev.G)
    hb = property(lambda self: self.ev.hb)


@dataclass
class SolitonResult:
    """Converged translator: speed, normalized profile, and diagnostics."""

    c_inf: float
    u_inf: np.ndarray
    residual: float
    steps: int
    wall_seconds: float
    state: FlowState


def initialize(omega: dom.ConvexDomain, omega_tilde: dom.ConvexDomain,
               grid_spec, sig: str) -> FlowState:
    """Initial state with the exact affine-compatible quadratic.

    Any two quadrics of matching dimension are images of one another
    under a unique SPD affine map, so
    u0(x) = 0.5 (x - c)^T A (x - c) + c_tilde . x always realizes
    Du0(Omega) = Omega_tilde exactly and is uniformly convex. The state
    keeps the one evaluation of u0 as its record, and its rate u_dot is
    that record's G0 = G(Du0, D2u0).
    """
    if omega.dimension != omega_tilde.dimension:
        raise ValueError("omega and omega_tilde must share a dimension")
    op = FlowOperator(sig, omega_tilde)
    grid = build_grid(omega, grid_spec)
    a_mat, shift = dom.spd_affine_map(omega, omega_tilde)
    d = grid.nodes - omega.center
    u0 = 0.5 * np.einsum("ni,ij,nj->n", d, a_mat, d) + grid.nodes @ (
        a_mat @ omega.center + shift
    )
    ev = _evaluate(grid, op, u0)
    state = FlowState(
        grid=grid, u=u0, t=0.0, u_dot=ev.G, tau=0.0, steps=0, op=op,
        omega=omega, anchor=grid.anchor,
    )
    state.ev = ev
    return state


# ---------------------------------------------------------------------------
# Implicit stepping
# ---------------------------------------------------------------------------

class Evaluation(NamedTuple):
    """The record of one height u: its ``NodalJets`` (the p (n, N) and r
    (n, n, N) of one ``grid.derivative_rows`` product), G =
    ``op.value(p, r)`` at every node, and the boundary rows' values hb
    and p-gradients dhb from one ``op.boundary`` call."""

    jets: NodalJets
    G: np.ndarray
    hb: np.ndarray
    dhb: np.ndarray | float


def _evaluate(grid, op: FlowOperator, u: np.ndarray) -> Evaluation:
    """The ``Evaluation`` of u: one stencil product. op.value raises
    SpacelikeViolationError before the boundary rows are evaluated."""
    p, r = grid.derivative_rows(u)
    return Evaluation(NodalJets(p, r, op.sig), op.value(p, r),
                      *op.boundary(p[:, grid.boundary]))


def _residual(state: FlowState, u: np.ndarray, base: np.ndarray, tau: float,
              ev: Evaluation) -> np.ndarray:
    """Newton's residual at the iterate u of record ev: u - base - tau G
    on the interior rows and hb on the boundary rows."""
    res = u - base - tau * ev.G
    res[state.grid.boundary] = ev.hb
    return res


def _jacobian(state: FlowState, ev: Evaluation, tau: float):
    """Newton Jacobian of ``_residual`` at the record ev, filled on the
    grid's fixed pattern.

    Per-row stencil weights: interior rows take 1 on the identity,
    -tau G_p on the gradient stencils and -tau G_r on the Hessian
    stencils; boundary rows take ev.dhb, the p-gradient of
    ``op.boundary``, on the gradient stencils.
    """
    grid = state.grid
    pattern = grid.stencil_pattern
    ndim = grid.dim
    ii, bb = grid.interior, grid.boundary
    g_r, g_p = state.op.weights(ev.jets.p, ev.jets.r)

    coef = np.zeros((pattern.n_stencils, grid.n_nodes))
    coef[0, ii] = 1.0
    coef[1:1 + ndim, ii] = -tau * g_p[:, ii]
    for s, (k, l) in enumerate(grid.second_slots(), start=1 + ndim):
        # the (k, l) stencil serves (l, k) too: weight it by both entries
        g_kl = g_r[k, l, ii] if k == l else g_r[k, l, ii] + g_r[l, k, ii]
        coef[s, ii] = -tau * g_kl
    coef[1:1 + ndim, bb] = ev.dhb
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
    """The grid's chord factor of a Newton Jacobian (``grid.factor``)."""
    return grid.factor(jac)


def _newton_solve(state: FlowState, base: np.ndarray, guess: np.ndarray,
                  tau: float, tol: float, max_newton: int,
                  carried: ChordFactor | None = None,
                  first: Evaluation | None = None):
    """Return (u, iterations, factorizations, ev, factor) or None if
    Newton failed for this tau within ``max_newton`` iterations.

    u solves u - base - tau G(u) = 0 on the interior rows and the
    boundary rows of ``_residual``: base is u_prev - tau C in
    ``step_implicit``, so u is the new height less the predictor tau C.
    Every iterate's residual and Jacobian come from its record
    (``_evaluate``), one stencil product per iterate.

    factorizations counts the attempt's fresh factorizations (0 when
    a carried factor served every iterate); ev is the record of the
    returned u, the attempt's last; factor is the ChordFactor in use when
    u was accepted, or, when u was accepted before its fresh Jacobian was
    factored, the stale factor that Jacobian was to replace (None if
    there was none).

    ``first`` is the guess's record when the caller has it (a state's
    ``ev``, for a guess that differs from its u by a constant): the
    attempt then evaluates the stencils only at its corrected iterates.
    It counts as an iterate all the same.

    An iterate is accepted when its residual max-norm is at most
    max(tol, floor), with tol the caller's tolerance (a number) and floor
    the largest ``_floor_at`` of the Jacobian and iterate at any fresh
    factorization so far: below the floor the residual only wanders, so
    a tol under it is met at the floor. The floor is raised before the
    Jacobian is factored, and an iterate that meets the raised floor is
    returned unfactored, with the stale factor: it served the iterates
    up to u, and at the ceiling the next step starts from it instead of
    factoring afresh.
    Neither test accepts the guess itself, before a chord correction.
    Every iterate must at least halve the residual max-norm: a stale
    factor that fails to is replaced by a fresh one, and a fresh factor
    that fails to ends the attempt (chord Newton, module docstring).

    A ``carried`` factor (built at this tau by an earlier step) serves
    the first iterate as a stale one, so the attempt factors only once
    it stops halving the residual; the floor then starts at
    eps ||J||_inf ||guess||_inf with the carried factor's ||J||_inf.
    """
    u = guess.copy()
    prev = np.inf
    factor = carried
    if factor is not None:
        tol = max(tol, _floor_at(factor.jac_norm, u))
    fresh = False
    n_factors = 0
    ev = first
    for it in range(1, max_newton + 1):
        if ev is None:
            try:
                ev = _evaluate(state.grid, state.op, u)
            except SpacelikeViolationError:
                return None
        res = _residual(state, u, base, tau, ev)
        if not np.all(np.isfinite(res)):
            return None
        rn = np.max(np.abs(res))
        if rn <= tol and it > 1:
            return u, it, n_factors, ev, factor
        stalled = rn > STAGNATION_RATIO * prev
        if stalled and fresh:
            return None
        prev = rn
        fresh = factor is None or stalled
        if fresh:
            jac = _jacobian(state, ev, tau)
            jac_norm = _inf_norm(jac)
            tol = max(tol, _floor_at(jac_norm, u))
            if rn <= tol and it > 1:
                return u, it, n_factors, ev, factor
        try:
            if fresh:
                factor = ChordFactor(_factor(jac, state.grid), jac_norm)
                n_factors += 1
            delta = factor.solver.solve(res)
        except RuntimeError:  # an exactly singular J, in its LU or a fallback LU
            return None
        if not np.all(np.isfinite(delta)):
            return None
        u = u - delta
        ev = None
    return None


def step_implicit(state: FlowState, controls: StepControls | None = None,
                  rate_tol: float = 0.0, carry: list | None = None) -> FlowState:
    """One accepted implicit Euler step with tau adaptation.

    Newton failure (divergence, a non-finite or spacelike-violating
    iterate, or a residual that stops halving per iteration) or an
    inadmissible candidate halves tau and retries; an attempt that
    converged on at most one fresh factorization grows the next tau by
    TAU_GROWTH up to tau_max, however many chord iterations it took.
    A state without a tau (0, as initialize leaves it) starts at
    controls.initial_tau(). Newton solves for the correction about the
    predictor: from the guess u_prev = u - u[anchor], for v = u_new -
    tau C with C the state's mean_rate (0 at the first step), on the
    interior rows v - (u_prev - tau C) - tau G(v) = 0; then u_dot = (v -
    (u_prev - tau C)) / tau, and the accepted state's u is v.
    Each attempt solves to a residual max-norm of max(tol_newton,
    tau rate_tol), or to its roundoff floor where that is larger:
    rate_tol is the error the step may leave in u_dot, and the default
    0 solves to tol_newton. Each attempt's first iterate takes its
    record from the state (``state.ev``), so its residual is tau (C - G)
    on the interior rows and no attempt differentiates the guess; a
    state without a record (one built by ``replace``) evaluates it once,
    and one whose gradients leave the spacelike set raises
    SpacelikeViolationError there.
    ``controls`` are the caller's, stated for a base domain of unit
    volume; the step applies them in state.omega's units
    (``StepControls.for_domain``), while state.tau, t and rate_tol are
    absolute.
    Underflow below tau_min, or a tau too small to advance t, raises
    StepFailureError naming the absolute tau_min; a starting tau that is
    not finite and positive raises ValueError, so no step is accepted
    backwards in time.
    The accepted state's record is Newton's last, whose jets keep the
    Hessian spectrum that ``op.admissible`` read.

    ``carry`` is a list kept by one run with one ``controls``: it holds
    the factor the last accepted step at the absolute ceiling tau_max
    handed on, or nothing. An attempt at that tau starts Newton from
    ``carry[0]``; an accepted step leaves ``[factor]`` at the ceiling
    and ``[]`` below it. Without ``carry`` every attempt factors afresh, as every attempt
    below the ceiling does.
    """
    controls = (controls or StepControls()).for_domain(state.omega)
    tau = state.tau if state.tau > 0 else controls.initial_tau()
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"implicit step needs a finite tau > 0, got {tau!r}")
    u_prev = state.u - state.u[state.anchor]
    rate = mean_rate(state) if state.steps > 0 else 0.0
    while True:
        if state.t + tau <= state.t:
            raise StepFailureError(
                f"tau = {tau:g} no longer advances t = {state.t:.6g} "
                f"(step {state.steps})"
            )
        # Newton's unknown is u_new - tau C, so no iterate carries tau C
        base = u_prev - tau * rate
        carried = carry[0] if carry and tau == controls.tau_max else None
        got = _newton_solve(state, base, u_prev, tau,
                            max(controls.tol_newton, tau * rate_tol),
                            controls.max_newton, carried, state.ev)
        if got is not None:
            u_new, iters, n_factors, ev, factor = got
            # strict convexity on the interior rows; the last evaluation,
            # at these gradients, already raised SpacelikeViolationError
            # past the bound
            if state.op.admissible(ev.jets, state.grid.interior):
                break
        tau *= 0.5
        if tau < controls.tau_min:
            raise StepFailureError(
                f"Newton failed at every tau down to {controls.tau_min:g} "
                f"(t = {state.t:.6g}, step {state.steps})"
            )
    u_dot = (u_new - base) / tau
    tau_next = min(tau * TAU_GROWTH, controls.tau_max) if n_factors <= 1 else tau
    if carry is not None:
        carry[:] = [factor] if tau == controls.tau_max else []
    new = replace(
        state, u=u_new, t=state.t + tau, u_dot=u_dot, tau=tau_next,
        steps=state.steps + 1, newton_iters=iters,
    )
    new.ev = ev
    return new


# ---------------------------------------------------------------------------
# Explicit stepping (validation path)
# ---------------------------------------------------------------------------

# Forward Euler is stable for tau up to this multiple of h^2 (times the
# operator's limiter, 1 - max |Du|^2 in the Minkowski case).
EXPLICIT_CFL = 0.2


def step_explicit(state: FlowState, tau: float) -> FlowState:
    """Forward Euler from u - u[anchor] at the state's record: the
    interior nodes move by tau G and the boundary nodes by tau u_dot,
    the boundary's own rate, so the projection that follows starts near
    its root. The boundary values then solve the implicit system's
    boundary rows at tau = 0, where every interior row is the identity:
    ``_newton_solve`` to 1e-13 (or its roundoff floor) in at most 40
    iterations, whose last record becomes the new state's, and
    ``StepFailureError`` if it fails. A tau that is not finite and
    positive raises ValueError, as in ``step_implicit``.
    """
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"explicit step needs a finite tau > 0, got {tau!r}")
    grid = state.grid
    u_prev = state.u - state.u[state.anchor]
    bound = EXPLICIT_CFL * grid.h_ref**2 * state.op.limiter(state.jets.p)
    if tau > bound:
        raise ValueError(
            f"explicit step tau = {tau:g} exceeds the stability bound {bound:g}"
        )
    u_fe = u_prev.copy()
    u_fe[grid.interior] += tau * state.G[grid.interior]
    u_fe[grid.boundary] += tau * state.u_dot[grid.boundary]
    got = _newton_solve(state, u_fe, u_fe, 0.0, 1e-13, 40)
    if got is None:
        raise StepFailureError(
            f"the explicit step's boundary projection failed (t = {state.t:.6g})"
        )
    u_new, _, _, ev, _ = got
    new = replace(
        state, u=u_new, t=state.t + tau, u_dot=(u_new - u_prev) / tau,
        steps=state.steps + 1, newton_iters=0,
    )
    new.ev = ev
    return new


# ---------------------------------------------------------------------------
# Translator extraction
# ---------------------------------------------------------------------------

def boundary_residual(state: FlowState) -> float:
    """Max over boundary nodes of |boundary condition|: the state's
    cached boundary values (``FlowState.hb``)."""
    return float(np.max(np.abs(state.hb)))


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


def translator_residual(state: FlowState, c: float) -> float:
    """max over the interior nodes of |G - c| at the state's own G, for a
    state whose jets' Hessian spectrum is positive there (ConvexityError
    otherwise); a run's last state has both in Newton's last record."""
    ii = state.grid.interior
    lam_min = np.min(state.jets.lam[0, ii])
    if not lam_min > 0.0:
        raise ConvexityError(
            f"translator residual needs a strictly convex field "
            f"(min interior Hessian eigenvalue {lam_min:.3e})"
        )
    return float(np.max(np.abs(state.G[ii] - c)))


def run_to_translator(state: FlowState, controls: StepControls | None = None,
                      on_accept=None) -> SolitonResult:
    """Advance implicit steps until the rate field is uniform.

    ``on_accept(state)`` fires after every accepted step (monitor hook).
    Raises NonConvergenceError if max_steps is exhausted, naming the last
    step's oscillation and boundary residual against the tolerances in
    force, or the StepFailureError (a NonConvergenceError) of a failed step.
    The run's ``carry`` list (``step_implicit``) holds its chord factor.

    Each step is solved to tau FORCING osc, osc the oscillation of the
    rate field of the state it starts from, or to tol_newton where that
    is larger (the module docstring's inexact pseudo-transient steps).

    The reported C_inf is ``_extrapolated_rate`` of the per-step mean
    rates; the steady residual is ``translator_residual`` of the last state.

    ``controls`` are stated for a base domain of unit volume: the run
    tests tol_c in state.omega's units (``StepControls.for_domain``) and
    hands each step the controls as given, which the step applies in the
    same units, starting a state without a tau at the initial tau.
    """
    controls = controls or StepControls()
    units = controls.for_domain(state.omega)
    t_start = time.perf_counter()
    rates, carry = [], []
    osc = float(np.max(state.u_dot) - np.min(state.u_dot))
    bres = np.nan
    for _ in range(units.max_steps):
        state = step_implicit(state, controls, FORCING * osc, carry)
        rates.append(mean_rate(state))
        if on_accept is not None:
            on_accept(state)
        osc = float(np.max(state.u_dot) - np.min(state.u_dot))
        bres = boundary_residual(state)
        if osc < units.tol_c and bres < units.tol_b:
            break
    else:
        last = (("osc", osc, "tol_c", units.tol_c),
                ("bres", bres, "tol_b", units.tol_b))
        raise NonConvergenceError(
            f"no translator after {units.max_steps} steps: " + ", ".join(
                f"{name} = {val:.3e} {'below' if val < tol else 'above'} "
                f"{tol_name} = {tol:.3e}" for name, val, tol_name, tol in last))

    c_inf = _extrapolated_rate(rates)
    u_inf = state.u - state.u[state.anchor]
    residual = translator_residual(state, c_inf)
    tol_r = units.tol_r * max(1.0, abs(c_inf))
    if residual > tol_r:
        raise NonConvergenceError(
            f"translator residual {residual:.3e} exceeds {tol_r:.3e}")
    return SolitonResult(
        c_inf=c_inf, u_inf=u_inf, residual=residual, steps=state.steps,
        wall_seconds=time.perf_counter() - t_start, state=state,
    )
