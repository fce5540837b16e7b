"""Numerical audits of the a priori estimates along accepted flow states.

Each continuum estimate becomes an empirical inequality with constants
computed from the initial data, never hardcoded from any proof:

* rate bounds: u_dot stays between the extremes of G(Du0, D2u0);
* strict obliqueness: the normalized pairing of beta = Dh(Du) with the
  inward boundary normal stays above a fixed floor;
* Hessian eigenvalue bounds and preservation of strict convexity;
* the convexity cone h_ij >= eps0 H g_ij, with eps0 the largest constant
  valid on the parabolic boundary seen so far;
* the intrinsic evolution identity of the mean curvature,
  dH/dt - lap_M H + |A|^2 H = 0 in the normal parameterization, evaluated
  as a residual. The graph parameterization moves points vertically, so
  the time derivative observed at fixed x needs the tangential transport
  correction + (H/v) Du . DH before the identity applies.

Violations are tolerated up to tol_mon = 10 (h^2 + min(tau_max, 1) h),
with h the grid's reference spacing (``RunMonitor``): the estimates hold
for the continuum flow, so discrete defects must vanish under refinement
rather than sit under an absolute cap. The tau term reads the run's
ceiling only up to 1, so a higher ceiling, which the pseudo-transient
steps take only to reach the long-time limit sooner, loosens no audit:
at the default tau_max = 10 the tolerance is 10 (h^2 + h), and a
ceiling below 1 tightens it. It reads the ``StepControls`` field, the
ceiling stated for a base domain of unit volume, not the ceiling the
run applies in its own units (l^2 tau_max, ``StepControls.for_domain``),
so no audit tolerance moves with the base domain's size.

The audits read each state's nodal geometry from its cached jets
(``FlowState.jets``): a recorded state's gradient, Hessian and
curvature matrix are evaluated once, however many audits use them, and
the evolution identity reuses the mean curvature of the states recorded
before and differentiates H once. The flow seeds an accepted state's
jets with the gradient and Hessian of Newton's last residual
evaluation and with the Hessian eigenvalues of its convexity test, so
the Hessian bounds take no spectrum of their own. The eps0 audit takes
principal curvatures on all nodes of the initial state and on each
step's boundary rows only, so an unrecorded step (cadence above 1)
evaluates only those rows of the curvature matrix. The structure report
takes the curvature sum from the mean curvature H = tr a. Jets are read
as component-major rows, the base domain's normals off the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import domains as dom
from .flow import StepControls, step_implicit
from .geometry import eigenvalues_many, v_squared
from .operators import legendre_transform, structure_report

OBLIQUENESS_FLOOR = 1e-3
HESSIAN_FLOOR = 1e-8

@dataclass(frozen=True)
class MonitorRecord:
    """One audited snapshot, one row of ``monitors.csv``: the fields are
    its columns, in order (``CSV_COLUMNS``).

    ``tau`` is the tau the next step starts from: 0 on the initial row,
    3 x the accepted step's tau (capped at the ceiling) after an attempt
    on at most one fresh factorization, that tau otherwise. ``t`` and
    ``tau`` are absolute: the ceiling is tau_max in the base domain's
    units, l^2 tau_max with l = |Omega|^(1/n)
    (``flow.StepControls.for_domain``), 10 pi on the unit disk. The
    accepted step's tau is the difference of consecutive ``t``: for the
    unit ball onto B_0.99 at 16 x 32 the first step halves 10 pi to
    10 pi / 2^13, and the row at t = 0.0076699 follows a step of 0.0038350
    and reads tau = 0.011505.
    """

    t: float
    tau: float
    udot_min: float
    udot_max: float
    obliq_min: float
    hess_min: float
    hess_max: float
    grad_max: float
    TG_min: float
    TG_max: float
    convex_margin: float
    evo_residual: float
    newton_iters: int


CSV_COLUMNS = tuple(f.name for f in fields(MonitorRecord))


def obliqueness(state) -> float:
    """Min over boundary nodes of <beta, nu> / |beta|, beta = Dh(Du) and
    nu = ``grid.boundary_normals``."""
    bb, nu = state.grid.boundary, state.grid.boundary_normals
    _, beta = dom.defining_jet_many(state.omega_tilde, state.jets.p[:, bb])
    pairing = np.sum(beta * nu, axis=0) / np.linalg.norm(beta, axis=0)
    return float(np.min(pairing))


def hessian_bounds(state) -> tuple[float, float]:
    """Extreme nodewise Hessian eigenvalues over all nodes."""
    lam = state.jets.lam
    return float(np.min(lam)), float(np.max(lam))


def grad_max(state) -> float:
    return float(np.max(np.linalg.norm(state.jets.p, axis=0)))


def eps0_candidate(state, node_idx=None) -> float:
    """Largest eps with h_ij >= eps H g_ij at the given nodes.

    Per node that is the smallest generalized eigenvalue of h_ij = r / v
    against g_ij, divided by H. With g = b^-2 those eigenvalues are the
    ones of a = b r b / v, the principal curvatures, so the candidate is
    the minimum over nodes of kappa_min / H. At a subset of nodes only
    those rows of the curvature data are evaluated.
    """
    jets = state.jets if node_idx is None else state.jets.rows(node_idx)
    return float(np.min(jets.kappa[0] / jets.H))


def convexity_margin(state, eps0: float) -> float:
    """Min over interior nodes of lambda_min(h_ij - eps0 H g_ij)."""
    jets, idx = state.jets, state.grid.interior
    h_form = jets.r[..., idx] / jets.v[idx]
    m = h_form - eps0 * jets.H[idx] * jets.g_lo[..., idx]
    return float(np.min(eigenvalues_many(m)[0]))


def evolution_residual(window) -> float:
    """Max audited defect of the mean curvature evolution identity.

    ``window`` holds at least three consecutive states; the time
    derivative of H is centered at the middle one. The max runs over the
    grid's stencil-clean interior (``audit_interior``): the identity
    second-differences the derived field H, and nodes whose stencils
    reach one-sided or pole-fitted H values would see the truncation
    constant jump there amplified to O(1), which says nothing about the
    estimate being audited.
    """
    if len(window) < 3:
        raise ValueError("evolution residual needs >= 3 consecutive snapshots")
    s_lo, s_mid, s_hi = window[-3], window[-2], window[-1]
    grid = s_mid.grid
    mid = s_mid.jets
    h_mid, p, a = mid.H, mid.p, mid.a
    dt_h = (s_hi.jets.H - s_lo.jets.H) / (s_hi.t - s_lo.t)

    dh, d2h = grid.derivative_rows(h_mid)
    transport = (h_mid / mid.v) * np.einsum("in,in->n", p, dh)
    lap = mid.laplacian(dh, d2h)
    norm_a2 = np.einsum("ijn,jin->n", a, a)
    res = dt_h + transport - lap + norm_a2 * h_mid
    return float(np.max(np.abs(res[grid.audit_interior])))


def udot_bounds_check(records, rate_range, tol_mon: float):
    """Audit the rate bounds over a record history.

    Returns (ok, worst_violation, t_worst): the violation is how far any
    recorded rate strays outside [m, M]; ok means it never exceeds
    tol_mon.
    """
    if not records:
        raise ValueError("empty monitor history")
    m, big_m = rate_range
    worst, t_worst = -np.inf, records[0].t
    for rec in records:
        violation = max(m - rec.udot_min, rec.udot_max - big_m)
        if violation > worst:
            worst, t_worst = violation, rec.t
    return worst <= tol_mon, float(worst), float(t_worst)


def duality_rate_defect(state) -> float:
    """Probe-step audit of the rate duality (1D grids).

    The Legendre transform's time derivative at a fixed dual point is the
    negative of the primal rate at the matched node. A single implicit
    probe step from tau = h^2 under default controls (discarded after)
    supplies both one-sided rates over the same interval; the dual cloud
    of the probed state is cubic-interpolated at the dual points of the
    base state, which keeps the audit O(h^2) even where the gradients
    move. Returns max |d(u_tilde)/dt + du/dt| over matched nodes.

    The probe stores its height less the step's predictor tau C
    (``flow.step_implicit``), so u_t below is du/dt - C; the dual
    height p x - u is then shifted by + tau C, the dual rate by + C, and
    the shift cancels in their sum.
    """
    from scipy.interpolate import CubicSpline

    grid = state.grid
    if grid.dim != 1:
        raise ValueError("the duality rate audit is implemented on 1D grids")
    # every step solves from u - u[anchor]: so does the probe's base
    base = replace(state, u=state.u - state.u[state.anchor], tau=grid.h_ref**2)
    probe = step_implicit(base)
    u_t = (probe.u - base.u) / (probe.t - state.t)
    (y1,), ut1 = legendre_transform(base.u, grid)
    (y2,), ut2 = legendre_transform(probe.u, grid)
    order = np.argsort(y2)
    spline = CubicSpline(y2[order], ut2[order])
    valid = (y1 > max(y1.min(), y2.min())) & (y1 < min(y1.max(), y2.max()))
    dual_rate = (spline(y1[valid]) - ut1[valid]) / (probe.t - state.t)
    return float(np.max(np.abs(dual_rate + u_t[valid])))


class RunMonitor:
    """Collects audited records along a run.

    Call ``observe(state)`` after each accepted step (it is shaped as the
    run loop's on_accept hook) and ``finish()`` once the run has ended,
    converged or not. A full record is appended every ``cadence`` steps;
    eps0 tracks the parabolic boundary at every step regardless. The
    initial state is recorded at construction and ``finish`` records the
    last observed state unless it is already the last row, so a run of S
    steps at cadence c yields 1 + ceil(S / c) rows, the last of them the
    final state. ``tau_max`` of the run's ``controls`` (default
    ``StepControls()``), the field's unit-volume value capped at 1, and
    ``grid.h_ref`` set the one audit tolerance tol_mon (module
    docstring). ``g0_range`` is the (min, max) of the
    rate of ``state0``, G0 (``flow.initialize``), and ``sandwich`` the
    band [min w * min G0, max w * max G0] for H, w = 1/v at the smallest
    and largest |p| of the gradient-image domain.
    ``f_range`` is the (min, max) of the mean curvature over the recorded
    states (nan once any of them is nan), which ``sandwich_ok`` tests.
    """

    def __init__(self, state0, cadence: int = 1, controls: StepControls | None = None):
        if cadence < 1:
            raise ValueError(f"cadence must be at least 1, got {cadence}")
        self.cadence = int(cadence)
        h, tau_max = state0.grid.h_ref, (controls or StepControls()).tau_max
        self.tol_mon = 10.0 * (h**2 + min(tau_max, 1.0) * h)
        g0_min, g0_max = float(np.min(state0.u_dot)), float(np.max(state0.u_dot))
        self.g0_range = (g0_min, g0_max)
        w = 1.0 / np.sqrt(v_squared(np.square(state0.omega_tilde.norm_range),
                                    state0.sig))
        self.sandwich = (float(np.min(w) * g0_min), float(np.max(w) * g0_max))
        self.eps0 = eps0_candidate(state0)  # t = 0 slice, all nodes
        self.f_range = (math.inf, -math.inf)
        self.records: list[MonitorRecord] = []
        self._window = []  # the last three recorded states
        self._seen = 0
        self.last_state = state0  # the last observed, recorded or not
        self._record(state0)

    def observe(self, state):
        self._seen += 1
        self.last_state = state
        self.eps0 = min(
            self.eps0, eps0_candidate(state, state.grid.boundary)
        )
        if self._seen % self.cadence == 0:
            self._record(state)

    def finish(self):
        """Record the last observed state unless it is the last row."""
        if self._seen % self.cadence:
            self._record(self.last_state)

    def _record(self, state):
        self._window = [*self._window[-2:], state]
        evo = math.nan
        if len(self._window) == 3:
            evo = evolution_residual(self._window)
        lam_min, lam_max = hessian_bounds(state)
        tg_range, (f_lo, f_hi) = structure_report(state)
        self.f_range = (float(np.minimum(self.f_range[0], f_lo)),
                        float(np.maximum(self.f_range[1], f_hi)))
        self.records.append(MonitorRecord(
            t=state.t,
            tau=state.tau,
            udot_min=float(np.min(state.u_dot)),
            udot_max=float(np.max(state.u_dot)),
            obliq_min=obliqueness(state),
            hess_min=lam_min,
            hess_max=lam_max,
            grad_max=grad_max(state),
            TG_min=tg_range[0],
            TG_max=tg_range[1],
            convex_margin=convexity_margin(state, self.eps0),
            evo_residual=evo,
            newton_iters=state.newton_iters,
        ))

    # -- run level verdicts --------------------------------------------------

    def udot_ok(self):
        return udot_bounds_check(self.records, self.g0_range, self.tol_mon)

    def obliq_run_min(self) -> float:
        return min(rec.obliq_min for rec in self.records)

    def hessian_run_range(self) -> tuple[float, float]:
        return (min(rec.hess_min for rec in self.records),
                max(rec.hess_max for rec in self.records))

    def convex_margin_ok(self) -> bool:
        """Discrete cone preservation: margin never below -tol_mon."""
        return all(rec.convex_margin >= -self.tol_mon for rec in self.records)

    def sandwich_ok(self) -> bool:
        """Curvature sums stay inside the structure sandwich of u0, up to
        tol_mon."""
        (lo, hi), (f_lo, f_hi) = self.sandwich, self.f_range
        return f_lo >= lo - self.tol_mon and f_hi <= hi + self.tol_mon
