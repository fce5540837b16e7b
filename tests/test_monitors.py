"""Estimate audits: rate bounds, obliqueness, Hessian bounds, convexity
cone, evolution identity."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from gaussflow import domains as dom
from gaussflow import flow, monitors, operators, oracles
from gaussflow import geometry as geo
from gaussflow.errors import NonConvergenceError
from gaussflow.geometry import EUCLIDEAN, MINKOWSKI
from gaussflow.grids import LineGrid, MappedDiskGrid
from gaussflow.operators import (
    g_dual_many,
    legendre_transform,
    structure_report,
)


def interval_state(n_cells=201):
    return flow.initialize(dom.ConvexDomain.interval(0, 1),
                           dom.ConvexDomain.interval(-0.5, 0.5),
                           n_cells, MINKOWSKI)


def refresh_rate(state):
    g = operators.g_value_many(state.grid.gradient(state.u),
                          state.grid.hessian(state.u), state.sig)
    return dataclasses.replace(state, u_dot=g)


def steady_state(n_cells=201):
    state = interval_state(n_cells)
    _, prof = oracles.translator_1d_closed_form(0, 1, -0.5, 0.5, MINKOWSKI)
    u = prof.height(state.grid.nodes[:, 0])
    return refresh_rate(dataclasses.replace(state, u=u))


def run_with_monitor(n_cells=201, cadence=1):
    state = interval_state(n_cells)
    mon = monitors.RunMonitor(state, cadence=cadence)
    result = flow.run_to_translator(state, on_accept=mon.observe)
    return state, mon, result


class TestRateBounds:
    def test_initial_rate_range_and_final_speed(self):
        _, mon, result = run_with_monitor()
        # G0 = 1/(1 - (x - 1/2)^2) over (0,1) ranges over [1, 4/3]
        assert mon.g0_range[0] == pytest.approx(1.0, abs=1e-4)
        assert mon.g0_range[1] == pytest.approx(4.0 / 3.0, abs=1e-4)
        assert mon.g0_range[0] < result.c_inf < mon.g0_range[1]
        assert result.c_inf == pytest.approx(math.log(3.0), abs=1e-4)
        ok, worst, _ = mon.udot_ok()
        assert ok
        assert worst <= 0.0  # no violation at all along this run

    def test_steady_translator_trivially_inside(self):
        state = steady_state()
        rec_range = (float(np.min(state.u_dot)), float(np.max(state.u_dot)))
        mon = monitors.RunMonitor(state)
        ok, _, _ = monitors.udot_bounds_check(mon.records, rec_range,
                                              mon.tol_mon)
        assert ok

    def test_dual_rates_audited_through_legendre(self):
        state, mon, _ = run_with_monitor()
        # the dual operator over the Legendre samples of u0 ranges over
        # the negated primal range, so the rate audit covers -u_dot too
        y, _ = legendre_transform(state.u, state.grid)
        m_dual = np.linalg.inv(state.grid.hessian(state.u))
        dual = g_dual_many(y, m_dual.transpose(1, 2, 0), state.sig)
        assert np.min(dual) == pytest.approx(-mon.g0_range[1], abs=1e-10)
        assert np.max(dual) == pytest.approx(-mon.g0_range[0], abs=1e-10)
        ok, _, _ = monitors.udot_bounds_check(
            mon.records, (-np.max(dual), -np.min(dual)), mon.tol_mon)
        assert ok

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            monitors.udot_bounds_check([], (0.0, 1.0), 0.1)


class TestObliqueness:
    def test_steady_1d_symmetric_is_one(self):
        # beta at the left end: h'(p) = -2p at p = -1/2 gives 1; nu = +1
        assert monitors.obliqueness(steady_state()) == pytest.approx(1.0,
                                                                     abs=1e-6)

    def test_radial_ball_pair_is_one(self):
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                dom.ConvexDomain.ball([0, 0], 0.5),
                                (8, 16), MINKOWSKI)
        assert monitors.obliqueness(state) == pytest.approx(1.0, abs=1e-10)

    def test_nonnegative_for_convex_fields(self):
        rng = np.random.default_rng(2)
        state = interval_state(101)
        x = state.grid.nodes[:, 0]
        for _ in range(10):
            a = rng.uniform(0.3, 0.9)
            u = 0.5 * a * (x - 0.5) ** 2
            probe = refresh_rate(dataclasses.replace(state, u=u))
            assert monitors.obliqueness(probe) >= 0.0

    def test_above_floor_along_reference_run(self):
        _, mon, _ = run_with_monitor()
        assert mon.obliq_run_min() >= monitors.OBLIQUENESS_FLOOR

    def test_ellipse_target_against_analytic_gradient(self):
        """Non-radial pairing cross-checked by hand through Du0 = A x."""
        q_mat = np.diag([6.25, 16.0])
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                dom.ConvexDomain.ellipse([0, 0], q_mat),
                                (12, 24), MINKOWSKI)
        a_map = np.diag([0.4, 0.25])
        scale = 8.0  # 2 sqrt(max eigenvalue of Q)
        vals = []
        for theta in np.arange(24) * 2 * np.pi / 24:
            x = np.array([np.cos(theta), np.sin(theta)])
            beta = -2.0 * q_mat @ (a_map @ x) / scale
            vals.append(beta @ (-x) / np.linalg.norm(beta))
        analytic = min(vals)
        assert analytic == pytest.approx(0.97439, abs=1e-4)
        assert monitors.obliqueness(state) == pytest.approx(
            analytic, abs=state.grid.h_ref**2)


class TestHessianBounds:
    def test_initial_quadratic(self):
        lo, hi = monitors.hessian_bounds(interval_state())
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_steady_translator_range(self):
        # u'' = C (1 - u'^2) ranges over [0.75 ln 3, ln 3]
        lo, hi = monitors.hessian_bounds(steady_state(401))
        assert lo == pytest.approx(0.75 * math.log(3.0), abs=1e-3)
        assert hi == pytest.approx(math.log(3.0), abs=1e-3)

    def test_regression_floor_along_run(self):
        # empirical bound frozen after the first verified run
        _, mon, _ = run_with_monitor()
        assert mon.hessian_run_range()[0] >= 0.5


class TestConvexityCone:
    def test_isotropic_point_margin(self):
        """u = |x|^2/2 at the pole: h = g = I, H = n, margin 1 - eps0 n."""
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                dom.ConvexDomain.ball([0, 0], 1.0),
                                (8, 16), EUCLIDEAN)
        u = 0.5 * np.sum(state.grid.nodes**2, axis=1)
        state = refresh_rate(dataclasses.replace(state, u=u))
        eps0 = monitors.eps0_candidate(state, [state.grid.anchor])
        assert eps0 == pytest.approx(0.5, abs=1e-10)  # 1/n at the pole
        # margin restricted to the pole vanishes at eps0 = 1/n
        pole_margin = monitors.convexity_margin(
            dataclasses.replace(state), eps0)
        assert pole_margin <= 1e-10

    def test_1d_reduction_formula(self):
        # margin = min h11 (1 - eps0) in one dimension
        state = steady_state(201)
        p = state.grid.gradient(state.u)[state.grid.interior, 0]
        r = state.grid.hessian(state.u)[state.grid.interior, 0, 0]
        v = np.sqrt(1 - p**2)
        for eps0 in (0.3, 0.7, 1.0):
            expect = np.min(r / v) * (1 - eps0)
            got = monitors.convexity_margin(state, eps0)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_eps0_in_1d_is_one(self):
        # kappa = H = r / v^3 at every node, so the ratio is exactly 1
        state = steady_state(201)
        assert monitors.eps0_candidate(state) == 1.0
        assert run_with_monitor(101)[1].eps0 == 1.0

    def test_margin_preserved_along_run(self):
        _, mon, _ = run_with_monitor()
        assert mon.convex_margin_ok()

    def test_steady_margin_constant_in_time(self):
        state = steady_state(201)
        mon = monitors.RunMonitor(state)
        st = dataclasses.replace(state, tau=0.05)
        from gaussflow.flow import StepControls, step_implicit
        vals = [monitors.convexity_margin(state, mon.eps0)]
        for _ in range(5):
            st = step_implicit(st, StepControls(tau_max=0.05))
            vals.append(monitors.convexity_margin(st, mon.eps0))
        assert np.max(np.abs(np.diff(vals))) < 5 * state.grid.h**2


class TestEvolutionResidual:
    def test_planar_graph_vanishes(self):
        # identically zero in exact arithmetic; the discrete H picks up
        # roundoff of the linear field amplified by 1/h^2
        state = interval_state(101)
        x = state.grid.nodes[:, 0]
        flat = dataclasses.replace(state, u=0.3 * x)
        window = [flat,
                  dataclasses.replace(flat, t=0.1),
                  dataclasses.replace(flat, t=0.2)]
        assert monitors.evolution_residual(window) < 1e-6

    def test_needs_three_snapshots(self):
        state = interval_state(101)
        with pytest.raises(ValueError):
            monitors.evolution_residual([state, state])

    def test_steady_state_residual_second_order(self):
        _, prof = oracles.translator_1d_closed_form(0, 1, -0.5, 0.5, MINKOWSKI)

        def sampled_residual(n_cells):
            state = interval_state(n_cells)
            u = prof.height(state.grid.nodes[:, 0])
            frozen = refresh_rate(dataclasses.replace(state, u=u))
            window = [frozen,
                      dataclasses.replace(frozen, t=0.1),
                      dataclasses.replace(frozen, t=0.2)]
            return monitors.evolution_residual(window)

        res = {n: sampled_residual(n) for n in (51, 101, 201)}
        assert res[201] < 1e-3
        assert res[51] / res[101] >= 2.0 ** 1.5
        assert res[101] / res[201] >= 2.0 ** 1.5

    def test_along_run_stays_moderate(self):
        _, mon, _ = run_with_monitor(201)
        final = mon.records[-1].evo_residual
        assert final < 1e-3

    def test_radial_shooting_profile_cross_check(self):
        """The identity audited against the independent radial oracle."""
        prof = oracles.translator_radial_shooting(1.0, 0.5, 2, MINKOWSKI,
                                                  tol=1e-10)
        res = []
        for spec in ((16, 32), (32, 64)):
            state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                    dom.ConvexDomain.ball([0, 0], 0.5),
                                    spec, MINKOWSKI)
            rr = np.linalg.norm(state.grid.nodes, axis=1)
            u = prof.height_at(rr)
            frozen = refresh_rate(dataclasses.replace(state, u=u))
            window = [frozen, dataclasses.replace(frozen, t=0.1),
                      dataclasses.replace(frozen, t=0.2)]
            res.append(monitors.evolution_residual(window))
        assert res[1] < 5e-5
        assert res[0] / res[1] > 2.0 ** 1.5


class TestSpacelikeMargin:
    def test_confined_gradient_image(self):
        _, mon, _ = run_with_monitor(101)
        # omega_tilde = (-1/2, 1/2) keeps the margin at 1/2
        assert all(rec.grad_max <= 0.5 + 1e-6 for rec in mon.records)

    def test_flat_field(self):
        state = interval_state(101)
        flat = refresh_rate(dataclasses.replace(
            state, u=np.full(state.grid.n_nodes, 0.7)))
        assert monitors.grad_max(flat) == pytest.approx(0.0)

    def test_euclidean_reports_gradient_magnitude(self):
        state = flow.initialize(dom.ConvexDomain.interval(0, 1),
                                dom.ConvexDomain.interval(-1, 1),
                                101, EUCLIDEAN)
        val = monitors.grad_max(state)
        assert val == pytest.approx(1.0, abs=1e-4)  # max |Du0| = 1, not fatal


class TestRunMonitor:
    def test_radial_range_once_per_domain(self, monkeypatch):
        calls = []
        radial_range = dom.radial_range

        def counting(domain, *args):
            calls.append(domain)
            return radial_range(domain, *args)

        monkeypatch.setattr(dom, "radial_range", counting)
        omega = dom.ConvexDomain.ball([0.0, 0.0], 1.0)
        omega_tilde = dom.ConvexDomain.ellipse(
            [0.0, 0.0], np.diag([1 / 0.4**2, 1 / 0.25**2]))
        state = flow.initialize(omega, omega_tilde, (8, 16), MINKOWSKI)
        mon = monitors.RunMonitor(state, cadence=1)
        for _ in range(4):
            state = flow.step_implicit(state)
            mon.observe(state)
        assert len(mon.records) == 5
        assert len(calls) == 1 and calls[0] is omega_tilde

    def test_record_count_matches_cadence(self):
        for cadence in (1, 2, 5):
            _, mon, result = run_with_monitor(101, cadence=cadence)
            assert len(mon.records) == 1 + result.steps // cadence

    @pytest.mark.parametrize("cadence", [0, -1])
    def test_cadence_below_one_is_rejected(self, cadence):
        with pytest.raises(ValueError, match="cadence must be at least 1"):
            monitors.RunMonitor(interval_state(21), cadence=cadence)

    def test_csv_columns_are_the_record_fields(self):
        # a record is exactly one monitors.csv row
        names = tuple(f.name for f in dataclasses.fields(monitors.MonitorRecord))
        assert monitors.CSV_COLUMNS == names == (
            "t", "tau", "udot_min", "udot_max", "obliq_min", "hess_min",
            "hess_max", "grad_max", "TG_min", "TG_max", "convex_margin",
            "evo_residual", "newton_iters")

    @pytest.mark.parametrize("side", [0, 1])
    def test_nan_curvature_range_fails_the_sandwich(self, side, monkeypatch):
        # a nan at either end of one record's mean curvature range fails
        # the run's sandwich however finite the records after it are, so
        # the running range may not drop nan as Python's min and max do
        report = monitors.structure_report

        def nan_report(state):
            tg_range, f_range = report(state)
            f_range = list(f_range)
            f_range[side] = math.nan
            return tg_range, tuple(f_range)

        state = interval_state(41)
        mon = monitors.RunMonitor(state)
        assert mon.sandwich_ok()
        state = flow.step_implicit(state)
        monkeypatch.setattr(monitors, "structure_report", nan_report)
        mon.observe(state)
        monkeypatch.setattr(monitors, "structure_report", report)
        mon.observe(flow.step_implicit(state))
        assert len(mon.records) == 3
        assert not mon.sandwich_ok()

    def test_records_are_finite(self):
        _, mon, _ = run_with_monitor(101)
        for rec in mon.records:
            for name in monitors.CSV_COLUMNS:
                val = getattr(rec, name)
                if name == "evo_residual" and math.isnan(val):
                    continue  # defined only once the window fills
                assert math.isfinite(val)

    def test_duality_rate_defect_small_at_steady_state(self):
        state = steady_state(201)
        defect = monitors.duality_rate_defect(state)
        assert defect < 50 * state.grid.h**2

    def test_duality_audit_on_early_states_near_the_light_cone(self):
        # (0, 1) onto (-0.999, 0.999): accepted states 2-4 (and the probe
        # step from state 1) have a negative one-sided Hessian at a
        # boundary node, which the flow does not test and neither does
        # the audit's Legendre transform
        state0 = flow.initialize(dom.ConvexDomain.interval(0, 1),
                                 dom.ConvexDomain.interval(-0.999, 0.999),
                                 100, MINKOWSKI)
        accepted = []
        flow.run_to_translator(state0, on_accept=accepted.append)
        early = accepted[:4]
        assert all(np.min(s.jets.lam[0]) < 0 for s in early[1:])
        defects = [monitors.duality_rate_defect(s) for s in early]
        assert all(0 < d < 5 for d in defects)
        assert monitors.duality_rate_defect(accepted[-1]) < 1e-10

    def test_tolerance_reads_the_run_tau_ceiling(self):
        # the default ceiling, 10, reads as 1: the tolerance tau_max = 1
        # gave; a ceiling below 1 tightens it
        state = interval_state(21)
        h = state.grid.h_ref
        assert flow.StepControls().tau_max == 10.0
        assert monitors.RunMonitor(state).tol_mon == pytest.approx(
            10 * (h**2 + h))
        mon = monitors.RunMonitor(state,
                                  controls=flow.StepControls(tau_max=0.05))
        assert mon.tol_mon == pytest.approx(10 * (h**2 + 0.05 * h))

    @pytest.mark.parametrize("tau_max", [1e-3, 0.05, 0.5, 1.0, 2.0, 10.0,
                                         1e3])
    def test_no_ceiling_loosens_the_tolerance(self, tau_max):
        state = interval_state(21)
        h = state.grid.h_ref
        mon = monitors.RunMonitor(state,
                                  controls=flow.StepControls(tau_max=tau_max))
        assert mon.tol_mon <= 10 * (h**2 + tau_max * h)
        assert mon.tol_mon <= 10 * (h**2 + h)


# ---------------------------------------------------------------------------
# The audits read each state's cached jets; these pin them against the
# per-function formulas they replaced, which recompute everything from u.
# ---------------------------------------------------------------------------

def ref_geometry(state, idx=None):
    """p, r, v, g_lo, a and H as component-major rows, from u."""
    grid, sig = state.grid, state.sig
    p, r = grid.derivative_rows(state.u)
    if idx is not None:
        p, r = p[:, idx], r[..., idx]
    v = geo.v_many(p, sig)
    a = geo.curvature_matrix_many(p, r, sig)
    return p, r, v, geo.metric_lo_many(p, sig), a, np.einsum("iin->n", a)


def ref_obliqueness(state):
    grid = state.grid
    p = grid.gradient(state.u)
    worst = np.inf
    for b in grid.boundary:
        _, beta, _ = dom.defining_jet(state.omega_tilde, p[b])
        nu = dom.inward_normal(state.omega, grid.nodes[b])
        worst = min(worst, float(beta @ nu) / float(np.linalg.norm(beta)))
    return worst


def ref_eps0(state, idx=None):
    """min kappa_min / H, the principal curvatures from the solver's kernel."""
    *_, a, big_h = ref_geometry(state, idx)
    return float(np.min(geo.eigenvalues_many(a)[0] / big_h))


def ref_eps0_whitened(state, idx=None):
    """The generalized eigenvalues of (h, g) by Cholesky whitening, the
    formula eps0_candidate had before it read the principal curvatures."""
    if idx is None:
        idx = np.arange(state.grid.n_nodes)
    _, r, v, g_lo, _, big_h = ref_geometry(state, idx)
    h_form = np.moveaxis(r / v, -1, 0)
    chol = np.linalg.cholesky(np.moveaxis(g_lo, -1, 0))
    w = np.linalg.solve(chol, h_form)
    w = np.linalg.solve(chol, np.swapaxes(w, 1, 2))
    gen_min = np.linalg.eigvalsh(0.5 * (w + np.swapaxes(w, 1, 2)))[:, 0]
    return float(np.min(gen_min / big_h))


def ref_convexity_margin(state, eps0):
    _, r, v, g_lo, _, big_h = ref_geometry(state, state.grid.interior)
    m = r / v - eps0 * big_h * g_lo
    return float(np.min(geo.eigenvalues_many(m)[0]))


def ref_evolution_residual(window):
    s_lo, s_mid, s_hi = window[-3:]
    grid, sig = s_mid.grid, s_mid.sig
    h_lo = ref_geometry(s_lo)[5]
    h_hi = ref_geometry(s_hi)[5]
    p, _, v, _, a, h_mid = ref_geometry(s_mid)
    dt_h = (h_hi - h_lo) / (s_hi.t - s_lo.t)
    dh = grid.derivative_rows(h_mid)[0]
    transport = (h_mid / v) * np.einsum("in,in->n", p, dh)
    lap = geo.laplace_beltrami(h_mid, s_mid.u, grid, sig)
    res = dt_h + transport - lap + np.einsum("ijn,jin->n", a, a) * h_mid
    return float(np.max(np.abs(res[grid.audit_interior])))


def ref_record(state, eps0, window):
    """A MonitorRecord computed the way the pre-jets monitors did."""
    p, r, v, _, _, _ = ref_geometry(state)
    eps = geo.signature_eps(state.sig)
    tg = p.shape[0] - eps * np.sum(p * p, axis=0) / v**2
    lam = geo.eigenvalues_many(r)
    return monitors.MonitorRecord(
        t=state.t, tau=state.tau,
        udot_min=float(np.min(state.u_dot)),
        udot_max=float(np.max(state.u_dot)),
        obliq_min=ref_obliqueness(state),
        hess_min=float(np.min(lam)), hess_max=float(np.max(lam)),
        grad_max=float(np.max(np.linalg.norm(p, axis=0))),
        TG_min=float(np.min(tg)), TG_max=float(np.max(tg)),
        convex_margin=ref_convexity_margin(state, eps0),
        evo_residual=(ref_evolution_residual(window) if len(window) >= 3
                      else math.nan),
        newton_iters=state.newton_iters,
    )


def rotated_ellipse(center, semi_axes, angle):
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    return dom.ConvexDomain.ellipse(
        center, rot @ np.diag(1.0 / np.asarray(semi_axes) ** 2) @ rot.T)


AUDIT_CASES = {
    "interval": (dom.ConvexDomain.interval(0, 1),
                 dom.ConvexDomain.interval(-0.5, 0.5), 60, MINKOWSKI),
    "disk-ball": (dom.ConvexDomain.ball([0, 0], 1.0),
                  dom.ConvexDomain.ball([0, 0], 0.5), (8, 16), MINKOWSKI),
    "rotated-shifted-ellipse": (
        rotated_ellipse([0.1, -0.2], [1.0, 0.6], 0.4),
        rotated_ellipse([0.05, 0.1], [0.4, 0.25], -0.7), (8, 16), MINKOWSKI),
}


def short_run(case, cadence=1, steps=6):
    """RunMonitor over a run cut after ``steps`` steps; the accepted states.

    The run ramps tau up from 0.1 h^2, not from the default tau_max, so
    that it is still far from converged when it is cut.
    """
    omega, omega_tilde, spec, sig = AUDIT_CASES[case]
    state0 = flow.initialize(omega, omega_tilde, spec, sig)
    mon = monitors.RunMonitor(state0, cadence=cadence)
    accepted = []

    def observe(state):
        accepted.append(state)
        mon.observe(state)

    controls = flow.StepControls(max_steps=steps,
                                 tau0=0.1 * state0.grid.h_ref**2)
    with pytest.raises(NonConvergenceError):
        flow.run_to_translator(state0, controls, on_accept=observe)
    return state0, mon, accepted


class TestCachedJetAudits:
    @pytest.mark.parametrize("case", sorted(AUDIT_CASES))
    def test_records_match_per_function_formulas(self, case):
        state0, mon, accepted = short_run(case)
        eps0 = ref_eps0(state0)
        expected, window = [], []
        for state in [state0, *accepted]:
            if state is not state0:
                eps0 = min(eps0, ref_eps0(state, state.grid.boundary))
            window = (window + [state])[-3:]
            expected.append(ref_record(state, eps0, window))
        assert mon.eps0 == eps0
        assert len(mon.records) == len(expected) == 7
        for got, want in zip(mon.records, expected):
            for name in (f.name for f in dataclasses.fields(want)):
                g, w = getattr(got, name), getattr(want, name)
                if name == "obliq_min":
                    assert g == pytest.approx(w, rel=1e-14, abs=0)
                elif isinstance(w, float) and math.isnan(w):
                    assert math.isnan(g), name
                else:
                    assert g == w, name

    @pytest.mark.parametrize("case", sorted(AUDIT_CASES))
    def test_eps0_matches_cholesky_whitening(self, case):
        state0, _, accepted = short_run(case)
        for state in [state0, *accepted]:
            for idx in (None, state.grid.boundary):
                got = monitors.eps0_candidate(state, idx)
                want = ref_eps0_whitened(state, idx)
                assert got == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("case", sorted(AUDIT_CASES))
    def test_one_derivative_product_of_h_per_record(self, case,
                                                    monkeypatch):
        # the evolution identity takes DH and D2H from one stacked product
        # and shares them with the Laplacian
        calls = []
        for cls, name in itertools.product(
                (LineGrid, MappedDiskGrid),
                ("derivative_rows", "gradient", "hessian")):
            method = getattr(cls, name)

            def counted(grid, f, name=name, method=method):
                calls.append(name)
                return method(grid, f)

            monkeypatch.setattr(cls, name, counted)
        evolution_residual = monitors.evolution_residual
        per_record = []

        def counted_residual(window):
            calls.clear()
            out = evolution_residual(window)
            per_record.append(list(calls))
            return out

        monkeypatch.setattr(monitors, "evolution_residual", counted_residual)
        _, mon, _ = short_run(case)
        assert len(mon.records) == 7
        assert per_record == [["derivative_rows"]] * 5

    def test_structure_report_matches_per_function_formulas(self):
        _, _, accepted = short_run("rotated-shifted-ellipse", steps=3)
        state = accepted[-1]
        tg_range, f_range = structure_report(state)
        want = ref_record(state, 0.0, [])
        big_h = ref_geometry(state)[5]
        assert tg_range == (want.TG_min, want.TG_max)
        assert f_range == (float(np.min(big_h)), float(np.max(big_h)))

    def test_last_state_is_last_observed(self):
        _, mon, accepted = short_run("interval", cadence=4, steps=5)
        assert mon.last_state is accepted[-1]
        assert mon.records[-1].t < mon.last_state.t

    @staticmethod
    def _count_full_grid_curvature(monkeypatch):
        calls = []
        original = geo.curvature_matrix_many

        def counting(p, r, sig):
            calls.append(p.shape[1])
            return original(p, r, sig)

        monkeypatch.setattr(geo, "curvature_matrix_many", counting)
        return calls

    @pytest.mark.parametrize("case", ["interval", "disk-ball"])
    def test_one_full_grid_curvature_per_record(self, case, monkeypatch):
        calls = self._count_full_grid_curvature(monkeypatch)
        state0, mon, _ = short_run(case, cadence=1)
        n_nodes = state0.grid.n_nodes
        assert calls.count(n_nodes) == len(mon.records) == 7

    @pytest.mark.parametrize("case", ["interval", "disk-ball"])
    def test_no_full_grid_curvature_on_unrecorded_steps(self, case,
                                                         monkeypatch):
        calls = self._count_full_grid_curvature(monkeypatch)
        state0, mon, accepted = short_run(case, cadence=3)
        grid = state0.grid
        assert len(accepted) == 6 and len(mon.records) == 3
        assert calls.count(grid.n_nodes) == 3
        # every step still audits eps0, on the boundary rows only
        assert calls.count(len(grid.boundary)) == 6

    def test_records_evaluate_no_operator_derivative_or_kappa(self,
                                                              monkeypatch):
        # the structure report reads p, v and H = tr a from the jets, so a
        # record calls no G_p kernel; principal curvatures are taken by
        # the eps0 audit only, on all nodes of state0 and on each step's
        # boundary rows. The solver's Jacobians call the kernel too, so
        # only the calls made inside a record are counted.
        from gaussflow import operators
        counts = {"g_derivatives_many": 0, "solver": 0}
        kappa_rows = []
        g_derivatives_many = operators.g_derivatives_many
        record = monitors.RunMonitor._record
        in_record = []

        def counted_derivatives(*args):
            counts["g_derivatives_many" if in_record else "solver"] += 1
            return g_derivatives_many(*args)

        def flagged_record(self, state):
            in_record.append(True)
            try:
                return record(self, state)
            finally:
                in_record.pop()

        def counted_kappa(jets):
            kappa_rows.append(jets.p.shape[1])
            return geo.eigenvalues_many(jets.a)

        monkeypatch.setattr(operators, "g_derivatives_many",
                            counted_derivatives)
        monkeypatch.setattr(monitors.RunMonitor, "_record", flagged_record)
        monkeypatch.setattr(geo.NodalJets, "kappa", property(counted_kappa))
        state0, mon, _ = short_run("disk-ball", cadence=1)
        grid = state0.grid
        assert len(mon.records) == 7
        assert mon.sandwich_ok()
        assert counts["g_derivatives_many"] == 0
        assert counts["solver"] > 0  # the patched binding is the one in use
        assert kappa_rows == [grid.n_nodes] + [len(grid.boundary)] * 6
