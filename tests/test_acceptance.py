"""Acceptance suite for the solver.

Nine criteria, each printed as one pass/fail line (run with -s to see
them live). The four reference runs are computed once per session and
shared:

  run 1  1D Minkowski, gradient image (-1/2, 1/2), N = 401 (+ N = 801
         for the refinement ratio); reference speed ln 3.
  run 2  1D Euclidean, gradient image (-1, 1); reference speed pi/2.
  run 3  2D radial Minkowski, unit ball onto the half ball, 64 x 128
         polar grid; reference speed frozen from the shooting oracle.
  run 4  2D Minkowski, unit ball onto the ellipse with semi-axes
         (0.4, 0.25).

Criterion 9, the 2D convergence order, also runs the problems of runs 3
and 4 on the 16 x 32 and 32 x 64 grids.

Tolerance provenance: speed errors and runtimes are fixed by the
criteria; monitor tolerances are tol_mon = 10 (h^2 + min(tau_max, 1) h),
10 (h^2 + h) at the step-control defaults; the evolution-identity refinement study runs on
grids coarse enough that its h^2 truncation dominates the 1/h^4 roundoff
amplification inherent in double-differencing derived fields (the
crossover sits near N ~ 300 in double precision).
"""

import dataclasses

import numpy as np
import pytest

from gaussflow import cli
from gaussflow import domains as dom
from gaussflow import flow, monitors, operators, oracles
from gaussflow.geometry import EUCLIDEAN, MINKOWSKI
from gaussflow.monitors import OBLIQUENESS_FLOOR, HESSIAN_FLOOR
from gaussflow.operators import g_dual, legendre_transform

# Shooting speed for run 3, frozen to 1e-8 before the solver was built:
# three independent integrations (RK45, DOP853, Radau, each under
# bisection) agree on 1.0735826836105 +- 4e-13.
FROZEN_RADIAL_C = 1.0735826836

LN3 = float(np.log(3.0))
HALF_PI = float(np.pi / 2.0)


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


class RunBundle:
    """A finished reference run plus its monitor and state history."""

    def __init__(self, omega, omega_tilde, grid_spec, sig, keep_states=False):
        self.state0 = flow.initialize(omega, omega_tilde, grid_spec, sig)
        self.monitor = monitors.RunMonitor(self.state0, cadence=1)
        self.states = [] if keep_states else None

        def observe(state):
            self.monitor.observe(state)
            if self.states is not None:
                self.states.append(state)

        self.result = flow.run_to_translator(self.state0, on_accept=observe)


@pytest.fixture(scope="module")
def run1():
    return RunBundle(dom.ConvexDomain.interval(0, 1),
                     dom.ConvexDomain.interval(-0.5, 0.5),
                     401, MINKOWSKI, keep_states=True)


@pytest.fixture(scope="module")
def run1_refined():
    return RunBundle(dom.ConvexDomain.interval(0, 1),
                     dom.ConvexDomain.interval(-0.5, 0.5),
                     801, MINKOWSKI)


@pytest.fixture(scope="module")
def run2():
    return RunBundle(dom.ConvexDomain.interval(0, 1),
                     dom.ConvexDomain.interval(-1, 1),
                     401, EUCLIDEAN)


@pytest.fixture(scope="module")
def run3():
    return RunBundle(dom.ConvexDomain.ball([0, 0], 1.0),
                     dom.ConvexDomain.ball([0, 0], 0.5),
                     (64, 128), MINKOWSKI)


@pytest.fixture(scope="module")
def run4():
    shape = np.diag([1 / 0.4**2, 1 / 0.25**2])
    return RunBundle(dom.ConvexDomain.ball([0, 0], 1.0),
                     dom.ConvexDomain.ellipse([0, 0], shape),
                     (64, 128), MINKOWSKI)


class TestCriterion1_Minkowski1D:
    def test_speed_error(self, run1):
        err = abs(run1.result.c_inf - LN3)
        _report("criterion-1 speed", err <= 1e-3,
                f"|C - ln 3| = {err:.3e} (<= 1e-3)")

    def test_refinement_ratio(self, run1, run1_refined):
        e_coarse = abs(run1.result.c_inf - LN3)
        e_fine = abs(run1_refined.result.c_inf - LN3)
        ratio = e_coarse / e_fine
        _report("criterion-1 refinement", ratio >= 3.5,
                f"error {e_coarse:.3e} -> {e_fine:.3e}, ratio {ratio:.2f} (>= 3.5)")

    def test_runtime(self, run1):
        _report("criterion-1 runtime", run1.result.wall_seconds <= 60.0,
                f"{run1.result.wall_seconds:.2f} s (<= 60 s)")


class TestCriterion2_Euclidean1D:
    def test_speed_error(self, run2):
        err = abs(run2.result.c_inf - HALF_PI)
        _report("criterion-2 speed", err <= 1e-3,
                f"|C - pi/2| = {err:.3e} (<= 1e-3)")

    def test_runtime(self, run2):
        _report("criterion-2 runtime", run2.result.wall_seconds <= 60.0,
                f"{run2.result.wall_seconds:.2f} s (<= 60 s)")


class TestCriterion3_Radial2D:
    def test_speed_against_shooting_oracle(self, run3):
        err = abs(run3.result.c_inf - FROZEN_RADIAL_C)
        _report("criterion-3 speed", err <= 1e-2,
                f"|C - C_shoot| = {err:.3e} (<= 1e-2)")

    def test_runtime(self, run3):
        _report("criterion-3 runtime", run3.result.wall_seconds <= 600.0,
                f"{run3.result.wall_seconds:.1f} s (<= 600 s)")


class TestCriterion4_Ellipse2D:
    def test_converged_and_residual(self, run4):
        osc = float(np.max(run4.result.state.u_dot)
                    - np.min(run4.result.state.u_dot))
        ok = osc < 1e-8 and run4.result.residual <= 1e-4
        _report("criterion-4 convergence", ok,
                f"osc(u_dot) = {osc:.3e} (< 1e-8), "
                f"residual = {run4.result.residual:.3e} (<= 1e-4)")

    def test_dual_steady_equation(self, run4):
        state = run4.result.state
        grid = state.grid
        y, _ = legendre_transform(run4.result.u_inf, grid)
        m_dual = np.linalg.inv(grid.hessian(run4.result.u_inf))
        defect = max(
            abs(g_dual(y[:, k], m_dual[k], state.sig) + run4.result.c_inf)
            for k in grid.interior
        )
        _report("criterion-4 dual equation", defect <= 1e-3,
                f"max |Gdual + C| = {defect:.3e} (<= 1e-3) at interior "
                f"dual samples")


@pytest.fixture(scope="module")
def bundles(run1, run2, run3, run4):
    return {"run1": run1, "run2": run2, "run3": run3, "run4": run4}


class TestCriterion5_EstimateAudits:
    def test_rate_bounds(self, bundles):
        details = []
        ok = True
        for name, b in bundles.items():
            good, worst, _ = b.monitor.udot_ok()
            ok = ok and good
            details.append(f"{name} worst {worst:.2e}/tol {b.monitor.tol_mon:.2e}")
        _report("criterion-5 rate-bounds", ok, "; ".join(details))

    def test_obliqueness_floor(self, bundles):
        mins = {name: b.monitor.obliq_run_min() for name, b in bundles.items()}
        ok = all(v >= OBLIQUENESS_FLOOR for v in mins.values())
        _report("criterion-5 obliqueness", ok,
                ", ".join(f"{k} min {v:.4f}" for k, v in mins.items())
                + f" (floor {OBLIQUENESS_FLOOR})")

    def test_hessian_interval(self, bundles):
        details = []
        ok = True
        for name, b in bundles.items():
            lo, hi = b.monitor.hessian_run_range()
            lo0, hi0 = monitors.hessian_bounds(b.state0)
            good = lo >= HESSIAN_FLOOR and hi <= 100.0 * max(1.0, hi0)
            ok = ok and good
            details.append(f"{name} [{lo:.3f}, {hi:.3f}]")
        _report("criterion-5 hessian-interval", ok, "; ".join(details))

    def test_convexity_cone(self, bundles):
        ok = all(b.monitor.convex_margin_ok() for b in bundles.values())
        worst = min(min(r.convex_margin for r in b.monitor.records)
                    for b in bundles.values())
        _report("criterion-5 convexity-cone", ok,
                f"worst margin {worst:.3e} within tol of its parabolic "
                f"boundary minimum")

    def test_curvature_sandwich(self, bundles):
        ok = all(b.monitor.sandwich_ok() for b in bundles.values())
        _report("criterion-5 curvature-sandwich", ok,
                "sum of principal curvatures inside the initial-data band "
                "on all four runs")


class TestCriterion6_KernelIdentities:
    def test_identities_over_random_jets(self):
        rng = np.random.default_rng(2024)
        worst_sq = worst_tr = 0.0
        count = 0
        for sig in (MINKOWSKI, EUCLIDEAN):
            jets = oracles.random_jets(rng, 600, sig)
            defects = oracles.identity_defects(jets, sig)
            worst_sq = max(worst_sq, defects["root"])
            worst_tr = max(worst_tr, defects["trace"])
            count += sum(p.shape[1] for p, _ in jets.values())
        ok = worst_sq <= 1e-12 and worst_tr <= 1e-12
        _report("criterion-6 identities", ok,
                f"{count} jets: max |b*b - g^inv| = {worst_sq:.2e}, "
                f"max trace-form defect = {worst_tr:.2e} (<= 1e-12)")

    def test_derivatives_against_finite_differences(self):
        worst = max(
            oracles.fd_check_derivatives(500, sig, 1e-5, seed=77)
            for sig in (MINKOWSKI, EUCLIDEAN)
        )
        _report("criterion-6 derivative-fd", worst <= 1e-6,
                f"1000 jets: max relative error {worst:.2e} (<= 1e-6)")

    def test_debug_paper_signs_fails_suite(self, capsys):
        code = cli.check_command(debug_paper_signs=True)
        out = capsys.readouterr().out
        ok = (code != 0 and "FAIL  geometry-identities" in out
              and "FAIL  derivative-fd" in out and "ratio -2.000" in out)
        _report("criterion-6 regression-lock", ok,
                "check --debug-paper-signs fails the geometry and "
                "derivative rows with 1D ratio -2")


class TestCriterion7_EvolutionIdentity:
    def test_steady_residual_at_reference_resolution(self, run1):
        residual = run1.monitor.records[-1].evo_residual
        _report("criterion-7 steady residual", residual <= 1e-3,
                f"N=401 steady identity residual {residual:.3e} (<= 1e-3)")

    def test_refinement_order(self):
        # measured on the continuum steady profile sampled at resolutions
        # below the double-precision roundoff crossover (see module doc)
        _, prof = oracles.translator_1d_closed_form(0, 1, -0.5, 0.5,
                                                    MINKOWSKI)

        def sampled(n_cells):
            state = flow.initialize(dom.ConvexDomain.interval(0, 1),
                                    dom.ConvexDomain.interval(-0.5, 0.5),
                                    n_cells, MINKOWSKI)
            u = prof.height(state.grid.nodes[:, 0])
            g = operators.g_value_many(state.grid.gradient(u),
                                  state.grid.hessian(u), MINKOWSKI)
            frozen = dataclasses.replace(state, u=u, u_dot=g)
            window = [frozen, dataclasses.replace(frozen, t=0.1),
                      dataclasses.replace(frozen, t=0.2)]
            return monitors.evolution_residual(window)

        res = [sampled(n) for n in (51, 101, 201)]
        orders = [float(np.log2(a / b)) for a, b in zip(res, res[1:])]
        ok = all(o >= 1.5 for o in orders)
        _report("criterion-7 refinement order", ok,
                f"residuals {res[0]:.2e} -> {res[1]:.2e} -> {res[2]:.2e}, "
                f"orders {orders[0]:.2f}, {orders[1]:.2f} (>= 1.5)")


class TestCriterion8_RateDuality:
    def test_dual_rates_at_ten_sampled_times(self, run1):
        states = run1.states
        idx = np.linspace(0, len(states) - 1, 10).astype(int)
        h2 = run1.state0.grid.h_ref**2
        defects = [monitors.duality_rate_defect(states[i]) for i in idx]
        worst = max(defects)
        _report("criterion-8 rate duality", worst <= 50 * h2,
                f"max |d(u_tilde)/dt + du/dt| = {worst:.3e} over 10 sampled "
                f"times (<= 50 h^2 = {50 * h2:.3e})")


def coarse_speeds(bundle, specs=((16, 32), (32, 64))):
    """C_inf of a reference run's problem on coarser polar grids, then of
    the run itself: one speed per grid doubling, coarsest first."""
    state0 = bundle.state0
    speeds = [flow.run_to_translator(flow.initialize(
        state0.omega, state0.omega_tilde, spec, state0.sig)).c_inf
        for spec in specs]
    return speeds + [bundle.result.c_inf]


class TestCriterion9_Convergence2D:
    def test_radial_error_ratios(self, run3):
        errs = [abs(c - FROZEN_RADIAL_C) for c in coarse_speeds(run3)]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        _report("criterion-9 radial order", min(ratios) >= 3.5,
                f"|C - C_shoot| {errs[0]:.3e} -> {errs[1]:.3e} -> "
                f"{errs[2]:.3e} over 16x32 to 64x128, ratios "
                f"{ratios[0]:.3f}, {ratios[1]:.3f} (>= 3.5)")

    def test_ellipse_observed_order(self, run4):
        c16, c32, c64 = coarse_speeds(run4)
        order = float(np.log2((c32 - c16) / (c64 - c32)))
        _report("criterion-9 ellipse order", 1.8 <= order <= 2.2,
                f"C {c16:.10f}, {c32:.10f}, {c64:.10f} over 16x32 to "
                f"64x128, observed order {order:.3f} (in [1.8, 2.2])")


class TestReferenceRunsKeepTheirSteps:
    """Not a criterion: the four reference runs take the steps pinned
    here under the default controls applied in the base domain's units
    (the unit disk's ceiling is 10 pi; runs 3 and 4 took 4 steps at an
    absolute tau_max = 10, and the runs 5, 6, 6 and 7 at tau_max = 1), and
    reach the speeds they had when every step was solved to tol_newton at
    tau_max = 1, before run_to_translator solved its early steps only to
    its forcing term."""

    PINNED = {
        "run1": (3, 1.0986057923592785),
        "run2": (4, 1.5708194687228099),
        "run3": (3, 1.0735278531638637),
        "run4": (3, 0.6727546499692619),
    }

    def test_steps_and_speeds(self, run1, run2, run3, run4):
        for name, bundle in zip(self.PINNED, (run1, run2, run3, run4)):
            steps, c_inf = self.PINNED[name]
            assert bundle.result.steps == steps, name
            assert abs(bundle.result.c_inf - c_inf) <= 1e-10, name
