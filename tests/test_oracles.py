"""Ground-truth oracles: closed forms, the radial translator, derivative checks."""

from types import SimpleNamespace

import numpy as np
import pytest

from gaussflow import oracles
from gaussflow.errors import OracleFailureError
from gaussflow.geometry import EUCLIDEAN, MINKOWSKI

# Shooting speed for the unit ball with boundary slope 0.5 in two
# dimensions (Minkowski), frozen from three independent integrations
# (RK45 bisection, DOP853 bisection, Radau bisection) agreeing to 4e-13.
FROZEN_RADIAL_C = 1.0735826836


class TestClosedForm1D:
    def test_symmetric_minkowski_interval(self):
        c, prof = oracles.translator_1d_closed_form(0, 1, -0.5, 0.5, MINKOWSKI)
        assert c == pytest.approx(np.log(3.0), abs=1e-14)
        assert c == pytest.approx(2 * np.arctanh(0.5), abs=1e-14)
        assert prof.x0 == pytest.approx(0.5, abs=1e-14)

    def test_full_slope_euclidean(self):
        c, _ = oracles.translator_1d_closed_form(0, 1, -1, 1, EUCLIDEAN)
        assert c == pytest.approx(np.pi / 2, abs=1e-14)

    def test_shrinking_target(self):
        for d in (0.5, 0.1, 1e-4):
            c, _ = oracles.translator_1d_closed_form(-1, 1, -d, d, MINKOWSKI)
            assert c == pytest.approx(np.arctanh(d), abs=1e-14)
        c, _ = oracles.translator_1d_closed_form(-1, 1, -1e-9, 1e-9, MINKOWSKI)
        assert c < 2e-9

    @pytest.mark.parametrize("sig", [MINKOWSKI, EUCLIDEAN])
    def test_profile_satisfies_translator_ode(self, sig):
        c, prof = oracles.translator_1d_closed_form(0, 1, -0.5, 0.5, sig)
        x = np.linspace(0.02, 0.98, 41)
        h = 1e-6
        phi = prof.slope(x)
        dphi = (prof.slope(x + h) - prof.slope(x - h)) / (2 * h)
        sign = -1.0 if sig == MINKOWSKI else 1.0
        assert np.max(np.abs(dphi - c * (1 + sign * phi**2))) < 1e-7

    def test_height_integrates_slope(self):
        c, prof = oracles.translator_1d_closed_form(0, 1, -0.5, 0.5, MINKOWSKI)
        x = np.linspace(0.05, 0.95, 31)
        h = 1e-6
        du = (prof.height(x + h) - prof.height(x - h)) / (2 * h)
        assert np.max(np.abs(du - prof.slope(x))) < 1e-8

    def test_euclidean_height_vanishes_at_x0_and_integrates_slope(self):
        _, prof = oracles.translator_1d_closed_form(0, 1, -0.5, 0.5, EUCLIDEAN)
        assert prof.height(prof.x0) == 0.0
        x = np.linspace(0.05, 0.95, 31)
        errors = []
        for delta in (1e-2, 5e-3):
            du = (prof.height(x + delta) - prof.height(x - delta)) / (2 * delta)
            errors.append(np.max(np.abs(du - prof.slope(x))))
        # the centred difference errs by delta^2 u_xxx / 6 + O(delta^4)
        assert errors[0] < 1e-4
        assert errors[1] == pytest.approx(errors[0] / 4, rel=0.01)

    def test_prescribed_gradient_image_hit_exactly(self):
        _, prof = oracles.translator_1d_closed_form(0.2, 1.4, -0.3, 0.8,
                                                    MINKOWSKI)
        assert prof.slope(0.2) == pytest.approx(-0.3, abs=1e-14)
        assert prof.slope(1.4) == pytest.approx(0.8, abs=1e-14)

    @pytest.mark.parametrize("args", [
        (1, 0, -0.5, 0.5, MINKOWSKI),   # a >= b
        (0, 1, 0.5, -0.5, MINKOWSKI),   # c >= d
        (0, 1, -1.0, 0.5, MINKOWSKI),   # slope at the causal limit
        (0, 1, -0.5, 1.5, MINKOWSKI),
    ])
    def test_bad_arguments(self, args):
        with pytest.raises(ValueError):
            oracles.translator_1d_closed_form(*args)


class TestRadialShooting:
    def test_matches_closed_form_in_1d(self):
        prof = oracles.translator_radial_shooting(1.0, 0.5, 1, MINKOWSKI,
                                                  tol=1e-10)
        c_closed, _ = oracles.translator_1d_closed_form(-1, 1, -0.5, 0.5,
                                                        MINKOWSKI)
        assert prof.c_speed == pytest.approx(c_closed, abs=1e-9)

    def test_frozen_regression_constant(self):
        prof = oracles.translator_radial_shooting(1.0, 0.5, 2, MINKOWSKI,
                                                  tol=1e-10)
        assert prof.c_speed == pytest.approx(FROZEN_RADIAL_C, abs=1e-8)

    def test_vanishing_target_slope(self):
        prof = oracles.translator_radial_shooting(1.0, 1e-6, 2, MINKOWSKI,
                                                  tol=1e-12)
        assert prof.c_speed < 3e-6
        assert np.max(np.abs(prof.phi)) <= 1e-6 + 1e-12

    def test_speed_monotone_in_boundary_slope(self):
        speeds = [
            oracles.translator_radial_shooting(1.0, rho, 2, MINKOWSKI,
                                               tol=1e-9).c_speed
            for rho in (0.2, 0.4, 0.6, 0.8)
        ]
        assert all(a < b for a, b in zip(speeds, speeds[1:]))

    def test_profile_invariants(self):
        prof = oracles.translator_radial_shooting(1.0, 0.5, 2, MINKOWSKI,
                                                  tol=1e-10)
        assert prof.phi[0] == 0.0
        assert np.all(np.diff(prof.phi) > 0)
        assert np.max(prof.phi) < 1.0
        assert prof.phi[-1] == pytest.approx(0.5, abs=1e-9)

    def test_ode_residual_within_tolerance(self):
        tol = 1e-10
        prof = oracles.translator_radial_shooting(1.0, 0.5, 2, MINKOWSKI,
                                                  tol=tol)
        assert oracles.radial_ode_residual(prof) <= 10 * tol

    def test_euclidean_case_runs(self):
        prof = oracles.translator_radial_shooting(1.0, 1.0, 2, EUCLIDEAN,
                                                  tol=1e-9)
        assert prof.c_speed > 0
        assert prof.phi[-1] == pytest.approx(1.0, abs=1e-8)

    def test_frozen_constant_to_the_requested_tolerance(self):
        prof = oracles.translator_radial_shooting(1.0, 0.5, 2, MINKOWSKI,
                                                  tol=1e-10)
        assert abs(prof.c_speed - FROZEN_RADIAL_C) <= 1e-10

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("sig, rho", [(MINKOWSKI, 0.5), (EUCLIDEAN, 5.0)])
    def test_one_integration_per_call(self, monkeypatch, n, sig, rho):
        calls = []
        real = oracles.solve_ivp

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracles, "solve_ivp", counted)
        oracles.translator_radial_shooting(1.0, rho, n, sig, tol=1e-10)
        assert len(calls) == 1
        assert calls[0]["method"] == "DOP853"

    def test_no_crossing_raises(self, monkeypatch):
        # an integration that reaches the end of its span without the event
        def no_event(fun, t_span, y0, **kwargs):
            return SimpleNamespace(status=0, message="reached the end",
                                   t_events=[np.array([])])

        monkeypatch.setattr(oracles, "solve_ivp", no_event)
        with pytest.raises(OracleFailureError, match="did not reach"):
            oracles.translator_radial_shooting(1.0, 0.5, 2, MINKOWSKI, tol=1e-10)

    def test_non_increasing_profile_raises(self, monkeypatch):
        # the event at the true crossing, but an angle that stalls on a
        # plateau halfway there
        real = oracles.solve_ivp

        def stalling(*args, **kwargs):
            sol = real(*args, **kwargs)
            smooth = sol.sol
            sol.sol = lambda s: np.minimum(smooth(s), 0.5 * np.arctanh(0.5))
            return sol

        monkeypatch.setattr(oracles, "solve_ivp", stalling)
        with pytest.raises(OracleFailureError, match="not strictly increasing"):
            oracles.translator_radial_shooting(1.0, 0.5, 2, MINKOWSKI, tol=1e-10)

    @pytest.mark.parametrize("sig, rho", [
        (MINKOWSKI, 1e-6), (MINKOWSKI, 0.5), (MINKOWSKI, 0.9), (MINKOWSKI, 0.999),
        (EUCLIDEAN, 0.1), (EUCLIDEAN, 1.0), (EUCLIDEAN, 5.0), (EUCLIDEAN, 20.0),
    ])
    def test_one_dimension_is_the_closed_form(self, sig, rho):
        # w' = 1 for n = 1, so the integration is exact up to rounding
        prof = oracles.translator_radial_shooting(1.0, rho, 1, sig, tol=1e-10)
        c_closed, _ = oracles.translator_1d_closed_form(-1, 1, -rho, rho, sig)
        assert abs(prof.c_speed - c_closed) <= 1e-14 * max(1.0, c_closed)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("sig, rho", [
        (MINKOWSKI, 0.1), (MINKOWSKI, 0.5), (MINKOWSKI, 0.99),
        (EUCLIDEAN, 0.1), (EUCLIDEAN, 1.0), (EUCLIDEAN, 5.0),
        # steep slopes: the ODE residual integrates the angle arctan(phi)
        (EUCLIDEAN, 30.0), (EUCLIDEAN, 50.0),
    ])
    def test_sweep(self, n, sig, rho):
        tol = 1e-10
        prof = oracles.translator_radial_shooting(1.0, rho, n, sig, tol=tol)
        assert prof.phi[-1] == pytest.approx(rho, abs=1e-9)
        assert np.all(np.diff(prof.phi) > 0)
        assert oracles.radial_ode_residual(prof) <= 10 * tol
        # r -> r / 2 maps the profile over R = 1 to the one over R = 1/2
        half = oracles.translator_radial_shooting(0.5, rho, n, sig, tol=tol)
        assert half.c_speed == 2.0 * prof.c_speed
        if n == 1:
            c_closed, _ = oracles.translator_1d_closed_form(-1, 1, -rho, rho, sig)
            assert prof.c_speed == pytest.approx(c_closed, abs=1e-9)

    def test_steep_euclidean_image_is_bracketed(self):
        # C = 10.2 lies far above the lower bound n arctan(rho) / R = 4.12
        prof = oracles.translator_radial_shooting(1.0, 5.0, 3, EUCLIDEAN, tol=1e-10)
        assert prof.c_speed == pytest.approx(10.2001799192, abs=1e-9)

    @pytest.mark.parametrize("kwargs", [
        dict(radius=-1.0, rho=0.5, n=2, sig=MINKOWSKI),
        dict(radius=np.nan, rho=0.5, n=2, sig=MINKOWSKI),
        dict(radius=np.inf, rho=0.5, n=2, sig=MINKOWSKI),
        dict(radius=1.0, rho=np.nan, n=2, sig=MINKOWSKI),
        dict(radius=1.0, rho=np.inf, n=2, sig=EUCLIDEAN),
        dict(radius=1.0, rho=np.nan, n=2, sig=EUCLIDEAN),
        dict(radius=1.0, rho=1.2, n=2, sig=MINKOWSKI),
        dict(radius=1.0, rho=0.5, n=0, sig=MINKOWSKI),
        dict(radius=1.0, rho=-0.5, n=2, sig=EUCLIDEAN),
        dict(radius=1.0, rho=0.5, n=2, sig=MINKOWSKI, tol=0.0),
        dict(radius=1.0, rho=0.5, n=2, sig=MINKOWSKI, tol=1.0),
        dict(radius=1.0, rho=0.5, n=2, sig=MINKOWSKI, tol=np.nan),
    ])
    def test_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            oracles.translator_radial_shooting(**kwargs)


class TestIdentityDefects:
    @pytest.mark.parametrize("sig", [MINKOWSKI, EUCLIDEAN])
    def test_key_subsets_match_the_full_call(self, sig):
        jets = oracles.random_jets(np.random.default_rng(3), 60, sig)
        full = oracles.identity_defects(jets, sig)
        assert set(full) == set(oracles.IDENTITY_KEYS)
        for keys in (("root", "root-inverse"), ("trace",), ("hessian-slot",),
                     ("normal", "duality")):
            part = oracles.identity_defects(jets, sig, keys=keys)
            assert part == {key: full[key] for key in keys}

    def test_duality_alone_builds_no_graph_geometry(self, monkeypatch):
        # the nodal kernels behind NodalJets, counted where it looks them up
        from gaussflow import geometry
        calls = []
        for name in ("v_many", "metric_lo_many", "metric_up_many",
                     "root_metric_many", "curvature_matrix_many"):
            def counted(*args, _name=name, _real=getattr(geometry, name)):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(geometry, name, counted)
        jets = oracles.random_jets(np.random.default_rng(3), 30, MINKOWSKI)
        oracles.identity_defects(jets, MINKOWSKI, keys=("duality",))
        assert calls == []
        oracles.identity_defects(jets, MINKOWSKI, keys=("trace",))
        assert calls.count("curvature_matrix_many") == len(jets)
        assert set(calls) == {"v_many", "curvature_matrix_many"}
        calls.clear()
        # b^ij and b_ij of one dimension come from one kernel call
        oracles.identity_defects(jets, MINKOWSKI, keys=("root", "root-inverse"))
        assert calls.count("root_metric_many") == len(jets)


class TestFdCheck:
    def test_flat_jets_are_exact(self):
        # p = 0 kills the gradient slot on both sides of the comparison
        import gaussflow.operators as ops
        rng = np.random.default_rng(0)
        for sig in (MINKOWSKI, EUCLIDEAN):
            r = rng.normal(size=(2, 2))
            d2u = 0.5 * (r + r.T)
            _, g_p = ops.g_derivatives(np.zeros(2), d2u, sig)
            assert np.allclose(g_p, 0.0, atol=1e-16)
            eps = 1e-5
            for k in range(2):
                dp = np.zeros(2)
                dp[k] = eps
                plus = ops.g_value(dp, d2u, sig)
                minus = ops.g_value(-dp, d2u, sig)
                assert (plus - minus) / (2 * eps) == pytest.approx(0.0,
                                                                   abs=1e-11)

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            oracles.fd_check_derivatives(10, MINKOWSKI, 1e-8)
        with pytest.raises(ValueError):
            oracles.fd_check_derivatives(10, MINKOWSKI, 1e-2)

    def test_halving_until_floor(self):
        errs = [oracles.fd_check_derivatives(60, EUCLIDEAN, eps, seed=8)
                for eps in (8e-4, 4e-4, 2e-4)]
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0
