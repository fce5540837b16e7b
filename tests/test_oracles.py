"""Ground-truth oracles: closed forms, shooting, derivative checks."""

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

    def test_newton_needs_few_shots(self, monkeypatch):
        real = oracles._shoot

        def shots(n):
            calls = []

            def counted(*args, **kwargs):
                calls.append(kwargs.get("dense", False))
                return real(*args, **kwargs)

            monkeypatch.setattr(oracles, "_shoot", counted)
            oracles.translator_radial_shooting(1.0, 0.5, n, MINKOWSKI, tol=1e-10)
            assert calls.count(True) == 1  # the dense shot of the profile
            return len(calls)

        # n = 1 starts on the exact speed: the start, which is the
        # bracket end, and the dense shot
        assert shots(1) == 2
        assert shots(2) <= 5  # run 3; bisection to 1e-10 took 37

    @pytest.mark.parametrize("sig, c_speed", [(MINKOWSKI, 1.07), (EUCLIDEAN, 1.4)])
    def test_sensitivity_matches_central_difference(self, sig, c_speed):
        h = 1e-4
        ends = [oracles._shoot(c, 1.0, 2, sig).y[0, -1]
                for c in (c_speed + h, c_speed - h)]
        s_end = oracles._shoot(c_speed, 1.0, 2, sig).y[1, -1]
        assert s_end == pytest.approx((ends[0] - ends[1]) / (2 * h), rel=1e-6)

    @pytest.mark.parametrize("s_end, message", [
        (-1.0, "not increasing in C"), (1.0, "failed to be monotone in C"),
    ])
    def test_phi_falling_in_speed_raises(self, monkeypatch, s_end, message):
        # phi(R) = rho - (C - 1.2 c0), above rho at the bracket end, the
        # start c0 = n artanh(rho) / R; s = -1 trips the sign check, s = +1
        # (a wrong derivative) sends Newton down the bracket, where the
        # iterate check sees phi rise
        rho, start = 0.5, 2.0 * np.arctanh(0.5)

        def falling(c_speed, radius, n, sig, dense=False):
            phi = rho - (c_speed - 1.2 * start)
            return SimpleNamespace(t=np.array([0.0, radius]),
                                   y=np.array([[0.0, phi], [0.0, s_end]]))

        monkeypatch.setattr(oracles, "_shoot", falling)
        with pytest.raises(OracleFailureError, match=message):
            oracles.translator_radial_shooting(1.0, rho, 2, MINKOWSKI, tol=1e-10)

    def test_exact_hit_on_the_bracket_end_is_returned(self, monkeypatch):
        # linear phi(R) with exact arithmetic: the first Newton step from
        # the start, the bracket's upper end, lands on the root, where
        # phi(R) == rho makes it the new upper end
        rho, start = 0.5, 2.0 * np.arctanh(0.5)
        c_star = start - 0.25
        shots = []

        def linear(c_speed, radius, n, sig, dense=False):
            shots.append(c_speed)
            phi = rho + (c_speed - c_star) * 0.5
            return SimpleNamespace(t=np.array([0.5 * radius, radius]),
                                   y=np.array([[0.5 * phi, phi], [0.25, 0.5]]))

        monkeypatch.setattr(oracles, "_shoot", linear)
        prof = oracles.translator_radial_shooting(1.0, rho, 2, MINKOWSKI, tol=1e-10)
        assert prof.c_speed == c_star
        # the start n artanh(rho) / R, one Newton step, the dense shot
        assert shots == [start, c_star, c_star]

    @pytest.mark.parametrize("below, raises", [(0.25, True), (0.25e-10, False)])
    def test_first_shot_checks_the_minkowski_bracket(self, monkeypatch, below,
                                                     raises):
        # linear phi(R) whose root lies above the start c0 = n artanh(rho)
        # / R, which no Minkowski speed does: the first shot lands below
        # rho, and the search raises unless c0 is within tol of the root
        rho, start, tol = 0.5, 2.0 * np.arctanh(0.5), 1e-10
        c_star = start + below
        shots = []

        def linear(c_speed, radius, n, sig, dense=False):
            shots.append(c_speed)
            phi = rho + (c_speed - c_star) * 0.5
            return SimpleNamespace(t=np.array([0.5 * radius, radius]),
                                   y=np.array([[0.5 * phi, phi], [0.25, 0.5]]))

        monkeypatch.setattr(oracles, "_shoot", linear)
        if raises:
            with pytest.raises(OracleFailureError, match="no bracket"):
                oracles.translator_radial_shooting(1.0, rho, 2, MINKOWSKI,
                                                   tol=tol)
            assert shots == [start]
        else:
            prof = oracles.translator_radial_shooting(1.0, rho, 2, MINKOWSKI,
                                                      tol=tol)
            assert prof.c_speed == start
            assert shots == [start, start]

    def test_slow_newton_falls_back_to_bisection(self, monkeypatch):
        # phi(R) = rho + 0.1 sign(d) |d|^a, d = C - c_star, a = 1 / 1.99:
        # increasing, and each Newton step maps d to -0.99 d inside the
        # bracket, so Newton alone would take about 2,000 shots; c_star
        # lies below the start c0 = n artanh(rho) / R, as every Minkowski
        # speed does
        rho, start = 0.5, 2.0 * np.arctanh(0.5)
        c_star, power = start - 0.25, 1.0 / 1.99
        shots = []

        def slow(c_speed, radius, n, sig, dense=False):
            shots.append(c_speed)
            assert len(shots) <= 100, "Newton was never cut short"
            d = c_speed - c_star
            phi = rho + 0.1 * np.sign(d) * abs(d) ** power
            sens = 0.1 * power * abs(d) ** (power - 1.0) if d else np.inf
            return SimpleNamespace(t=np.array([0.5 * radius, radius]),
                                   y=np.array([[0.5 * phi, phi], [1.0, sens]]))

        monkeypatch.setattr(oracles, "_shoot", slow)
        prof = oracles.translator_radial_shooting(1.0, rho, 2, MINKOWSKI, tol=1e-10)
        assert abs(prof.c_speed - c_star) <= 1e-10

    def test_blowups_fall_back_to_bisection(self, monkeypatch):
        # only a Euclidean slope can blow up; for rho = 1, n = 2 the start
        # 1.5708 lies below the speed 1.67519 and the first Newton step
        # overshoots it to 1.6779
        real = oracles._shoot
        want = oracles.translator_radial_shooting(1.0, 1.0, 2, EUCLIDEAN,
                                                  tol=1e-10).c_speed
        blown = []

        def blows_up_fast(c_speed, *args, **kwargs):
            if c_speed > 1.677:  # between the speed and the first Newton step
                blown.append(c_speed)
                return None
            return real(c_speed, *args, **kwargs)

        monkeypatch.setattr(oracles, "_shoot", blows_up_fast)
        prof = oracles.translator_radial_shooting(1.0, 1.0, 2, EUCLIDEAN,
                                                  tol=1e-10)
        assert len(blown) >= 2  # the bracket end and the first Newton step
        assert abs(prof.c_speed - want) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("sig, rho", [
        (MINKOWSKI, 0.1), (MINKOWSKI, 0.5), (MINKOWSKI, 0.99),
        (EUCLIDEAN, 0.1), (EUCLIDEAN, 1.0), (EUCLIDEAN, 5.0),
    ])
    def test_sweep(self, n, sig, rho):
        tol = 1e-10
        prof = oracles.translator_radial_shooting(1.0, rho, n, sig, tol=tol)
        assert prof.phi[-1] == pytest.approx(rho, abs=1e-9)
        assert np.all(np.diff(prof.phi) > 0)
        assert oracles.radial_ode_residual(prof) <= 10 * tol
        # r -> r / 2 maps the profile over R = 1 to the one over R = 1/2
        half = oracles.translator_radial_shooting(0.5, rho, n, sig, tol=tol)
        assert half.c_speed == pytest.approx(2.0 * prof.c_speed, abs=1e-9)
        if n == 1:
            c_closed, _ = oracles.translator_1d_closed_form(-1, 1, -rho, rho, sig)
            assert prof.c_speed == pytest.approx(c_closed, abs=1e-9)

    def test_steep_euclidean_image_is_bracketed(self):
        # C = 10.2 lies above the old bracket end 2 n arctan(rho) / R + 1
        prof = oracles.translator_radial_shooting(1.0, 5.0, 3, EUCLIDEAN, tol=1e-10)
        assert prof.c_speed == pytest.approx(10.2001799192, abs=1e-9)

    @pytest.mark.parametrize("kwargs", [
        dict(radius=-1.0, rho=0.5, n=2, sig=MINKOWSKI),
        dict(radius=1.0, rho=1.2, n=2, sig=MINKOWSKI),
        dict(radius=1.0, rho=0.5, n=0, sig=MINKOWSKI),
        dict(radius=1.0, rho=-0.5, n=2, sig=EUCLIDEAN),
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
        calls = []
        real = oracles.graph_geometry_many

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracles, "graph_geometry_many", counted)
        jets = oracles.random_jets(np.random.default_rng(3), 30, MINKOWSKI)
        oracles.identity_defects(jets, MINKOWSKI, keys=("duality",))
        assert calls == []
        oracles.identity_defects(jets, MINKOWSKI, keys=("trace",))
        assert len(calls) == len(jets)


class TestFdCheck:
    def test_flat_jets_are_exact(self):
        # p = 0 kills the gradient slot on both sides of the comparison
        import gaussflow.operators as ops
        from gaussflow.geometry import PointJet
        rng = np.random.default_rng(0)
        for sig in (MINKOWSKI, EUCLIDEAN):
            r = rng.normal(size=(2, 2))
            jet = PointJet(x=np.zeros(2), u=0.0, du=np.zeros(2),
                           d2u=0.5 * (r + r.T))
            d = ops.g_derivatives(jet, sig)
            assert np.allclose(d.g_p, 0.0, atol=1e-16)
            eps = 1e-5
            for k in range(2):
                dp = np.zeros(2)
                dp[k] = eps
                plus = ops.g_value(PointJet(x=jet.x, u=0.0, du=dp,
                                            d2u=jet.d2u), sig)
                minus = ops.g_value(PointJet(x=jet.x, u=0.0, du=-dp,
                                             d2u=jet.d2u), sig)
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
