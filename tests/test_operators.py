"""Flow operator values, exact derivatives, duality, Legendre machinery."""

import numpy as np
import pytest

from gaussflow import operators as ops
from gaussflow import oracles
from gaussflow.errors import ConvexityError, SpacelikeViolationError
from gaussflow.geometry import EUCLIDEAN, MINKOWSKI, PointJet
from gaussflow.grids import LineGrid


def jet1d(p, r):
    return PointJet(x=np.zeros(1), u=0.0, du=np.array([float(p)]),
                    d2u=np.array([[float(r)]]))


class TestGValue:
    def test_minkowski_1d(self):
        assert ops.g_value(jet1d(0.6, 1.0), MINKOWSKI) == pytest.approx(1.5625)

    @pytest.mark.parametrize("sig", [MINKOWSKI, EUCLIDEAN])
    def test_critical_point(self, sig):
        jet = PointJet(x=np.zeros(2), u=0.0, du=np.zeros(2), d2u=np.eye(2))
        assert ops.g_value(jet, sig) == pytest.approx(2.0)

    def test_euclidean_1d(self):
        assert ops.g_value(jet1d(0.6, 1.0), EUCLIDEAN) == pytest.approx(1 / 1.36)
        assert ops.g_value(jet1d(0.6, 1.0), EUCLIDEAN) == pytest.approx(
            0.73529412, abs=1e-8)

    def test_spacelike_violation(self):
        with pytest.raises(SpacelikeViolationError):
            ops.g_value(jet1d(1.0, 1.0), MINKOWSKI)


class TestGDerivatives:
    def test_minkowski_1d(self):
        d = ops.g_derivatives(jet1d(0.6, 1.0), MINKOWSKI)
        assert d.g_r[0, 0] == pytest.approx(1.5625)
        assert d.g_p[0] == pytest.approx(2.9296875)

    def test_critical_point_kills_gradient_slot(self):
        rng = np.random.default_rng(5)
        r = rng.normal(size=(3, 3))
        jet = PointJet(x=np.zeros(3), u=0.0, du=np.zeros(3),
                       d2u=0.5 * (r + r.T))
        for sig in (MINKOWSKI, EUCLIDEAN):
            d = ops.g_derivatives(jet, sig)
            assert np.allclose(d.g_p, 0.0, atol=1e-15)
            assert np.allclose(d.g_r, np.eye(3), atol=1e-15)

    def test_2d_reduces_to_1d_along_gradient_axis(self):
        jet = PointJet(x=np.zeros(2), u=0.0, du=np.array([0.6, 0.0]),
                       d2u=np.eye(2))
        d = ops.g_derivatives(jet, MINKOWSKI)
        assert np.allclose(d.g_p, [2.9296875, 0.0], atol=1e-12)

    def test_hessian_slot_is_inverse_metric_exactly(self):
        from gaussflow.geometry import metric_up_many
        rng = np.random.default_rng(9)
        for sig in (MINKOWSKI, EUCLIDEAN):
            for _ in range(200):
                n = int(rng.integers(1, 4))
                p = rng.normal(size=n)
                if sig == MINKOWSKI:
                    p = 0.9 * p / max(1.0, np.linalg.norm(p))
                r = rng.normal(size=(n, n))
                jet = PointJet(x=np.zeros(n), u=0.0, du=p, d2u=0.5 * (r + r.T))
                d = ops.g_derivatives(jet, sig)
                assert np.max(np.abs(
                    d.g_r - metric_up_many(p[:, None], sig)[:, :, 0])) <= 1e-14
                assert np.min(np.linalg.eigvalsh(d.g_r)) > 0  # parabolicity

    @pytest.mark.parametrize("sig", [MINKOWSKI, EUCLIDEAN])
    def test_fd_oracle_1000_jets(self, sig):
        err = oracles.fd_check_derivatives(1000, sig, 1e-5, seed=12)
        assert err <= 1e-6

    def test_fd_error_scales_quadratically(self):
        errs = [oracles.fd_check_derivatives(100, MINKOWSKI, eps, seed=3)
                for eps in (4e-4, 2e-4, 1e-4)]
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0

    def test_paper_transcription_ratio_minus_two(self):
        true = ops.g_derivatives(jet1d(0.6, 1.0), MINKOWSKI).g_p[0]
        paper = ops.g_derivatives(jet1d(0.6, 1.0), MINKOWSKI,
                                  paper_form=True).g_p[0]
        assert paper / true == pytest.approx(-2.0, abs=1e-12)
        assert paper == pytest.approx(-4 * 0.6 / 0.8**4, abs=1e-12)


class TestGDual:
    def test_flat_point(self):
        assert ops.g_dual(np.zeros(2), np.eye(2), MINKOWSKI) == pytest.approx(-2.0)

    def test_minkowski_1d(self):
        assert ops.g_dual([0.6], [[2.0]], MINKOWSKI) == pytest.approx(-0.78125)

    def test_self_dual_quadratic(self):
        # u = x^2/2 at x = 0.6: dual Hessian is 1
        val = ops.g_value(jet1d(0.6, 1.0), MINKOWSKI)
        dual = ops.g_dual([0.6], [[1.0]], MINKOWSKI)
        assert val + dual == pytest.approx(0.0, abs=1e-14)
        assert val == pytest.approx(1.5625)

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            ops.g_dual([0.0, 0.0], np.zeros((2, 2)), MINKOWSKI)

    def test_outside_klein_ball_rejected(self):
        with pytest.raises(SpacelikeViolationError):
            ops.g_dual([1.2], [[1.0]], MINKOWSKI)

    @pytest.mark.parametrize("sig", [MINKOWSKI, EUCLIDEAN])
    def test_dual_of_analytic_convex_jets(self, sig):
        """Gdual at the Legendre-matched jet is -G to near machine accuracy."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            p = rng.normal(size=n)
            if sig == MINKOWSKI:
                p = 0.85 * p / max(1.0, np.linalg.norm(p))
            m = rng.normal(size=(n, n))
            r = m @ m.T + 0.3 * np.eye(n)
            jet = PointJet(x=np.zeros(n), u=0.0, du=p, d2u=r)
            dual = ops.g_dual(p, np.linalg.inv(r), sig)
            assert dual == pytest.approx(-ops.g_value(jet, sig), abs=1e-10)


class TestLegendreTransform:
    def test_self_dual_quadratic(self):
        grid = LineGrid(-1.0, 1.0, 100)
        x = grid.nodes[:, 0]
        y, u_t = ops.legendre_transform(0.5 * x**2, grid)
        assert np.allclose(y[:, 0], x, atol=1e-12)
        assert np.allclose(u_t, 0.5 * y[:, 0] ** 2, atol=1e-12)

    def test_steep_quadratic(self):
        grid = LineGrid(0.0, 1.0, 100)
        x = grid.nodes[:, 0]
        y, u_t = ops.legendre_transform(2.0 * x**2, grid)
        assert np.allclose(y[:, 0], 4.0 * x, atol=1e-12)
        assert np.allclose(u_t, y[:, 0] ** 2 / 8.0, atol=1e-12)

    def test_involution_second_order(self):
        def defect(n_cells):
            grid = LineGrid(-0.6, 0.6, n_cells)
            x = grid.nodes[:, 0]
            u = 0.5 * x**2 + x**4 / 12.0
            y, u_t = ops.legendre_transform(u, grid)
            order = np.argsort(y[:, 0])
            dual_grid = LineGrid(float(y[order[0], 0]), float(y[order[-1], 0]),
                                 n_cells)
            ut_grid = np.interp(dual_grid.nodes[:, 0], y[order, 0], u_t[order])
            yy, uu = ops.legendre_transform(ut_grid, dual_grid)
            o2 = np.argsort(yy[:, 0])
            back = np.interp(x, yy[o2, 0], uu[o2])
            return np.max(np.abs(back - u)[5:-5])

        errs = [defect(n) for n in (100, 200, 400)]
        assert errs[-1] < 1e-5
        assert 2.5 < errs[0] / errs[1] < 6.0
        assert 2.5 < errs[1] / errs[2] < 6.0

    def test_nonconvex_field_rejected(self):
        grid = LineGrid(-1.0, 1.0, 50)
        x = grid.nodes[:, 0]
        with pytest.raises(ConvexityError):
            ops.legendre_transform(-(x**2), grid)

    def test_cloud_lands_in_gradient_image_domain(self):
        from gaussflow import flow
        from gaussflow.domains import ConvexDomain, defining_jet_many
        om = ConvexDomain.interval(0, 1)
        ot = ConvexDomain.interval(-0.5, 0.5)
        result = flow.run_to_translator(flow.initialize(om, ot, 101,
                                                        MINKOWSKI))
        state = result.state
        y, _ = ops.legendre_transform(state.u, state.grid)
        h, _ = defining_jet_many(ot, y.T)
        assert np.min(h) >= -10 * state.grid.h_ref**2


class TestStructureReport:
    @staticmethod
    def _state(n_cells=100):
        from gaussflow.domains import ConvexDomain
        from gaussflow.flow import initialize
        return initialize(ConvexDomain.interval(0, 1),
                          ConvexDomain.interval(-0.5, 0.5),
                          n_cells, MINKOWSKI)

    def test_tg_range_matches_formula(self):
        # TG = n + |p|^2 / (1 - |p|^2); at |p| = 0.6 that is 1.5625
        state = self._state()
        p = state.grid.gradient(state.u)
        worst = np.max(np.abs(p))
        rep = ops.structure_report(state)
        assert rep.tg_range[1] == pytest.approx(1 + worst**2 / (1 - worst**2),
                                                abs=1e-12)
        jet_tg = 1 + 0.36 / 0.64
        assert jet_tg == pytest.approx(1.5625)

    def test_curvature_square_sum_2d_example(self):
        from gaussflow.geometry import curvature_matrix_many
        p = np.array([[0.6], [0.0]])  # component-major rows of one node
        r = np.eye(2)[:, :, None]
        kappa = np.linalg.eigvalsh(curvature_matrix_many(p, r, MINKOWSKI)[..., 0])
        assert np.sum(kappa**2) == pytest.approx(5.377197265625)

    def test_sandwich_holds_at_start(self):
        from gaussflow.monitors import RunMonitor
        state0 = self._state()
        mon = RunMonitor(state0)
        assert mon.sandwich_ok()
        rep = ops.structure_report(state0)
        lo, hi = rep.sandwich
        assert lo - mon.tol_mon <= rep.f_range[0]
        assert rep.f_range[1] <= hi + mon.tol_mon
