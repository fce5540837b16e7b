"""Pointwise graph geometry: metric factorizations, curvatures, intrinsic
Laplacian."""

import numpy as np
import pytest

from gaussflow import geometry as geo
from gaussflow.errors import SpacelikeViolationError
from gaussflow.grids import LineGrid, MappedDiskGrid


def random_spacelike_jet(rng, n, sig):
    if sig == geo.MINKOWSKI:
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        p = d * rng.uniform(0.0, 0.95)
    else:
        p = rng.normal(size=n)
    r = rng.normal(size=(n, n))
    return geo.PointJet(x=np.zeros(n), u=0.0, du=p, d2u=0.5 * (r + r.T))


class TestGraphGeometry:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("sig", geo.SIGNATURES)
    def test_flat_gradient_identity_hessian(self, n, sig):
        jet = geo.PointJet(x=np.zeros(n), u=0.0, du=np.zeros(n), d2u=np.eye(n))
        g = geo.graph_geometry(jet, sig)
        assert g.v == pytest.approx(1.0)
        assert np.allclose(g.a, np.eye(n), atol=1e-14)
        assert g.H == pytest.approx(float(n))

    def test_minkowski_tilted_plane_curvatures(self):
        jet = geo.PointJet(x=np.zeros(2), u=0.0,
                           du=np.array([0.6, 0.0]), d2u=np.eye(2))
        g = geo.graph_geometry(jet, geo.MINKOWSKI)
        assert g.v == pytest.approx(0.8)
        assert g.b_up[0, 0] == pytest.approx(1.25)
        assert np.allclose(sorted(g.kappa), [1.25, 1.953125], atol=1e-12)
        assert g.H == pytest.approx(3.203125)
        # nondivergence form of v H
        assert g.v * g.H == pytest.approx(np.trace(g.g_up), abs=1e-12)
        assert g.v * g.H == pytest.approx(2.5625)

    def test_euclidean_tilted_plane(self):
        jet = geo.PointJet(x=np.zeros(2), u=0.0,
                           du=np.array([0.6, 0.0]), d2u=np.eye(2))
        g = geo.graph_geometry(jet, geo.EUCLIDEAN)
        assert g.v == pytest.approx(np.sqrt(1.36))
        assert g.v == pytest.approx(1.16619038, abs=1e-8)
        assert g.g_up[0, 0] == pytest.approx(1 - 0.36 / 1.36)
        assert g.g_up[0, 0] == pytest.approx(0.73529412, abs=1e-8)

    @pytest.mark.parametrize("sig", geo.SIGNATURES)
    def test_matrix_identities_random_jets(self, sig):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            jet = random_spacelike_jet(rng, n, sig)
            g = geo.graph_geometry(jet, sig)
            eye = np.eye(n)
            assert np.max(np.abs(g.b_up @ g.b_up - g.g_up)) <= 1e-12
            assert np.max(np.abs(g.g_lo @ g.g_up - eye)) <= 1e-12
            assert np.max(np.abs(g.b_up @ g.b_lo - eye)) <= 1e-12

    def test_trace_identity_random_jets(self):
        from gaussflow.operators import g_value
        rng = np.random.default_rng(55)
        for sig in geo.SIGNATURES:
            for _ in range(500):
                n = int(rng.integers(1, 4))
                jet = random_spacelike_jet(rng, n, sig)
                g = geo.graph_geometry(jet, sig)
                assert g.v * g.H == pytest.approx(g_value(jet, sig), abs=1e-12)

    def test_minkowski_normal_is_unit_timelike(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            jet = random_spacelike_jet(rng, n, geo.MINKOWSKI)
            nu = geo.graph_geometry(jet, geo.MINKOWSKI).nu
            pairing = nu[:-1] @ nu[:-1] - nu[-1] ** 2
            assert pairing == pytest.approx(-1.0, abs=1e-12)

    def test_convex_jets_have_positive_curvatures(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            jet = random_spacelike_jet(rng, n, geo.MINKOWSKI)
            r = jet.d2u @ jet.d2u.T + 0.1 * np.eye(n)  # positive definite
            jet = geo.PointJet(x=jet.x, u=0.0, du=jet.du, d2u=r)
            kappa = geo.graph_geometry(jet, geo.MINKOWSKI).kappa
            assert np.all(kappa > 0)

    @pytest.mark.parametrize("sig,expect", [
        (geo.MINKOWSKI, 1.0 / (1 - 0.36)),
        (geo.EUCLIDEAN, 1.0 / (1 + 0.36)),
    ])
    def test_1d_reduction(self, sig, expect):
        jet = geo.PointJet(x=np.zeros(1), u=0.0,
                           du=np.array([0.6]), d2u=np.array([[1.0]]))
        g = geo.graph_geometry(jet, sig)
        assert g.H * g.v == pytest.approx(expect, abs=1e-12)

    def test_spacelike_violation_raises(self):
        jet = geo.PointJet(x=np.zeros(1), u=0.0,
                           du=np.array([0.9999999]), d2u=np.array([[1.0]]))
        with pytest.raises(SpacelikeViolationError):
            geo.graph_geometry(jet, geo.MINKOWSKI)
        # fine in the Euclidean signature
        geo.graph_geometry(jet, geo.EUCLIDEAN)

    def test_paper_signs_break_square_root_identity(self):
        jet = geo.PointJet(x=np.zeros(2), u=0.0,
                           du=np.array([0.6, 0.0]), d2u=np.eye(2))
        g = geo.graph_geometry(jet, geo.MINKOWSKI, paper_signs=True)
        assert np.max(np.abs(g.b_up @ g.b_up - g.g_up)) > 0.5

    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ValueError):
            geo.PointJet(x=np.zeros(2), u=0.0, du=np.zeros(2),
                         d2u=np.array([[1.0, 0.1], [0.0, 1.0]]))


def _rotated(angle, diag):
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    return rot @ np.diag(diag) @ rot.T


class TestMinEigenvalue:
    CASES = {
        "diagonal": [np.diag([3.0, -2.0]), np.diag([1e-300, 7.0]),
                     np.diag([5.0, 5.0 * (1 + 2**-52)])],
        "repeated": [2.5 * np.eye(2), -np.eye(2), np.zeros((2, 2)),
                     _rotated(0.3, [4.0, 4.0])],
        "indefinite": [np.array([[1.0, 2.0], [2.0, 1.0]]),
                       _rotated(1.1, [-3.0, 0.5]),
                       np.array([[0.0, 1e8], [1e8, 0.0]])],
        "nearly-singular": [_rotated(0.7, [1e-15, 1.0]),
                            _rotated(-0.2, [-1e-17, 1e3]),
                            np.array([[1e8, 1e4], [1e4, 1.0 + 1e-8]]),
                            np.array([[1.0, 1.0], [1.0, 1.0]])],
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_within_four_eps_of_lapack(self, kind):
        # both eigenvalues of each 2x2 case and of its 1x1 corner; the
        # case bordered to 3x3 takes the LAPACK fallback
        # (the kernel takes and returns component-major rows)
        r = np.array(self.CASES[kind])
        for m in (r, r[:, :1, :1]):
            lam = np.linalg.eigvalsh(m)
            err = np.abs(geo.eigenvalues_many(m.transpose(1, 2, 0)).T - lam)
            assert np.all(err <= 4 * np.finfo(float).eps
                          * np.max(np.abs(lam), axis=1, keepdims=True))
        bordered = np.zeros((len(r), 3, 3))
        bordered[:, :2, :2], bordered[:, 2, 2] = r, 2.0
        assert np.array_equal(geo.eigenvalues_many(bordered.transpose(1, 2, 0)).T,
                              np.linalg.eigvalsh(bordered))


class TestLaplaceBeltrami:
    def test_linear_field_constant_gradient_1d(self):
        grid = LineGrid(0.0, 1.0, 50)
        x = grid.nodes[:, 0]
        u = 0.6 * x
        f = 2.0 * x + 1.0
        lap = geo.laplace_beltrami(f, u, grid, geo.MINKOWSKI)
        assert np.max(np.abs(lap[grid.interior])) < 1e-10
        assert np.all(np.isnan(lap[grid.boundary]))

    def test_planar_graph_quadratic_field(self):
        """Constant coefficients: lap_M x1^2 = 2 g^11 = 3.125 for |Du| = 0.6."""
        errs = []
        for n_rho, n_theta in ((16, 32), (32, 64)):
            grid = MappedDiskGrid(np.eye(2), np.zeros(2), n_rho, n_theta)
            u = 0.6 * grid.nodes[:, 0]
            f = grid.nodes[:, 0] ** 2
            lap = geo.laplace_beltrami(f, u, grid, geo.MINKOWSKI)
            errs.append(np.max(np.abs(lap[grid.interior] - 3.125)))
        assert errs[0] < 5.0 * (2 * np.pi / 32) ** 2
        assert errs[0] / errs[1] > 3.0

    def test_euclidean_1d_against_closed_form(self):
        # u' = x => lap_M f = f'' / v^2 + c f' / v with c = -p r / v^3
        grid = LineGrid(-0.5, 0.5, 400)
        x = grid.nodes[:, 0]
        u = 0.5 * x**2
        f = np.sin(x)
        v2 = 1 + x**2
        expected = -np.sin(x) / v2 - x * np.cos(x) / v2**2
        lap = geo.laplace_beltrami(f, u, grid, geo.EUCLIDEAN)
        assert np.max(np.abs(lap[grid.interior] - expected[grid.interior])) < 1e-4
