"""Stencil operators on line and mapped-disk grids."""

import numpy as np
import pytest
import scipy.sparse as sp

from gaussflow.grids import LineGrid, MappedDiskGrid


class TestLineGrid:
    def test_quadratic_is_differentiated_exactly(self):
        grid = LineGrid(-0.3, 1.2, 60)
        x = grid.nodes[:, 0]
        u = 1.7 * x**2 - 0.4 * x + 2.0
        assert np.allclose(grid.gradient(u)[:, 0], 3.4 * x - 0.4, atol=1e-11)
        assert np.allclose(grid.hessian(u)[:, 0, 0], 3.4, atol=1e-9)

    def test_one_sided_rows_second_order(self):
        errs = []
        for n in (50, 100):
            grid = LineGrid(0.0, 1.0, n)
            x = grid.nodes[:, 0]
            u = np.sin(2 * x)
            gerr = np.abs(grid.gradient(u)[:, 0] - 2 * np.cos(2 * x))
            herr = np.abs(grid.hessian(u)[:, 0, 0] + 4 * np.sin(2 * x))
            errs.append(max(gerr[0], gerr[-1], herr[0], herr[-1]))
        assert errs[0] / errs[1] > 3.0

    def test_index_sets(self):
        grid = LineGrid(0.0, 1.0, 10)
        assert list(grid.boundary) == [0, 10]
        assert list(grid.interior) == list(range(1, 10))
        assert list(grid.audit_interior) == list(range(2, 9))
        assert grid.anchor == 5

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            LineGrid(0.0, 1.0, 3)


class TestMappedDiskGrid:
    def test_smooth_function_second_order(self):
        def errors(n_rho, n_theta):
            g = MappedDiskGrid(np.eye(2), np.zeros(2), n_rho, n_theta)
            x, y = g.nodes[:, 0], g.nodes[:, 1]
            u = np.exp(x) * np.sin(y)
            grad = g.gradient(u)
            hess = g.hessian(u)
            ge = max(np.max(np.abs(grad[:, 0] - np.exp(x) * np.sin(y))),
                     np.max(np.abs(grad[:, 1] - np.exp(x) * np.cos(y))))
            he = max(np.max(np.abs(hess[:, 0, 0] - np.exp(x) * np.sin(y))),
                     np.max(np.abs(hess[:, 0, 1] - np.exp(x) * np.cos(y))),
                     np.max(np.abs(hess[:, 1, 1] + np.exp(x) * np.sin(y))))
            return ge, he

        e1 = errors(16, 32)
        e2 = errors(32, 64)
        assert e1[0] / e2[0] > 3.2
        assert e1[1] / e2[1] > 3.2

    def test_pole_rows_exact_for_quadratics(self):
        a_map = np.array([[0.5, 0.1], [0.1, 0.3]])
        grid = MappedDiskGrid(a_map, np.array([0.2, -0.1]), 8, 16)
        m = np.array([[2.0, 0.5], [0.5, 1.5]])
        b = np.array([0.3, -0.7])
        u = (0.5 * np.einsum("ni,ij,nj->n", grid.nodes, m, grid.nodes)
             + grid.nodes @ b + 2.0)
        assert np.allclose(grid.gradient(u)[0], m @ grid.nodes[0] + b,
                           atol=1e-11)
        assert np.allclose(grid.hessian(u)[0], m, atol=1e-10)

    def test_affine_chain_rule(self):
        """Quadratic on a sheared map: derivatives known in closed form."""
        a_map = np.array([[0.7, 0.2], [0.2, 0.4]])
        s = np.array([[3.0, -0.4], [-0.4, 2.0]])

        def errors(n_rho, n_theta):
            grid = MappedDiskGrid(a_map, np.zeros(2), n_rho, n_theta)
            u = 0.5 * np.einsum("ni,ij,nj->n", grid.nodes, s, grid.nodes)
            ge = np.max(np.abs(grid.gradient(u) - grid.nodes @ s))
            he = np.max(np.abs(grid.hessian(u) - s))
            assert np.allclose(grid.hessian(u)[0], s, atol=1e-10)  # pole exact
            return ge, he

        e1 = errors(24, 48)
        e2 = errors(48, 96)
        assert e1[0] / e2[0] > 3.2
        assert e1[1] / e2[1] > 3.2

    def test_boundary_nodes_exactly_on_image_circle(self):
        a_map = np.diag([0.4, 0.25])
        grid = MappedDiskGrid(a_map, np.array([0.1, 0.2]), 8, 16)
        ref = np.linalg.solve(a_map, (grid.nodes[grid.boundary]
                                      - np.array([0.1, 0.2])).T)
        assert np.allclose(np.linalg.norm(ref, axis=0), 1.0, atol=1e-14)

    def test_index_sets_and_anchor(self):
        grid = MappedDiskGrid(np.eye(2), np.zeros(2), 6, 12)
        assert grid.n_nodes == 1 + 6 * 12
        assert grid.anchor == 0
        assert len(grid.boundary) == 12
        assert len(grid.interior) == grid.n_nodes - 12
        # audit interior = rings 2..4
        assert len(grid.audit_interior) == 3 * 12
        assert grid.index(2, 0) == grid.audit_interior[0]

    def test_odd_theta_count_rejected(self):
        with pytest.raises(ValueError):
            MappedDiskGrid(np.eye(2), np.zeros(2), 8, 15)

    def test_asymmetric_map_rejected(self):
        with pytest.raises(ValueError):
            MappedDiskGrid(np.array([[1.0, 0.2], [0.0, 1.0]]), np.zeros(2), 8, 16)

    def test_periodic_wrap(self):
        grid = MappedDiskGrid(np.eye(2), np.zeros(2), 8, 16)
        assert grid.index(3, 16) == grid.index(3, 0)
        assert grid.index(3, -1) == grid.index(3, 15)


class TestStencilPattern:
    @pytest.mark.parametrize("grid", [
        LineGrid(0.0, 1.0, 12),
        MappedDiskGrid(np.array([[0.8, 0.3], [0.3, 0.5]]), np.zeros(2), 5, 10),
    ], ids=["line", "disk"])
    def test_assembles_row_weighted_stencil_sum(self, grid):
        pattern = grid.stencil_pattern
        assert grid.stencil_pattern is pattern  # built once per grid
        stencils = [sp.identity(grid.n_nodes), *grid.d_first] + [
            grid.d_second[k][l]
            for k in range(grid.dim) for l in range(k, grid.dim)]
        coef = np.random.default_rng(3).normal(size=(len(stencils), grid.n_nodes))
        expect = sum(sp.diags(c) @ s for c, s in zip(coef, stencils))
        got = pattern.assemble(coef)
        assert got.format == "csc"
        assert np.max(np.abs((got - expect).toarray())) < 1e-12 * np.max(
            np.abs(expect.data))
