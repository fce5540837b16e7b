"""Stencil operators on line and mapped-disk grids."""

import numpy as np
import pytest
import scipy.sparse as sp

from gaussflow import domains as dom
from gaussflow.grids import LineGrid, MappedDiskGrid, build_grid
from helpers import stencil_blocks


def reference_line_operators(grid):
    """Line stencils set entry by entry on LIL matrices."""
    m, h = grid.n_nodes, grid.h
    d1 = sp.lil_matrix((m, m))
    d2 = sp.lil_matrix((m, m))
    idx = np.arange(1, m - 1)
    d1[idx, idx - 1] = -0.5 / h
    d1[idx, idx + 1] = 0.5 / h
    d2[idx, idx - 1] = 1.0 / h**2
    d2[idx, idx] = -2.0 / h**2
    d2[idx, idx + 1] = 1.0 / h**2
    d1[0, [0, 1, 2]] = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)
    d1[m - 1, [m - 3, m - 2, m - 1]] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
    d2[0, [0, 1, 2, 3]] = np.array([2.0, -5.0, 4.0, -1.0]) / h**2
    d2[m - 1, [m - 4, m - 3, m - 2, m - 1]] = (
        np.array([-1.0, 4.0, -5.0, 2.0]) / h**2)
    return [d1.tocsr()], [[d2.tocsr()]]


def polar_entries(grid):
    """(rows, cols, values) of the polar stencils, keyed r, rr, t, tt and
    rt, appended one entry at a time over (ring, angle)."""
    nt, nr = grid.n_theta, grid.n_rho
    drho, dth = grid.d_rho, grid.d_theta
    ent = {k: ([], [], []) for k in ("r", "rr", "t", "tt", "rt")}

    def add(key, row, col, val):
        ent[key][0].append(row)
        ent[key][1].append(col)
        ent[key][2].append(val)

    for j in range(1, nr + 1):
        for m in range(nt):
            row = grid.index(j, m)
            below = 0 if j == 1 else grid.index(j - 1, m)
            add("t", row, grid.index(j, m + 1), 0.5 / dth)
            add("t", row, grid.index(j, m - 1), -0.5 / dth)
            add("tt", row, grid.index(j, m + 1), 1.0 / dth**2)
            add("tt", row, row, -2.0 / dth**2)
            add("tt", row, grid.index(j, m - 1), 1.0 / dth**2)
            if j < nr:
                above = grid.index(j + 1, m)
                add("r", row, above, 0.5 / drho)
                add("r", row, below, -0.5 / drho)
                add("rr", row, above, 1.0 / drho**2)
                add("rr", row, row, -2.0 / drho**2)
                add("rr", row, below, 1.0 / drho**2)
                for mm, w in ((m + 1, 0.5 / dth), (m - 1, -0.5 / dth)):
                    add("rt", row, grid.index(j + 1, mm), w * 0.5 / drho)
                    if j > 1:
                        add("rt", row, grid.index(j - 1, mm), -w * 0.5 / drho)
            else:
                j1 = grid.index(j - 1, m)
                j2 = grid.index(j - 2, m)
                j3 = grid.index(j - 3, m)
                add("r", row, row, 1.5 / drho)
                add("r", row, j1, -2.0 / drho)
                add("r", row, j2, 0.5 / drho)
                add("rr", row, row, 2.0 / drho**2)
                add("rr", row, j1, -5.0 / drho**2)
                add("rr", row, j2, 4.0 / drho**2)
                add("rr", row, j3, -1.0 / drho**2)
                for mm, w in ((m + 1, 0.5 / dth), (m - 1, -0.5 / dth)):
                    add("rt", row, grid.index(j, mm), w * 1.5 / drho)
                    add("rt", row, grid.index(j - 1, mm), -w * 2.0 / drho)
                    add("rt", row, grid.index(j - 2, mm), w * 0.5 / drho)
    return ent


def reference_disk_operators(grid):
    """Disk stencils from a per-entry loop over (ring, angle).

    Polar stencils are appended one entry at a time, mapped to reference
    Cartesian derivatives by diagonal scalings, given their pole rows on
    LIL matrices and pushed through the affine chain rule.
    """
    nt, n = grid.n_theta, grid.n_nodes
    ent = polar_entries(grid)
    d_r, d_rr, d_t, d_tt, d_rt = (
        sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        for rows, cols, vals in (ent[k] for k in ("r", "rr", "t", "tt", "rt")))

    rho = np.linalg.norm(grid.ref_nodes, axis=1)
    theta = np.arctan2(grid.ref_nodes[:, 1], grid.ref_nodes[:, 0])
    cos, sin = np.cos(theta), np.sin(theta)
    inv_rho = np.zeros(n)
    inv_rho[1:] = 1.0 / rho[1:]
    dia = sp.diags
    gx = dia(cos) @ d_r - dia(sin * inv_rho) @ d_t
    gy = dia(sin) @ d_r + dia(cos * inv_rho) @ d_t
    hxx = (dia(cos * cos) @ d_rr
           - dia(2.0 * cos * sin * inv_rho) @ d_rt
           + dia(sin * sin * inv_rho**2) @ d_tt
           + dia(sin * sin * inv_rho) @ d_r
           + dia(2.0 * cos * sin * inv_rho**2) @ d_t)
    hyy = (dia(sin * sin) @ d_rr
           + dia(2.0 * cos * sin * inv_rho) @ d_rt
           + dia(cos * cos * inv_rho**2) @ d_tt
           + dia(cos * cos * inv_rho) @ d_r
           - dia(2.0 * cos * sin * inv_rho**2) @ d_t)
    hxy = (dia(cos * sin) @ d_rr
           + dia((cos * cos - sin * sin) * inv_rho) @ d_rt
           - dia(cos * sin * inv_rho**2) @ d_tt
           - dia(cos * sin * inv_rho) @ d_r
           - dia((cos * cos - sin * sin) * inv_rho**2) @ d_t)

    w_fit = grid._pole_fit_rows()
    ring_cols = [grid.index(1, m) for m in range(nt)]
    gx, gy, hxx, hxy, hyy = (m.tolil() for m in (gx, gy, hxx, hxy, hyy))
    for mat, krow in ((gx, 0), (gy, 1), (hxx, 2), (hxy, 3), (hyy, 4)):
        row = w_fit[krow]
        mat.rows[0] = [0] + ring_cols
        mat.data[0] = [-float(np.sum(row))] + [float(v) for v in row]
    gx, gy, hxx, hxy, hyy = (m.tocsr() for m in (gx, gy, hxx, hxy, hyy))

    ai = grid.a_inv
    ref_grad = [gx, gy]
    ref_hess = [[hxx, hxy], [hxy, hyy]]
    d_first = [sum(ai[k, l] * ref_grad[l] for l in range(2)).tocsr()
               for k in range(2)]
    d_second = [[None, None], [None, None]]
    for k in range(2):
        for l in range(k, 2):
            d_second[k][l] = sum(ai[k, a] * ai[l, b] * ref_hess[a][b]
                                 for a in range(2) for b in range(2)).tocsr()
            d_second[l][k] = d_second[k][l]
    return d_first, d_second


def sorted_reference(grid):
    """The disk's Jacobian pattern and mode keys as the grid first built
    them, by sorting, returned in row order.

    The skeleton is one sort of the row-major keys of the diagonal, every
    polar stencil entry and the pole's fit row, and a searchsorted finds
    the diagonal's slots. Each stencil of ``reference_disk_operators`` is
    placed on it by searchsorted. The pattern keeps the slots where some
    stencil is nonzero, and the diagonal, read in CSC order through a
    transpose that carries slot numbers; the mode keys come from each CSC
    slot's row and column, and sorting the slot numbers permutes them back
    to row order. Returns the pattern's (indptr, indices, diagonal slots,
    values, mode keys).
    """
    n, nr, nt = grid.n_nodes, grid.n_rho, grid.n_theta
    ent = polar_entries(grid).values()
    rows = np.concatenate([np.arange(n), np.zeros(nt + 1, dtype=int),
                           *(np.array(r) for r, _, _ in ent)])
    cols = np.concatenate([np.arange(n), np.arange(nt + 1),
                           *(np.array(c) for _, c, _ in ent)])
    keys = np.unique(rows * n + cols)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    diag = np.searchsorted(keys, np.arange(n) * (n + 1))
    first, second = reference_disk_operators(grid)
    values = np.zeros((5, keys.size))
    for s, st in enumerate([*first, second[0][0], second[0][1], second[1][1]]):
        st = st.tocoo()
        values[s, np.searchsorted(keys, st.row * n + st.col)] = st.data
    keep = values.any(axis=0)
    keep[diag] = True
    csc = sp.csr_matrix((np.arange(keys.size), keys % n, indptr),
                        shape=(n, n)).tocsc()
    kept = keep[csc.data]
    slot, r = csc.data[kept], csc.indices[kept]
    c = np.repeat(np.arange(n), np.diff(csc.indptr))[kept]
    ring, angle = grid.node_index
    base = nr * 5 * nt
    csc_keys = np.where(
        r == 0,
        np.where(c == 0, base + 2 * nr, base + nr + ring[c] - 1),
        np.where(c == 0, base + ring[r] - 1,
                 ((ring[r] - 1) * 5 + ring[c] - ring[r] + 3) * nt
                 + (angle[c] - angle[r]) % nt))
    row_order = np.argsort(slot)
    kept_ptr = np.r_[0, np.cumsum(keep)][indptr]
    on_diag = np.zeros(keys.size, dtype=bool)
    on_diag[diag] = True
    return (kept_ptr, (keys % n)[keep], np.flatnonzero(on_diag[keep]),
            values[:, keep], csc_keys[row_order])


def assert_operators_identical(grid, reference):
    """Same CSR arrays, entry for entry and bit for bit."""
    ref_first, ref_second = reference
    first, second = stencil_blocks(grid)
    pairs = list(zip(first, ref_first)) + [
        (second[k][l], ref_second[k][l])
        for k in range(grid.dim) for l in range(grid.dim)]
    for got, ref in pairs:
        assert got.format == "csr"
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


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

    @pytest.mark.parametrize("n_cells", [4, 12, 401])
    def test_operators_match_entrywise_construction(self, n_cells):
        grid = LineGrid(-0.3, 1.2, n_cells)
        assert_operators_identical(grid, reference_line_operators(grid))


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

    # (4, 8): the boundary ring's third ring below is ring 1, and the
    # angle stencils wrap around eight nodes
    @pytest.mark.parametrize("shape", [(8, 16), (24, 48), (32, 64), (4, 8)])
    @pytest.mark.parametrize("a_map, center", [
        (np.eye(2), np.zeros(2)),
        (np.array([[0.8, 0.3], [0.3, 0.5]]), np.array([0.1, -0.2])),
    ], ids=["ball", "shifted-rotated-ellipse"])
    def test_operators_match_entrywise_construction(self, a_map, center,
                                                    shape):
        grid = MappedDiskGrid(a_map, center, *shape)
        assert_operators_identical(grid, reference_disk_operators(grid))

    def test_periodic_wrap(self):
        grid = MappedDiskGrid(np.eye(2), np.zeros(2), 8, 16)
        assert grid.index(3, 16) == grid.index(3, 0)
        assert grid.index(3, -1) == grid.index(3, 15)


class TestStructure:
    """The disk's operators built by arithmetic on its row blocks (the
    pole, ring 1, rings 2 .. n_rho - 1 and the boundary ring), against
    the sort-based build they replaced."""

    # (4, 8): the boundary ring's one-sided stencils reach ring 1, which
    # reaches the pole, and the angle stencils wrap around eight nodes
    @pytest.mark.parametrize("shape", [(4, 8), (5, 10), (6, 12), (32, 64)])
    @pytest.mark.parametrize("a_map, center", [
        (np.eye(2), np.zeros(2)),
        (np.array([[0.8, 0.3], [0.3, 0.5]]), np.array([0.1, -0.2])),
    ], ids=["unit-disk", "shifted-rotated-ellipse"])
    def test_pattern_and_keys_match_the_sorted_build(self, a_map, center,
                                                     shape):
        grid = MappedDiskGrid(a_map, center, *shape)
        want = sorted_reference(grid)
        assert_operators_identical(grid, reference_disk_operators(grid))
        pattern = grid.stencil_pattern
        got = (pattern.indptr, pattern.indices, pattern._diagonal,
               pattern._values, grid.mode_keys)
        for got_part, ref in zip(got, want, strict=True):
            assert np.array_equal(got_part, ref)
        assert pattern._values.flags.c_contiguous


class TestStencilPattern:
    @pytest.mark.parametrize("grid", [
        LineGrid(0.0, 1.0, 12),
        MappedDiskGrid(np.array([[0.8, 0.3], [0.3, 0.5]]), np.zeros(2), 5, 10),
    ], ids=["line", "disk"])
    def test_assembles_row_weighted_stencil_sum(self, grid):
        pattern = grid.stencil_pattern
        assert grid.stencil_pattern is pattern  # built once per grid
        first, second = stencil_blocks(grid)
        stencils = [sp.identity(grid.n_nodes), *first] + [
            second[k][l]
            for k in range(grid.dim) for l in range(k, grid.dim)]
        coef = np.random.default_rng(3).normal(size=(len(stencils), grid.n_nodes))
        expect = sum(sp.diags(c) @ s for c, s in zip(coef, stencils))
        got = pattern.assemble(coef)
        assert got.format == "csr"
        assert np.max(np.abs((got - expect).toarray())) < 1e-12 * np.max(
            np.abs(expect.data))


class TestDescription:
    """What a grid says of itself: its node numbering, its resolution and
    the base domain's inward normals at its boundary nodes."""

    def test_node_index_numbers_rings_and_angles(self):
        grid = MappedDiskGrid(np.eye(2), np.zeros(2), 5, 10)
        assert grid.node_index.shape == (2, grid.n_nodes)
        assert tuple(grid.node_index[:, 0]) == (0, 0)  # the pole
        for k in range(1, grid.n_nodes):
            assert grid.index(*grid.node_index[:, k]) == k
        line = LineGrid(0.0, 1.0, 12)
        assert np.array_equal(line.node_index, [np.arange(13)])

    @pytest.mark.parametrize("omega, spec", [
        (dom.ConvexDomain.interval(-0.3, 1.2), 40),
        (dom.ConvexDomain.interval(-0.3, 1.2), (40,)),
        (dom.ConvexDomain.ellipse([0.1, -0.2], [[1.2, 0.3], [0.3, 2.1]]), (6, 12)),
    ], ids=["line", "line-tuple", "disk"])
    def test_resolution_builds_the_grid_again(self, omega, spec):
        grid = build_grid(omega, spec)
        assert grid.resolution == tuple(np.atleast_1d(spec))
        assert build_grid(omega, grid.resolution) is grid

    def test_resolution_of_another_dimension_is_refused(self):
        with pytest.raises(ValueError, match="a 1D grid needs 1 resolution"):
            build_grid(dom.ConvexDomain.interval(0.0, 1.0), (8, 16))

    @pytest.mark.parametrize("omega, spec", [
        (dom.ConvexDomain.interval(-0.3, 1.2), 40),
        (dom.ConvexDomain.ball([0.0, 0.0], 1.0), (6, 12)),
        (dom.ConvexDomain.ellipse([0.1, -0.2], [[1.2, 0.3], [0.3, 2.1]]), (6, 12)),
    ], ids=["line", "unit-disk", "shifted-rotated-ellipse"])
    def test_boundary_normals_are_the_domains(self, omega, spec):
        grid = build_grid(omega, spec)
        normals = grid.boundary_normals
        assert normals.shape == (grid.dim, grid.boundary.size)
        assert not normals.flags.writeable
        for b, nu in zip(grid.boundary, normals.T, strict=True):
            want = dom.inward_normal(omega, grid.nodes[b])
            assert np.max(np.abs(nu - want)) <= 1e-15


class TestReadOnly:
    @pytest.mark.parametrize("grid", [
        LineGrid(0.0, 1.0, 12),
        MappedDiskGrid(np.array([[0.8, 0.3], [0.3, 0.5]]), np.ones(2), 5, 10),
    ], ids=["line", "disk"])
    def test_every_array_of_a_grid_is_read_only(self, grid):
        names = ["nodes", "node_index", "interior", "boundary",
                 "boundary_normals", "audit_interior"]
        if grid.dim == 2:
            names += ["ref_nodes", "a_map", "a_inv", "center", "mode_keys"]
        stacked, slot = grid._stacked
        pattern = grid.stencil_pattern
        arrays = [getattr(grid, name) for name in names] + [
            stacked.data, stacked.indices, stacked.indptr, slot,
            pattern.indptr, pattern.indices, pattern._diagonal, pattern._values]
        assert not any(a.flags.writeable for a in arrays)

    def test_disk_grid_leaves_its_arguments_writable(self):
        a_map, center = np.eye(2), np.zeros(2)
        MappedDiskGrid(a_map, center, 5, 10)
        assert a_map.flags.writeable and center.flags.writeable


class TestDerivatives:
    @pytest.mark.parametrize("grid", [
        LineGrid(-0.3, 1.2, 40),
        MappedDiskGrid(np.eye(2), np.zeros(2), 8, 16),
        MappedDiskGrid(np.array([[0.38, -0.07], [-0.07, 0.27]]),
                       np.array([0.3, -0.2]), 9, 18),
    ], ids=["line", "disk-ball", "shifted-rotated-ellipse"])
    def test_component_rows_match_gradient_and_hessian_bit_for_bit(self,
                                                                   grid):
        x = grid.nodes
        smooth = np.exp(0.5 * x[:, 0]) * np.cos(x[:, -1]) + x[:, 0] ** 2
        noise = np.random.default_rng(5).normal(size=grid.n_nodes)
        for u in (smooth, noise):
            # the stacked product against each stencil's own product, and
            # the node-major evaluators against the rows
            p_rows, r_rows = grid.derivative_rows(u)
            first, second = stencil_blocks(grid)
            assert p_rows.shape == (grid.dim, grid.n_nodes)
            assert r_rows.shape == (grid.dim, grid.dim, grid.n_nodes)
            for k in range(grid.dim):
                assert np.array_equal(p_rows[k], first[k] @ u)
                for l in range(grid.dim):
                    assert np.array_equal(r_rows[k, l], second[k][l] @ u)
            assert np.array_equal(p_rows, grid.gradient(u).T)
            assert np.array_equal(r_rows, grid.hessian(u).transpose(1, 2, 0))
