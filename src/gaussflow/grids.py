"""Structured grids with sparse gradient and Hessian stencil operators.

Two grid families cover the supported domains:

* ``LineGrid``: N+1 uniformly spaced nodes on an interval. Centered
  second-order stencils inside, one-sided second-order at the two ends.

* ``MappedDiskGrid``: a polar reference grid on the unit disk mapped by
  x = A xhat + c with A symmetric positive definite, so balls and
  ellipses get exact boundaries and an exact affine chain rule
  (grad_x = A^{-1} grad_xhat, Hess_x = A^{-1} Hess_xhat A^{-1}).
  The pole is a single shared unknown; its derivative rows come from a
  least-squares quadratic fit through the first ring, which is exact for
  quadratics and second-order accurate in general. Theta is periodic and
  the node count there must be even so antipodal stencils exist.

Every grid exposes the same surface: node coordinates, interior and
boundary index sets, sparse first/second derivative operators, and the
``gradient`` / ``hessian`` convenience evaluators used throughout the
solver and the monitors. ``stencil_pattern`` is the fixed sparsity
pattern the Newton Jacobian is assembled on; it is built on first use,
so grids that never take an implicit step do not pay for it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp


def _csr(n: int, entries) -> sp.csr_matrix:
    """n x n CSR matrix from (rows, cols, values) triplets that broadcast."""
    rows, cols, vals = zip(*(
        (a.ravel() for a in np.broadcast_arrays(r, c, v)) for r, c, v in entries))
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


class StencilPattern:
    """Union CSC pattern of a list of square stencils, with their values on it.

    ``assemble(coef)`` returns sum_s diag(coef[s]) @ stencils[s] on the
    union pattern: coef has one row per stencil and one column per node.
    Entries that cancel or are never weighted stay as explicit zeros, so
    every assembly shares one structure and no sparse products are formed.
    """

    def __init__(self, stencils):
        stencils = [sp.csc_matrix(s, copy=True) for s in stencils]
        for st in stencils:
            st.sum_duplicates()
            st.eliminate_zeros()
        union = abs(stencils[0])
        for st in stencils[1:]:
            union = union + abs(st)
        union.sort_indices()
        self.indices, self.indptr = union.indices, union.indptr
        self.n_nodes = union.shape[0]
        # values[s, e]: stencil s at pattern entry e, found by its CSC key
        # col * n + row (the keys of a sorted CSC pattern ascend)
        keys = self._keys(union)
        self._values = np.zeros((len(stencils), union.nnz))
        for s, st in enumerate(stencils):
            self._values[s, np.searchsorted(keys, self._keys(st))] = st.data

    def _keys(self, mat) -> np.ndarray:
        cols = np.repeat(np.arange(self.n_nodes), np.diff(mat.indptr))
        return cols * self.n_nodes + mat.indices

    @property
    def n_stencils(self) -> int:
        return self._values.shape[0]

    def assemble(self, coef: np.ndarray) -> sp.csc_matrix:
        data = np.einsum("se,se->e", coef[:, self.indices], self._values)
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=(self.n_nodes, self.n_nodes))


class _StencilGrid:
    """Surface shared by the grid families."""

    @cached_property
    def stencil_pattern(self) -> StencilPattern:
        """Pattern of the identity, d_first[k], then d_second[k][l] (k <= l)."""
        second = [self.d_second[k][l]
                  for k in range(self.dim) for l in range(k, self.dim)]
        return StencilPattern([sp.identity(self.n_nodes), *self.d_first, *second])

    def monitor_tol(self, tau_max: float) -> float:
        """Truncation-scaled audit tolerance 10 (h^2 + tau_max h)."""
        return 10.0 * (self.h_ref**2 + tau_max * self.h_ref)


class LineGrid(_StencilGrid):
    """Uniform 1D grid on [a, b] with N intervals (N + 1 nodes)."""

    # SuperLU column ordering for the Newton Jacobian. It is banded, so
    # the natural order gives the least fill (MMD on A^T + A adds 30 %).
    column_ordering = "NATURAL"

    def __init__(self, a: float, b: float, n_cells: int):
        if n_cells < 4:
            raise ValueError("line grid needs at least 4 cells")
        if not b > a:
            raise ValueError("line grid needs a < b")
        self.dim = 1
        self.n_nodes = n_cells + 1
        self.h = (b - a) / n_cells
        x = np.linspace(a, b, self.n_nodes)
        self.nodes = x[:, None]
        self.interior = np.arange(1, n_cells)
        self.boundary = np.array([0, n_cells])
        # interior nodes whose stencils see only centered-scheme values;
        # residual audits that second-difference derived fields (mean
        # curvature and friends) are restricted to these, since derived
        # values at one-sided rows carry a different truncation constant.
        self.audit_interior = np.arange(2, n_cells - 1)
        self.h_ref = self.h
        self.anchor = int(np.argmin(np.abs(x - 0.5 * (a + b))))
        self._build_operators()

    def _build_operators(self):
        m, h = self.n_nodes, self.h
        i = np.arange(1, m - 1)
        end = m - 1
        # centered inside, one-sided second order rows at the ends
        self.d_first = [_csr(m, [
            (i, i - 1, -0.5 / h),
            (i, i + 1, 0.5 / h),
            (0, [0, 1, 2], np.array([-3.0, 4.0, -1.0]) / (2.0 * h)),
            (end, [end - 2, end - 1, end],
             np.array([1.0, -4.0, 3.0]) / (2.0 * h)),
        ])]
        self.d_second = [[_csr(m, [
            (i, i - 1, 1.0 / h**2),
            (i, i, -2.0 / h**2),
            (i, i + 1, 1.0 / h**2),
            (0, [0, 1, 2, 3], np.array([2.0, -5.0, 4.0, -1.0]) / h**2),
            (end, [end - 3, end - 2, end - 1, end],
             np.array([-1.0, 4.0, -5.0, 2.0]) / h**2),
        ])]]

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return (self.d_first[0] @ u)[:, None]

    def hessian(self, u: np.ndarray) -> np.ndarray:
        return (self.d_second[0][0] @ u)[:, None, None]


class MappedDiskGrid(_StencilGrid):
    """Polar grid on the unit disk pushed forward by x = A xhat + c."""

    # Minimum degree on A^T + A: at 32 x 64 the Newton Jacobian's LU fill
    # drops from 187k (COLAMD, the SuperLU default) to 99k.
    column_ordering = "MMD_AT_PLUS_A"

    def __init__(self, a_map, center, n_rho: int, n_theta: int):
        a_map = np.atleast_2d(np.asarray(a_map, dtype=float))
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if a_map.shape != (2, 2):
            raise ValueError("mapped disk grids are two-dimensional")
        if not np.allclose(a_map, a_map.T, atol=1e-13):
            raise ValueError("affine matrix must be symmetric")
        if np.linalg.eigvalsh(a_map)[0] <= 0:
            raise ValueError("affine matrix must be positive definite")
        if n_theta % 2 != 0:
            raise ValueError("n_theta must be even (antipodal stencils at the pole)")
        if n_rho < 4 or n_theta < 8:
            raise ValueError("disk grid needs n_rho >= 4 and n_theta >= 8")

        self.dim = 2
        self.a_map = a_map
        self.a_inv = np.linalg.inv(a_map)
        self.center = center
        self.n_rho = n_rho
        self.n_theta = n_theta
        self.d_rho = 1.0 / n_rho
        self.d_theta = 2.0 * np.pi / n_theta
        self.n_nodes = 1 + n_rho * n_theta

        rho = np.arange(1, n_rho + 1) * self.d_rho
        theta = np.arange(n_theta) * self.d_theta
        rr, tt = np.meshgrid(rho, theta, indexing="ij")
        ref = np.stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()], axis=1)
        ref = np.vstack([np.zeros((1, 2)), ref])
        self.ref_nodes = ref
        self.nodes = ref @ a_map.T + center

        self.boundary = np.arange(self.index(n_rho, 0), self.index(n_rho, 0) + n_theta)
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.boundary] = False
        self.interior = np.nonzero(mask)[0]
        # rings 2 .. n_rho - 2: stencil-clean for audits of derived fields
        # (ring 1 sees the pole's fitted values, ring n_rho - 1 sees the
        # boundary's one-sided values)
        self.audit_interior = np.arange(self.index(2, 0),
                                        self.index(n_rho - 1, 0))
        self.anchor = 0  # pole sits at the centroid

        sigma_max = float(np.linalg.eigvalsh(a_map)[-1])
        self.h_ref = sigma_max * max(self.d_rho, self.d_theta)
        self._build_operators()

    def index(self, j: int, m: int) -> int:
        """Flat index of ring j >= 1, angle m (pole is index 0)."""
        return 1 + (j - 1) * self.n_theta + (m % self.n_theta)

    # -- polar stencil tables -------------------------------------------------

    def _polar_operators(self):
        """CSR stencils for u_rho, u_rhorho, u_theta, u_thetatheta, u_rhotheta.

        Rows are rings 1..n_rho (the pole row stays empty). Index arrays
        run over (ring, angle); ``index`` wraps the angle periodically.
        """
        nt, nr, n = self.n_theta, self.n_rho, self.n_nodes
        drho, dth = self.d_rho, self.d_theta
        m = np.arange(nt)
        ring = np.arange(1, nr + 1)[:, None]
        inner = np.arange(1, nr)[:, None]  # rings with a ring above
        rows, rows_in, rows_b = (self.index(ring, m), self.index(inner, m),
                                 self.index(nr, m))
        above = self.index(inner + 1, m)
        below = np.where(inner == 1, 0, self.index(inner - 1, m))  # pole
        b1, b2, b3 = (self.index(nr - k, m) for k in (1, 2, 3))

        # theta derivatives: centered, periodic (pole row excluded)
        ops = {
            "t": [(rows, self.index(ring, m + 1), 0.5 / dth),
                  (rows, self.index(ring, m - 1), -0.5 / dth)],
            "tt": [(rows, self.index(ring, m + 1), 1.0 / dth**2),
                   (rows, rows, -2.0 / dth**2),
                   (rows, self.index(ring, m - 1), 1.0 / dth**2)],
            # centered in rho inside; boundary ring one-sided second order
            "r": [(rows_in, above, 0.5 / drho),
                  (rows_in, below, -0.5 / drho),
                  (rows_b, rows_b, 1.5 / drho),
                  (rows_b, b1, -2.0 / drho),
                  (rows_b, b2, 0.5 / drho)],
            "rr": [(rows_in, above, 1.0 / drho**2),
                   (rows_in, rows_in, -2.0 / drho**2),
                   (rows_in, below, 1.0 / drho**2),
                   (rows_b, rows_b, 2.0 / drho**2),
                   (rows_b, b1, -5.0 / drho**2),
                   (rows_b, b2, 4.0 / drho**2),
                   (rows_b, b3, -1.0 / drho**2)],
            "rt": [],
        }
        # centered cross term (u_theta vanishes at the pole, so ring 1
        # has no term below); one-sided in rho on the boundary ring
        mid = np.arange(2, nr)[:, None]
        for shift, w in ((1, 0.5 / dth), (-1, -0.5 / dth)):
            ops["rt"] += [
                (rows_in, self.index(inner + 1, m + shift), w * 0.5 / drho),
                (self.index(mid, m), self.index(mid - 1, m + shift),
                 -w * 0.5 / drho),
                (rows_b, self.index(nr, m + shift), w * 1.5 / drho),
                (rows_b, self.index(nr - 1, m + shift), -w * 2.0 / drho),
                (rows_b, self.index(nr - 2, m + shift), w * 0.5 / drho),
            ]
        return {key: _csr(n, entries) for key, entries in ops.items()}

    def _pole_fit_rows(self):
        """Least-squares quadratic fit rows for the pole derivatives.

        Fits u - u_pole ~ g . xhat + 0.5 xhat^T M xhat over the first ring;
        the five coefficients (g1, g2, M11, M12, M22) are resolved by the
        modes {cos, sin, const, cos2, sin2} on the ring, so one ring plus
        the pole determines the full reference jet.
        """
        nt = self.n_theta
        rho1 = self.d_rho
        theta = np.arange(nt) * self.d_theta
        xh = rho1 * np.cos(theta)
        yh = rho1 * np.sin(theta)
        basis = np.stack([xh, yh, 0.5 * xh * xh, xh * yh, 0.5 * yh * yh], axis=1)
        # weights: coeffs = W (u_ring - u_pole)
        w = np.linalg.pinv(basis)
        return w, self.index(1, np.arange(nt))

    def _build_operators(self):
        mats = self._polar_operators()
        n = self.n_nodes
        rho = np.linalg.norm(self.ref_nodes, axis=1)
        theta = np.arctan2(self.ref_nodes[:, 1], self.ref_nodes[:, 0])
        cos, sin = np.cos(theta), np.sin(theta)
        inv_rho = np.zeros(n)
        inv_rho[1:] = 1.0 / rho[1:]

        def dia(vec):
            return sp.diags(vec)

        d_r, d_rr = mats["r"], mats["rr"]
        d_t, d_tt = mats["t"], mats["tt"]
        d_rt = mats["rt"]

        # reference Cartesian derivatives from polar ones
        gx = dia(cos) @ d_r - dia(sin * inv_rho) @ d_t
        gy = dia(sin) @ d_r + dia(cos * inv_rho) @ d_t
        hxx = (
            dia(cos * cos) @ d_rr
            - dia(2.0 * cos * sin * inv_rho) @ d_rt
            + dia(sin * sin * inv_rho**2) @ d_tt
            + dia(sin * sin * inv_rho) @ d_r
            + dia(2.0 * cos * sin * inv_rho**2) @ d_t
        )
        hyy = (
            dia(sin * sin) @ d_rr
            + dia(2.0 * cos * sin * inv_rho) @ d_rt
            + dia(cos * cos * inv_rho**2) @ d_tt
            + dia(cos * cos * inv_rho) @ d_r
            - dia(2.0 * cos * sin * inv_rho**2) @ d_t
        )
        hxy = (
            dia(cos * sin) @ d_rr
            + dia((cos * cos - sin * sin) * inv_rho) @ d_rt
            - dia(cos * sin * inv_rho**2) @ d_tt
            - dia(cos * sin * inv_rho) @ d_r
            - dia((cos * cos - sin * sin) * inv_rho**2) @ d_t
        )

        # pole rows from the quadratic fit
        w_fit, ring_cols = self._pole_fit_rows()
        pole_cols = np.concatenate([[0], ring_cols])

        def with_pole_row(mat, weights):
            row = sp.csr_matrix(
                (np.concatenate([[-np.sum(weights)], weights]), pole_cols,
                 [0, pole_cols.size]), shape=(1, n))
            out = sp.vstack([row, mat[1:]], format="csr")
            # sorted rows keep the chain-rule sums and every later
            # matrix-vector product in a fixed summation order
            out.sort_indices()
            return out

        gx, gy, hxx, hxy, hyy = (
            with_pole_row(mat, w_fit[k])
            for k, mat in enumerate((gx, gy, hxx, hxy, hyy)))

        # affine chain rule to physical coordinates
        ai = self.a_inv
        ref_grad = [gx, gy]
        ref_hess = [[hxx, hxy], [hxy, hyy]]
        self.d_first = [
            sum(ai[k, l] * ref_grad[l] for l in range(2)) for k in range(2)
        ]
        self.d_second = [[None, None], [None, None]]
        for k in range(2):
            for l in range(k, 2):
                acc = sum(
                    ai[k, a] * ai[l, b] * ref_hess[a][b]
                    for a in range(2)
                    for b in range(2)
                )
                self.d_second[k][l] = acc.tocsr()
                self.d_second[l][k] = self.d_second[k][l]
        self.d_first = [m.tocsr() for m in self.d_first]

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return np.stack([self.d_first[k] @ u for k in range(2)], axis=1)

    def hessian(self, u: np.ndarray) -> np.ndarray:
        out = np.empty((self.n_nodes, 2, 2))
        out[:, 0, 0] = self.d_second[0][0] @ u
        out[:, 0, 1] = self.d_second[0][1] @ u
        out[:, 1, 0] = out[:, 0, 1]
        out[:, 1, 1] = self.d_second[1][1] @ u
        return out
