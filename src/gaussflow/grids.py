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

Every grid exposes the same surface: node coordinates (N, n), those of
the boundary nodes as rows (n, N_b) for the audits, interior and
boundary index sets, and the stencils through two members only.
``derivative_rows`` returns the gradient and the Hessian from one
product with the gradient and distinct Hessian stencils stacked into one
CSR operator, component-major: the gradient as n rows of N node values
and the Hessian as n x n such rows, the one layout the solver, the jets
and the audits work on. ``stencil_pattern`` holds the same stencils on
the pattern the Newton Jacobian is assembled on. No per-stencil matrix
is kept. ``gradient`` and ``hessian`` are the rows' node-major (N, n)
and (N, n, n) transposes, for callers holding node-major jets.

Each grid builds its stencils as one slot table: an int32 CSR skeleton
holding every stencil entry and the diagonal, and one row of values on
it per stencil, the gradient's n, then the Hessian's (k, l) with k <= l;
the disk's polar to Cartesian maps and affine chain rule are array
arithmetic on table rows, their terms summed left to right. The stacked
operator keeps the table's nonzero entries, one row block per stencil.
``stencil_pattern`` is built from the table on first use.

Each grid also owns the linear solver of the Newton Jacobians assembled
on its pattern: ``factor(jac)`` returns an object whose ``solve(b)``
solves J x = b to a residual max-norm of INNER_RTOL ||b||_inf. A line
grid returns the SuperLU of J (``superlu``), which solves exactly. A
disk grid returns a ``FourierChordFactor``: it factors J's average over
the angle, which an FFT in theta splits into one banded ring system per
angular mode, iterates on it, and becomes J's SuperLU where an iteration
fails to cut the residual by INNER_RATIO. The slot to angle-average map
it reads (``mode_keys``) is built once per grid.

A grid is immutable once built: every array it holds (nodes, index
sets, the map, the stacked operator's and the pattern's arrays, the
mode keys) is read-only, so ``build_grid``, which picks the grid of a
domain, shares one grid among all the live states built on equal
domains at one resolution.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import zgbtrf, zgbtrs
from scipy.sparse.linalg import splu

from .domains import ConvexDomain, spd_inv_sqrt

# A chord factor that solves iteratively (FourierChordFactor) solves to a
# residual max-norm of INNER_RTOL times its right-hand side's, and falls
# back to SuperLU where an inner iteration fails to cut the residual
# max-norm below INNER_RATIO times the previous one's.
INNER_RTOL = 1e-4
INNER_RATIO = 0.5


def check_resolution(spec) -> None:
    """Raise ValueError unless ``spec`` sizes a grid: N >= 4 cells in 1D,
    or (n_rho, n_theta) with n_rho >= 4 and n_theta >= 8 even in 2D."""
    if np.ndim(spec) == 0:
        if spec < 4:
            raise ValueError("line grid needs at least 4 cells")
    elif spec[1] % 2 != 0:
        raise ValueError("n_theta must be even (antipodal stencils at the pole)")
    elif spec[0] < 4 or spec[1] < 8:
        raise ValueError("disk grid needs n_rho >= 4 and n_theta >= 8")


def _read_only(*arrays):
    """Mark arrays read-only, so that no holder of a shared grid can
    change what the others compute on."""
    for a in arrays:
        a.flags.writeable = False


def _entries(triplets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) arrays of a list of broadcasting triplets."""
    rows, cols, vals = zip(*(
        (a.ravel() for a in np.broadcast_arrays(r, c, v)) for r, c, v in triplets))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _skeleton(n: int, stencils):
    """int32 CSR indptr and indices of the sorted union of the diagonal
    and the entries of n x n stencils given as (rows, cols, ...), found by
    one sort; the diagonal's slots; and per stencil its entries' slots."""
    diag = np.arange(n) * (n + 1)
    keys = np.concatenate([diag, *(r * n + c for r, c, *_ in stencils)])
    keys.sort()
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
    slots = [np.searchsorted(keys, r * n + c) for r, c, *_ in stencils]
    return (indptr, (keys % n).astype(np.int32), np.searchsorted(keys, diag),
            slots)


class StencilPattern:
    """CSC pattern of diag(coef[0]) + sum_s diag(coef[s]) @ stencils[s - 1].

    The pattern is the union of the diagonal and the stencils' nonzero
    entries, on which each stencil is held as values in CSC order.
    ``assemble(coef)`` puts coef[0] on the diagonal and adds the stencils
    in order, weighting each entry by coef of its row. Entries that
    cancel or are never weighted stay as explicit zeros, so every
    assembly shares one structure; dropping them would let minimum degree
    order a sparser matrix into 1-9 % more LU fill.
    """

    def __init__(self, indptr, indices, diagonal, values):
        self.indptr, self.indices = indptr, indices
        self._diagonal, self._values = diagonal, values
        _read_only(indptr, indices, diagonal, values)
        self.n_nodes = indptr.size - 1
        self.n_stencils = 1 + len(values)

    def assemble(self, coef: np.ndarray) -> sp.csc_matrix:
        data = np.zeros(self.indices.size)
        data[self._diagonal] = coef[0]
        term = np.empty_like(data)
        for c, vals in zip(coef[1:], self._values):
            np.take(c, self.indices, out=term)
            term *= vals
            data += term
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=(self.n_nodes, self.n_nodes))


class _StencilGrid:
    """Surface shared by the grid families."""

    def second_slots(self) -> list:
        """(k, l) with k <= l, row-major: the distinct Hessian entries."""
        return [(k, l) for k in range(self.dim) for l in range(k, self.dim)]

    def _install(self, indptr, indices, diag, table):
        """The stacked operator of a slot table (gradient stencils, then
        the Hessian's (k, l), k <= l, on the skeleton indptr, indices with
        the diagonal at ``diag``); the table waits for ``stencil_pattern``.
        No per-stencil matrix is built. Called last in the constructor, it
        marks every array of the grid read-only."""
        n, dim = self.n_nodes, self.dim
        nonzero = table != 0
        ptr = np.zeros(table.shape[0] * n + 1, dtype=np.int32)
        np.cumsum(np.add.reduceat(nonzero, indptr[:-1], axis=1, dtype=np.int32),
                  out=ptr[1:])
        stacked = sp.csr_matrix(
            (table[nonzero], np.broadcast_to(indices, table.shape)[nonzero], ptr),
            shape=(table.shape[0] * n, n))
        slot = np.empty((dim, dim), dtype=int)
        for s, (k, l) in enumerate(self.second_slots(), start=dim):
            slot[k, l] = slot[l, k] = s
        self._stacked = stacked, slot
        self._table = indptr, indices, diag, table
        _read_only(*(a for a in vars(self).values() if isinstance(a, np.ndarray)),
                   stacked.data, stacked.indices, stacked.indptr, slot,
                   *self._table)

    @cached_property
    def stencil_pattern(self) -> StencilPattern:
        """The skeleton slots where some stencil is nonzero, in CSC order
        (a transpose of the skeleton that carries slot numbers)."""
        indptr, indices, diag, table = self.__dict__.pop("_table")
        keep = (table != 0).any(axis=0)
        keep[diag] = True
        csc = sp.csr_matrix((np.arange(indices.size), indices, indptr),
                            shape=(self.n_nodes,) * 2).tocsc()
        keep = keep[csc.data]
        kept = np.zeros(keep.size + 1, dtype=np.int32)
        np.cumsum(keep, out=kept[1:])
        csc_ptr, rows, perm = kept[csc.indptr], csc.indices[keep], csc.data[keep]
        del csc, keep, kept  # before the gather below, which sets the peak
        on_diag = np.zeros(indices.size, dtype=bool)
        on_diag[diag] = True
        return StencilPattern(csc_ptr, rows, np.flatnonzero(on_diag[perm]),
                              table[:, perm])

    def superlu(self, jac):
        """Sparse LU of a Newton Jacobian in the grid's column ordering.

        SuperLU's symmetric mode with a diagonal pivot threshold of 0.01
        keeps the pivots on the diagonal wherever they are not tiny, so the
        row order follows the symmetric fill-reducing column order (MMD on
        A^T + A in 2D) instead of breaking it with partial pivoting. An
        exactly singular J raises RuntimeError.
        """
        return splu(jac, permc_spec=self.column_ordering, diag_pivot_thresh=0.01,
                    options=dict(SymmetricMode=True))

    def factor(self, jac):
        """The chord factor of a Newton Jacobian: an object whose
        ``solve(b)`` returns J^{-1} b to a residual max-norm of at most
        INNER_RTOL ||b||_inf. Here it is the SuperLU of J, which solves
        directly (``MappedDiskGrid.factor`` iterates)."""
        return self.superlu(jac)

    def derivative_rows(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gradient, Hessian) of u component-major, shapes (n, N) and
        (n, n, N), copied out of one product with the stacked stencils,
        one row block per gradient and distinct Hessian component."""
        stacked, slot = self._stacked
        blocks = (stacked @ u).reshape(-1, self.n_nodes)
        return blocks[:self.dim].copy(), blocks[slot]

    @cached_property
    def boundary_points(self) -> np.ndarray:
        """Coordinates of the boundary nodes as rows (n, N_b)."""
        points = np.ascontiguousarray(self.nodes[self.boundary].T)
        _read_only(points)
        return points

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """The gradient rows of ``derivative_rows`` as an (N, n) view."""
        return self.derivative_rows(u)[0].T

    def hessian(self, u: np.ndarray) -> np.ndarray:
        """The Hessian rows of ``derivative_rows`` as an (N, n, n) view."""
        return self.derivative_rows(u)[1].transpose(2, 0, 1)


class LineGrid(_StencilGrid):
    """Uniform 1D grid on [a, b] with N intervals (N + 1 nodes)."""

    # SuperLU column ordering for the Newton Jacobian. It is banded, so
    # the natural order gives the least fill (MMD on A^T + A adds 30 %).
    column_ordering = "NATURAL"

    def __init__(self, a: float, b: float, n_cells: int):
        check_resolution(n_cells)
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
        inner = m - 2
        # the skeleton is banded: columns 0..3 in the first row, i - 1..i + 1
        # in row i inside and m - 4..m - 1 in the last row; the stencils are
        # centered inside and one-sided second order at the ends
        indptr = np.r_[0, 4 + 3 * np.arange(inner + 1), 3 * inner + 8].astype(np.int32)
        indices = np.concatenate([
            [0, 1, 2, 3],
            (np.arange(1, m - 1)[:, None] + [-1, 0, 1]).ravel(),
            m - 4 + np.arange(4)]).astype(np.int32)
        diag = np.r_[0, indptr[1:m - 1] + 1, indptr[m - 1] + 3]
        table = np.array([np.concatenate([
            np.array([-3.0, 4.0, -1.0, 0.0]) / (2.0 * h),
            np.tile([-0.5 / h, 0.0, 0.5 / h], inner),
            np.array([0.0, 1.0, -4.0, 3.0]) / (2.0 * h),
        ]), np.concatenate([
            np.array([2.0, -5.0, 4.0, -1.0]) / h**2,
            np.tile([1.0 / h**2, -2.0 / h**2, 1.0 / h**2], inner),
            np.array([-1.0, 4.0, -5.0, 2.0]) / h**2,
        ])])
        self._install(indptr, indices, diag, table)

    # bound on each grid class, which perfbench/tracer.py wraps them on
    gradient = _StencilGrid.gradient
    hessian = _StencilGrid.hessian


class MappedDiskGrid(_StencilGrid):
    """Polar grid on the unit disk pushed forward by x = A xhat + c."""

    # SuperLU column ordering, used only where a Fourier chord factor
    # falls back to the LU of J (FourierChordFactor). Minimum degree on
    # A^T + A: at 32 x 64 the Newton Jacobian's LU fill drops from 187k
    # (COLAMD, the SuperLU default) to 99k.
    column_ordering = "MMD_AT_PLUS_A"

    def __init__(self, a_map, center, n_rho: int, n_theta: int):
        # copies: the grid marks its own arrays read-only, not the caller's
        a_map = np.array(a_map, dtype=float, ndmin=2)
        center = np.array(center, dtype=float, ndmin=1)
        if a_map.shape != (2, 2):
            raise ValueError("mapped disk grids are two-dimensional")
        if not np.allclose(a_map, a_map.T, atol=1e-13):
            raise ValueError("affine matrix must be symmetric")
        if np.linalg.eigvalsh(a_map)[0] <= 0:
            raise ValueError("affine matrix must be positive definite")
        check_resolution((n_rho, n_theta))

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
        self.ref_nodes = ref = np.vstack([np.zeros((1, 2)), ref])
        self.nodes = ref @ a_map.T + center

        # the boundary ring is numbered last
        self.interior = np.arange(self.index(n_rho, 0))
        self.boundary = np.arange(self.index(n_rho, 0), self.n_nodes)
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
        """(rows, cols, values) of the stencils for u_rho, u_rhorho,
        u_theta, u_thetatheta and u_rhotheta, keyed r, rr, t, tt, rt.

        Rows are rings 1..n_rho (the pole row stays empty). Index arrays
        run over (ring, angle); ``index`` wraps the angle periodically.
        """
        nt, nr = self.n_theta, self.n_rho
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
        return {key: _entries(entries) for key, entries in ops.items()}

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

    def _reference_rows(self):
        """Skeleton, diagonal slots and the reference Cartesian stencils
        d/dxhat, d/dyhat, then xx, xy, yy as rows on the skeleton: polar
        stencils weighted per row, summed left to right, with the
        quadratic fit as the pole row."""
        n = self.n_nodes
        polar = self._polar_operators()
        w_fit, ring_cols = self._pole_fit_rows()
        pole_cols = np.concatenate([[0], ring_cols])
        indptr, indices, diag, slots = _skeleton(
            n, [*polar.values(), (0 * pole_cols, pole_cols)])
        rho = np.linalg.norm(self.ref_nodes, axis=1)
        theta = np.arctan2(self.ref_nodes[:, 1], self.ref_nodes[:, 0])
        c, s = np.cos(theta), np.sin(theta)
        ir = np.zeros(n)
        ir[1:] = 1.0 / rho[1:]
        terms = (
            [(c, "r"), (-(s * ir), "t")],
            [(s, "r"), (c * ir, "t")],
            [(c * c, "rr"), (-(2.0 * c * s * ir), "rt"), (s * s * ir**2, "tt"),
             (s * s * ir, "r"), (2.0 * c * s * ir**2, "t")],
            [(c * s, "rr"), ((c * c - s * s) * ir, "rt"),
             (-(c * s * ir**2), "tt"), (-(c * s * ir), "r"),
             (-((c * c - s * s) * ir**2), "t")],
            [(s * s, "rr"), (2.0 * c * s * ir, "rt"), (c * c * ir**2, "tt"),
             (c * c * ir, "r"), (-(2.0 * c * s * ir**2), "t")],
        )
        at = dict(zip(polar, slots))
        ref = np.zeros((len(terms), indices.size))
        for row, sum_terms, fit in zip(ref, terms, w_fit):
            for w, key in sum_terms:
                rows, _, vals = polar[key]
                row[at[key]] += w[rows] * vals
            row[slots[-1]] = np.concatenate([[-np.sum(fit)], fit])
        return indptr, indices, diag, ref

    # -- the chord factor -----------------------------------------------------

    def factor(self, jac):
        """The ``FourierChordFactor`` of a Newton Jacobian on the grid's
        ``stencil_pattern``."""
        return FourierChordFactor(self, jac)

    @cached_property
    def mode_keys(self) -> np.ndarray:
        """Per slot of ``stencil_pattern`` (CSC order), int32: the key of
        the angle average the slot's entry enters (``FourierChordFactor``).

        With the pole as ring 0, an entry couples ring j to ring j + d,
        d in -3..1: the boundary ring's one-sided rho stencils reach three
        rings in, and the pole's fit and ring 1's rho stencils reach each
        other. Between rings j >= 1 and j + d >= 1 at angle offset
        a = m' - m mod n_theta its key is ((j - 1) 5 + d + 3) n_theta + a;
        after those n_rho 5 n_theta keys come the pole column of each
        ring, the pole row of each ring and the pole itself.
        """
        pattern = self.stencil_pattern
        nr, nt = self.n_rho, self.n_theta
        node = np.arange(self.n_nodes)
        ring = np.r_[0, node[1:] - 1] // nt + (node > 0)
        angle = (node - 1) % nt
        rows = pattern.indices
        cols = np.repeat(node, np.diff(pattern.indptr))
        d = ring[cols] - ring[rows]
        base = nr * 5 * nt
        keys = np.where(
            rows == 0,
            np.where(cols == 0, base + 2 * nr, base + nr + ring[cols] - 1),
            np.where(cols == 0, base + ring[rows] - 1,
                     ((ring[rows] - 1) * 5 + d + 3) * nt
                     + (angle[cols] - angle[rows]) % nt)).astype(np.int32)
        _read_only(keys)
        return keys

    def _build_operators(self):
        indptr, indices, diag, ref = self._reference_rows()
        # affine chain rule to physical coordinates, summed in (a, b) order
        ai = self.a_inv
        ref_hess = [[ref[2], ref[3]], [ref[3], ref[4]]]
        table = np.zeros((5, indices.size))
        for k in range(2):
            for l in range(2):
                table[k] += ai[k, l] * ref[l]
        for s, (k, l) in enumerate(self.second_slots(), start=2):
            for a in range(2):
                for b in range(2):
                    table[s] += ai[k, a] * ai[l, b] * ref_hess[a][b]
        del ref, ref_hess
        self._install(indptr, indices, diag, table)

    gradient = _StencilGrid.gradient
    hessian = _StencilGrid.hessian


class FourierChordFactor:
    """Chord factor of a polar Newton Jacobian J by its Fourier-in-angle
    part M.

    M is J's block-circulant projection: each entry of J between ring j
    and ring j + d at angle offset a, averaged over the angle, with the
    pole's row and column averaged per ring (``mode_keys``). An FFT in
    theta splits M into one banded system over the rings per angular
    mode k = 0 .. n_theta/2 (Buzbee, Golub and Nielson, SIAM J. Numer.
    Anal. 7, 1970); the pole couples to mode 0 only and is its ring 0.
    The modes' systems are stacked into one complex band matrix with
    (kl, ku) = (3, 1) and factored by one LAPACK zgbtrf, so one solve with
    M is an rfft over the angle, one zgbtrs and an irfft.

    ``solve(b)`` uses M as the chord operator of the nonseparable J
    (Concus and Golub, SIAM J. Numer. Anal. 10, 1973): from x = M^{-1} b
    it iterates x += M^{-1} (b - J x) until ||b - J x||_inf <= INNER_RTOL
    ||b||_inf. For a centred ball onto a centred ball J = M to roundoff
    and no correction is made. If an iteration fails to cut the residual
    max-norm by INNER_RATIO, or zgbtrf finds M singular, the factor becomes
    the SuperLU of J (``grid.superlu``) for the rest of its life and sets
    ``fell_back``; the LU of a singular J raises RuntimeError. A
    non-finite b gives a non-finite x.
    """

    def __init__(self, grid: MappedDiskGrid, jac):
        self._grid, self._jac = grid, jac
        self.fell_back = False
        self._lu = None
        nr, nt = grid.n_rho, grid.n_theta
        keys = grid.mode_keys
        # J's entries summed per key: a one-column matrix holding them on
        # the rows of their keys, times 1, reads the int32 keys in place
        n_keys = nr * 5 * nt + 2 * nr + 1
        sums = sp.csc_matrix((jac.data, keys, np.array([0, keys.size], dtype=np.int32)),
                             shape=(n_keys, 1)) @ np.ones(1)
        # symbol of each (ring, ring offset) block: sum_a mean_m J e^{+i k a}
        rings = sums[:nr * 5 * nt].reshape(nr, 5, nt)
        symbol = np.fft.rfft(rings, axis=2).conj() / nt
        pole_col, pole_row, pole = np.split(sums[nr * 5 * nt:], [nr, 2 * nr])
        # LAPACK band storage with (kl, ku) = (3, 1): band[k, c, 4 + i - c]
        # holds row i, column c of mode k's block, rows 0..2 are fill space
        band = np.zeros((nt // 2 + 1, nr + 1, 8), dtype=complex)
        for d in range(-3, 2):
            lo, hi = max(1, 1 - d), min(nr, nr - d)  # rings j with 1 <= j + d <= nr
            band[:, lo + d:hi + d + 1, 4 - d] = symbol[lo - 1:hi, d + 3].T
        # mode 0 alone sees the pole: its diagonal, its row's mean over
        # ring 1 (against the ring sum of x that rfft gives as mode 0) and
        # its column's sums over rings 1..3; mode_keys keeps both in the band
        band[0, 0, 4] = pole[0]
        band[0, 1, 3] = pole_row[0] / nt
        band[0, 0, 5:] = pole_col[:3]
        band[1:, 0, 4] = 1.0  # the other modes have no pole unknown
        self._band, self._piv, info = zgbtrf(band.reshape(-1, 8).T, 3, 1,
                                             overwrite_ab=1)
        if info > 0:  # exactly singular M
            self._fall_back()

    def _fall_back(self):
        """Become J's SuperLU, which raises RuntimeError on a singular J."""
        self._lu = self._grid.superlu(self._jac)
        self.fell_back = True
        self._band = self._piv = None

    def _mode_solve(self, b: np.ndarray) -> np.ndarray:
        """M^{-1} b: rfft over the angle, the stacked band solve, irfft."""
        nr, nt = self._grid.n_rho, self._grid.n_theta
        rhs = np.zeros((nt // 2 + 1, nr + 1), dtype=complex)
        rhs[:, 1:] = np.fft.rfft(b[1:].reshape(nr, nt), axis=1).T
        rhs[0, 0] = b[0]
        y, _ = zgbtrs(self._band, 3, 1, rhs.reshape(-1), self._piv, overwrite_b=1)
        y = y.reshape(rhs.shape)
        x = np.empty_like(b)
        x[0] = y[0, 0].real
        x[1:] = np.fft.irfft(y[:, 1:].T, n=nt, axis=1).reshape(-1)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """J^{-1} b to a residual max-norm of INNER_RTOL ||b||_inf."""
        if self._lu is not None:
            return self._lu.solve(b)
        x = self._mode_solve(b)
        goal = INNER_RTOL * np.max(np.abs(b))
        prev = np.inf
        while True:
            r = b - self._jac @ x
            rn = np.max(np.abs(r))
            if rn <= goal or not np.isfinite(rn):
                return x
            if rn > INNER_RATIO * prev:
                self._fall_back()
                return self._lu.solve(b)
            prev = rn
            x += self._mode_solve(r)


# The grids held by live states, by domain and resolution (build_grid).
_GRIDS = weakref.WeakValueDictionary()


def build_grid(omega: ConvexDomain, grid_spec):
    """Grid over omega: int N for intervals, (n_rho, n_theta) for 2D.

    A grid is immutable once built, so the live states on one key share
    it. The key is the domain itself, which compares and hashes by its
    centre and shape matrix, and the resolution. A grid is built when no
    live object holds one on its key, and it is dropped with the last
    state built on it; nothing is kept beyond that.
    """
    if omega.dimension > 2:
        raise ValueError("full grids support n <= 2; use the radial oracle beyond")
    spec = int(grid_spec) if omega.dimension == 1 else tuple(map(int, grid_spec))
    grid = _GRIDS.get((omega, spec))
    if grid is None:
        if omega.dimension == 1:
            grid = LineGrid(*omega.ends.tolist(), spec)
        else:
            grid = MappedDiskGrid(spd_inv_sqrt(omega.shape), omega.center, *spec)
        _GRIDS[omega, spec] = grid
    return grid
