"""Differential geometry of graphs in Minkowski and Euclidean space.

For a graph x -> (x, u(x)) with gradient p and Hessian r the induced
metric, its inverse, the symmetric square root of the inverse metric and
the curvature matrix are all rank-one corrections of the identity. Both
signatures share one set of formulas through the sign eps attached to
|p|^2 (eps = -1 spacelike Minkowski, eps = +1 Euclidean):

    v^2   = 1 + eps |p|^2
    g_ij  = delta_ij + eps p_i p_j
    g^ij  = delta_ij - eps p_i p_j / v^2
    b^ij  = delta_ij - eps p_i p_j / (v (1 + v))
    b_ij  = delta_ij + eps p_i p_j / (1 + v)
    a     = (1/v) b^T r b

The principal curvatures are the eigenvalues of a and the mean curvature
is its trace. b^ij is the positive square root of g^ij and b_ij its
inverse; for the Minkowski case this forces the opposite sign on the
rank-one parts of b^ij/b_ij relative to a common typographic variant
that breaks both b*b = g^inv and b^ij b_jk = id.

Every formula exists once, on one layout: component-major rows with the
node axis last, gradients (n, N) and per-node matrices (n, n, N), as
``grid.derivative_rows`` returns them. ``NodalJets`` is the one nodal
geometry record of the solver, the monitors and the check suite (built
from given rows, it knows no grid), and ``graph_geometry(du, d2u, sig)``
that of one point. Every per-node spectrum (the Hessian eigenvalues, the
principal curvatures and the solver's and audits' convexity tests) comes
from ``eigenvalues_many``, in closed form for n <= 2. Every contraction
g^ij m_ij (the flow speed, the Laplacian's main term, the dual operator)
comes from ``metric_trace``, which builds no g^ij; ``metric_up_many``
builds it only where a caller needs the matrix itself.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import SpacelikeViolationError

MINKOWSKI = "minkowski"
EUCLIDEAN = "euclidean"
SIGNATURES = (MINKOWSKI, EUCLIDEAN)

# Geometry refuses Minkowski gradients with |p| > 1 - SPACELIKE_MARGIN.
SPACELIKE_MARGIN = 1e-6

HESSIAN_SYMMETRY_TOL = 1e-14


def signature_eps(sig: str) -> float:
    if sig == MINKOWSKI:
        return -1.0
    if sig == EUCLIDEAN:
        return 1.0
    raise ValueError(f"unknown signature {sig!r}; expected one of {SIGNATURES}")


def point_rows(du, d2u) -> tuple[np.ndarray, np.ndarray]:
    """The gradient du (n,) and Hessian d2u (n, n) of one point as rows of
    one node, p (n, 1) and r (n, n, 1); a Hessian that is not symmetric to
    HESSIAN_SYMMETRY_TOL raises ValueError."""
    p = np.atleast_1d(np.asarray(du, dtype=float))
    r = np.atleast_2d(np.asarray(d2u, dtype=float))
    if np.max(np.abs(r - r.T)) > HESSIAN_SYMMETRY_TOL:
        raise ValueError("jet Hessian is not symmetric to 1e-14")
    return p[:, None], r[:, :, None]


def graph_geometry(du, d2u, sig: str) -> NodalJets:
    """The ``NodalJets`` of one point, each field with a node axis of length 1."""
    return NodalJets(*point_rows(du, d2u), sig)


def is_spacelike(sq: np.ndarray, sig: str) -> bool:
    """Whether the squared gradient norms sq keep |p| <= 1 - SPACELIKE_MARGIN.

    The causal bound binds the Minkowski signature only.
    """
    if sig != MINKOWSKI or sq.size == 0:
        return True
    return bool(np.sqrt(np.max(sq)) <= 1.0 - SPACELIKE_MARGIN)


def v_squared(sq: np.ndarray, sig: str) -> np.ndarray:
    """v^2 = 1 + eps |p|^2 from the squared gradient norms sq, with the
    spacelike guard."""
    if not is_spacelike(sq, sig):
        raise SpacelikeViolationError(
            f"max |Du| = {np.sqrt(np.max(sq)):.12g} violates the spacelike "
            f"bound 1 - {SPACELIKE_MARGIN:g}"
        )
    return 1.0 + signature_eps(sig) * sq


def v_many(p: np.ndarray, sig: str) -> np.ndarray:
    """Tilt factor v at each node of the rows p (n, N), spacelike-guarded."""
    return np.sqrt(v_squared(np.einsum("in,in->n", p, p), sig))


def _rank_one(p: np.ndarray, sign: float, denom) -> np.ndarray:
    """I + sign p p^T / denom at each node of the rows p (n, N), shape
    (n, n, N); sign is +-1 and denom a scalar or one value per node.
    Every rank-one matrix of the module comes from here."""
    pp = sign * p[:, None, :] * p[None, :, :]
    return np.eye(p.shape[0])[:, :, None] + pp / denom


def metric_lo_many(p: np.ndarray, sig: str) -> np.ndarray:
    """Induced metric g_ij at each node of p (n, N), shape (n, n, N)."""
    return _rank_one(p, signature_eps(sig), 1.0)


def metric_up_many(p: np.ndarray, sig: str) -> np.ndarray:
    """Inverse induced metric g^ij at each node of p (n, N), shape (n, n, N)."""
    return _rank_one(p, -signature_eps(sig), v_many(p, sig) ** 2)


def metric_trace(p: np.ndarray, m: np.ndarray, sig: str) -> np.ndarray:
    """g^ij m_ij = tr m - eps p^T m p / v^2 at each node of the rows p
    (n, N) and m (n, n, N), with the spacelike guard."""
    v2 = v_squared(np.einsum("in,in->n", p, p), sig)
    mp = np.einsum("ijn,jn->in", m, p)
    pmp = np.einsum("in,in->n", p, mp)
    return np.einsum("iin->n", m) - signature_eps(sig) * pmp / v2


def root_metric_many(p: np.ndarray, sig: str):
    """(b^ij, b_ij) at each node of p (n, N), each of shape (n, n, N):
    b^ij is the positive square root of g^ij and b_ij its inverse."""
    v = v_many(p, sig)
    sign = -signature_eps(sig)
    return _rank_one(p, sign, v * (1.0 + v)), _rank_one(p, -sign, 1.0 + v)


def curvature_matrix_many(p: np.ndarray, r: np.ndarray, sig: str) -> np.ndarray:
    """Curvature matrix a = (1/v) b r b at each node of the rows p (n, N)
    and symmetric r (n, n, N), shape (n, n, N). With b = I + c p p^T,
    b r b = r + q p^T + p q^T, q = c r p + (c^2 / 2) (p^T r p) p."""
    v = v_many(p, sig)
    c = -signature_eps(sig) / (v * (1.0 + v))
    rp = np.einsum("ijn,jn->in", r, p)
    q = c * rp + (0.5 * c * c * np.einsum("in,in->n", p, rp)) * p
    return (r + q[:, None] * p[None] + p[:, None] * q[None]) / v


def eigenvalues_many(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each symmetric matrix of the rows m
    (n, n, N), shape (n, N), ascending along axis 0.

    In closed form for n <= 2: for n = 2 the eigenvalues of [[a, b], [b, c]]
    are (a + c) / 2 -+ hypot((a - c) / 2, b), within a few eps ||m|| of
    LAPACK. ``eigvalsh`` for n >= 3. Like ``eigvalsh``, only the lower
    triangle is read.
    """
    n = m.shape[0]
    if n == 1:
        return m[0].copy()
    if n == 2:
        a, b, c = m[0, 0], m[1, 0], m[1, 1]
        mid, half = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
        return np.stack([mid - half, mid + half])
    return np.linalg.eigvalsh(np.moveaxis(m, -1, 0)).T


class NodalJets:
    """Nodal geometry of given gradient rows p (n, N) and Hessian rows r
    (n, n, N), as ``grid.derivative_rows`` returns them.

    Every other field is computed on first access and then cached, as
    component-major rows: the tilt v (N,), the metric g_lo, its inverse
    g_up, its square-root factors b_up and b_lo (from one
    ``root_metric_many`` call) and the curvature matrix a (n, n, N), the
    mean curvature H = tr a (N,), the unit normal nu (n + 1, N) of the
    graph in ambient space, and the Hessian eigenvalues lam and principal
    curvatures kappa (n, N), ascending along axis 0. Every field comes
    from the formulas above, so a cached value equals the one a direct
    call computes.
    """

    def __init__(self, p: np.ndarray, r: np.ndarray, sig: str):
        self.p, self.r, self.sig = p, r, sig

    def rows(self, idx) -> "NodalJets":
        """Jets at the nodes idx only: these columns of p and r."""
        return NodalJets(self.p[:, idx], self.r[..., idx], self.sig)

    @cached_property
    def v(self) -> np.ndarray:
        return v_many(self.p, self.sig)

    @cached_property
    def g_lo(self) -> np.ndarray:
        return metric_lo_many(self.p, self.sig)

    @cached_property
    def g_up(self) -> np.ndarray:
        return metric_up_many(self.p, self.sig)

    @cached_property
    def _roots(self) -> tuple[np.ndarray, np.ndarray]:
        return root_metric_many(self.p, self.sig)

    b_up = cached_property(lambda self: self._roots[0])
    b_lo = cached_property(lambda self: self._roots[1])

    @cached_property
    def nu(self) -> np.ndarray:
        tilt = self.p if self.sig == MINKOWSKI else -self.p
        return np.concatenate([tilt, np.ones((1, self.p.shape[1]))]) / self.v

    @cached_property
    def a(self) -> np.ndarray:
        return curvature_matrix_many(self.p, self.r, self.sig)

    @cached_property
    def H(self) -> np.ndarray:
        return np.einsum("iin->n", self.a)

    @cached_property
    def lam(self) -> np.ndarray:
        return eigenvalues_many(self.r)

    @cached_property
    def kappa(self) -> np.ndarray:
        return eigenvalues_many(self.a)

    def laplacian(self, df: np.ndarray, d2f: np.ndarray) -> np.ndarray:
        """Intrinsic Laplacian on this graph of a field with gradient rows
        df (n, N) and Hessian rows d2f (n, n, N) (``laplace_beltrami``)."""
        main = metric_trace(self.p, d2f, self.sig)
        p_df = np.einsum("in,in->n", self.p, df)
        return main - signature_eps(self.sig) * self.H * p_df / self.v


def laplace_beltrami(f: np.ndarray, u: np.ndarray, grid, sig: str) -> np.ndarray:
    """Intrinsic Laplacian of a discrete scalar field on the graph of u.

    The operator (1/sqrt(det g)) d_i (sqrt(det g) g^ij d_j f) is
    discretized in nondivergence form

        lap_M f = g^ij f_ij - eps H (p . Df) / v,

    where the drift comes from differentiating v g^ij analytically
    (det g = v^2 for either signature, so the area weight is v, and the
    coefficient -eps tr(r) / v + p^T r p / v^3 is -eps H). Differencing
    the flux field numerically instead would double-difference derived
    quantities and lose an order near the boundary where stencil
    truncation constants jump; the analytic coefficient keeps the operator
    second-order accurate at every interior node; the main term is
    ``metric_trace`` of the Hessian rows of f. Boundary nodes are set to
    nan.
    """
    jets = NodalJets(*grid.derivative_rows(np.asarray(u, dtype=float)), sig)
    out = jets.laplacian(*grid.derivative_rows(np.asarray(f, dtype=float)))
    out[grid.boundary] = np.nan
    return out
