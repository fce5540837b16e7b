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
that breaks both b*b = g^inv and b^ij b_jk = id (the broken variant is
kept behind ``paper_signs`` as a regression lock for the check suite).

Every formula exists once, on one layout: component-major rows with the
node axis last, gradients (n, N) and per-node matrices (n, n, N), as
``grid.derivative_rows`` returns them. ``graph_geometry_many`` takes the
check suite's node-major jets and converts once on entry and on exit;
the pointwise API (``graph_geometry`` of a ``PointJet``) is its batch of
one. Every per-node spectrum (the Hessian eigenvalues, the principal
curvatures and the solver's and audits' convexity tests) comes from
``eigenvalues_many``, in closed form for n <= 2. Every contraction
g^ij m_ij (the flow speed, the Laplacian's main term, the dual operator)
comes from ``metric_trace``, which builds no g^ij; ``metric_up_many``
builds it only where a caller needs the matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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


@dataclass(frozen=True)
class PointJet:
    """Position, value, gradient and Hessian of u at one point."""

    x: np.ndarray
    u: float
    du: np.ndarray
    d2u: np.ndarray

    def __post_init__(self):
        d2u = np.asarray(self.d2u, dtype=float)
        if np.max(np.abs(d2u - d2u.T)) > HESSIAN_SYMMETRY_TOL:
            raise ValueError("jet Hessian is not symmetric to 1e-14")


@dataclass(frozen=True)
class GraphGeometry:
    """Metric and curvature data of the graph at one point.

    kappa is sorted ascending; H = sum(kappa) = trace(a); nu is the
    (n+1)-dimensional unit normal of the graph in ambient space. From
    ``graph_geometry_many`` every field carries a leading node axis.
    """

    v: float
    g_lo: np.ndarray
    g_up: np.ndarray
    b_up: np.ndarray
    b_lo: np.ndarray
    a: np.ndarray
    kappa: np.ndarray
    H: float
    nu: np.ndarray


def graph_geometry(jet: PointJet, sig: str, paper_signs: bool = False) -> GraphGeometry:
    """All graph quantities at one jet: row 0 of ``graph_geometry_many``."""
    p = np.asarray(jet.du, dtype=float)[None, :]
    r = np.asarray(jet.d2u, dtype=float)[None, :, :]
    many = graph_geometry_many(p, r, sig, paper_signs)
    return GraphGeometry(*(getattr(many, f.name)[0] for f in fields(GraphGeometry)))


def graph_geometry_many(p: np.ndarray, r: np.ndarray, sig: str,
                        paper_signs: bool = False) -> GraphGeometry:
    """All graph quantities at each row of p (N, n) and r (N, n, n).

    The node-major jets are read as component-major rows, and every field
    is returned with a leading node axis. ``paper_signs`` flips the
    rank-one parts of b^ij/b_ij in the Minkowski case to the variant that
    fails b*b = g^inv (the curvature matrix keeps the true b); only the
    check suite's regression lock should set it.
    """
    p, r = p.T, r.transpose(1, 2, 0)
    jets = NodalJets.of(p, r, sig)
    b_up, b_lo = root_metric_many(p, sig, paper_signs)
    tilt = p if sig == MINKOWSKI else -p
    nu = np.concatenate([tilt, np.ones((1, p.shape[1]))]) / jets.v
    rows = dict(v=jets.v, g_lo=jets.g_lo, g_up=metric_up_many(p, sig),
                b_up=b_up, b_lo=b_lo, a=jets.a, kappa=jets.kappa, H=jets.H,
                nu=nu)
    return GraphGeometry(**{k: np.moveaxis(x, -1, 0) for k, x in rows.items()})


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


def root_metric_many(p: np.ndarray, sig: str, paper_signs: bool = False):
    """(b^ij, b_ij) at each node of p (n, N), each of shape (n, n, N).

    b^ij is the positive square root of g^ij and b_ij its inverse;
    ``paper_signs`` selects the broken Minkowski variant (module docstring).
    """
    v = v_many(p, sig)
    sign = -signature_eps(sig)
    if paper_signs and sig == MINKOWSKI:
        sign = -sign
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
    """Nodal geometry of one discrete field u on a grid, built on first use.

    Each field is computed on first access and then cached, as
    component-major rows: the gradient p (n, N) and Hessian r (n, n, N)
    from one ``grid.derivative_rows`` call, the tilt v (N,), the metric
    g_lo and the curvature matrix a (n, n, N), the mean curvature
    H = tr a (N,), and the Hessian eigenvalues lam and principal
    curvatures kappa (n, N), ascending along axis 0. Every field comes
    from the formulas above, so a cached value equals the one a direct
    call computes.
    """

    def __init__(self, grid, u, sig: str):
        self.grid, self.u, self.sig = grid, u, sig

    @classmethod
    def of(cls, p: np.ndarray, r: np.ndarray, sig: str) -> "NodalJets":
        """Jets of given gradient rows p (n, N) and Hessian rows r (n, n, N)."""
        jets = cls(None, None, sig)
        jets.p, jets.r = p, r
        return jets

    def rows(self, idx) -> "NodalJets":
        """Jets at the nodes idx only: these columns of p and r."""
        return NodalJets.of(self.p[:, idx], self.r[..., idx], self.sig)

    @cached_property
    def _derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        return self.grid.derivative_rows(self.u)

    p = cached_property(lambda self: self._derivatives[0])
    r = cached_property(lambda self: self._derivatives[1])

    @cached_property
    def v(self) -> np.ndarray:
        return v_many(self.p, self.sig)

    @cached_property
    def g_lo(self) -> np.ndarray:
        return metric_lo_many(self.p, self.sig)

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
    jets = NodalJets(grid, np.asarray(u, dtype=float), sig)
    out = jets.laplacian(*grid.derivative_rows(np.asarray(f, dtype=float)))
    out[grid.boundary] = np.nan
    return out
