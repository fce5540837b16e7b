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

Every formula exists once, vectorized over a leading node axis: the
flow, the monitors and the check suite evaluate arrays of jets, and the
pointwise API (``graph_geometry`` of a ``PointJet``) is the batch of one.
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

    ``paper_signs`` flips the rank-one parts of b^ij/b_ij in the Minkowski
    case to the variant that fails b*b = g^inv (the curvature matrix keeps
    the true b); only the check suite's regression lock should set it.
    """
    jets = NodalJets.of(p, r, sig)
    b_up, b_lo = root_metric_many(p, sig, paper_signs)
    tilt = p if sig == MINKOWSKI else -p
    nu = np.concatenate([tilt, np.ones((p.shape[0], 1))], axis=1) / jets.v[:, None]
    return GraphGeometry(
        v=jets.v, g_lo=jets.g_lo, g_up=metric_up_many(p, sig), b_up=b_up,
        b_lo=b_lo, a=jets.a, kappa=jets.kappa, H=jets.H, nu=nu,
    )


def is_spacelike(sq: np.ndarray, sig: str) -> bool:
    """Whether the squared gradient norms sq keep |p| <= 1 - SPACELIKE_MARGIN.

    The causal bound binds the Minkowski signature only.
    """
    if sig != MINKOWSKI or sq.size == 0:
        return True
    return bool(np.sqrt(np.max(sq)) <= 1.0 - SPACELIKE_MARGIN)


def v_many(p: np.ndarray, sig: str) -> np.ndarray:
    """Tilt factor v at each row of p (N, n), with the spacelike guard."""
    eps = signature_eps(sig)
    sq = np.sum(p * p, axis=1)
    if not is_spacelike(sq, sig):
        raise SpacelikeViolationError(
            f"max |Du| = {np.sqrt(np.max(sq)):.12g} violates the spacelike "
            f"bound 1 - {SPACELIKE_MARGIN:g}"
        )
    return np.sqrt(1.0 + eps * sq)


def _rank_one(p: np.ndarray, sign: float, denom) -> np.ndarray:
    """I + sign p p^T / denom at each row of p, shape (N, n, n).

    sign is +-1 and denom a scalar or one value per row; every rank-one
    matrix of the module comes from here.
    """
    pp = sign * p[:, :, None] * p[:, None, :]
    return np.eye(p.shape[1]) + pp / np.reshape(denom, (-1, 1, 1))


def metric_lo_many(p: np.ndarray, sig: str) -> np.ndarray:
    """Induced metric g_ij at each row of p, shape (N, n, n)."""
    return _rank_one(p, signature_eps(sig), 1.0)


def metric_up_many(p: np.ndarray, sig: str) -> np.ndarray:
    """Inverse induced metric g^ij at each row of p, shape (N, n, n)."""
    return _rank_one(p, -signature_eps(sig), v_many(p, sig) ** 2)


def root_metric_many(p: np.ndarray, sig: str, paper_signs: bool = False):
    """(b^ij, b_ij) at each row of p, each of shape (N, n, n).

    b^ij is the positive square root of g^ij and b_ij its inverse;
    ``paper_signs`` selects the broken Minkowski variant (module docstring).
    """
    v = v_many(p, sig)
    sign = -signature_eps(sig)
    if paper_signs and sig == MINKOWSKI:
        sign = -sign
    return _root_metric_up(p, v, sign), _rank_one(p, -sign, 1.0 + v)


def _root_metric_up(p: np.ndarray, v: np.ndarray, sign: float) -> np.ndarray:
    """b^ij = I + sign p p^T / (v (1 + v)) at each row of p, for its tilt v."""
    return _rank_one(p, sign, v * (1.0 + v))


def curvature_matrix_many(p: np.ndarray, r: np.ndarray, sig: str) -> np.ndarray:
    """Curvature matrix a = (1/v) b r b at each node, shape (N, n, n)."""
    v = v_many(p, sig)
    b = _root_metric_up(p, v, -signature_eps(sig))
    a = b @ r @ b / v[:, None, None]
    return 0.5 * (a + np.swapaxes(a, 1, 2))


class NodalJets:
    """Nodal geometry of one discrete field u on a grid, built on first use.

    Each field is computed on first access and then cached: the gradient
    p and Hessian r from the grid stencils, the tilt v, the metric g_lo,
    the curvature matrix a, the mean curvature H = tr a, the Hessian
    eigenvalues lam and the principal curvatures kappa (both ascending
    per node). Every field comes from the vectorized formulas above, so
    a cached value equals the one a direct call computes.
    """

    def __init__(self, grid, u, sig: str):
        self.grid, self.u, self.sig = grid, u, sig

    @classmethod
    def of(cls, p: np.ndarray, r: np.ndarray, sig: str) -> "NodalJets":
        """Jets of given gradient rows p (N, n) and Hessian rows r (N, n, n)."""
        jets = cls(None, None, sig)
        jets.p, jets.r = p, r
        return jets

    def rows(self, idx) -> "NodalJets":
        """Jets at the nodes idx only, sharing this set's p and r rows."""
        return NodalJets.of(self.p[idx], self.r[idx], self.sig)

    @cached_property
    def p(self) -> np.ndarray:
        return self.grid.gradient(self.u)

    @cached_property
    def r(self) -> np.ndarray:
        return self.grid.hessian(self.u)

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
        return np.einsum("nii->n", self.a)

    @cached_property
    def lam(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.r)

    @cached_property
    def kappa(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.a)


def laplace_beltrami(f: np.ndarray, u: np.ndarray, grid, sig: str,
                     jets: NodalJets | None = None) -> np.ndarray:
    """Intrinsic Laplacian of a discrete scalar field on the graph of u.

    The operator (1/sqrt(det g)) d_i (sqrt(det g) g^ij d_j f) is
    discretized in nondivergence form

        lap_M f = g^ij f_ij + (1/v) c_j f_j,
        c_j = p_j (-eps tr(r) / v + p^T r p / v^3),

    where the metric-divergence coefficient c comes from differentiating
    v g^ij analytically (det g = v^2 for either signature, so the area
    weight is v). Differencing the flux field numerically instead would
    double-difference derived quantities and lose an order near the
    boundary where stencil truncation constants jump; the analytic
    coefficient keeps the operator second-order accurate at every
    interior node. Boundary nodes are set to nan. ``jets``, when given,
    must be the jets of u under sig; p, r and v are then read from it.
    """
    f = np.asarray(f, dtype=float)
    eps = signature_eps(sig)
    if jets is None:
        jets = NodalJets(grid, np.asarray(u, dtype=float), sig)
    p, r, v = jets.p, jets.r, jets.v
    g_up = metric_up_many(p, sig)
    hess_f = grid.hessian(f)
    grad_f = grid.gradient(f)
    main = np.einsum("nij,nij->n", g_up, hess_f)
    tr_r = np.einsum("nii->n", r)
    prp = np.einsum("ni,nij,nj->n", p, r, p)
    coeff = -eps * tr_r / v + prp / v**3
    out = main + coeff * np.einsum("ni,ni->n", p, grad_f) / v
    out[grid.boundary] = np.nan
    return out
