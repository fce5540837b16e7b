"""The scalar flow operator, its exact derivatives, and Legendre duality.

The interior evolution is u_t = G(Du, D2u) with

    G(p, r) = v * trace(a) = g^ij(p) r_ij,

the nondivergence trace form; the two expressions agree identically
because trace((1/v) b r b) = (1/v) trace(r b b) = (1/v) trace(r g^inv)
and an extra factor v. G is geometry.metric_trace of the Hessian,
G = tr r - eps p^T r p / v^2, so no metric array is built.
g_derivatives_many and g_p_paper_many take and return component-major
rows (grid.derivative_rows); the check suite's entry points
g_value(_many), g_derivatives and g_dual(_many) read its node-major
jets as rows once on entry.
Everything downstream differentiates the closed trace form directly:

    dG/dr_ij = g^ij(p)
    dG/dp_k  = -2 eps (r p)_k / v^2 + 2 p_k (p^T r p) / v^4

with eps = -1 (Minkowski) or +1 (Euclidean) and v^2 = 1 + eps |p|^2.
A transcription of the gradient derivative found elsewhere evaluates to
-4 p r / v^4 in one dimension instead of +2 p r / v^4; the finite
difference oracle arbitrates, and the broken transcription is available
behind ``paper_form`` purely as a check-suite regression lock.

The Legendre transform ytilde(y) = x . Du(x) - u(x), y = Du(x) swaps the
domain and its gradient image; the dual operator on the dual Hessian M is

    Gdual(y, M) = -g^ij(y) : (M^{-1})_ij,

metric_trace of M^{-1} at y, and equals -G at the matched primal jet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvexityError
from .geometry import (
    MINKOWSKI,
    PointJet,
    curvature_matrix_many,
    eigenvalues_many,
    metric_trace,
    metric_up_many,
    root_metric_many,
    signature_eps,
    v_many,
    v_squared,
)


@dataclass(frozen=True)
class OperatorDerivatives:
    """Exact first derivatives of G in the Hessian and gradient slots."""

    g_r: np.ndarray  # symmetric (n, n); equals g^ij(p)
    g_p: np.ndarray  # (n,)


@dataclass(frozen=True)
class StructureReport:
    """Structure constants of the operator evaluated over one flow state.

    tg_range is the (min, max) over nodes of the curvature-slot trace
    g^ij delta_ij and f_range that of the mean curvature H, the sum of
    principal curvatures; sandwich is the admissible band for H derived
    from the initial rate range and the gradient-image domain.
    """

    tg_range: tuple[float, float]
    f_range: tuple[float, float]
    sandwich: tuple[float, float]


def g_value(jet: PointJet, sig: str) -> float:
    """G(Du, D2u) at a single jet."""
    p = np.asarray(jet.du, dtype=float)[None, :]
    r = np.asarray(jet.d2u, dtype=float)[None, :, :]
    return float(g_value_many(p, r, sig)[0])


def g_value_many(p: np.ndarray, r: np.ndarray, sig: str) -> np.ndarray:
    """G at each node; p is (N, n), r is (N, n, n): ``metric_trace`` of
    their transposes."""
    return metric_trace(p.T, r.transpose(1, 2, 0), sig)


def g_derivatives(jet: PointJet, sig: str, paper_form: bool = False) -> OperatorDerivatives:
    """Exact derivatives of G at a single jet.

    ``paper_form`` swaps the gradient derivative for the broken printed
    transcription (see module docstring); check-suite use only.
    """
    p = np.asarray(jet.du, dtype=float)[:, None]
    r = np.asarray(jet.d2u, dtype=float)[:, :, None]
    g_r, g_p = g_derivatives_many(p, r, sig)
    if paper_form:
        g_p = g_p_paper_many(p, r, sig)
    return OperatorDerivatives(g_r=g_r[:, :, 0], g_p=g_p[:, 0])


def g_derivatives_many(p: np.ndarray, r: np.ndarray, sig: str):
    """(G_r, G_p) at each node of the rows p (n, N) and r (n, n, N): G_r
    = g^ij is (n, n, N), G_p is (n, N)."""
    eps = signature_eps(sig)
    v2 = v_squared(np.einsum("in,in->n", p, p), sig)
    rp = np.einsum("ijn,jn->in", r, p)
    prp = np.einsum("in,in->n", p, rp)
    # eps^2 = 1 collapses the sign on the second term
    g_p = (-2.0 * eps) * rp / v2 + 2.0 * p * (prp / v2**2)
    return metric_up_many(p, sig), g_p


def g_p_paper_many(p: np.ndarray, r: np.ndarray, sig: str) -> np.ndarray:
    """Gradient derivative transcribed literally from the broken display,
    at each node of the rows p (n, N) and r (n, n, N), shape (n, N).

    For the trace operator it reads, per component i,
        -2 (p_i / v) tr(a) - 2 (b a p)_i
    and disagrees with the true derivative (ratio -2 in one dimension).
    """
    if sig != MINKOWSKI:
        raise ValueError("the printed transcription exists for the Minkowski case only")
    v = v_many(p, sig)
    a = curvature_matrix_many(p, r, sig)
    b, _ = root_metric_many(p, sig)
    tr_a = np.einsum("iin->n", a)
    bap = np.einsum("ijn,jkn,kn->in", b, a, p)
    return -2.0 * p * (tr_a / v) - 2.0 * bap


def g_dual(y, m, sig: str) -> float:
    """Dual operator Gdual(y, M) at one point: the batch of one of ``g_dual_many``."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return float(g_dual_many(y[None, :], m[None, :, :], sig)[0])


def g_dual_many(y: np.ndarray, m: np.ndarray, sig: str) -> np.ndarray:
    """Dual operator Gdual(y, M) = -g^ij(y) : (M^{-1})_ij at each row.

    y is (N, n) and M (N, n, n), the Hessians of the Legendre transform
    at y, node-major like the Legendre cloud; every M must be positive
    definite, and Minkowski signature requires |y| < 1.
    """
    rows = m.transpose(1, 2, 0)
    if np.min(eigenvalues_many(0.5 * (rows + rows.transpose(1, 0, 2)))[0]) <= 0:
        raise ValueError("dual Hessian must be positive definite")
    return -metric_trace(y.T, np.linalg.inv(m).transpose(1, 2, 0), sig)


def legendre_transform(u: np.ndarray, grid):
    """Nodewise Legendre transform of a strictly convex discrete field.

    Returns (y, u_tilde): y[k] = Du(x_k) from the grid stencils and
    u_tilde[k] = x_k . y[k] - u[k]. The emitted cloud lies in the
    gradient-image domain up to discretization error; y is (N, n), a
    node table like ``grid.nodes``.
    """
    u = np.asarray(u, dtype=float)
    p, r = grid.derivative_rows(u)
    lam_min = eigenvalues_many(r)[0]
    worst = int(np.argmin(lam_min))
    if lam_min[worst] <= 0.0:
        raise ConvexityError(
            f"field is not strictly convex: min Hessian eigenvalue "
            f"{lam_min[worst]:.3e} at node {worst}"
        )
    y = p.T
    u_tilde = np.sum(grid.nodes * y, axis=1) - u
    return y, u_tilde


def structure_report(state) -> StructureReport:
    """Evaluate the operator structure constants over a flow state.

    The sum of principal curvatures should stay inside the band
    [min w * min G0, max w * max G0] where w = 1/v ranges over the
    gradient-image domain and (min G0, max G0) is the initial rate range
    carried by the state. The nodal geometry (p, v and H) is read from
    the state's jets.
    """
    jets = state.jets
    p, big_h = jets.p, jets.H
    eps = signature_eps(state.sig)
    tg = p.shape[0] - eps * np.sum(p * p, axis=0) / jets.v**2
    # w = 1/v at the smallest and largest |p| of the gradient-image domain
    w = 1.0 / np.sqrt(v_squared(np.square(state.omega_tilde.norm_range),
                                state.sig))
    g0_min, g0_max = state.g0_range
    return StructureReport(
        tg_range=(float(np.min(tg)), float(np.max(tg))),
        f_range=(float(np.min(big_h)), float(np.max(big_h))),
        sandwich=(float(np.min(w) * g0_min), float(np.max(w) * g0_max)),
    )
