"""The scalar flow operator, its exact derivatives, and Legendre duality.

The interior evolution is u_t = G(Du, D2u) with

    G(p, r) = v * trace(a) = g^ij(p) r_ij,

the nondivergence trace form; the two expressions agree identically
because trace((1/v) b r b) = (1/v) trace(r b b) = (1/v) trace(r g^inv)
and an extra factor v. G is geometry.metric_trace of the Hessian,
G = tr r - eps p^T r p / v^2, so no metric array is built.
g_derivatives_many, g_dual_many and legendre_transform take and return
component-major rows (grid.derivative_rows); the pointwise forms
g_value(du, d2u, sig), g_derivatives(du, d2u, sig) and g_dual(y, m, sig)
evaluate one point as rows of one (geometry.point_rows).
Everything downstream differentiates the closed trace form directly:

    dG/dr_ij = g^ij(p)
    dG/dp_k  = -2 eps (r p)_k / v^2 + 2 p_k (p^T r p) / v^4

with eps = -1 (Minkowski) or +1 (Euclidean) and v^2 = 1 + eps |p|^2.

The Legendre transform ytilde(y) = x . Du(x) - u(x), y = Du(x) swaps the
domain and its gradient image; the dual operator on the dual Hessian M is

    Gdual(y, M) = -g^ij(y) : (M^{-1})_ij,

metric_trace of M^{-1} at y, and equals -G at the matched primal jet.
FlowOperator is the flow's one view of its equation: G, its weights, the
image's boundary rows, the admissible set and the spacelike limiter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import domains as dom
from .errors import ConvexityError
from .geometry import (
    MINKOWSKI,
    SPACELIKE_MARGIN,
    eigenvalues_many,
    is_spacelike,
    metric_trace,
    metric_up_many,
    point_rows,
    signature_eps,
    v_squared,
)


def g_value(du, d2u, sig: str) -> float:
    """G at one point of gradient du (n,) and Hessian d2u (n, n)."""
    return float(metric_trace(*point_rows(du, d2u), sig)[0])


def g_value_many(p: np.ndarray, r: np.ndarray, sig: str) -> np.ndarray:
    """G at each node; p is (N, n), r is (N, n, n): ``metric_trace`` of
    their transposes."""
    return metric_trace(p.T, r.transpose(1, 2, 0), sig)


def g_derivatives(du, d2u, sig: str):
    """(G_r (n, n), G_p (n,)) at one point of gradient du (n,) and Hessian
    d2u (n, n): node 0 of ``g_derivatives_many``."""
    g_r, g_p = g_derivatives_many(*point_rows(du, d2u), sig)
    return g_r[:, :, 0], g_p[:, 0]


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


@dataclass(frozen=True)
class FlowOperator:
    """The flow's equation u_t = G(Du, D2u), h(Du) = 0 for the signature
    sig and the image omega_tilde, on component-major rows. The flow
    calls only these methods, so another operator runs another equation."""

    sig: str
    omega_tilde: dom.ConvexDomain

    def __post_init__(self):
        _, rad_max = self.omega_tilde.norm_range
        if not is_spacelike(np.array([rad_max**2]), self.sig):
            raise ValueError(
                f"omega_tilde reaches |p| = {rad_max:.6g}: the spacelike "
                f"constraint needs it strictly inside the unit ball "
                f"(margin {SPACELIKE_MARGIN:g})"
            )

    def value(self, p: np.ndarray, r: np.ndarray) -> np.ndarray:
        """G at each node, spacelike-guarded (``metric_trace``)."""
        return metric_trace(p, r, self.sig)

    def weights(self, p: np.ndarray, r: np.ndarray):
        """(G_r, G_p), the Jacobian's stencil weights (``g_derivatives_many``)."""
        return g_derivatives_many(p, r, self.sig)

    def boundary(self, pb: np.ndarray):
        """(values, p-gradients) of the boundary rows at their gradient rows
        pb (n, N_b): h and the rows of Dh in 2D. In 1D convex monotonicity
        pins Du at the ends to the image's ends, so they are p - (lo, hi) and
        the unit slope 1.0; |h(p)| would read 0 at either end."""
        if pb.shape[0] == 1:
            return pb[0] - self.omega_tilde.ends, 1.0
        return dom.defining_jet_many(self.omega_tilde, pb)

    def admissible(self, jets, rows) -> bool:
        """Whether the Hessians of jets (``NodalJets``) on ``rows`` are
        positive definite, read from jets.lam, which caches the spectra of
        every node on the jets. The flow tests the interior rows, the
        equations that hold the Hessian; a boundary row solves h(Du) = 0,
        and its one-sided second differences enter no equation."""
        return bool(np.min(jets.lam[0, rows]) > 0.0)

    def limiter(self, p: np.ndarray) -> float:
        """The explicit step's spacelike factor: 1 - max |p|^2, Euclidean 1."""
        return 1.0 - np.max(np.sum(p * p, axis=0)) if self.sig == MINKOWSKI else 1.0


def g_dual(y, m, sig: str) -> float:
    """Dual operator Gdual(y, M) at one point of y (n,) and symmetric M
    (n, n): the batch of one of ``g_dual_many``."""
    return float(g_dual_many(*point_rows(y, m), sig)[0])


def inverse_many(m: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of the rows m (n, n, N), as rows."""
    return np.moveaxis(np.linalg.inv(np.moveaxis(m, -1, 0)), 0, -1)


def g_dual_many(y: np.ndarray, m: np.ndarray, sig: str) -> np.ndarray:
    """Dual operator Gdual(y, M) = -g^ij(y) : (M^{-1})_ij at each node of
    the rows y (n, N) and M (n, n, N), the Hessians of the Legendre
    transform at y: each M positive definite, |y| < 1 in Minkowski space."""
    if np.min(eigenvalues_many(0.5 * (m + m.transpose(1, 0, 2)))[0]) <= 0:
        raise ValueError("dual Hessian must be positive definite")
    return -metric_trace(y, inverse_many(m), sig)


def legendre_transform(u: np.ndarray, grid):
    """Nodewise Legendre transform of a strictly convex discrete field.

    Returns (y, u_tilde): the rows y (n, N), y[:, k] = Du(x_k) from the
    grid stencils, and u_tilde[k] = x_k . y[:, k] - u[k]. The emitted
    cloud lies in the gradient-image domain up to discretization error.
    Convexity is tested on the interior rows, as the flow tests it.
    """
    u = np.asarray(u, dtype=float)
    p, r = grid.derivative_rows(u)
    lam_min = eigenvalues_many(r)[0]
    worst = grid.interior[np.argmin(lam_min[grid.interior])]
    if lam_min[worst] <= 0.0:
        raise ConvexityError(
            f"field is not strictly convex: min Hessian eigenvalue "
            f"{lam_min[worst]:.3e} at node {worst}"
        )
    u_tilde = np.sum(grid.nodes.T * p, axis=0) - u
    return p, u_tilde


def structure_report(state):
    """(tg_range, f_range) of a flow state: the (min, max) over nodes of the
    curvature-slot trace g^ij delta_ij and of the mean curvature H, the sum
    of principal curvatures, read from the state's jets (p, v and H)."""
    jets = state.jets
    eps = signature_eps(state.sig)
    tg = jets.p.shape[0] - eps * np.sum(jets.p * jets.p, axis=0) / jets.v**2
    return ((float(np.min(tg)), float(np.max(tg))),
            (float(np.min(jets.H)), float(np.max(jets.H))))
