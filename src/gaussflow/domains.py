"""Uniformly convex domains described by concave defining functions.

A domain is the set {h > 0} of a smooth concave function h that vanishes
on the boundary and has Hessian bounded above by -theta * I for a fixed
theta > 0. Three analytic families are supported: intervals (1D), balls,
and ellipses (2D, positive definite shape matrix). For balls and
intervals the gradient of h has unit length on the boundary; for a
non-circular ellipse no single quadratic achieves that normalization, so
the scale is chosen to make the largest boundary gradient length equal
to one and all consumers work with the zero level set and the concavity
constant only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BoundaryMembershipError

# Tolerance on |h(q)| for accepting q as a boundary point.
BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class ConvexDomain:
    """A uniformly convex domain with an analytic concave defining function.

    Use the ``interval``, ``ball`` and ``ellipse`` constructors; the raw
    initializer is not meant to be called directly.

    Attributes:
        kind: "interval", "ball" or "ellipse".
        dimension: ambient dimension n.
        theta: uniform concavity constant, D2h <= -theta * I everywhere.
        center: centroid (ball/ellipse) or midpoint (interval).
    """

    kind: str
    dimension: int
    theta: float
    center: np.ndarray
    # interval
    lo: float = 0.0
    hi: float = 0.0
    # ball
    radius: float = 0.0
    # ellipse: h = (1 - (p-c)^T Q (p-c)) / scale
    shape: np.ndarray = field(default=None, repr=False)
    scale: float = 1.0

    @cached_property
    def norm_range(self) -> tuple[float, float]:
        """``radial_range`` of the domain, evaluated once per domain."""
        return radial_range(self)

    @staticmethod
    def interval(a: float, b: float) -> "ConvexDomain":
        if not b > a:
            raise ValueError(f"interval needs a < b, got ({a}, {b})")
        return ConvexDomain(
            kind="interval",
            dimension=1,
            theta=2.0 / (b - a),
            center=np.array([0.5 * (a + b)]),
            lo=float(a),
            hi=float(b),
        )

    @staticmethod
    def ball(center, radius: float) -> "ConvexDomain":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if not radius > 0:
            raise ValueError(f"ball needs radius > 0, got {radius}")
        return ConvexDomain(
            kind="ball",
            dimension=center.size,
            theta=1.0 / radius,
            center=center,
            radius=float(radius),
        )

    @staticmethod
    def ellipse(center, shape) -> "ConvexDomain":
        """Ellipse {p : (p-c)^T Q (p-c) < 1} for positive definite Q."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        shape = np.asarray(shape, dtype=float)
        if shape.shape != (center.size, center.size):
            raise ValueError("shape matrix size does not match center")
        if not np.allclose(shape, shape.T, atol=1e-14):
            raise ValueError("shape matrix must be symmetric")
        evals = np.linalg.eigvalsh(shape)
        if evals[0] <= 0:
            raise ValueError("shape matrix must be positive definite")
        # scale normalizes the largest boundary gradient to unit length
        scale = 2.0 * np.sqrt(evals[-1])
        return ConvexDomain(
            kind="ellipse",
            dimension=center.size,
            theta=2.0 * evals[0] / scale,
            center=center,
            shape=shape,
            scale=scale,
        )


def defining_jet(domain: ConvexDomain, p) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian of the defining function at p.

    Total function: p may lie inside, on, or outside the domain.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if domain.kind == "interval":
        a, b = domain.lo, domain.hi
        x = p[0]
        h = (b - x) * (x - a) / (b - a)
        dh = np.array([(a + b - 2.0 * x) / (b - a)])
        d2h = np.array([[-2.0 / (b - a)]])
        return h, dh, d2h
    if domain.kind == "ball":
        d = p - domain.center
        rho = domain.radius
        h = (rho * rho - d @ d) / (2.0 * rho)
        dh = -d / rho
        d2h = -np.eye(domain.dimension) / rho
        return h, dh, d2h
    # ellipse
    d = p - domain.center
    q = domain.shape @ d
    h = (1.0 - d @ q) / domain.scale
    dh = -2.0 * q / domain.scale
    d2h = -2.0 * domain.shape / domain.scale
    return h, dh, d2h


def defining_jet_many(domain: ConvexDomain, pts: np.ndarray):
    """Vectorized ``defining_jet`` over rows of pts, shape (N, n).

    Returns (h (N,), dh (N, n)); the Hessian is constant per domain and
    available from ``defining_jet``.
    """
    pts = np.asarray(pts, dtype=float)
    if domain.kind == "interval":
        a, b = domain.lo, domain.hi
        x = pts[:, 0]
        h = (b - x) * (x - a) / (b - a)
        dh = ((a + b - 2.0 * x) / (b - a))[:, None]
        return h, dh
    if domain.kind == "ball":
        d = pts - domain.center
        rho = domain.radius
        h = (rho * rho - np.sum(d * d, axis=1)) / (2.0 * rho)
        dh = -d / rho
        return h, dh
    d = pts - domain.center
    q = d @ domain.shape
    h = (1.0 - np.sum(d * q, axis=1)) / domain.scale
    dh = -2.0 * q / domain.scale
    return h, dh


def inward_normal(domain: ConvexDomain, q) -> np.ndarray:
    """Unit inward normal of the boundary at the boundary point q."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return inward_normal_many(domain, q[None, :])[0]


def inward_normal_many(domain: ConvexDomain, pts: np.ndarray) -> np.ndarray:
    """Unit inward normals at the boundary points pts (N, n), shape (N, n)."""
    pts = np.asarray(pts, dtype=float)
    h, dh = defining_jet_many(domain, pts)
    worst = int(np.argmax(np.abs(h)))
    if abs(h[worst]) > BOUNDARY_TOL:
        raise BoundaryMembershipError(
            f"point {pts[worst]} is not on the boundary: "
            f"h = {h[worst]:.3e} exceeds {BOUNDARY_TOL}"
        )
    return dh / np.linalg.norm(dh, axis=1)[:, None]


def interval_ends(domain: ConvexDomain) -> tuple[float, float]:
    """(lo, hi) of a 1D domain: an interval's ends or a 1D ball's centre -+ radius."""
    if domain.kind == "interval":
        return domain.lo, domain.hi
    if domain.kind == "ball" and domain.dimension == 1:
        return domain.center[0] - domain.radius, domain.center[0] + domain.radius
    raise ValueError(f"a {domain.dimension}D {domain.kind} is not an interval")


def boundary_points(domain: ConvexDomain, count: int = 256) -> np.ndarray:
    """Sample points exactly on the zero level set, shape (count, n)."""
    if domain.dimension == 1:
        return np.array(interval_ends(domain))[:, None]
    angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if domain.kind == "ball":
        if domain.dimension != 2:
            raise ValueError("boundary sampling implemented for n <= 2 only")
        return domain.center + domain.radius * ring
    # ellipse boundary = c + Q^{-1/2} * unit circle
    root_inv = spd_inv_sqrt(domain.shape)
    return domain.center + ring @ root_inv.T


def radial_range(domain: ConvexDomain, samples: int = 4096) -> tuple[float, float]:
    """(min |p|, max |p|) over the closed domain.

    Exact for intervals and balls; the ellipse extremes are taken over a
    dense boundary sample, which is adequate for the monitor constants
    these feed.
    """
    if domain.kind == "interval":
        lo, hi = domain.lo, domain.hi
        mx = max(abs(lo), abs(hi))
        mn = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
        return mn, mx
    if domain.kind == "ball":
        c = np.linalg.norm(domain.center)
        return max(0.0, c - domain.radius), c + domain.radius
    pts = boundary_points(domain, samples)
    norms = np.linalg.norm(pts, axis=1)
    h0, _, _ = defining_jet(domain, np.zeros(domain.dimension))
    mn = 0.0 if h0 >= 0.0 else float(norms.min())
    return mn, float(norms.max())


def spd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    if w[0] <= 0:
        raise ValueError("matrix is not positive definite")
    return (v * np.sqrt(w)) @ v.T


def spd_inv_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    if w[0] <= 0:
        raise ValueError("matrix is not positive definite")
    return (v / np.sqrt(w)) @ v.T


def ellipse_shape_matrix(domain: ConvexDomain) -> np.ndarray:
    """Shape matrix Q with domain = {(p-c)^T Q (p-c) < 1}."""
    if domain.kind == "interval":
        half = 0.5 * (domain.hi - domain.lo)
        return np.array([[1.0 / half**2]])
    if domain.kind == "ball":
        return np.eye(domain.dimension) / domain.radius**2
    return domain.shape.copy()


def spd_affine_map(src: ConvexDomain, dst: ConvexDomain):
    """The unique SPD matrix A and shift s with A*src + s = dst as sets.

    Intervals, balls and ellipses are all affine images of one another in
    matching dimension: with shape matrices P (src) and Q (dst), A solves
    A Q A = P, i.e. A = Q^{-1/2} (Q^{1/2} P Q^{1/2})^{1/2} Q^{-1/2}.
    """
    if src.dimension != dst.dimension:
        raise ValueError("domains have mismatched dimensions")
    p_mat = ellipse_shape_matrix(src)
    q_mat = ellipse_shape_matrix(dst)
    q_root = spd_sqrt(q_mat)
    q_root_inv = spd_inv_sqrt(q_mat)
    a_mat = q_root_inv @ spd_sqrt(q_root @ p_mat @ q_root) @ q_root_inv
    a_mat = 0.5 * (a_mat + a_mat.T)
    shift = dst.center - a_mat @ src.center
    return a_mat, shift
