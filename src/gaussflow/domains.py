"""Uniformly convex domains described by concave defining functions.

Every domain is one quadric {p : (p - c)^T Q (p - c) < 1} with Q
symmetric positive definite and defining function

    h(p) = (1 - (p - c)^T Q (p - c)) / scale,  scale = 2 sqrt(lambda_max(Q)),

so that h vanishes on the boundary, the largest boundary gradient has
unit length, and D2h = -2 Q / scale <= -theta I with
theta = 2 lambda_min(Q) / scale. Intervals (Q = 4 / (b - a)^2), balls
(Q = I / rho^2) and ellipses are named constructors of that family; for
intervals and balls every boundary gradient has unit length.

The radial range (min |p|, max |p|) over a domain is exact: in 1D it is
read from the two ends, in 2D from the stationary points of |p|^2 on the
boundary c + Q^{-1/2} (cos t, sin t), a trigonometric polynomial of
degree 2 whose critical angles are the arguments of the roots of a
quartic in exp(i t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BoundaryMembershipError

# Tolerance on |h(q)| for accepting q as a boundary point.
BOUNDARY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ConvexDomain:
    """The quadric {(p - c)^T Q (p - c) < 1}, with h as in the module docstring.

    Use the ``interval``, ``ball`` and ``ellipse`` constructors; the raw
    initializer checks its arguments but is not meant to be called
    directly.

    Attributes:
        center: the centre c, shape (n,).
        shape: the matrix Q, shape (n, n).
        spec: the constructor's name and arguments, e.g.
            ``("ball", (0.0, 0.0, 0.5))``, as a config writes them.

    Two domains are equal when their centres and shape matrices are, so
    the same quadric compares equal whichever constructor built it.
    """

    center: np.ndarray
    shape: np.ndarray = field(repr=False)
    spec: tuple

    def __post_init__(self):
        name = self.spec[0]
        if not (np.all(np.isfinite(self.center)) and np.all(np.isfinite(self.shape))):
            raise ValueError(f"{name}: center and shape matrix must be finite, "
                             f"got {self.spec[1]}")
        if self.shape.shape != (self.dimension, self.dimension):
            raise ValueError(f"{name}: shape matrix size does not match center")
        if not np.allclose(self.shape, self.shape.T, atol=1e-14):
            raise ValueError(f"{name}: shape matrix must be symmetric")
        if self._eigenvalues[0] <= 0:
            raise ValueError(f"{name}: shape matrix must be positive definite")

    def __eq__(self, other):
        if not isinstance(other, ConvexDomain):
            return NotImplemented
        return (np.array_equal(self.center, other.center)
                and np.array_equal(self.shape, other.shape))

    def __hash__(self):
        # equal floats hash equally (0.0 and -0.0 too), as array_equal needs
        return hash((tuple(self.center.tolist()), tuple(self.shape.ravel().tolist())))

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.shape)

    @property
    def dimension(self) -> int:
        return self.center.size

    @cached_property
    def scale(self) -> float:
        """2 sqrt(lambda_max(Q)): the largest boundary gradient has unit length."""
        return 2.0 * np.sqrt(self._eigenvalues[-1])

    @cached_property
    def theta(self) -> float:
        """Uniform concavity constant, D2h <= -theta * I everywhere."""
        return 2.0 * self._eigenvalues[0] / self.scale

    @cached_property
    def volume(self) -> float:
        """|Omega| = omega_n / sqrt(det Q), omega_n the volume of the unit
        n-ball (omega_1 = 2, omega_2 = pi, exactly); sqrt(det Q) is a
        product of roots, finite where det Q would overflow or underflow."""
        n = self.dimension
        omega_n = 1.0 if n % 2 == 0 else 2.0
        for k in range(2 + n % 2, n + 1, 2):  # omega_k = 2 pi / k omega_(k-2)
            omega_n *= 2.0 * math.pi / k
        return omega_n / math.prod(map(math.sqrt, self._eigenvalues.tolist()))

    @cached_property
    def length_unit(self) -> float:
        """|Omega|^(1/n): 1 for a unit interval, sqrt(pi) for the unit disk.
        The flow's step controls are stated for a base domain of unit
        volume and applied in this unit (``flow.StepControls.for_domain``)."""
        return self.volume ** (1.0 / self.dimension)

    @cached_property
    def norm_range(self) -> tuple[float, float]:
        """``radial_range`` of the domain, evaluated once per domain."""
        return radial_range(self)

    @cached_property
    def ends(self) -> np.ndarray:
        """(lo, hi) = c -+ Q^{-1/2} of a 1D domain, evaluated once."""
        if self.dimension != 1:
            raise ValueError(f"a {self.dimension}D {self.spec[0]} is not an interval")
        half = 1.0 / math.sqrt(self.shape[0, 0])
        c = float(self.center[0])
        return np.array([c - half, c + half])

    @staticmethod
    def _quadric(center, shape, name: str, args) -> "ConvexDomain":
        return ConvexDomain(
            center=np.atleast_1d(np.asarray(center, dtype=float)),
            shape=np.atleast_2d(np.asarray(shape, dtype=float)),
            spec=(name, tuple(float(x) for x in args)),
        )

    @staticmethod
    def interval(a: float, b: float) -> "ConvexDomain":
        if not b > a:
            raise ValueError(f"interval needs a < b, got ({a}, {b})")
        with np.errstate(all="ignore"):  # an overflow fails the finiteness check
            shape = [[4.0 / (np.float64(b) - a) ** 2]]
        return ConvexDomain._quadric([0.5 * (a + b)], shape, "interval", (a, b))

    @staticmethod
    def ball(center, radius: float) -> "ConvexDomain":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if not radius > 0:
            raise ValueError(f"ball needs radius > 0, got {radius}")
        with np.errstate(all="ignore"):  # an overflow fails the finiteness check
            shape = np.eye(center.size) / np.float64(radius) ** 2
        return ConvexDomain._quadric(center, shape, "ball", (*center, radius))

    @staticmethod
    def ellipse(center, shape) -> "ConvexDomain":
        """Ellipse {p : (p-c)^T Q (p-c) < 1} for positive definite Q."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        shape = np.atleast_2d(np.asarray(shape, dtype=float))
        return ConvexDomain._quadric(center, shape, "ellipse",
                                     (*center, *shape[np.triu_indices(len(shape))]))


def defining_jet(domain: ConvexDomain, p) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian of the defining function at p.

    Total function: p may lie inside, on, or outside the domain.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    h, dh = defining_jet_many(domain, p[:, None])
    return h[0], dh[:, 0], -2.0 * domain.shape / domain.scale


def defining_jet_many(domain: ConvexDomain, pts: np.ndarray):
    """Vectorized ``defining_jet`` at N points given as component-major
    rows pts (n, N), the layout of the solver's gradient rows.

    Returns (h (N,), dh (n, N)); the Hessian is constant per domain and
    available from ``defining_jet``.
    """
    d = np.asarray(pts, dtype=float) - domain.center[:, None]
    q = domain.shape @ d
    return (1.0 - np.sum(d * q, axis=0)) / domain.scale, -2.0 * q / domain.scale


def inward_normal(domain: ConvexDomain, q) -> np.ndarray:
    """Unit inward normal at the boundary point q; a q with |h(q)| >
    BOUNDARY_TOL raises BoundaryMembershipError. A grid holds those at
    its boundary nodes, from its map (``boundary_normals``)."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    h, dh = defining_jet_many(domain, q[:, None])
    if abs(h[0]) > BOUNDARY_TOL:
        raise BoundaryMembershipError(
            f"point {q} is not on the boundary: "
            f"h = {h[0]:.3e} exceeds {BOUNDARY_TOL}"
        )
    return dh[:, 0] / np.linalg.norm(dh)


def radial_range(domain: ConvexDomain) -> tuple[float, float]:
    """(min |p|, max |p|) over the closed domain, exact up to rounding.

    The extremes over the boundary are taken at its ends in 1D and, in
    2D, at t = 0 and at the argument of every root of the quartic
    z^2 d/dt |c + A e(t)|^2 in z = exp(i t), with A = Q^{-1/2} and
    e(t) = (cos t, sin t). A root off the unit circle still names a
    boundary point, so no candidate overshoots the true range. The
    minimum is 0 when the origin lies in the closed domain.
    """
    if domain.dimension == 1:
        pts = domain.ends[:, None]
    elif domain.dimension == 2:
        a_mat = spd_inv_sqrt(domain.shape)
        m = a_mat @ a_mat
        # |p|^2 = const + a1 cos t + b1 sin t + a2 cos 2t + b2 sin 2t
        a1, b1 = 2.0 * (a_mat @ domain.center)
        a2, b2 = 0.5 * (m[0, 0] - m[1, 1]), m[0, 1]
        roots = np.roots([b2 + 1j * a2, 0.5 * (b1 + 1j * a1), 0.0,
                          0.5 * (b1 - 1j * a1), b2 - 1j * a2])
        angles = np.concatenate([[0.0], np.angle(roots)])
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        pts = domain.center + ring @ a_mat.T
    else:
        raise ValueError(f"radial range needs n <= 2, got a {domain.dimension}D domain")
    norms = np.linalg.norm(pts, axis=1)
    h0, _ = defining_jet_many(domain, np.zeros((domain.dimension, 1)))
    mn = 0.0 if h0[0] >= 0.0 else float(norms.min())
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


def spd_affine_map(src: ConvexDomain, dst: ConvexDomain):
    """The unique SPD matrix A and shift s with A*src + s = dst as sets.

    Every domain is a quadric, and quadrics of matching dimension are
    affine images of one another: with shape matrices P (src) and Q
    (dst), A solves A Q A = P, i.e.
    A = Q^{-1/2} (Q^{1/2} P Q^{1/2})^{1/2} Q^{-1/2}.
    """
    if src.dimension != dst.dimension:
        raise ValueError("domains have mismatched dimensions")
    q_root = spd_sqrt(dst.shape)
    q_root_inv = spd_inv_sqrt(dst.shape)
    a_mat = q_root_inv @ spd_sqrt(q_root @ src.shape @ q_root) @ q_root_inv
    a_mat = 0.5 * (a_mat + a_mat.T)
    shift = dst.center - a_mat @ src.center
    return a_mat, shift
