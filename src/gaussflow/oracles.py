"""Independent ground truth for the solver.

Three self-contained references, none of which share code with the flow
discretization:

* Closed-form 1D translators. The translator ODE u'' = C (1 - u'^2)
  (spacelike) integrates to u' = tanh(C (x - x0)) and the Euclidean
  variant u'' = C (1 + u'^2) to u' = tan(C (x - x0)); prescribing the
  gradient image (c, d) over (a, b) fixes

      C = (artanh d - artanh c) / (b - a)   resp. arctan.

* Radially symmetric translators by shooting. With slope phi(r) = u'(r)
  the profile solves phi' = (C - (n-1) phi / r) (1 -+ phi^2), phi(0) = 0,
  regularized near the axis by phi ~ (C/n) r. Each shot integrates it
  together with the variational equation for s = dphi/dC by DOP853, the
  8th-order Dormand-Prince pair (Hairer, Norsett & Wanner, Solving ODEs
  I, II.10), and Newton on C, safeguarded by bisection on a bracket,
  matches phi(R) to the prescribed boundary slope. Newton starts at
  c0 = n inv(rho) / R, inv = artanh resp. arctan: exact for n = 1, an
  upper bound on C in Minkowski space and a lower bound in Euclidean
  space. The bracket end is an upper bound by comparison: c0 itself
  (Minkowski) and n rho / R + 1 (Euclidean, from phi(R) >= C R / n).
  Only Euclidean shots watch for blowup; a Minkowski slope stays in
  (-1, 1). phi(R) is increasing in C: each shot proves it locally
  (s > 0) and consecutive iterates re-verify it.

* The invariant suite over batches of random jets (``random_jets``):
  the closed-form identities of the graph geometry and the operators
  (``identity_defects``, which evaluates only the identities asked
  for), and central finite differences of the flow
  operator against its exact derivative formulas
  (``fd_check_derivatives``). ``gaussflow check`` and the acceptance
  suite both evaluate their jets here, as arrays grouped by dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import OracleFailureError
from .geometry import (EUCLIDEAN, MINKOWSKI, eigenvalues_many,
                       graph_geometry_many, metric_trace, metric_up_many,
                       signature_eps)
from .operators import g_derivatives_many, g_dual_many, g_p_paper_many, g_value_many


@dataclass(frozen=True)
class ClosedForm1D:
    """Sampler for the closed form 1D translator profile."""

    c_speed: float
    x0: float
    sig: str

    def slope(self, x):
        z = self.c_speed * (np.asarray(x, dtype=float) - self.x0)
        return np.tanh(z) if self.sig == MINKOWSKI else np.tan(z)

    def height(self, x):
        """Profile u with u(x0) = 0; u' equals ``slope``."""
        z = self.c_speed * (np.asarray(x, dtype=float) - self.x0)
        if self.sig == MINKOWSKI:
            return np.log(np.cosh(z)) / self.c_speed
        return -np.log(np.cos(z)) / self.c_speed


def translator_1d_closed_form(a: float, b: float, c: float, d: float,
                              sig: str) -> tuple[float, ClosedForm1D]:
    """Speed and profile sampler for the 1D translator over (a, b).

    The gradient image is (c, d); Minkowski signature requires
    -1 < c < d < 1, Euclidean only c < d.
    """
    if not b > a:
        raise ValueError(f"need a < b, got ({a}, {b})")
    if not d > c:
        raise ValueError(f"need c < d, got ({c}, {d})")
    if sig == MINKOWSKI:
        if not (-1.0 < c and d < 1.0):
            raise ValueError("Minkowski slopes must satisfy -1 < c < d < 1")
        inv = np.arctanh
    elif sig == EUCLIDEAN:
        inv = np.arctan
    else:
        raise ValueError(f"unknown signature {sig!r}")
    speed = (inv(d) - inv(c)) / (b - a)
    x0 = a - inv(c) / speed
    return float(speed), ClosedForm1D(c_speed=float(speed), x0=float(x0), sig=sig)


@dataclass(frozen=True)
class RadialProfile:
    """Radial translator slope profile phi(r) = u'(r) with speed C."""

    radii: np.ndarray
    phi: np.ndarray
    c_speed: float
    dimension: int
    sig: str

    def height_at(self, r):
        """u(r) with u(0) = 0, by cumulative trapezoid on the dense profile."""
        cum = np.concatenate([
            [0.0],
            np.cumsum(0.5 * (self.phi[1:] + self.phi[:-1]) * np.diff(self.radii)),
        ])
        return np.interp(np.asarray(r, dtype=float), self.radii, cum)


_START_RADIUS = 1e-8


def _slope_ode(c_speed: float, n: int, sig: str):
    """Right-hand side of the pair (phi, s = dphi/dC) as ``rhs(r, (phi, s))``.

    phi' = (C - (n-1) phi / r)(1 + eps phi^2); s' is its derivative in C
    along s, (1 - (n-1) s / r)(1 + eps phi^2) + 2 eps phi s (C - (n-1) phi / r).
    Both rows broadcast over arrays of nodes.
    """
    eps = signature_eps(sig)

    def rhs(r, y):
        phi, s = y[0], y[1]
        drift = c_speed - (n - 1) * phi / r
        metric = 1.0 + eps * phi * phi
        return [drift * metric,
                (1.0 - (n - 1) * s / r) * metric + 2.0 * eps * phi * s * drift]

    return rhs


def _explode(r, y):
    """Terminal event of a shot: the slope reaches 1e6 (a Euclidean blowup)."""
    return y[0] - 1e6


_explode.terminal = True


def _shoot(c_speed: float, radius: float, n: int, sig: str, dense: bool = False):
    """Integrate (phi, dphi/dC) out to ``radius`` by DOP853; None on blowup.

    Only a Euclidean slope can blow up: in Minkowski space
    phi' = drift (1 - phi^2) keeps |phi| < 1, so the blowup event is
    attached to Euclidean shots alone.
    """
    rhs = _slope_ode(c_speed, n, sig)
    t_eval = np.linspace(_START_RADIUS, radius, 4097) if dense else None
    y0 = [c_speed * _START_RADIUS / n, _START_RADIUS / n]
    sol = solve_ivp(
        rhs, (_START_RADIUS, radius), y0,
        method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t_eval,
        events=_explode if sig == EUCLIDEAN else None,
    )
    if not sol.success or sol.t[-1] < radius * (1.0 - 1e-12):
        return None
    return sol


def translator_radial_shooting(radius: float, rho: float, n: int, sig: str,
                               tol: float = 1e-10) -> RadialProfile:
    """Radial translator over the ball of the given radius.

    ``rho`` is the prescribed boundary slope (the gradient image is the
    rho-ball). The speed C solves phi(R; C) = rho, found by Newton on C
    with s = dphi(R)/dC integrated alongside phi, safeguarded by the
    bracket [0, c_max]: the bracket shrinks by the sign of phi(R) - rho,
    a Newton step is taken when it lands in the closed bracket and is at
    most half the step before the last (so the steps shrink even where
    Newton would cycle), and a bisection otherwise. A shot that
    blows up counts as phi(R) > rho. ``tol`` bounds the error in C: the
    search stops once a Newton step is at most tol / 2 or the bracket at
    most tol wide. Every shot must have s > 0 (phi(R) increasing in C
    there), and consecutive iterates must order phi(R) as they order C;
    otherwise ``OracleFailureError``.

    The search starts at c0 = n inv(rho) / R, inv = artanh (Minkowski)
    or arctan (Euclidean), the exact speed for n = 1. The drift
    C - (n-1) phi / r is positive (it is C / n at the axis and rises
    where it would vanish), so phi increases from 0, and comparison
    bounds C on both sides:

    * Minkowski: artanh(phi) >= phi gives
      (r^{n-1} artanh phi)' >= C r^{n-1}, so artanh phi(R) >= C R / n and
      C <= c0: c_max = c0, and the first shot checks it (one below rho by
      more than tol times s means no bracket; below by less returns c0).
    * Euclidean: 1 + phi^2 >= 1 gives (r^{n-1} phi)' >= C r^{n-1}, so
      phi(R) >= C R / n and C <= n rho / R; c_max = n rho / R + 1.
      arctan(phi) <= phi turns the Minkowski argument round, so here the
      start is a lower bound.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if sig == MINKOWSKI:
        if not 0.0 < rho < 1.0:
            raise ValueError("Minkowski boundary slope must lie in (0, 1)")
        c_start = n * np.arctanh(rho) / radius
        c_max = c_start
    elif sig == EUCLIDEAN:
        if rho <= 0:
            raise ValueError("boundary slope must be positive")
        c_start = n * np.arctan(rho) / radius
        c_max = n * rho / radius + 1.0
    else:
        raise ValueError(f"unknown signature {sig!r}")

    def miss(c_speed):
        """(phi(R) - rho, dphi(R)/dC) at this speed; (inf, None) on blowup."""
        sol = _shoot(c_speed, radius, n, sig)
        if sol is None:
            return np.inf, None
        phi_end, s_end = sol.y[:, -1]
        if not s_end > 0.0:
            raise OracleFailureError(
                f"dphi(R)/dC = {s_end:.3e} at C = {c_speed:.10g}; phi(R) is "
                "not increasing in C"
            )
        return float(phi_end) - rho, float(s_end)

    lo, hi = 0.0, float(c_max)  # C = 0 gives phi identically 0 < rho
    no_bracket = f"no bracket for the shooting speed in (0, {c_max:.6g})"
    if sig == EUCLIDEAN and not miss(hi)[0] > 0.0:
        raise OracleFailureError(no_bracket)
    c_speed = float(c_start)
    step_before, last_step = hi - lo, hi - lo
    prev = None
    while True:
        val, sens = miss(c_speed)
        if c_speed == c_max and val < 0.0 and -val > tol * sens:
            raise OracleFailureError(no_bracket)  # the first Minkowski shot
        if np.isfinite(val):
            if prev is not None and (c_speed - prev[0]) * (val - prev[1]) < -1e-13:
                raise OracleFailureError(
                    "phi(R) failed to be monotone in C; the shooting search is invalid"
                )
            prev = (c_speed, val)
        if val < 0.0:
            lo = c_speed
        else:
            hi = c_speed
        if hi - lo <= tol:
            c_speed = 0.5 * (lo + hi)
            break
        step = np.inf if sens is None else val / sens
        if lo <= c_speed - step <= hi and abs(step) <= 0.5 * step_before:
            c_speed -= step
            step_before, last_step = last_step, abs(step)
            if last_step <= 0.5 * tol:
                break
        else:
            step_before, last_step = last_step, 0.5 * (hi - lo)
            c_speed = lo + last_step
    sol = _shoot(c_speed, radius, n, sig, dense=True)
    if sol is None:
        raise OracleFailureError("converged speed failed to integrate densely")
    radii = np.concatenate([[0.0], sol.t])
    phi = np.concatenate([[0.0], sol.y[0]])
    if np.any(np.diff(phi) <= 0.0):
        raise OracleFailureError("shooting profile is not strictly increasing")
    return RadialProfile(radii=radii, phi=phi, c_speed=float(c_speed),
                         dimension=n, sig=sig)


def radial_ode_residual(profile: RadialProfile) -> float:
    """Max Simpson-rule defect of the profile against its ODE.

    Independent consistency check of the returned nodes: over each pair
    of intervals, phi(r_{k+1}) - phi(r_{k-1}) must match the Simpson
    quadrature of the right-hand side through the three node values.
    """
    rhs = _slope_ode(profile.c_speed, profile.dimension, profile.sig)
    r = profile.radii[1:]  # skip the synthetic r = 0 node
    phi = profile.phi[1:]
    f = rhs(r, (phi, 0.0))[0]
    dr = r[2] - r[1]
    lhs = phi[2::2] - phi[:-2:2]
    quad = (dr / 3.0) * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    return float(np.max(np.abs(lhs - quad)))


# Minkowski jets are drawn with |p| below this reach.
JET_REACH = 0.95


def random_jets(rng: np.random.Generator, count: int, sig: str) -> dict:
    """``count`` random jets, grouped by dimension: {n: (p (m, n), r (m, n, n))}.

    In this order of draws from ``rng``: the dimensions of all ``count``
    jets, uniform in {1, 2, 3}; then, for each dimension n present, in
    increasing order and for its m jets at once, the gradients
    (Minkowski: m uniform directions, then m lengths uniform in
    [0, JET_REACH); Euclidean: standard normal) and the Hessians, the
    symmetric parts of m standard normal matrices.
    """
    dims = rng.integers(1, 4, size=count)
    jets = {}
    for n in np.unique(dims).tolist():
        m = int(np.count_nonzero(dims == n))
        if sig == MINKOWSKI:
            direction = rng.normal(size=(m, n))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            p = direction * rng.uniform(0.0, JET_REACH, size=(m, 1))
        else:
            p = rng.normal(size=(m, n))
        r = rng.normal(size=(m, n, n))
        jets[n] = (p, 0.5 * (r + np.swapaxes(r, 1, 2)))
    return jets


IDENTITY_KEYS = ("root", "inverse", "root-inverse", "trace", "normal",
                 "hessian-slot", "duality")


def identity_defects(jets: dict, sig: str, paper_signs: bool = False,
                     keys=IDENTITY_KEYS) -> dict:
    """Worst defect of each closed-form identity in ``keys`` over
    ``random_jets`` output; only the identities asked for are evaluated.

    Keys: ``root`` |b^ij b^jk - g^ik|, ``inverse`` |g_ij g^jk - delta|,
    ``root-inverse`` |b^ij b_jk - delta|, ``trace`` |v H - G|,
    ``normal`` |<nu, nu> - eps| (the unit normal is timelike in
    Minkowski space), ``hessian-slot`` |G_r - g^ij| and ``duality``
    |Gdual + G| at each jet with its Hessian shifted positive definite
    and the dual Hessian its inverse. ``paper_signs`` reaches only b^ij
    and b_ij, so only ``root`` and ``root-inverse`` see it.
    ``hessian-slot`` and the Hessian shift read the jets as rows.
    """
    eps = signature_eps(sig)
    worst = dict.fromkeys(keys, 0.0)
    for n, (p, r) in jets.items():
        eye = np.eye(n)
        p_rows, r_rows = p.T, r.transpose(1, 2, 0)

        def duality():
            lam_min = eigenvalues_many(r_rows)[0]
            r_pd = r + (np.abs(lam_min) + 0.5)[:, None, None] * eye
            return (g_dual_many(p, np.linalg.inv(r_pd), sig)
                    + g_value_many(p, r_pd, sig))

        geo = (graph_geometry_many(p, r, sig, paper_signs)
               if set(keys) - {"duality", "hessian-slot"} else None)
        defect = {
            "root": lambda: geo.b_up @ geo.b_up - geo.g_up,
            "inverse": lambda: geo.g_lo @ geo.g_up - eye,
            "root-inverse": lambda: geo.b_up @ geo.b_lo - eye,
            "trace": lambda: geo.v * geo.H - g_value_many(p, r, sig),
            "normal": lambda: (np.sum(geo.nu[:, :-1] ** 2, axis=1)
                               + eps * geo.nu[:, -1] ** 2 - eps),
            "hessian-slot": lambda: (g_derivatives_many(p_rows, r_rows, sig)[0]
                                     - metric_up_many(p_rows, sig)),
            "duality": duality,
        }
        for key in keys:
            worst[key] = max(worst[key], float(np.max(np.abs(defect[key]()))))
    return worst


def fd_check_derivatives(samples: int, sig: str, eps_fd: float,
                         seed: int = 0, paper_form: bool = False) -> float:
    """Worst relative error of the exact derivatives vs central differences.

    Draws ``random_jets``, read as component-major rows; every gradient
    component and every symmetric Hessian direction is checked, one
    batched operator evaluation per direction and dimension.
    ``paper_form`` routes the gradient derivative through the broken
    printed transcription so the check suite can demonstrate its failure.
    """
    if not 1e-7 <= eps_fd <= 1e-3:
        raise ValueError("finite difference step must lie in [1e-7, 1e-3]")
    worst = 0.0
    for n, (p, r) in random_jets(np.random.default_rng(seed), samples, sig).items():
        p, r = p.T, r.transpose(1, 2, 0)
        g_r, g_p = g_derivatives_many(p, r, sig)
        if paper_form:
            g_p = g_p_paper_many(p, r, sig)
        scale = np.maximum(1.0, np.maximum(np.max(np.abs(g_p), axis=0),
                                           np.max(np.abs(g_r), axis=(0, 1))))
        m = p.shape[1]

        def central(dp, dr):
            g = metric_trace(np.concatenate([p + dp, p - dp], axis=1),
                             np.concatenate([r + dr, r - dr], axis=2), sig)
            return (g[:m] - g[m:]) / (2.0 * eps_fd)

        for k in range(n):
            dp = np.zeros((n, 1))
            dp[k] = eps_fd
            err = np.abs(central(dp, 0.0) - g_p[k]) / scale
            worst = max(worst, float(np.max(err)))
        for i in range(n):
            for j in range(i, n):
                dr = np.zeros((n, n, 1))
                dr[i, j] = eps_fd
                dr[j, i] = eps_fd
                exact = g_r[i, j] + g_r[j, i] if i != j else g_r[i, i]
                err = np.abs(central(0.0, dr) - exact) / scale
                worst = max(worst, float(np.max(err)))
    return worst
