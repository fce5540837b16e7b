"""Independent ground truth for the solver.

Three self-contained references, none of which share code with the flow
discretization:

* Closed-form 1D translators. The translator ODE u'' = C (1 - u'^2)
  (spacelike) integrates to u' = tanh(C (x - x0)) and the Euclidean
  variant u'' = C (1 + u'^2) to u' = tan(C (x - x0)); prescribing the
  gradient image (c, d) over (a, b) fixes

      C = (artanh d - artanh c) / (b - a)   resp. arctan.

* Radially symmetric translators. With slope phi(r) = u'(r) the
  profile solves phi' = (C - (n-1) phi / r) (1 -+ phi^2), phi(0) = 0,
  phi ~ (C/n) r near the axis. The equation is invariant under
  r -> C r, so phi(r; C) = Phi(C r), Phi its solution at C = 1, and the
  speed is C = S / R with S the point where Phi reaches the boundary
  slope. One integration by DOP853, the 8th-order Dormand-Prince pair
  (Hairer, Norsett & Wanner, Solving ODEs I, II.10), of the angle
  w = inv(Phi), inv = artanh resp. arctan, finds S as a terminal event
  and samples the profile from its dense output; no search over C.

* The invariant suite over batches of random jets (``random_jets``):
  the closed-form identities of the graph geometry and the operators
  (``identity_defects``, which evaluates only the identities asked
  for), and central finite differences of the flow
  operator against its exact derivative formulas
  (``fd_check_derivatives``). ``gaussflow check`` and the acceptance
  suite both evaluate their jets here, grouped by dimension and drawn
  as the component-major rows the solver uses, so no kernel converts
  them.

Only this module knows the paper's two Minkowski misprints that
``gaussflow check --debug-paper-signs`` must catch: the rank-one sign of
b^ij and b_ij (``identity_defects``) and the gradient derivative of G,
-4 p r / v^4 in 1D instead of +2 p r / v^4 (``g_p_paper_many``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import OracleFailureError
from .geometry import (EUCLIDEAN, MINKOWSKI, NodalJets, eigenvalues_many,
                       metric_trace, signature_eps, v_squared)
from .operators import g_derivatives_many, g_dual_many, inverse_many


def _slope_angle(sig: str):
    """(fwd, inv) of the signature: the slope phi = fwd(w) of the angle
    w = inv(phi), (tanh, artanh) in Minkowski space, (tan, arctan) in
    Euclidean space."""
    if sig == MINKOWSKI:
        return np.tanh, np.arctanh
    if sig == EUCLIDEAN:
        return np.tan, np.arctan
    raise ValueError(f"unknown signature {sig!r}")


@dataclass(frozen=True)
class ClosedForm1D:
    """Sampler for the closed form 1D translator profile."""

    c_speed: float
    x0: float
    sig: str

    def slope(self, x):
        fwd, _ = _slope_angle(self.sig)
        return fwd(self.c_speed * (np.asarray(x, dtype=float) - self.x0))

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
    _, inv = _slope_angle(sig)
    if sig == MINKOWSKI and not (-1.0 < c and d < 1.0):
        raise ValueError("Minkowski slopes must satisfy -1 < c < d < 1")
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


def translator_radial_shooting(radius: float, rho: float, n: int, sig: str,
                               tol: float = 1e-10) -> RadialProfile:
    """Radial translator over the ball of the given radius.

    ``rho`` is the prescribed boundary slope (the gradient image is the
    rho-ball). The slope equation is invariant under r -> C r, so
    phi(r; C) = Phi(C r) with Phi its solution at C = 1, and the speed is
    C = S / R, S the point where Phi reaches rho. One DOP853 integration
    of the angle w = inv(Phi), inv = artanh (Minkowski) or arctan
    (Euclidean), finds S as a terminal event and samples the profile
    from its dense output; ``tol`` in (0, 1) sets its tolerances,
    rtol = max(tol / 100, 1e-13) and atol = rtol / 100.

    The drift C - (n-1) phi / r is positive (it is C / n at the axis and
    rises where it would vanish), so phi increases from 0, and
    w' = 1 - (n-1) fwd(w) / s <= 1, fwd = tanh resp. tan, gives
    S >= inv(rho): the integration starts at s0 = 1e-8 inv(rho) on the
    axis asymptote w = s / n, so the first sampled radius is at most
    1e-8 R up to rounding. Comparison bounds S from above, and the span
    ends 1 past the bound:

    * Minkowski: artanh(phi) >= phi gives (r^{n-1} artanh phi)' >=
      C r^{n-1}, so S <= n artanh(rho).
    * Euclidean: 1 + phi^2 >= 1 gives (r^{n-1} phi)' >= C r^{n-1}, so
      S <= n rho.

    An integration that ends without the event, or a sampled profile
    that is not strictly increasing, raises ``OracleFailureError``.
    """
    if not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    fwd, inv = _slope_angle(sig)
    if sig == MINKOWSKI and not 0.0 < rho < 1.0:
        raise ValueError("Minkowski boundary slope must lie in (0, 1)")
    if not 0.0 < rho < np.inf:
        raise ValueError(f"boundary slope must be finite and positive, got {rho!r}")
    w_end = float(inv(rho))
    s_max = n * (w_end if sig == MINKOWSKI else rho) + 1.0

    def crossing(s, w):
        return w[0] - w_end

    crossing.terminal = True
    s0 = 1e-8 * w_end
    rtol = max(tol / 100.0, 1e-13)
    sol = solve_ivp(lambda s, w: 1.0 - (n - 1) * fwd(w) / s, (s0, s_max),
                    [s0 / n], method="DOP853", rtol=rtol, atol=rtol / 100.0,
                    events=crossing, dense_output=True)
    if sol.status != 1:
        raise OracleFailureError(
            f"the slope did not reach {rho:g} by s = {s_max:.6g}: {sol.message}"
        )
    s_end = float(sol.t_events[0][0])
    c_speed = s_end / radius
    radii = np.linspace(s0 / c_speed, radius, 4097)
    phi = np.concatenate([[0.0], fwd(sol.sol(c_speed * radii)[0])])
    radii = np.concatenate([[0.0], radii])
    if np.any(np.diff(phi) <= 0.0):
        raise OracleFailureError("radial profile is not strictly increasing")
    return RadialProfile(radii=radii, phi=phi, c_speed=c_speed,
                         dimension=n, sig=sig)


def radial_ode_residual(profile: RadialProfile) -> float:
    """Max Simpson-rule defect of the profile against its ODE.

    Independent consistency check of the returned nodes: over each pair
    of intervals, w = artanh resp. arctan of phi must change by the Simpson
    quadrature of w' = phi' / (1 + eps phi^2) = C - (n-1) phi / r, smooth
    where phi is steep.
    """
    _, inv = _slope_angle(profile.sig)
    r = profile.radii[1:]  # skip the synthetic r = 0 node
    phi = profile.phi[1:]
    f = profile.c_speed - (profile.dimension - 1) * phi / r
    w = inv(phi)
    dr = r[2] - r[1]
    lhs = w[2::2] - w[:-2:2]
    quad = (dr / 3.0) * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    return float(np.max(np.abs(lhs - quad)))


# Minkowski jets are drawn with |p| below this reach.
JET_REACH = 0.95


def random_jets(rng: np.random.Generator, count: int, sig: str) -> dict:
    """``count`` random jets, grouped by dimension, as component-major
    rows: {n: (p (n, m), r (n, n, m))}.

    In this order of draws from ``rng``: the dimensions of all ``count``
    jets, uniform in {1, 2, 3}; then, for each dimension n present, in
    increasing order and for its m jets at once, the gradients
    (Minkowski: m uniform directions, then m lengths uniform in
    [0, JET_REACH); Euclidean: standard normal) and the Hessians, the
    symmetric parts of m standard normal matrices. Each jet is drawn as
    one row of a node-major table, and each table is transposed once.
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
        jets[n] = (p.T, (0.5 * (r + np.swapaxes(r, 1, 2))).transpose(1, 2, 0))
    return jets


def g_p_paper_many(p: np.ndarray, r: np.ndarray, sig: str) -> np.ndarray:
    """The gradient derivative of G as misprinted, at each node of the
    rows p (n, N) and r (n, n, N), shape (n, N).

    For the trace operator it reads, per component i,
        -2 (p_i / v) tr(a) - 2 (b a p)_i
    and disagrees with the true derivative (ratio -2 in one dimension).
    """
    if sig != MINKOWSKI:
        raise ValueError("the printed transcription exists for the Minkowski case only")
    jets = NodalJets(p, r, sig)
    bap = np.einsum("ijn,jkn,kn->in", jets.b_up, jets.a, p)
    return -2.0 * p * (jets.H / jets.v) - 2.0 * bap


IDENTITY_KEYS = ("root", "inverse", "root-inverse", "trace", "normal",
                 "hessian-slot", "duality")


def identity_defects(jets: dict, sig: str, paper_signs: bool = False,
                     keys=IDENTITY_KEYS) -> dict:
    """Worst defect of each closed-form identity in ``keys`` over
    ``random_jets`` output; only the identities asked for are evaluated.

    Keys: ``root`` |b^ij b^jk - g^ik|, ``inverse`` |g_ij g^jk - delta|,
    ``root-inverse`` |b^ij b_jk - delta|, ``trace`` |v H - G|,
    ``normal`` |<nu, nu> - eps| (the unit normal is timelike in
    Minkowski space), ``hessian-slot`` |G_r - (I - eps p p^T / v^2)| with
    v^2 from ``v_squared`` (G_r divides by the squared tilt), and
    ``duality`` |Gdual + G| at each jet with its Hessian shifted positive
    definite and the dual Hessian its inverse. In the Minkowski case
    ``paper_signs`` replaces b^ij and b_ij by 2 I - b, which flips
    exactly their rank-one parts, the misprint; only ``root`` and
    ``root-inverse`` see it.
    """
    eps = signature_eps(sig)
    worst = dict.fromkeys(keys, 0.0)
    for n, (p, r) in jets.items():
        eye = np.eye(n)[:, :, None]

        def duality():
            r_pd = r + (np.abs(eigenvalues_many(r)[0]) + 0.5) * eye
            return (g_dual_many(p, inverse_many(r_pd), sig)
                    + metric_trace(p, r_pd, sig))

        geo = NodalJets(p, r, sig)

        def root(b):
            """b^ij or b_ij, with the misprinted sign under paper_signs."""
            return 2.0 * eye - b if paper_signs and sig == MINKOWSKI else b

        defect = {
            "root": lambda: (np.einsum("ijn,jkn->ikn", root(geo.b_up), root(geo.b_up))
                             - geo.g_up),
            "inverse": lambda: np.einsum("ijn,jkn->ikn", geo.g_lo, geo.g_up) - eye,
            "root-inverse": lambda: (np.einsum("ijn,jkn->ikn", root(geo.b_up),
                                               root(geo.b_lo)) - eye),
            "trace": lambda: geo.v * geo.H - metric_trace(p, r, sig),
            "normal": lambda: (np.sum(geo.nu[:-1] ** 2, axis=0)
                               + eps * geo.nu[-1] ** 2 - eps),
            "hessian-slot": lambda: (
                g_derivatives_many(p, r, sig)[0] - eye
                + eps * (p[:, None] * p)
                / v_squared(np.einsum("in,in->n", p, p), sig)),
            "duality": duality,
        }
        for key in keys:
            worst[key] = max(worst[key], float(np.max(np.abs(defect[key]()))))
    return worst


def fd_check_derivatives(samples: int, sig: str, eps_fd: float,
                         seed: int = 0, paper_form: bool = False) -> float:
    """Worst relative error of the exact derivatives vs central differences.

    Draws ``random_jets``; every gradient component and every symmetric
    Hessian direction is checked, one batched operator evaluation per
    direction and dimension. ``paper_form`` routes the gradient
    derivative through the misprint ``g_p_paper_many`` so the check
    suite can demonstrate its failure.
    """
    if not 1e-7 <= eps_fd <= 1e-3:
        raise ValueError("finite difference step must lie in [1e-7, 1e-3]")
    worst = 0.0
    for n, (p, r) in random_jets(np.random.default_rng(seed), samples, sig).items():
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
