"""Seeded problem generator for the benchmark workloads.

Seed 0 gives the exact reference geometries of the acceptance suite
(tests/test_acceptance.py). Any other seed jitters the gradient-image
domains: interval ends (by one common factor, so an image stays centred),
ball radius and ellipse semi-axes by up to JITTER relative, and the
ellipse rotation by any angle. Every Minkowski image stays strictly
inside the unit ball. The base domain Omega is never jittered.

Reference speeds (closed form in 1D, radial shooting for ball onto
ball) are computed here, before any timed region starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

JITTER = 0.05
DRAWS_2D = 3

# Acceptance run 3 speed, frozen from three independent shooting
# integrations (see tests/test_acceptance.py).
FROZEN_RADIAL_C = 1.0735826836

SPEED_TOL_1D = 1e-3
SPEED_TOL_RADIAL = 1e-2


@dataclass(frozen=True)
class Problem:
    """One flow problem: domains as config text, grid, and its oracle."""

    pid: str
    sig: str
    omega: str
    omega_tilde: str
    grid: object  # int (1D cells) or (n_rho, n_theta)
    c_ref: float | None = None
    speed_tol: float | None = None

    def config_text(self, output_dir: str) -> str:
        """``gaussflow run`` config with a monitor record at every step."""
        lines = [
            f"signature = {self.sig}",
            f"omega = {self.omega}",
            f"omega_tilde = {self.omega_tilde}",
        ]
        if isinstance(self.grid, tuple):
            lines += [f"n_rho = {self.grid[0]}", f"n_theta = {self.grid[1]}"]
        else:
            lines.append(f"n = {self.grid}")
        lines += [f"output_dir = {output_dir}", "cadence = 1"]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OracleCase:
    """Parameters of the two ``gaussflow oracle`` calls."""

    radial: tuple[float, float, int, str]          # R, rho, n, sig
    closed1d: tuple[float, float, float, float, str]  # a, b, c, d, sig
    radial_c: float
    closed_c: float


def _num(x: float) -> str:
    return repr(float(x))


class Generator:
    """Draws jittered image domains from one seed, in a fixed order."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def scale(self, x: float) -> float:
        if self.seed == 0:
            return float(x)
        return float(x) * (1.0 + self._rng.uniform(-JITTER, JITTER))

    def angle(self) -> float:
        return 0.0 if self.seed == 0 else float(self._rng.uniform(0.0, math.pi))

    def interval(self, c: float, d: float) -> str:
        s = self.scale(1.0)
        return f"interval {_num(c * s)} {_num(d * s)}"

    def ball(self, rho: float) -> tuple[str, float]:
        rho = self.scale(rho)
        return f"ball 0.0 0.0 {_num(rho)}", rho

    def ellipse(self, a: float, b: float) -> str:
        a, b, phi = self.scale(a), self.scale(b), self.angle()
        if phi == 0.0:
            # the acceptance suite's diag(1/a^2, 1/b^2), bit for bit
            q11, q12, q22 = 1 / a**2, 0.0, 1 / b**2
        else:
            c, s = math.cos(phi), math.sin(phi)
            rot = np.array([[c, -s], [s, c]])
            q = rot @ np.diag([1 / a**2, 1 / b**2]) @ rot.T
            q11, q12, q22 = q[0, 0], 0.5 * (q[0, 1] + q[1, 0]), q[1, 1]
        return f"ellipse 0.0 0.0 {_num(q11)} {_num(q12)} {_num(q22)}"


def _radial_speed(oracles, rho: float, seed: int) -> float:
    """Shooting speed for the unit ball onto the rho-ball, n = 2."""
    if seed == 0:
        return FROZEN_RADIAL_C
    return oracles.translator_radial_shooting(1.0, rho, 2, "minkowski",
                                              tol=1e-10).c_speed


def _line_pair(gen: Generator, oracles, n: int) -> list[Problem]:
    mink = gen.interval(-0.5, 0.5)
    eucl = gen.interval(-1.0, 1.0)
    out = []
    for sig, image in (("minkowski", mink), ("euclidean", eucl)):
        _, c, d = image.split()
        c_ref, _ = oracles.translator_1d_closed_form(0.0, 1.0, float(c),
                                                     float(d), sig)
        out.append(Problem(f"{sig[:4]}1d-{n}", sig, "interval 0.0 1.0", image,
                           n, c_ref, SPEED_TOL_1D))
    return out


def disk2d(seed: int, oracles) -> list[Problem]:
    """Ball onto half ball (shooting oracle) and ball onto ellipse, DRAWS_2D
    draws of each.

    Newton attempts still stall at 32 x 64 (at 24 x 48 the ellipse
    problem has none). How many stall is chaotic in the input: over seeds
    1..10 one problem needs anywhere in 74..124 linear solves, with 5 %
    or with 1 % jitter alike, and a pair 176..216. A pass therefore runs
    several draws, so that a seed moves the work of a pass by less.
    Seed 0 draws the reference pair every time.
    """
    gen = Generator(seed)
    out = []
    for k in range(1, DRAWS_2D + 1):
        ball, rho = gen.ball(0.5)
        ellipse = gen.ellipse(0.4, 0.25)
        out += [
            Problem(f"ball#{k}", "minkowski", "ball 0.0 0.0 1.0", ball,
                    (32, 64), _radial_speed(oracles, rho, seed),
                    SPEED_TOL_RADIAL),
            Problem(f"ellipse#{k}", "minkowski", "ball 0.0 0.0 1.0", ellipse,
                    (32, 64)),
        ]
    return out


def line1d(seed: int, oracles) -> list[Problem]:
    """1D Minkowski onto (-1/2, 1/2) and Euclidean onto (-1, 1), three N.

    Each resolution draws its own image intervals. The stalled Newton
    work of a draw is chaotic in the interval and alike across N, so one
    draw shared by the three resolutions moved the work of a pass by
    more (NOTES.md).
    """
    gen = Generator(seed)
    return [p for n in (401, 801, 1601) for p in _line_pair(gen, oracles, n)]


def audit_cli(seed: int, oracles) -> list[Problem]:
    """Ball onto ellipse at 24 x 48 and 1D Minkowski at N = 801."""
    gen = Generator(seed)
    ellipse = gen.ellipse(0.4, 0.25)
    mink = _line_pair(gen, oracles, 801)[0]
    return [
        Problem("ellipse", "minkowski", "ball 0.0 0.0 1.0", ellipse, (24, 48)),
        mink,
    ]


def oracle_case(seed: int, oracles) -> OracleCase:
    """Radial oracle on (R = 1, rho = 1/2, n = 2) and closed1d on run 1."""
    gen = Generator(seed)
    _, rho = gen.ball(0.5)
    _, c, d = gen.interval(-0.5, 0.5).split()
    c, d = float(c), float(d)
    radial_c = oracles.translator_radial_shooting(1.0, rho, 2, "minkowski",
                                                  tol=1e-10).c_speed
    closed_c, _ = oracles.translator_1d_closed_form(0.0, 1.0, c, d, "minkowski")
    return OracleCase((1.0, rho, 2, "minkowski"), (0.0, 1.0, c, d, "minkowski"),
                      radial_c, closed_c)
