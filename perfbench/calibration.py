"""Pass timing scaled to a reference host speed.

Shared hosts slow every process by 10..80 % for seconds to minutes at a
time (NOTES.md). A fixed calibration kernel, timed immediately before
every timed unit of a pass (one problem, one CLI call), slows with the
unit, so each unit's time is scaled by CAL_REF_S / (kernel time): the
time it would have taken on a host where the kernel takes CAL_REF_S. A
change in gaussflow moves the scaled time in full, because no gaussflow
code runs in the kernel.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

CAL_REF_S = 0.05


def _laplacian(n: int, dim: int):
    lap = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                   [-1, 0, 1])
    if dim == 1:
        return lap.tocsr()
    eye = sp.eye(n)
    return (sp.kron(lap, eye) + sp.kron(eye, lap) + 0.1 * sp.eye(n * n)).tocsc()


_CAL_1D = _laplacian(801, 1)
_CAL_2D = _laplacian(60, 2)


def calibration_s() -> float:
    """Seconds the kernel takes now.

    The kernel is the workloads' inner loop on fixed data: tridiagonal
    matrices assembled by sparse products with diagonals and solved, then
    sparse LU solves of a 2D Laplacian. Of the kernels tried, this pair
    tracked the solver's slow spells best (NOTES.md).
    """
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, _CAL_1D.shape[0])
    for _ in range(10):
        jac = _CAL_1D.copy()
        for k in range(4):
            jac = jac + sp.diags(x + k) @ _CAL_1D
        spla.spsolve(jac.tocsc(), x)
    b = np.ones(_CAL_2D.shape[0])
    for _ in range(2):
        spla.splu(_CAL_2D).solve(b)
    return time.perf_counter() - t0


class Clock:
    """Sums the timed units of one pass, measured and scaled."""

    def __init__(self):
        self.measured: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.kernel: list[float] = []

    @contextmanager
    def unit(self, key: str = "wall_s"):
        """Time one unit under ``key``; the body may add parts of it.

        The body gets a dict in which it can put the seconds of parts of
        the unit (``setup_s``, ``translator_s``); they are scaled alike.
        The kernel run after a unit is the one before the next.
        """
        if not self.kernel:
            self.kernel.append(calibration_s())
        parts: dict[str, float] = {}
        t0 = time.perf_counter()
        yield parts
        parts[key] = time.perf_counter() - t0
        self.kernel.append(calibration_s())
        kernel = 0.5 * (self.kernel[-2] + self.kernel[-1])
        for name, dt in parts.items():
            self.measured[name] = self.measured.get(name, 0.0) + dt
            self.scaled[name] = (self.scaled.get(name, 0.0)
                                 + dt * CAL_REF_S / kernel)
