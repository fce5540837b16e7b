"""Shared test helpers."""


def stencil_blocks(grid):
    """(first, second): the gradient stencils first[k] and the Hessian
    stencils second[k][l] (second[l][k] the same matrix) as CSR row blocks
    of the stacked operator that ``grid.derivative_rows`` multiplies by."""
    stacked, slot = grid._stacked
    n = grid.n_nodes
    blocks = [stacked[s * n:(s + 1) * n] for s in range(stacked.shape[0] // n)]
    return blocks[:grid.dim], [[blocks[s] for s in row] for row in slot]


def per_unit_volume(tau, omega):
    """The control value a run on the base domain omega applies as the
    absolute tau ``tau``: step controls are stated for a base domain of
    unit volume, and a time scales like |omega|^(2/n)
    (``StepControls.for_domain``)."""
    return tau / omega.volume ** (2.0 / omega.dimension)
