"""Time stepping, boundary handling, translator extraction."""

import ast
import dataclasses
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

from gaussflow import domains as dom
from gaussflow import flow, geometry, grids, monitors, operators, oracles
from gaussflow.errors import (
    ConvexityError,
    NonConvergenceError,
    SpacelikeViolationError,
    StepFailureError,
)
from gaussflow.flow import StepControls, step_explicit, step_implicit
from gaussflow.geometry import EUCLIDEAN, MINKOWSKI, eigenvalues_many
from helpers import per_unit_volume, stencil_blocks


def interval_pair():
    return (dom.ConvexDomain.interval(0, 1),
            dom.ConvexDomain.interval(-0.5, 0.5))


def translator_state(n_cells=201, tau=0.1):
    """State holding the sampled closed-form translator profile."""
    om, ot = interval_pair()
    c, prof = oracles.translator_1d_closed_form(0, 1, -0.5, 0.5, MINKOWSKI)
    state = flow.initialize(om, ot, n_cells, MINKOWSKI)
    u = prof.height(state.grid.nodes[:, 0])
    g = operators.g_value_many(state.grid.gradient(u), state.grid.hessian(u),
                          MINKOWSKI)
    return dataclasses.replace(state, u=u, u_dot=g, tau=tau, steps=1), c


def rotated_ellipse(center, semi_axes, angle):
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    return dom.ConvexDomain.ellipse(
        center, rot @ np.diag(1.0 / np.asarray(semi_axes) ** 2) @ rot.T)


def evaluated(state, u, base, tau):
    """(residual, record) of the iterate u: one ``_evaluate`` and the
    ``_residual`` Newton forms from it."""
    ev = flow._evaluate(state.grid, state.op, u)
    return flow._residual(state, u, base, tau, ev), ev


def sparse_product_jacobian(state, p, r, tau):
    """Reference Jacobian assembled from diag(weights) @ stencil products,
    from the derivative rows p (n, N) and r (n, n, N)."""
    grid = state.grid
    n_nodes, ndim = grid.n_nodes, grid.dim
    first, second = stencil_blocks(grid)
    g_r, g_p = operators.g_derivatives_many(p, r, state.sig)
    lin = sp.csr_matrix((n_nodes, n_nodes))
    for k in range(ndim):
        for l in range(ndim):
            lin = lin + sp.diags(g_r[k, l]) @ second[k][l]
        lin = lin + sp.diags(g_p[k]) @ first[k]
    if ndim == 1:
        bnd_rows = first[0]
    else:
        beta = np.zeros((ndim, n_nodes))
        _, beta[:, grid.boundary] = dom.defining_jet_many(
            state.omega_tilde, p[:, grid.boundary])
        bnd_rows = sum(sp.diags(beta[k]) @ first[k]
                       for k in range(ndim))
    sel_i = np.zeros(n_nodes)
    sel_i[grid.interior] = 1.0
    sel_b = np.zeros(n_nodes)
    sel_b[grid.boundary] = 1.0
    return (sp.diags(sel_i) @ (sp.eye(n_nodes) - tau * lin)
            + sp.diags(sel_b) @ bnd_rows).tocsc()


JACOBIAN_CASES = {
    "line-minkowski": (dom.ConvexDomain.interval(0, 1),
                       dom.ConvexDomain.interval(-0.5, 0.5), 40, MINKOWSKI),
    "line-euclidean": (dom.ConvexDomain.interval(-1, 2),
                       dom.ConvexDomain.interval(-1, 1.5), 40, EUCLIDEAN),
    "disk-ball": (dom.ConvexDomain.ball([0, 0], 1.0),
                  dom.ConvexDomain.ball([0, 0], 0.5), (6, 12), MINKOWSKI),
    "disk-rotated-ellipse": (rotated_ellipse([0.1, -0.2], [1.0, 0.6], 0.4),
                             rotated_ellipse([0.05, 0.1], [0.4, 0.25], -0.7),
                             (6, 12), MINKOWSKI),
}


class TablePattern:
    """The per-stencil lookup table the Jacobian pattern was first built
    with, kept as the reference its assembly must reproduce bit for bit:
    every stencil's values placed on the union pattern by a sorted-key
    search at build, and assembly as one weighted sum over that table."""

    def __init__(self, stencils):
        stencils = [sp.csc_matrix(s, copy=True) for s in stencils]
        for st in stencils:
            st.sum_duplicates()
            st.eliminate_zeros()
        union = abs(stencils[0])
        for st in stencils[1:]:
            union = union + abs(st)
        union.sort_indices()
        self.indices, self.indptr = union.indices, union.indptr
        self.n_nodes = union.shape[0]
        keys = self._keys(union)
        self._values = np.zeros((len(stencils), union.nnz))
        for s, st in enumerate(stencils):
            self._values[s, np.searchsorted(keys, self._keys(st))] = st.data

    def _keys(self, mat):
        cols = np.repeat(np.arange(self.n_nodes), np.diff(mat.indptr))
        return cols * self.n_nodes + mat.indices

    def assemble(self, coef):
        data = np.einsum("se,se->e", coef[:, self.indices], self._values)
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=(self.n_nodes, self.n_nodes))


def perturbed_state(case, tau=0.01, spec=None):
    """Initial state with a smooth convexity-preserving perturbation, on
    the case's grid unless ``spec`` is given."""
    om, ot, case_spec, sig = JACOBIAN_CASES[case]
    state = flow.initialize(om, ot, spec or case_spec, sig)
    x = state.grid.nodes
    u = state.u + 1e-3 * np.sin(2.0 * x[:, 0] + 1.0) * np.cos(x[:, -1])
    return state, u, tau


class TestJacobian:
    @pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
    def test_matches_centred_difference_of_residual(self, case):
        state, u, tau = perturbed_state(case)
        _, ev = evaluated(state, u, state.u, tau)
        jac = flow._jacobian(state, ev, tau).toarray()
        eps = 1e-6
        fd = np.empty_like(jac)
        for j in range(state.grid.n_nodes):
            du = np.zeros_like(u)
            du[j] = eps
            plus, _ = evaluated(state, u + du, state.u, tau)
            minus, _ = evaluated(state, u - du, state.u, tau)
            fd[:, j] = (plus - minus) / (2.0 * eps)
        for rows in (state.grid.interior, state.grid.boundary):
            scale = max(1.0, np.max(np.abs(jac[rows])))
            assert np.max(np.abs(jac[rows] - fd[rows])) < 1e-6 * scale

    @pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
    def test_fixed_pattern_matches_sparse_products(self, case):
        state, u, tau = perturbed_state(case)
        _, ev = evaluated(state, u, state.u, tau)
        jac = flow._jacobian(state, ev, tau)
        ref = sparse_product_jacobian(state, ev.jets.p, ev.jets.r, tau)
        ref.eliminate_zeros()
        on_pattern = jac.copy()
        on_pattern.data[:] = 1.0
        # every nonzero of the product assembly is a slot of the pattern
        assert on_pattern.multiply(ref).nnz == ref.nnz
        assert np.max(np.abs((jac - ref).toarray())) <= (
            1e-12 * np.max(np.abs(ref.data)))
        # the pattern is fixed: a second state fills the same structure
        _, ev2 = evaluated(state, 1.01 * u, state.u, 2 * tau)
        again = flow._jacobian(state, ev2, 2 * tau)
        assert np.array_equal(again.indptr, jac.indptr)
        assert np.array_equal(again.indices, jac.indices)


    @pytest.mark.parametrize("case, spec", [
        pytest.param(case, None, id=case)
        for case in ("line-minkowski", "disk-ball", "disk-rotated-ellipse")
    ] + [
        # the smallest grids: in 2D the boundary ring's third ring below
        # is ring 1, and the angle stencils wrap around eight nodes
        pytest.param("line-minkowski", 4, id="line-minkowski-4"),
        pytest.param("disk-ball", (4, 8), id="disk-ball-4x8"),
        pytest.param("disk-rotated-ellipse", (4, 8),
                     id="disk-rotated-ellipse-4x8"),
    ])
    def test_pattern_assembles_what_the_lookup_table_did(self, case, spec,
                                                         monkeypatch):
        # data, indices and indptr bit for bit, on the Jacobian's own
        # weights and on random ones with unweighted rows: the table's CSC
        # entries read in row order
        state, u, tau = perturbed_state(case, spec=spec)
        grid = state.grid
        pattern = grid.stencil_pattern
        first, second = stencil_blocks(grid)
        table = TablePattern([sp.identity(grid.n_nodes), *first,
                              *(second[k][l] for k in range(grid.dim)
                                for l in range(k, grid.dim))])
        rowwise = table.assemble(np.ones((pattern.n_stencils, grid.n_nodes))).tocsr()
        assert np.array_equal(pattern.indptr, rowwise.indptr)
        assert np.array_equal(pattern.indices, rowwise.indices)
        weights = []
        assemble = pattern.assemble

        def recorded(coef):
            weights.append(coef)
            return assemble(coef)

        monkeypatch.setattr(pattern, "assemble", recorded)
        _, ev = evaluated(state, u, state.u, tau)
        flow._jacobian(state, ev, tau)
        rand = np.random.default_rng(6).normal(size=weights[0].shape)
        rand[:, grid.boundary[:1]] = 0.0
        for coef in (weights[0], rand):
            got, want = assemble(coef), table.assemble(coef).tocsr()
            assert got.format == "csr"
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("case", ["line-minkowski", "disk-ball"])
    def test_column_ordering_has_least_lu_fill(self, case, monkeypatch):
        # each ordering factored as the grid's SuperLU path factors
        # (grid.superlu, the line's factor and the disk's fallback):
        # disk-ball MMD 1482, COLAMD 1878, NATURAL 2053; line-minkowski
        # NATURAL 164, COLAMD 167, MMD 218
        state, u, tau = perturbed_state(case)
        _, ev = evaluated(state, u, state.u, tau)
        jac = flow._jacobian(state, ev, tau)
        grid = state.grid
        chosen = grid.column_ordering
        fill = {}
        for spec in ("COLAMD", "MMD_AT_PLUS_A", "NATURAL"):
            # shadows the class's ordering until the test ends: the grid
            # is shared by every live state on its domain
            monkeypatch.setattr(grid, "column_ordering", spec)
            lu = grid.superlu(jac)
            fill[spec] = lu.L.nnz + lu.U.nnz
        assert fill[chosen] == min(fill.values())

    def test_factor_pivots_on_the_diagonal(self):
        # ball onto ellipse at 24 x 48, tau = 1: partial pivoting swaps
        # rows of this Jacobian (perm_r != perm_c) and adds fill beyond
        # the MMD order; the threshold keeps every pivot on the diagonal
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                dom.ConvexDomain.ellipse([0, 0], np.diag([6.25, 16.0])),
                                (24, 48), MINKOWSKI)
        _, ev = evaluated(state, state.u, state.u, 1.0)
        jac = flow._jacobian(state, ev, 1.0)
        lu = state.grid.superlu(jac)
        assert np.array_equal(lu.perm_r, lu.perm_c)
        partial = splu(jac.tocsc(), permc_spec=state.grid.column_ordering)
        assert not np.array_equal(partial.perm_r, partial.perm_c)
        assert lu.L.nnz + lu.U.nnz < partial.L.nnz + partial.U.nnz
        rhs = np.sin(np.arange(jac.shape[0]))
        x = lu.solve(rhs)
        assert np.linalg.norm(jac @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def angle_average(jac, grid):
    """The mean of R_s J R_s^T over the n_theta rotations R_s of the polar
    grid's angles (the pole stays): J's block-circulant part, built apart
    from the factor's slot keys."""
    nt, n = grid.n_theta, grid.n_nodes
    node = np.arange(1, n)
    ring, m = (node - 1) // nt, (node - 1) % nt
    total = sp.csr_matrix(jac.shape)
    for s in range(nt):
        rotate = sp.csr_matrix(
            (np.ones(n), (np.arange(n), np.r_[0, 1 + ring * nt + (m + s) % nt])),
            shape=(n, n))
        total = total + rotate @ jac @ rotate.T
    return (total / nt).tocsc()


def first_jacobian(omega, omega_tilde, spec, tau=1.0):
    """The state initialize builds and the Jacobian of its first step's
    first iterate at tau, with that iterate's residual."""
    state = flow.initialize(omega, omega_tilde, spec, MINKOWSKI)
    res, ev = evaluated(state, state.u, state.u, tau)
    return state, flow._jacobian(state, ev, tau), res


BALL = dom.ConvexDomain.ball([0, 0], 1.0)
RUN4_IMAGE = dom.ConvexDomain.ellipse([0, 0], np.diag([6.25, 16.0]))


class TestFourierChordFactor:
    """The disk grid's chord factor: M, J's angle average, factored one
    angular mode at a time, and iterated on to INNER_RTOL."""

    def test_centred_ball_jacobian_is_its_angle_average(self):
        # ball onto B_0.5 at 32 x 64: J is block circulant to roundoff, so
        # the factor solves with M alone and agrees with SuperLU
        state, jac, res = first_jacobian(BALL, dom.ConvexDomain.ball([0, 0], 0.5),
                                         (32, 64))
        avg = angle_average(jac, state.grid)
        assert sp.linalg.norm(jac - avg) <= 1e-12 * sp.linalg.norm(jac)
        factor = flow._factor(jac, state.grid)
        direct = state.grid.superlu(jac)
        for rhs in (res, np.sin(np.arange(jac.shape[0]))):
            x, want = factor.solve(rhs), direct.solve(rhs)
            assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
        assert not factor.fell_back

    @pytest.mark.parametrize("case", ["disk-ball", "disk-rotated-ellipse"])
    def test_mode_solve_inverts_the_angle_average(self, case):
        # off the symmetric case too: the rfft, the stacked band solve with
        # the pole as mode 0's ring 0, and the irfft invert M itself
        state, u, tau = perturbed_state(case)
        _, ev = evaluated(state, u, state.u, tau)
        jac = flow._jacobian(state, ev, tau)
        avg = angle_average(jac, state.grid)
        factor = flow._factor(jac, state.grid)
        x = np.cos(1.7 * np.arange(jac.shape[0]))
        assert np.max(np.abs(factor._mode_solve(avg @ x) - x)) <= 1e-10

    def test_ellipse_image_solve_meets_inner_rtol(self):
        # run 4's image at 32 x 64: J is not block circulant, and the
        # inner iteration on M brings the residual to INNER_RTOL
        state, jac, res = first_jacobian(BALL, RUN4_IMAGE, (32, 64))
        factor = flow._factor(jac, state.grid)
        for rhs in (res, np.sin(np.arange(jac.shape[0]))):
            x = factor.solve(rhs)
            assert np.max(np.abs(rhs - jac @ x)) <= (
                grids.INNER_RTOL * np.max(np.abs(rhs)))
        assert not factor.fell_back

    def test_narrow_base_ellipse_falls_back_to_superlu(self, monkeypatch):
        # base ellipse with semi-axes (1, 0.4) onto B_0.5 at 32 x 64: the
        # inner iteration contracts by about 0.65, fails to halve the
        # residual, and the factor becomes J's SuperLU; the run keeps its
        # 3 steps (6 at tau_max = 1) and the speed of a run on SuperLU
        # alone
        made = []
        factor = flow._factor

        def recorded(*args):
            made.append(factor(*args))
            return made[-1]

        monkeypatch.setattr(flow, "_factor", recorded)
        omega = dom.ConvexDomain.ellipse([0, 0], np.diag([1.0, 6.25]))
        image = dom.ConvexDomain.ball([0, 0], 0.5)
        result = flow.run_to_translator(
            flow.initialize(omega, image, (32, 64), MINKOWSKI))
        assert result.steps == 3
        assert any(f.fell_back for f in made)
        monkeypatch.setattr(flow, "_factor", lambda jac, grid: grid.superlu(jac))
        direct = flow.run_to_translator(
            flow.initialize(omega, image, (32, 64), MINKOWSKI))
        assert direct.steps == result.steps
        assert abs(direct.c_inf - result.c_inf) < 1e-10

    def test_singular_angle_average_falls_back(self):
        # a diagonal J whose first ring alternates in sign along the angle
        # averages to a singular M: the factor is J's SuperLU from the start
        grid = flow.build_grid(BALL, (6, 12))
        diag = np.ones(grid.n_nodes)
        diag[1:1 + grid.n_theta] = (-1.0) ** np.arange(grid.n_theta)
        coef = np.zeros((grid.stencil_pattern.n_stencils, grid.n_nodes))
        coef[0] = diag
        jac = grid.stencil_pattern.assemble(coef)
        factor = flow._factor(jac, grid)
        assert factor.fell_back
        rhs = np.sin(np.arange(grid.n_nodes))
        assert np.allclose(factor.solve(rhs), rhs / diag, rtol=1e-14, atol=0)
        # a singular J (and M: the pole's row is empty) raises from SuperLU
        coef[0, 0] = 0.0
        with pytest.raises(RuntimeError):
            flow._factor(grid.stencil_pattern.assemble(coef), grid)

    def test_non_finite_right_hand_side_ends_the_attempt(self, monkeypatch):
        state, jac, res = first_jacobian(BALL, RUN4_IMAGE, (16, 32))
        factor = flow._factor(jac, state.grid)
        for bad in (np.nan, np.inf):
            rhs = res.copy()
            rhs[5] = bad
            assert not np.all(np.isfinite(factor.solve(rhs)))
        assert not factor.fell_back
        # an overflowing mode solve gives a non-finite Newton correction,
        # which ends the attempt
        monkeypatch.setattr(type(factor), "_mode_solve",
                            lambda self, b: np.full_like(b, np.inf))
        controls = StepControls()
        assert flow._newton_solve(state, state.u, state.u, 1.0,
                                  controls.tol_newton, controls.max_newton) is None


def plain_newton(state, u_prev, guess, tau, controls):
    """Newton without the stagnation exit: (u, iterations) or None."""
    u = guess.copy()
    for it in range(1, controls.max_newton + 1):
        res, ev = evaluated(state, u, u_prev, tau)
        if np.max(np.abs(res)) <= controls.tol_newton:
            return u, it
        u = u - spsolve(flow._jacobian(state, ev, tau), res)
    return None


@pytest.fixture
def counted_factors(monkeypatch):
    """Count the chord factors made by ``flow._factor`` and their solves,
    whatever the grid's factor (SuperLU on a line, Fourier on a disk)."""
    counts = {"factor": 0, "solve": 0}
    factor = flow._factor

    class CountedFactor:
        def __init__(self, inner):
            self._inner = inner

        def solve(self, rhs):
            counts["solve"] += 1
            return self._inner.solve(rhs)

    def counting(*args):
        counts["factor"] += 1
        return CountedFactor(factor(*args))

    monkeypatch.setattr(flow, "_factor", counting)
    return counts


class TestNewtonStagnation:
    def test_roundoff_stall_ends_within_three_solves(self, counted_factors):
        state, _ = translator_state()
        u_prev, tau = state.u, state.tau
        guess = u_prev + tau * state.u_dot
        defaults = StepControls()
        converged = flow._newton_solve(state, u_prev, guess, tau,
                                       defaults.tol_newton,
                                       defaults.max_newton)[0]
        counted_factors.update(factor=0, solve=0)
        # no iterate reaches 1e-30: the residual stalls on its roundoff
        # floor, where the attempt is accepted well before max_newton
        # factorizations
        controls = StepControls(tol_newton=1e-30)
        got = flow._newton_solve(state, u_prev, converged, tau,
                                 controls.tol_newton, controls.max_newton)
        assert got is not None
        assert 1 <= counted_factors["factor"] <= 3 < controls.max_newton
        # the floor eps ||J||_inf ||u||_inf of the attempt's first
        # Jacobian and iterate, with the row sums taken by scipy
        _, ev = evaluated(state, converged, u_prev, tau)
        jac = flow._jacobian(state, ev, tau)
        floor = (np.finfo(float).eps * abs(jac).sum(axis=1).max()
                 * np.max(np.abs(converged)))
        assert flow._floor_at(flow._inf_norm(jac), converged) == pytest.approx(
            floor, rel=1e-12)
        res, _ = evaluated(state, got[0], u_prev, tau)
        assert 0.0 < np.max(np.abs(res)) <= floor

    def test_stall_above_the_floor_ends_at_the_stagnation_exit(
            self, counted_factors, monkeypatch):
        # a guess far from the step's solution: the first full step with
        # a fresh factor fails to halve a residual eight orders above the
        # floor, so the floor does not accept it and the attempt fails
        state, _, _ = perturbed_state("disk-ball")
        tau = 1e-3
        guess = state.u + 0.1 * np.cos(3.0 * state.grid.nodes[:, 0] + 0.3)
        norms = []
        residual = flow._residual

        def recorded(*args):
            out = residual(*args)
            norms.append(np.max(np.abs(out)))
            return out

        _, ev = evaluated(state, guess, state.u, tau)
        floor = flow._floor_at(
            flow._inf_norm(flow._jacobian(state, ev, tau)), guess)
        monkeypatch.setattr(flow, "_residual", recorded)
        controls = StepControls()
        assert flow._newton_solve(state, state.u, guess, tau,
                                  controls.tol_newton,
                                  controls.max_newton) is None
        assert 1 <= counted_factors["factor"] <= 3
        assert len(norms) < controls.max_newton
        assert np.all(np.isfinite(norms))
        assert norms[-1] > flow.STAGNATION_RATIO * norms[-2]
        assert min(norms) > 100 * max(floor, controls.tol_newton)

    def test_large_first_tau_is_accepted_at_the_refreshed_floor(
            self, counted_factors, monkeypatch):
        # a first step at tau = 1000 from u0 moves u by about tau C, so
        # the floor of the first iterate is three orders too low: the
        # residual stalls near 5e-8, above it. The floor taken again at
        # the stalled iterate's Jacobian accepts the step before that
        # Jacobian is factored, with no tau halving.
        state, _, _ = perturbed_state("disk-ball")
        ceiling = per_unit_volume(1e3, state.omega)
        controls = StepControls(tau0=ceiling, tau_max=ceiling)
        tau = controls.for_domain(state.omega).tau0  # 1000 to rounding
        _, ev = evaluated(state, state.u, state.u, tau)
        first_floor = flow._floor_at(
            flow._inf_norm(flow._jacobian(state, ev, tau)), state.u)
        floors = []
        floor_at = flow._floor_at

        def recorded(jac_norm, u):
            floors.append(floor_at(jac_norm, u))
            return floors[-1]

        monkeypatch.setattr(flow, "_floor_at", recorded)
        new = step_implicit(state, controls)
        assert new.t == tau
        assert counted_factors["factor"] == 1
        assert floors[0] == first_floor
        res, _ = evaluated(state, new.u, state.u, tau)
        assert 100 * first_floor < np.max(np.abs(res)) <= floors[-1]

    def test_iterate_within_the_raised_floor_is_not_factored(
            self, counted_factors, monkeypatch):
        # the same tau = 1000 first step: the second Jacobian, assembled
        # at the stalled iterate, raises the floor above that iterate's
        # residual, so the iterate is returned as it is; factoring that
        # Jacobian and solving once more would only cost a factorization
        state, _, _ = perturbed_state("disk-ball")
        iterates = []
        floor_at = flow._floor_at

        def recorded(jac_norm, u):
            iterates.append(u.copy())
            return floor_at(jac_norm, u)

        monkeypatch.setattr(flow, "_floor_at", recorded)
        controls = StepControls()
        got = flow._newton_solve(state, state.u, state.u, 1e3,
                                 controls.tol_newton, controls.max_newton)
        assert got is not None
        assert len(iterates) == 2
        assert counted_factors["factor"] == len(iterates) - 1
        assert np.array_equal(got[0], iterates[-1])

    def test_one_inf_norm_per_fresh_jacobian(self, counted_factors,
                                             monkeypatch):
        # ||J||_inf raises the floor and rides in the ChordFactor: one
        # row-sum pass serves both
        counts = {"jacobian": 0, "inf_norm": 0}
        for name in counts:
            original = getattr(flow, f"_{name}")

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(flow, f"_{name}", counted)
        state, _, _ = perturbed_state("disk-ball")
        step_implicit(state, StepControls(tau0=1e3, tau_max=1e3))
        assert counts["jacobian"] == 2 == counts["inf_norm"]
        assert counted_factors["factor"] == 1

    def test_step_failure_message_unchanged(self):
        # one Newton iteration from a guess that misses tol_newton: every
        # attempt fails, and tau halves down to tau_min
        state, _ = translator_state(101)
        state = dataclasses.replace(state, t=0.0,
                                    u_dot=np.zeros_like(state.u))
        controls = StepControls(max_newton=1, tau_min=1e-6)
        with pytest.raises(StepFailureError,
                           match=r"^Newton failed at every tau down to 1e-06 "
                                 r"\(t = 0, step 1\)$"):
            step_implicit(state, controls)

    def test_step_failure_names_the_absolute_tau_min(self):
        # on the unit disk tau_min = 1e-6 is applied as 1e-6 pi
        state, _, _ = perturbed_state("disk-ball")
        controls = StepControls(max_newton=1, tau_min=1e-6)
        with pytest.raises(StepFailureError,
                           match=r"^Newton failed at every tau down to "
                                 r"3\.14159e-06 \(t = 0, step 0\)$"):
            step_implicit(state, controls)

    def test_run_step_failure_is_a_non_convergence(self):
        # a run whose every attempt fails raises the step's own error,
        # which a caller of run_to_translator catches as a stall
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 101, MINKOWSKI)
        controls = StepControls(max_newton=1, tau_min=1e-6)
        try:
            flow.run_to_translator(state, controls)
        except NonConvergenceError as exc:
            caught = exc
        assert isinstance(caught, StepFailureError)
        assert str(caught) == ("Newton failed at every tau down to 1e-06 "
                               "(t = 0, step 0)")

    @pytest.mark.parametrize("case", ["line-minkowski", "disk-ball"])
    def test_fast_convergence_keeps_iteration_count(self, case, counted_factors):
        """Chord Newton against plain Newton on an attempt that converges.

        The iterate agrees, it takes fewer factorizations than plain
        Newton takes solves, it reports the one factorization it made
        (so the step grows tau), and its iteration count falls on the
        same side of 4 iterations as plain Newton's.
        """
        state, u, tau = perturbed_state(case, tau=1e-4)
        controls = StepControls()
        got = flow._newton_solve(state, u, u, tau, controls.tol_newton,
                                 controls.max_newton)
        ref = plain_newton(state, u, u, tau, controls)
        assert got is not None and ref is not None
        assert ref[1] >= 2
        assert np.max(np.abs(got[0] - ref[0])) < 1e-10
        plain_solves = ref[1] - 1
        assert counted_factors["factor"] < plain_solves
        assert got[2] == counted_factors["factor"] == 1
        assert (got[1] <= 4) == (ref[1] <= 4)

    def test_stale_factor_is_refactored(self, counted_factors):
        # far from the solution the chord contraction is too slow: the
        # third residual fails to halve the second, so the attempt
        # refactors at that iterate and then converges
        state, u, tau = perturbed_state("disk-rotated-ellipse", tau=1e-3)
        guess = u + 0.1 * np.cos(1.3 * state.grid.nodes[:, 0] + 0.2)
        controls = StepControls()
        got = flow._newton_solve(state, u, guess, tau, controls.tol_newton,
                                 controls.max_newton)
        assert got is not None
        assert counted_factors["factor"] >= 2
        res, _ = evaluated(state, got[0], u, tau)
        assert np.max(np.abs(res)) <= controls.tol_newton


def identity_with_a_zero(grid, node):
    """The identity on the grid's Jacobian pattern, with a zero pivot at
    the node: exactly singular."""
    coef = np.zeros((grid.stencil_pattern.n_stencils, grid.n_nodes))
    coef[0] = 1.0
    coef[0, node] = 0.0
    return grid.stencil_pattern.assemble(coef)


class TestNewtonExits:
    """The exits of ``_newton_solve`` that no run takes: each ends the
    attempt with None, so the caller halves tau."""

    def test_non_finite_residual_ends_before_a_factorization(
            self, counted_factors):
        # a Euclidean state: a Minkowski one raises SpacelikeViolationError
        # on the nan before its residual is tested
        om, ot, spec, sig = JACOBIAN_CASES["line-euclidean"]
        state = flow.initialize(om, ot, spec, sig)
        guess = state.u.copy()
        guess[spec // 2] = np.nan
        assert flow._newton_solve(state, state.u, guess, 0.1, 1e-10, 30) is None
        assert counted_factors["factor"] == 0

    def test_singular_jacobian_ends_at_its_factorization(
            self, counted_factors, monkeypatch):
        om, ot, spec, sig = JACOBIAN_CASES["line-minkowski"]
        state = flow.initialize(om, ot, spec, sig)
        jac = identity_with_a_zero(state.grid, spec // 2)
        with pytest.raises(RuntimeError, match="exactly singular"):
            state.grid.factor(jac)
        monkeypatch.setattr(flow, "_jacobian", lambda *args: jac)
        assert flow._newton_solve(state, state.u, state.u, 0.1, 1e-10, 30) is None
        assert counted_factors == {"factor": 1, "solve": 0}

    def test_singular_fallback_inside_a_solve_ends_the_attempt(
            self, counted_factors, monkeypatch):
        # on the 6 x 12 disk the zero on ring 2 leaves M regular (11/12 on
        # that ring), the inner iteration stalls on the zero's node, and
        # the factor's SuperLU fallback raises inside solve
        state = flow.initialize(BALL, dom.ConvexDomain.ball([0, 0], 0.5), (6, 12),
                                MINKOWSKI)
        jac = identity_with_a_zero(state.grid, state.grid.index(2, 3))
        factor = state.grid.factor(jac)
        assert not factor.fell_back
        with pytest.raises(RuntimeError, match="exactly singular"):
            factor.solve(np.ones(state.grid.n_nodes))
        monkeypatch.setattr(flow, "_jacobian", lambda *args: jac)
        assert flow._newton_solve(state, state.u, state.u, 0.1, 1e-10, 30) is None
        assert counted_factors == {"factor": 1, "solve": 1}


class TestTauGrowth:
    """tau grows after an attempt that converged on at most one fresh
    factorization, however many chord iterations that factor served."""

    @staticmethod
    def far_guess_step(case, monkeypatch):
        """A step at tau = 1e-3 whose Newton guess is offset by
        0.1 cos(1.3 x + 0.2), far from the step's solution; the step and
        the (iterations, factorizations) of each Newton attempt."""
        state, u, tau = perturbed_state(case, tau=1e-3)
        offset = 0.1 * np.cos(1.3 * state.grid.nodes[:, 0] + 0.2)
        state = dataclasses.replace(state, u=u, u_dot=np.zeros_like(u),
                                    tau=tau, steps=1)
        attempts = []
        newton_solve = flow._newton_solve

        def recorded(state, u_prev, guess, *rest):
            # the offset guess is evaluated afresh: the record
            # step_implicit hands on (rest[-1]) is that of the state
            got = newton_solve(state, u_prev, guess + offset, *rest[:-1])
            attempts.append(None if got is None else got[1:3])
            return got

        monkeypatch.setattr(flow, "_newton_solve", recorded)
        return state, step_implicit(state, StepControls()), attempts

    def test_many_chord_iterations_on_one_factor_grow_tau(self, monkeypatch):
        # one factor carries a slow linear contraction through more than
        # 4 chord iterations, each at least halving the residual
        state, new, attempts = self.far_guess_step("disk-ball", monkeypatch)
        assert len(attempts) == 1
        iters, factors = attempts[0]
        assert iters > 4 and factors == 1
        assert new.newton_iters == iters
        assert new.t == state.t + state.tau
        assert new.tau == flow.TAU_GROWTH * state.tau

    def test_refactored_attempt_keeps_tau(self, monkeypatch):
        # the stale factor stops halving the residual, so the attempt
        # refactors before it converges: tau stays where it is
        state, new, attempts = self.far_guess_step("disk-rotated-ellipse",
                                                   monkeypatch)
        assert len(attempts) == 1
        assert attempts[0][1] >= 2
        assert new.t == state.t + state.tau
        assert new.tau == state.tau

    def test_light_cone_run_factorizations(self, monkeypatch):
        # unit ball onto B_0.99, close to the light cone: the first step
        # from tau_max halves many times, and the later steps take 5-7
        # chord iterations on one factor. Grown by factorizations, tau
        # regains the ceiling and the run takes 27 factorizations at the
        # disk's ceiling of 10 pi (24 at an absolute tau_max = 10, 20 at
        # tau_max = 1, 25 before the forcing term); grown only after <= 4
        # iterations, it took 37 (and 28 from the old ramp start at
        # 0.1 h^2).
        calls = []
        factor = flow._factor

        def counted(*args):
            calls.append(1)
            return factor(*args)

        monkeypatch.setattr(flow, "_factor", counted)
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                dom.ConvexDomain.ball([0, 0], 0.99),
                                (16, 32), MINKOWSKI)
        result = flow.run_to_translator(state)
        assert len(calls) <= 28
        assert result.residual <= StepControls().tol_r * result.c_inf


def disk_ball_run(on_accept=None, controls=None):
    """The disk-ball case run to its translator."""
    om, ot, spec, sig = JACOBIAN_CASES["disk-ball"]
    return flow.run_to_translator(flow.initialize(om, ot, spec, sig),
                                  controls, on_accept=on_accept)


class TestCarriedFactor:
    def test_step_at_the_ceiling_reuses_a_converged_factor(self, counted_factors):
        controls = StepControls()
        converged = disk_ball_run().state
        # the ceiling in the disk's units, 10 pi
        units = controls.for_domain(converged.omega)
        tau = units.tau_max
        # a step at tau_max from the translator factors afresh and hands
        # its factor on; the next step with the same carry factors nothing
        carry = []
        carrying = step_implicit(converged, controls, carry=carry)
        assert len(carry) == 1 and carry[0] is not None
        assert carrying.t == converged.t + tau == converged.t + carrying.tau
        factor = carry[0]
        counted_factors.update(factor=0, solve=0)
        new = step_implicit(carrying, controls, carry=carry)
        assert counted_factors["factor"] == 0 < counted_factors["solve"]
        assert len(carry) == 1 and carry[0] is factor
        assert new.t == carrying.t + tau
        # the step solves for its correction about u anchored at the
        # anchor node plus tau C: new.u is the new height less tau C
        base = (carrying.u - carrying.u[carrying.anchor]
                - tau * flow.mean_rate(carrying))
        res, ev = evaluated(carrying, new.u, base, tau)
        floor = flow._floor_at(flow._inf_norm(
            flow._jacobian(carrying, ev, tau)), new.u)
        assert np.max(np.abs(res)) <= max(units.tol_newton, floor)

    def test_same_steps_with_fewer_factorizations(self, counted_factors,
                                                  monkeypatch):
        carried_steps = []
        carried = disk_ball_run(
            on_accept=lambda s: carried_steps.append((s.t, s.tau)))
        carried_factors = counted_factors["factor"]
        counted_factors.update(factor=0, solve=0)
        fresh_steps = []
        step = flow.step_implicit

        def without_carry(state, controls, rate_tol, carry):
            return step(state, controls, rate_tol)

        monkeypatch.setattr(flow, "step_implicit", without_carry)
        fresh = disk_ball_run(
            on_accept=lambda s: fresh_steps.append((s.t, s.tau)))
        assert carried.steps == fresh.steps
        assert carried_steps == fresh_steps
        assert carried_factors < counted_factors["factor"]
        assert abs(carried.c_inf - fresh.c_inf) < 1e-9

    def test_factor_from_a_far_state_is_refactored(self, counted_factors):
        # the factor of the initial quadratic flattened tenfold, carried
        # to the translator of the rotated-ellipse case at tau_max: its
        # first chord step fails to halve the residual, so the attempt
        # refactors at that iterate and then converges
        controls = StepControls()
        om, ot, spec, sig = JACOBIAN_CASES["disk-rotated-ellipse"]
        units = controls.for_domain(om)
        tau = units.tau_max
        init = flow.initialize(om, ot, spec, sig)
        _, ev = evaluated(init, 0.1 * init.u, init.u, tau)
        jac = flow._jacobian(init, ev, tau)
        far = flow.ChordFactor(flow._factor(jac, init.grid),
                               flow._inf_norm(jac))
        converged = flow.run_to_translator(init, controls).state
        counted_factors.update(factor=0, solve=0)
        carry = [far]
        new = step_implicit(converged, controls, carry=carry)
        assert counted_factors["factor"] >= 1
        assert len(carry) == 1 and carry[0] is not None
        assert carry[0] is not far
        assert new.t == converged.t + tau
        base = (converged.u - converged.u[converged.anchor]
                - tau * flow.mean_rate(converged))
        res, _ = evaluated(converged, new.u, base, tau)
        assert np.max(np.abs(res)) <= units.tol_newton

    def test_stale_factor_outlives_an_unfactored_jacobian(self, counted_factors,
                                                          monkeypatch):
        # 1D Minkowski at N = 401, five steps from tau_max sharing one
        # carry, each solved to tol_newton (the default rate_tol;
        # run_to_translator's forcing term accepts its first step before
        # the factor stalls): in the first step the factor stops halving
        # the residual, and the iterate meets the floor raised at the
        # fresh Jacobian before that Jacobian is factored. The step hands
        # on the stale factor, which serves every later step: one
        # factorization in the five steps, where handing on none took two.
        attempts, jacobians = [], []
        newton_solve, jacobian = flow._newton_solve, flow._jacobian

        def recorded(*args):
            attempts.append(newton_solve(*args))
            return attempts[-1]

        def counted(*args):
            jacobians.append(1)
            return jacobian(*args)

        monkeypatch.setattr(flow, "_newton_solve", recorded)
        monkeypatch.setattr(flow, "_jacobian", counted)
        om, ot = interval_pair()
        controls = StepControls()
        state = dataclasses.replace(flow.initialize(om, ot, 401, MINKOWSKI),
                                    tau=controls.tau_max)
        carry = []
        for _ in range(5):
            state = step_implicit(state, controls, carry=carry)
        assert len(jacobians) == 2 and counted_factors["factor"] == 1
        stale = attempts[0][4]
        assert attempts[0][2] == 1 and stale is not None
        # five attempts for five steps: each ran at tau_max
        assert len(attempts) == 5 and state.t == 5 * controls.tau_max
        assert all(got[4] is stale for got in attempts)
        assert len(carry) == 1 and carry[0] is stale

    def test_no_factor_outlives_the_run(self):
        result = disk_ball_run()
        ceiling = StepControls().for_domain(result.state.omega).tau_max
        assert result.state.tau == ceiling
        # a run that stops at max_steps past the ceiling
        last = []
        with pytest.raises(NonConvergenceError):
            disk_ball_run(on_accept=last.append,
                          controls=StepControls(max_steps=result.steps - 1))
        assert last[-1].tau == ceiling
        # no state holds a chord factor: the carry is the run's
        for state in (result.state, last[-1]):
            assert not any(isinstance(getattr(state, f.name), flow.ChordFactor)
                           for f in dataclasses.fields(state))


class TestStatesAreValues:
    def test_run_changes_no_accepted_state(self):
        # every state on_accept receives keeps its bytes through the rest
        # of the run, so the monitor keeps the states themselves
        om, ot, spec, sig = JACOBIAN_CASES["disk-ball"]
        monitor = monitors.RunMonitor(flow.initialize(om, ot, spec, sig))
        seen = []

        def observe(state):
            seen.append((state, state.u.tobytes(), state.u_dot.tobytes()))
            monitor.observe(state)

        result = flow.run_to_translator(monitor.last_state,
                                        on_accept=observe)
        monitor.finish()
        assert len(seen) == result.steps >= 3
        for state, u, u_dot in seen:
            assert state.u.tobytes() == u
            assert state.u_dot.tobytes() == u_dot
        window = monitor._window
        assert len(window) == 3
        assert all(kept is state for kept, (state, _, _)
                   in zip(window, seen[-3:]))


class TestInitialize:
    def test_interval_pair_quadratic(self):
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 100, MINKOWSKI)
        x = state.grid.nodes[:, 0]
        expect = 0.5 * (x - 0.5) ** 2
        assert np.allclose(state.u - state.u[0], expect - expect[0], atol=1e-13)
        assert np.allclose(state.grid.gradient(state.u)[:, 0], x - 0.5,
                           atol=1e-12)

    def test_ball_shrink_quadratic(self):
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                dom.ConvexDomain.ball([0, 0], 0.5),
                                (8, 16), MINKOWSKI)
        nodes = state.grid.nodes
        expect = 0.25 * np.sum(nodes**2, axis=1)
        assert np.allclose(state.u, expect, atol=1e-13)

    def test_ball_to_ellipse_quadratic(self):
        q = np.diag([1 / 0.4**2, 1 / 0.25**2])
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                dom.ConvexDomain.ellipse([0, 0], q),
                                (8, 16), MINKOWSKI)
        nodes = state.grid.nodes
        a = np.diag([0.4, 0.25])
        expect = 0.5 * np.einsum("ni,ij,nj->n", nodes, a, nodes)
        assert np.allclose(state.u, expect, atol=1e-13)
        # gradient image fills the ellipse exactly at the boundary
        p = nodes @ a  # analytic Du0
        hb, _ = dom.defining_jet_many(state.omega_tilde,
                                      p[state.grid.boundary].T)
        assert np.max(np.abs(hb)) < 1e-13

    def test_spacelike_precondition(self):
        with pytest.raises(ValueError, match="spacelike"):
            flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                            dom.ConvexDomain.ball([0, 0], 1.5),
                            (8, 16), MINKOWSKI)
        # same domains are fine in the Euclidean signature
        flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                        dom.ConvexDomain.ball([0, 0], 1.5), (8, 16), EUCLIDEAN)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            flow.initialize(dom.ConvexDomain.interval(0, 1),
                            dom.ConvexDomain.ball([0, 0], 0.5), 50, MINKOWSKI)

    def test_initial_rate_range_matches_hand_values(self):
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 400, MINKOWSKI)
        # G0 = 1 / (1 - (x - 1/2)^2) ranges over [1, 4/3]; the monitor
        # reads the range off the initial rate u_dot = G0
        g0_range = monitors.RunMonitor(state).g0_range
        assert g0_range[0] == pytest.approx(1.0, abs=1e-5)
        assert g0_range[1] == pytest.approx(4.0 / 3.0, abs=1e-5)


def names_in(tree) -> set:
    """Every name a module's syntax tree imports, binds or reads,
    attribute names included."""
    named = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return named


class TestGridSharing:
    """build_grid shares one read-only grid among the live states on a
    domain and resolution, and keeps none once they are gone."""

    @pytest.mark.parametrize("case", ["line-minkowski", "disk-rotated-ellipse"])
    def test_same_domain_and_resolution_share_a_grid(self, case):
        om, ot, spec, sig = JACOBIAN_CASES[case]
        first = flow.initialize(om, ot, spec, sig)
        again = dom.ConvexDomain(om.center.copy(), om.shape.copy(), om.spec)
        assert flow.initialize(again, ot, spec, sig).grid is first.grid
        assert flow.build_grid(om, spec) is first.grid

    def test_another_resolution_map_centre_or_interval_builds_anew(self):
        ball = dom.ConvexDomain.ball([0, 0], 1.0)
        held = flow.build_grid(ball, (6, 12))
        for omega, spec in ((ball, (6, 14)), (ball, (8, 12)),
                            (dom.ConvexDomain.ball([0, 0], 0.9), (6, 12)),
                            (dom.ConvexDomain.ball([0.1, 0], 1.0), (6, 12))):
            assert flow.build_grid(omega, spec) is not held
        line = dom.ConvexDomain.interval(0, 1)
        held = flow.build_grid(line, 40)
        for omega, n in ((line, 41), (dom.ConvexDomain.interval(0, 1.5), 40),
                         (dom.ConvexDomain.interval(-0.5, 1), 40)):
            assert flow.build_grid(omega, n) is not held

    def test_flow_names_no_grid(self):
        # grids picks, shares and solves for its own grids: flow.py names
        # no grid class, no grid cache and no constant of the chord solve
        tree = ast.parse(Path(flow.__file__).read_text())
        assert not names_in(tree) & {
            "LineGrid", "MappedDiskGrid", "FourierChordFactor", "weakref",
            "partial", "_GRIDS", "INNER_RTOL", "INNER_RATIO"}

    def test_equal_domains_share_a_grid_whatever_their_constructor(self):
        # the key is the domain's value: a ball and the ellipse with its
        # shape matrix are one domain, and so are centres 0.0 and -0.0
        ball = dom.ConvexDomain.ball([0, 0], 0.5)
        held = grids.build_grid(ball, (6, 12))
        for omega in (dom.ConvexDomain.ellipse([0, 0], 4.0 * np.eye(2)),
                      dom.ConvexDomain.ball([-0.0, 0], 0.5)):
            assert omega == ball
            assert grids.build_grid(omega, (6, 12)) is held

    def test_three_dimensions_have_no_grid(self):
        with pytest.raises(ValueError, match="n <= 2"):
            grids.build_grid(dom.ConvexDomain.ball([0, 0, 0], 1.0), (6, 12))

    def test_grid_dies_with_its_last_state(self):
        state = flow.initialize(dom.ConvexDomain.ball([0.3, 0], 1.0),
                                dom.ConvexDomain.ball([0, 0], 0.5), (5, 10),
                                MINKOWSKI)
        ref = weakref.ref(state.grid)
        del state
        gc.collect()
        assert ref() is None

    def test_shared_grid_is_read_only(self):
        om, ot, spec, sig = JACOBIAN_CASES["disk-ball"]
        state = flow.initialize(om, ot, spec, sig)
        with pytest.raises(ValueError, match="read-only"):
            state.grid.nodes[0, 0] += 1.0

    def test_runs_on_a_shared_grid_match_runs_on_their_own(self, monkeypatch):
        # the unit ball onto the half ball and onto a rotated ellipse on
        # one grid, against each run on a grid built by the constructor
        ball, spec = dom.ConvexDomain.ball([0, 0], 1.0), (6, 12)
        images = [dom.ConvexDomain.ball([0, 0], 0.5),
                  rotated_ellipse([0.05, 0.1], [0.4, 0.25], -0.7)]
        shared = [flow.run_to_translator(flow.initialize(ball, ot, spec, MINKOWSKI))
                  for ot in images]
        assert shared[0].state.grid is shared[1].state.grid
        monkeypatch.setattr(flow, "build_grid", lambda omega, grid_spec: (
            grids.MappedDiskGrid(dom.spd_inv_sqrt(omega.shape), omega.center,
                                 *grid_spec)))
        for got, ot in zip(shared, images):
            alone = flow.run_to_translator(flow.initialize(ball, ot, spec, MINKOWSKI))
            assert alone.state.grid is not got.state.grid
            assert repr(got.c_inf) == repr(alone.c_inf)
            assert got.u_inf.tobytes() == alone.u_inf.tobytes()
            assert got.steps == alone.steps


class TestStateJets:
    @pytest.mark.parametrize("case", ["line-minkowski", "disk-rotated-ellipse"])
    def test_initial_jets_are_those_g0_was_evaluated_on(self, case):
        om, ot, spec, sig = JACOBIAN_CASES[case]
        state = flow.initialize(om, ot, spec, sig)
        # initialize seeds the record; its jets are not built on this read
        assert "ev" in vars(state)
        assert {"p", "r"} <= set(vars(state.jets))
        p, r = state.grid.derivative_rows(state.u)
        fresh = dataclasses.replace(state, u=state.u).jets
        for got in (p, fresh.p):
            assert np.array_equal(state.jets.p, got)
        for got in (r, fresh.r):
            assert np.array_equal(state.jets.r, got)
        assert state.jets.p.flags.c_contiguous
        assert state.jets.r.flags.c_contiguous
        assert np.array_equal(state.u_dot, geometry.metric_trace(p, r, sig))

    @pytest.mark.parametrize("case", ["line-minkowski", "disk-rotated-ellipse"])
    def test_unseeded_jets_differentiate_once(self, case, monkeypatch):
        # every field of unseeded jets comes from one derivative_rows call;
        # the node-major gradient and hessian are never evaluated
        state, u, _ = perturbed_state(case)
        grid_type = type(state.grid)
        derivative_rows = grid_type.derivative_rows
        calls = []

        def recorded(name, method):
            def call(self, field):
                calls.append(name)
                return method(self, field)
            return call

        for name in ("derivative_rows", "gradient", "hessian"):
            monkeypatch.setattr(grid_type, name,
                                recorded(name, getattr(grid_type, name)))
        jets = dataclasses.replace(state, u=u).jets
        for name in ("p", "r", "v", "g_lo", "a", "H", "lam", "kappa"):
            getattr(jets, name)
        assert calls == ["derivative_rows"]
        assert all(np.array_equal(got, want) for got, want
                   in zip((jets.p, jets.r), derivative_rows(state.grid, u)))

    def test_replace_with_new_u_gets_fresh_jets(self):
        state, _ = translator_state(41)
        old = state.jets.p
        other = state.u + 0.1 * state.grid.nodes[:, 0] ** 2
        moved = dataclasses.replace(state, u=other)
        assert moved.jets is not state.jets
        p, r = state.grid.derivative_rows(other)
        assert np.array_equal(moved.jets.p, p)
        assert np.array_equal(moved.jets.r, r)
        assert np.array_equal(state.jets.p, old)

    @pytest.mark.parametrize("case", ["line-minkowski", "disk-rotated-ellipse"])
    def test_accepted_step_seeds_jets_from_admissibility_check(self, case,
                                                               monkeypatch):
        state, u, tau = perturbed_state(case)
        start = dataclasses.replace(state, u=u, tau=tau)
        monitor = monitors.RunMonitor(start, cadence=1)
        spectra = []

        def recorded(m):
            spectra.append(np.array(m))
            return eigenvalues_many(m)

        for module in (operators, geometry, monitors):
            monkeypatch.setattr(module, "eigenvalues_many", recorded)
        new = step_implicit(start, StepControls(
            tau_max=per_unit_volume(tau, state.omega)))
        assert "ev" in vars(new)
        jets = new.jets
        # p and r come with Newton's last record and lam from the
        # admissibility check's spectrum of r; the curvature matrix stays
        # lazy
        assert {"p", "r", "lam"} <= set(vars(jets))
        assert "a" not in vars(jets)
        gradient, hessian = new.grid.derivative_rows(new.u)
        fresh = dataclasses.replace(new, u=new.u).jets
        for got in (gradient, fresh.p):
            assert np.array_equal(jets.p, got)
        for got in (hessian, fresh.r):
            assert np.array_equal(jets.r, got)
        assert np.array_equal(jets.lam, eigenvalues_many(hessian))
        # recording the step takes no second spectrum of its Hessian
        monitor.observe(new)
        assert len(monitor.records) == 2
        assert sum(np.array_equal(m, hessian) for m in spectra) == 1
        assert np.array_equal(jets.lam, fresh.lam)


def own_values(state):
    """(G, boundary values) evaluated afresh on the state's own jets."""
    p, r = state.jets.p, state.jets.r
    return (state.op.value(p, r),
            state.op.boundary(p[:, state.grid.boundary])[0])


class TestStateCache:
    """An accepted state keeps Newton's last record, and a step's first
    iterate reuses it."""

    @pytest.mark.parametrize("case", ["line-minkowski", "disk-rotated-ellipse"])
    def test_accepted_state_caches_the_values_of_its_jets(self, case):
        om, ot, spec, sig = JACOBIAN_CASES[case]
        state = flow.initialize(om, ot, spec, sig)
        # initialize seeds the record whose G is G0
        assert "ev" in vars(state)
        assert state.G is state.u_dot
        g, hb = own_values(state)
        assert np.array_equal(state.hb, hb)
        carry = []
        for _ in range(3):
            state = step_implicit(state, StepControls(), carry=carry)
            # set by the step, not evaluated on this read
            assert "ev" in vars(state)
            g, hb = own_values(state)
            assert np.array_equal(state.G, g)
            assert np.array_equal(state.hb, hb)
            assert flow.boundary_residual(state) == np.max(np.abs(hb))

    def test_replaced_and_explicit_states_evaluate_their_own(self):
        om, ot = interval_pair()
        state = step_implicit(flow.initialize(om, ot, 101, MINKOWSKI))
        other = state.u + 0.1 * state.grid.nodes[:, 0] ** 2
        moved = dataclasses.replace(state, u=other)
        tau = 0.1 * state.grid.h**2
        explicit = step_explicit(state, tau)
        # a replaced state evaluates its own record on first use; the
        # explicit step takes its boundary projection's last record
        assert "ev" not in vars(moved)
        assert "ev" in vars(explicit)
        p, r = explicit.grid.derivative_rows(explicit.u)
        assert np.array_equal(explicit.jets.p, p)
        assert np.array_equal(explicit.jets.r, r)
        for new in (moved, explicit):
            g, hb = own_values(new)
            assert np.array_equal(new.G, g)
            assert np.array_equal(new.hb, hb)
            assert not np.array_equal(new.G, state.G)
        # a moved boundary misses the image's ends; the cached values do not
        assert not np.array_equal(moved.hb, state.hb)

    def test_accepted_state_takes_newtons_last_record(self, monkeypatch):
        # the Jacobian reads the boundary rows' p-gradients off its record,
        # so op.boundary runs once per evaluation and never in _jacobian;
        # the accepted state holds the record Newton returned, whose jets
        # carry the spectrum the admissibility test read
        counts = {"evaluate": 0, "jacobian": 0, "boundary": 0,
                  "boundary_in_jacobian": 0}
        inside, returned, tested = [], [], []
        evaluate, jacobian = flow._evaluate, flow._jacobian
        newton_solve = flow._newton_solve

        def counted_evaluate(*args):
            counts["evaluate"] += 1
            return evaluate(*args)
        boundary = operators.FlowOperator.boundary
        admissible = operators.FlowOperator.admissible

        def counted_jacobian(*args):
            counts["jacobian"] += 1
            inside.append(True)
            try:
                return jacobian(*args)
            finally:
                inside.pop()

        def counted_boundary(self, pb):
            counts["boundary"] += 1
            counts["boundary_in_jacobian"] += bool(inside)
            return boundary(self, pb)

        def recorded_solve(*args):
            returned.append(newton_solve(*args))
            return returned[-1]

        def recorded_admissible(self, jets, rows):
            ok = admissible(self, jets, rows)
            tested.append((jets, jets.lam))
            return ok

        om, ot, spec, sig = JACOBIAN_CASES["disk-rotated-ellipse"]
        state = flow.initialize(om, ot, spec, sig)
        monkeypatch.setattr(flow, "_evaluate", counted_evaluate)
        monkeypatch.setattr(flow, "_jacobian", counted_jacobian)
        monkeypatch.setattr(flow, "_newton_solve", recorded_solve)
        monkeypatch.setattr(operators.FlowOperator, "boundary", counted_boundary)
        monkeypatch.setattr(operators.FlowOperator, "admissible",
                            recorded_admissible)
        new = step_implicit(state)
        assert counts["jacobian"] >= 1 and counts["evaluate"] >= 1
        assert counts["boundary"] == counts["evaluate"]
        assert counts["boundary_in_jacobian"] == 0
        assert new.ev is returned[-1][3]
        jets, lam = tested[-1]
        assert jets is new.jets and lam is new.jets.lam

    def test_state_outside_the_spacelike_set_has_no_g(self):
        # |Du| = 2: the step's first read of G refuses the state, where
        # every attempt used to fail on its guess down to tau_min
        state = flow.initialize(*interval_pair(), 101, MINKOWSKI)
        steep = dataclasses.replace(state, u=2.0 * state.grid.nodes[:, 0])
        with pytest.raises(SpacelikeViolationError):
            step_implicit(steep)

    @pytest.mark.parametrize("image, spec, some_fail", [
        (dom.ConvexDomain.ball([0, 0], 0.5), (6, 12), False),   # disk-ball
        (dom.ConvexDomain.ball([0, 0], 0.99), (16, 32), True),  # light cone
    ])
    def test_each_attempt_differentiates_its_corrected_iterates_only(
            self, image, spec, some_fail, monkeypatch):
        # the first iterate u_prev differs from the state's u by a
        # constant: its residual comes from the state's record, and only
        # the corrected iterates are differentiated
        # (derivative_rows calls, _evaluate calls, first record, state,
        # result) of every Newton attempt of the run
        counts = {"derivatives": 0, "evaluate": 0}
        attempts = []
        newton_solve, evaluate = flow._newton_solve, flow._evaluate
        derivative_rows = {cls: cls.derivative_rows
                           for cls in (grids.LineGrid, grids.MappedDiskGrid)}

        def counted_derivatives(self, u):
            counts["derivatives"] += 1
            return derivative_rows[type(self)](self, u)

        def counted_evaluate(*args):
            counts["evaluate"] += 1
            return evaluate(*args)

        def recorded(state, *args):
            counts.update(derivatives=0, evaluate=0)
            got = newton_solve(state, *args)
            attempts.append((counts["derivatives"], counts["evaluate"],
                             args[-1], state, got))
            return got

        state = flow.initialize(BALL, image, spec, MINKOWSKI)
        for cls in derivative_rows:
            monkeypatch.setattr(cls, "derivative_rows", counted_derivatives)
        monkeypatch.setattr(flow, "_evaluate", counted_evaluate)
        monkeypatch.setattr(flow, "_newton_solve", recorded)
        flow.run_to_translator(state)
        failed = [got is None for *_, got in attempts]
        assert any(failed) == some_fail
        assert len(attempts) > sum(failed)
        for derivatives, evaluations, first, start, got in attempts:
            assert derivatives == evaluations
            assert first is start.ev
            if got is not None:
                assert derivatives == got[1] - 1


class TestStepControls:
    # a nan tol_c ran all max_steps steps, a nan tol_r let every
    # translator residual pass its gate; tau0 and tau_min lie at or
    # above the default tau_max = 10
    @pytest.mark.parametrize("field, value", [
        ("tol_c", np.nan), ("tol_r", np.nan), ("max_newton", 0),
        ("tau0", 50.0), ("tau_min", 20.0), ("tau_min", 10.0),
    ])
    def test_bad_value_raises_at_construction(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            StepControls(**{field: value})

    # a fractional count passed the positivity check and failed the run
    # with a TypeError at range(); an integer of any integral type passes
    @pytest.mark.parametrize("field", ["max_steps", "max_newton"])
    def test_fractional_count_raises_at_construction(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            StepControls(**{field: 2.5})

    # bool is a numbers.Integral: max_newton = True accepted, and a run
    # then failed at every tau down to tau_min
    @pytest.mark.parametrize("field", ["max_steps", "max_newton"])
    def test_bool_count_raises_at_construction(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            StepControls(**{field: True})

    def test_numpy_integer_count_is_accepted(self):
        assert StepControls(max_steps=np.int64(5)).max_steps == 5

    def test_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            StepControls().tau_max = 2.0

    def test_unit_interval_applies_the_values_as_given(self):
        controls = StepControls(tau0=0.5, tol_c=3e-8)
        assert controls.for_domain(dom.ConvexDomain.interval(0, 1)) == controls

    def test_times_heights_and_rates_scale_with_the_length_unit(self):
        # the unit disk: l = sqrt(pi), so the ceiling is 10 pi
        disk = dom.ConvexDomain.ball([0, 0], 1.0)
        controls = StepControls(tau0=2.0, max_steps=7)
        units = controls.for_domain(disk)
        assert units.tau_max == 10.0 * np.pi
        assert units.tau0 == 2.0 * np.pi
        assert units.tau_min == 1e-14 * np.pi
        assert units.tol_newton == pytest.approx(1.772e-10, rel=1e-3)
        assert units.tol_c == pytest.approx(5.642e-9, rel=1e-3)
        assert (units.tol_b, units.tol_r, units.max_steps, units.max_newton) == (
            controls.tol_b, controls.tol_r, 7, controls.max_newton)
        # an unset tau0 stays unset: the run starts at the scaled ceiling
        assert StepControls().for_domain(disk).tau0 is None
        assert StepControls().for_domain(disk).initial_tau() == 10.0 * np.pi


class TestStepImplicit:
    def test_accepted_step_differentiates_u_once(self, monkeypatch):
        # the accepted state's jets reuse the gradient and Hessian of
        # Newton's last record instead of recomputing them
        counts = {"evaluate": 0, "derivatives": 0}
        evaluate, derivative_rows = (flow._evaluate,
                                     grids.LineGrid.derivative_rows)

        def counted_evaluate(*args):
            counts["evaluate"] += 1
            return evaluate(*args)

        def counted_derivatives(self, u):
            counts["derivatives"] += 1
            return derivative_rows(self, u)

        state, _ = translator_state(101)
        # the replaced state differentiates its own u once, for the first
        # iterate; every later derivative is an iterate's evaluation
        state.jets
        monkeypatch.setattr(flow, "_evaluate", counted_evaluate)
        monkeypatch.setattr(grids.LineGrid, "derivative_rows",
                            counted_derivatives)
        new = step_implicit(state, StepControls())
        assert new.steps == state.steps + 1
        assert counts["evaluate"] >= 1
        assert counts["derivatives"] == counts["evaluate"]
        assert np.array_equal(new.jets.p, new.grid.derivative_rows(new.u)[0])

    def test_steady_profile_advances_uniformly(self):
        state, c = translator_state(201, tau=0.1)
        h2 = state.grid.h**2
        new = step_implicit(state, StepControls(tau_max=0.1))
        tau = new.t - state.t
        # tau u_dot is the step's advance of u from u - u[anchor]
        assert np.max(np.abs(tau * (new.u_dot - c))) < 5 * h2
        assert np.max(new.u_dot) - np.min(new.u_dot) < 10 * h2

    def test_steady_radial_profile_2d(self):
        """Shooting-oracle translator is a fixed profile of the 2D stepper."""
        prof = oracles.translator_radial_shooting(1.0, 0.5, 2, MINKOWSKI,
                                                  tol=1e-10)
        devs, oscs = [], []
        for spec in ((16, 32), (32, 64)):
            state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                    dom.ConvexDomain.ball([0, 0], 0.5),
                                    spec, MINKOWSKI)
            rr = np.linalg.norm(state.grid.nodes, axis=1)
            u = prof.height_at(rr)
            g = operators.g_value_many(state.grid.gradient(u),
                                  state.grid.hessian(u), MINKOWSKI)
            st = dataclasses.replace(state, u=u, u_dot=g, tau=0.1, steps=1)
            new = step_implicit(st, StepControls(
                tau_max=per_unit_volume(0.1, state.omega)))
            tau = new.t - st.t
            devs.append(np.max(np.abs(tau * (new.u_dot - prof.c_speed))))
            oscs.append(np.max(new.u_dot) - np.min(new.u_dot))
        assert devs[0] / devs[1] > 3.0   # O(h^2) profile defect
        assert oscs[0] / oscs[1] > 3.0
        assert devs[1] < 1e-4

    def test_agrees_with_explicit_to_tau_squared(self):
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 101, MINKOWSKI)
        h2 = state.grid.h**2
        diffs = []
        for tau in (0.02 * h2, 0.01 * h2):
            imp = step_implicit(dataclasses.replace(state, tau=tau, steps=1),
                                StepControls(tau_max=tau))
            exp = step_explicit(state, tau)
            # both steps advance u - u[anchor] by tau u_dot; the implicit
            # state stores its height less tau C
            diffs.append(np.max(np.abs(tau * (imp.u_dot - exp.u_dot))))
        assert diffs[0] < 500 * (0.02 * h2) ** 2
        assert 3.0 < diffs[0] / diffs[1] < 5.0

    def test_boundary_solved_after_first_step(self):
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 101, MINKOWSKI)
        controls = StepControls()
        new = step_implicit(dataclasses.replace(
            state, tau=controls.initial_tau()), controls)
        assert flow.boundary_residual(new) <= controls.tol_newton

    def test_1d_boundary_residual_tells_the_image_ends_apart(self):
        # u = x / 2 has Du = 1/2 at both ends of (0, 1): its left end sits
        # on the right end of the image (-1/2, 1/2), where |h(Du)| is 0
        state = flow.initialize(*interval_pair(), 101, MINKOWSKI)
        tilted = dataclasses.replace(state, u=0.5 * state.grid.nodes[:, 0])
        assert flow.boundary_residual(tilted) == pytest.approx(1.0, abs=1e-12)

    def test_default_initial_tau_respects_tau_max(self):
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 101, MINKOWSKI)
        assert StepControls().initial_tau() == StepControls().tau_max
        # a user-set tau0 wins
        assert StepControls(tau0=1e-3).initial_tau() == 1e-3
        # the old ramp start 0.1 h^2 is about 100 tau_max here
        controls = StepControls(tau_max=1e-7)
        assert controls.initial_tau() == 1e-7
        first = step_implicit(dataclasses.replace(
            state, tau=controls.initial_tau()), controls)
        assert first.t <= controls.tau_max
        # a state without a tau starts at the ceiling
        assert step_implicit(state, controls).t == controls.tau_max

    @pytest.mark.parametrize("tau0", [-1e-3, 0.0, np.inf, np.nan])
    def test_starting_tau_must_be_finite_and_positive(self, tau0):
        # the controls refuse a bad tau0 before any step is taken
        with pytest.raises(ValueError, match="^tau0 must be finite and positive"):
            StepControls(tau0=tau0)

    def test_state_tau_must_be_finite(self):
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 101, MINKOWSKI)
        with pytest.raises(ValueError, match="finite tau > 0"):
            step_implicit(dataclasses.replace(state, tau=np.inf))

    def test_tau_that_no_longer_advances_t_fails(self):
        # the tilted profile misses the boundary condition by 1e-3 at
        # every tau, and one Newton iteration never meets tol_newton, so
        # tau halves until t + tau == t, long before the tau_min underflow
        state, _ = translator_state(101, tau=1e-12)
        x = state.grid.nodes[:, 0]
        state = dataclasses.replace(state, t=1e3, u=state.u + 1e-3 * x)
        controls = StepControls(max_newton=1, tau_min=1e-300)
        with pytest.raises(StepFailureError,
                           match=r"no longer advances t = 1000 \(step 1\)"):
            step_implicit(state, controls)

    def test_tau_grows_on_fast_newton(self):
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 101, MINKOWSKI)
        state = dataclasses.replace(state, tau=1e-6)
        new = step_implicit(state, StepControls())
        assert new.tau == pytest.approx(1e-6 * flow.TAU_GROWTH)


class TestStepExplicit:
    def test_stability_precondition(self):
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 101, MINKOWSKI)
        with pytest.raises(ValueError, match="stability"):
            step_explicit(state, 1.0)

    @pytest.mark.parametrize("tau", [-1e-5, 0.0, np.nan])
    def test_tau_must_be_finite_and_positive(self, tau):
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 101, MINKOWSKI)
        with pytest.raises(ValueError, match="finite tau > 0"):
            step_explicit(state, tau)

    def test_failed_boundary_projection_raises(self, monkeypatch):
        state, _ = translator_state(101)
        monkeypatch.setattr(flow, "_newton_solve", lambda *args: None)
        with pytest.raises(StepFailureError, match="boundary projection"):
            step_explicit(state, 0.1 * state.grid.h**2)

    @pytest.mark.parametrize("case", ["disk-ball", "disk-rotated-ellipse"])
    @pytest.mark.parametrize("fraction", [0.05, 0.1])
    @pytest.mark.parametrize("stepped", [False, True], ids=["initial", "stepped"])
    def test_boundary_projection_starts_from_the_boundary_rate(
            self, case, fraction, stepped, monkeypatch):
        # the boundary nodes move by tau u_dot before the projection, as
        # the interior moves by tau G: from the unmoved boundary it failed
        # inside the stability bound on these 6 x 12 grids
        om, ot, spec, sig = JACOBIAN_CASES[case]
        state = flow.initialize(om, ot, spec, sig)
        if stepped:
            state = step_implicit(state)
        tau = fraction * state.grid.h_ref**2
        iters = []
        newton_solve = flow._newton_solve

        def recorded(*args):
            got = newton_solve(*args)
            iters.append(None if got is None else got[1])
            return got

        monkeypatch.setattr(flow, "_newton_solve", recorded)
        new = step_explicit(state, tau)
        assert flow.boundary_residual(new) < 1e-12
        assert iters[0] <= 10

    def test_constant_rate_field(self):
        state, c = translator_state(101)
        h = state.grid.h
        tau = 0.1 * h**2
        new = step_explicit(state, tau)
        # fixed profile: every node advances by ~tau C; the boundary
        # projection contributes the O(h^3) part
        # (u_dot is taken against u anchored at the anchor node)
        assert np.max(np.abs(tau * new.u_dot - tau * c)) < tau * h**2 + h**3

    def test_2d_boundary_solved_and_agrees_with_implicit_to_tau_squared(self):
        # unit ball onto an off-centre, turned ellipse: the boundary values
        # solve every boundary row together, so the explicit state meets
        # the boundary condition and differs from the implicit step by
        # O(tau^2), not by a boundary defect of O(tau)
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                rotated_ellipse([0.05, -0.02], [0.4, 0.25], 0.3),
                                (8, 16), MINKOWSKI)
        state = step_implicit(dataclasses.replace(state, tau=0.05),
                              StepControls(tau_max=per_unit_volume(
                                  0.05, state.omega)))
        h2 = state.grid.h_ref**2
        diffs = []
        for tau in (0.02 * h2, 0.01 * h2):
            imp = step_implicit(dataclasses.replace(state, tau=tau),
                                StepControls(tau_max=per_unit_volume(
                                    tau, state.omega)))
            exp = step_explicit(state, tau)
            assert flow.boundary_residual(exp) < 1e-12
            diffs.append(np.max(np.abs(tau * (imp.u_dot - exp.u_dot))))
        assert 3.0 <= diffs[0] / diffs[1] <= 5.0


    @pytest.mark.parametrize("case", ["line-minkowski", "disk-rotated-ellipse"])
    def test_chain_differentiates_each_state_once(self, case, monkeypatch):
        # an explicit step reads p and G off its input state, and its
        # boundary projection's last record becomes the new state's:
        # every stencil product of the chain is an iterate's evaluation
        om, ot, spec, sig = JACOBIAN_CASES[case]
        state = step_implicit(flow.initialize(om, ot, spec, sig))
        counts = {"derivatives": 0, "evaluate": 0}
        evaluate = flow._evaluate
        derivative_rows = type(state.grid).derivative_rows

        def counted_derivatives(self, u):
            counts["derivatives"] += 1
            return derivative_rows(self, u)

        def counted_evaluate(*args):
            counts["evaluate"] += 1
            return evaluate(*args)

        monkeypatch.setattr(type(state.grid), "derivative_rows",
                            counted_derivatives)
        monkeypatch.setattr(flow, "_evaluate", counted_evaluate)
        tau = 0.01 * state.grid.h_ref**2
        for _ in range(3):
            state = step_explicit(state, tau)
        assert state.steps == 4
        assert counts["evaluate"] >= 3
        assert counts["derivatives"] == counts["evaluate"]


class TestTranslatorResidual:
    def test_sampled_closed_form_is_second_order(self):
        om, ot = interval_pair()
        c, prof = oracles.translator_1d_closed_form(0, 1, -0.5, 0.5, MINKOWSKI)
        state = flow.initialize(om, ot, 401, MINKOWSKI)
        u = prof.height(state.grid.nodes[:, 0])
        res = flow.translator_residual(dataclasses.replace(state, u=u), c)
        assert res <= 5e-5

    def test_quadratic_is_not_a_translator(self):
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 101, MINKOWSKI)
        grid = state.grid
        mid = grid.anchor
        p = grid.gradient(state.u)
        r = grid.hessian(state.u)
        c_mid = operators.g_value_many(p, r, MINKOWSKI)[mid]
        res = flow.translator_residual(dataclasses.replace(state, u=state.u),
                                       float(c_mid))
        assert res > 0.1

    def test_constant_field_flagged_nonconvex(self):
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 101, MINKOWSKI)
        with pytest.raises(ConvexityError):
            flow.translator_residual(
                dataclasses.replace(state, u=np.zeros_like(state.u)), 0.0)


def heat_operator(sig, omega_tilde):
    """The linear heat equation u_t = tr D2u, with the image's boundary rows."""

    class HeatOperator(operators.FlowOperator):
        def value(self, p, r):
            return np.einsum("iin->n", r)

        def weights(self, p, r):
            return (np.broadcast_to(np.eye(len(p))[:, :, None], r.shape),
                    np.zeros_like(p))

    return HeatOperator(sig, omega_tilde)


class TestFlowOperator:
    @pytest.mark.parametrize("heat", [True, False])
    def test_flow_runs_the_state_operator(self, heat):
        # interval (0, 1) onto (-1/2, 1/2): the heat translator u'' = C has
        # C = (d - c) / (b - a) = 1, the Minkowski one C = 2 artanh(1/2)
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 101, MINKOWSKI)
        x = state.grid.nodes[:, 0]
        state = dataclasses.replace(state, u=state.u + 0.01 * x**4)
        if heat:
            state = dataclasses.replace(state, op=heat_operator(MINKOWSKI, ot))
        result = flow.run_to_translator(state)
        assert result.state.op is state.op
        if heat:
            assert abs(result.c_inf - 1.0) < 1e-12
        else:
            assert abs(result.c_inf - 2.0 * np.arctanh(0.5)) < 4e-4

    def test_admissible_tests_only_the_given_rows(self):
        # a concave boundary node fails the all-node test, not the
        # interior one; the spectra of every node stay cached on the jets
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 20, MINKOWSKI)
        grid = state.grid
        p, r = grid.derivative_rows(state.u)
        r[..., grid.boundary[0]] = -1.0
        jets = geometry.NodalJets(p, r, MINKOWSKI)
        assert state.op.admissible(jets, grid.interior)
        lam = jets.lam
        assert not state.op.admissible(jets, slice(None))
        assert jets.lam is lam
        assert lam[0, grid.boundary[0]] == -1.0

    def test_image_on_the_light_cone_is_refused(self):
        with pytest.raises(ValueError, match="spacelike constraint"):
            operators.FlowOperator(MINKOWSKI, dom.ConvexDomain.interval(-1.0, 1.0))

    def test_flow_names_no_equation_kernel(self):
        # the equation lives on FlowOperator: flow.py names none of its
        # kernels and decides nothing on the signature or the dimension
        tree = ast.parse(Path(flow.__file__).read_text())
        kernels = {"metric_trace", "g_derivatives_many", "eigenvalues_many",
                   "is_spacelike", "MINKOWSKI", "SPACELIKE_MARGIN"}
        assert not names_in(tree) & kernels
        for node in ast.walk(tree):
            if isinstance(node, (ast.If, ast.IfExp)):
                read = {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)}
                read |= {n.attr for n in ast.walk(node.test)
                         if isinstance(n, ast.Attribute)}
                assert not read & {"sig", "MINKOWSKI", "dim"}, ast.unparse(node.test)


class TestNearTheLightCone:
    """Images at rho = 0.999: the one-sided second differences at the
    boundary nodes read negative while the interior converges, and the
    convexity test looks at the interior rows only, so the runs converge
    below the exact speed by the grid's O(h^2) error."""

    def test_interval_image_converges(self):
        ot = dom.ConvexDomain.interval(-0.999, 0.999)
        state = flow.initialize(dom.ConvexDomain.interval(0, 1), ot, 100,
                                MINKOWSKI)
        result = flow.run_to_translator(state)
        c_exact, _ = oracles.translator_1d_closed_form(0, 1, -0.999, 0.999,
                                                       MINKOWSKI)
        assert result.c_inf == pytest.approx(7.579106838564889, rel=1e-9)
        assert 0.0 < c_exact - result.c_inf < 0.03
        assert result.steps == 21

    def test_ball_image_converges(self):
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                dom.ConvexDomain.ball([0, 0], 0.999), (16, 32),
                                MINKOWSKI)
        result = flow.run_to_translator(state)
        c_exact = oracles.translator_radial_shooting(1.0, 0.999, 2, MINKOWSKI,
                                                     tol=1e-10).c_speed
        assert result.c_inf == pytest.approx(5.515795717675581, rel=1e-9)
        assert 0.0 < c_exact - result.c_inf < 0.25
        # 16 steps when every step was solved to tol_newton, 15 at
        # tau_max = 1
        assert result.steps == 14


class TestRunToTranslator:
    def test_1d_minkowski_converges_to_log3(self):
        om, ot = interval_pair()
        result = flow.run_to_translator(flow.initialize(om, ot, 101, MINKOWSKI))
        assert abs(result.c_inf - np.log(3.0)) < 4e-4
        assert result.residual <= 1e-6 * max(1.0, result.c_inf)
        # profile is anchored at the grid center
        assert result.u_inf[result.state.anchor] == 0.0

    def test_gradient_image_confined(self):
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 101, MINKOWSKI)
        controls = StepControls()
        inside = []

        def check(s):
            p = s.grid.gradient(s.u)
            h, _ = dom.defining_jet_many(s.omega_tilde, p[s.grid.interior].T)
            inside.append(np.min(h))
            lam = np.linalg.eigvalsh(s.grid.hessian(s.u))
            assert np.min(lam[:, 0]) > 0  # strict convexity preserved
            assert flow.boundary_residual(s) <= controls.tol_b

        flow.run_to_translator(state, controls, on_accept=check)
        assert min(inside) > 0

    def test_run_starts_at_the_state_tau_or_the_initial_tau(self, monkeypatch):
        # a state without a tau, as initialize leaves it, makes its first
        # attempt at the controls' initial tau in the domain's units, 10 pi
        # on the unit disk; a state handed in with a tau makes it there
        om, ot, spec, sig = JACOBIAN_CASES["disk-ball"]
        state = flow.initialize(om, ot, spec, sig)
        initial = StepControls().for_domain(om).initial_tau()
        assert state.tau == 0.0 and initial == 10.0 * np.pi
        taus = []
        newton_solve = flow._newton_solve

        def recorded(state, base, guess, tau, *rest):
            taus.append(tau)
            return newton_solve(state, base, guess, tau, *rest)

        monkeypatch.setattr(flow, "_newton_solve", recorded)
        for start, first in ((state, initial),
                             (dataclasses.replace(state, tau=0.5), 0.5)):
            taus.clear()
            result = flow.run_to_translator(start)
            assert taus[0] == first
            assert result.state.t > first

    def test_max_steps_exceeded_names_the_last_step(self):
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 101, MINKOWSKI)
        accepted = []
        # the run converges in 3 steps
        with pytest.raises(NonConvergenceError) as err:
            flow.run_to_translator(state, StepControls(max_steps=2),
                                   on_accept=accepted.append)
        assert len(accepted) == 2
        last = accepted[-1]
        osc = float(np.max(last.u_dot) - np.min(last.u_dot))
        message = str(err.value)
        assert message.startswith("no translator after 2 steps: ")
        assert f"osc = {osc:.3e} above tol_c" in message
        assert f"bres = {flow.boundary_residual(last):.3e}" in message

    def test_stall_names_the_test_still_failing(self):
        # osc falls below tol_c within eight steps; no bres meets 1e-30:
        # on the disk it stays near 2e-15 (in 1D it can reach exactly 0).
        # The message names the tol_c in force, 1e-8 / sqrt(pi) on the
        # unit disk
        om, ot, _, sig = JACOBIAN_CASES["disk-ball"]
        state = flow.initialize(om, ot, (16, 32), sig)
        with pytest.raises(NonConvergenceError) as err:
            flow.run_to_translator(state, StepControls(tol_b=1e-30, max_steps=8))
        message = str(err.value)
        assert "above tol_b = 1.000e-30" in message and "bres = " in message
        assert "below tol_c = 5.642e-09" in message

    def test_shifted_initial_data_converges_to_the_same_speed(self):
        # u is carried anchored at the anchor node, so the roundoff floor
        # of Newton does not grow with a constant added to u0
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                dom.ConvexDomain.ball([0, 0], 0.5),
                                (32, 64), MINKOWSKI)
        controls = StepControls(max_steps=200)
        c_ref = flow.run_to_translator(state, controls).c_inf
        for shift in (1e5, 1e8):
            shifted = dataclasses.replace(state, u=state.u + shift)
            result = flow.run_to_translator(shifted, controls)
            assert abs(result.c_inf - c_ref) <= 1e-11, shift

    def test_euclidean_1d(self):
        om = dom.ConvexDomain.interval(0, 1)
        ot = dom.ConvexDomain.interval(-1, 1)
        result = flow.run_to_translator(flow.initialize(om, ot, 101, EUCLIDEAN))
        assert abs(result.c_inf - np.pi / 2) < 5e-4

    def test_asymmetric_interval_pair(self):
        c_ref, _ = oracles.translator_1d_closed_form(0.2, 1.4, -0.3, 0.8,
                                                     MINKOWSKI)
        state = flow.initialize(dom.ConvexDomain.interval(0.2, 1.4),
                                dom.ConvexDomain.interval(-0.3, 0.8),
                                201, MINKOWSKI)
        result = flow.run_to_translator(state)
        assert abs(result.c_inf - c_ref) < 5e-4

    def test_steep_euclidean_gradient_image(self):
        # gradient image (-3, 3): no causal bound in this signature
        c_ref, _ = oracles.translator_1d_closed_form(0, 1, -3, 3, EUCLIDEAN)
        state = flow.initialize(dom.ConvexDomain.interval(0, 1),
                                dom.ConvexDomain.interval(-3, 3),
                                201, EUCLIDEAN)
        result = flow.run_to_translator(state)
        assert c_ref == pytest.approx(2 * np.arctan(3.0), abs=1e-14)
        assert abs(result.c_inf - c_ref) < 2e-3

    def test_no_newton_failure_near_the_translator(self, monkeypatch):
        # N = 3201: the Hessian stencils' 1/h^2 lifts the residual's
        # roundoff floor above tol_newton late in the run, where every
        # attempt converges and none may fail
        failed_at_osc = []
        newton_solve = flow._newton_solve

        def recorded(state, *args):
            got = newton_solve(state, *args)
            if got is None:
                failed_at_osc.append(float(np.ptp(state.u_dot)))
            return got

        accepted = [0.0]  # t of the initial state

        def check(s):
            # solver invariants: t strictly increases, tau stays positive
            assert s.t > accepted[-1]
            assert s.tau > 0
            accepted.append(s.t)

        monkeypatch.setattr(flow, "_newton_solve", recorded)
        om, ot = interval_pair()
        result = flow.run_to_translator(
            flow.initialize(om, ot, 3201, MINKOWSKI), on_accept=check)
        assert len(accepted) == 1 + result.steps
        assert all(osc >= 1e-4 for osc in failed_at_osc), failed_at_osc
        assert abs(result.c_inf - np.log(3.0)) < 1e-6

    def test_spacelike_iterate_rejects_its_attempt(self, monkeypatch):
        # the image B_0.98 lies close to the light cone: some Newton
        # iterates leave it, their attempts fail and tau halving recovers
        rejected = []
        evaluate = flow._evaluate

        def recorded(*args):
            try:
                return evaluate(*args)
            except SpacelikeViolationError:
                rejected.append(args[2])
                raise

        monkeypatch.setattr(flow, "_evaluate", recorded)
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                dom.ConvexDomain.ball([0, 0], 0.98),
                                (16, 32), MINKOWSKI)
        result = flow.run_to_translator(state)  # raises unless converged
        assert rejected
        assert monitors.grad_max(result.state) < 1

    def test_translator_residual_gate(self):
        # osc and bres meet their tolerances; no residual meets 1e-30
        om, ot = interval_pair()
        state = flow.initialize(om, ot, 100, MINKOWSKI)
        with pytest.raises(NonConvergenceError,
                           match=r"^translator residual \S+ exceeds "):
            flow.run_to_translator(state, StepControls(tol_r=1e-30))

    def test_euclidean_2d_radial_against_shooting(self):
        prof = oracles.translator_radial_shooting(1.0, 0.8, 2, EUCLIDEAN,
                                                  tol=1e-9)
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                dom.ConvexDomain.ball([0, 0], 0.8),
                                (16, 32), EUCLIDEAN)
        result = flow.run_to_translator(state)
        assert abs(result.c_inf - prof.c_speed) < 1e-2


class TestScaleWindow:
    """Base domains far from unit size under the default controls.

    Scaling the base domain by R scales the translator as u_R(x) =
    R u_1(x / R): the gradient image stays and the Hessian, G and C_inf
    scale as 1 / R, on the scaled grid too, so C_inf R does not depend
    on R. The step controls are stated for a base domain of unit volume
    and applied in the run's own units (StepControls.for_domain), so
    every scale takes the unit run's steps. When the Newton iterate and
    the stored u carried the step's shift tau C, R = 1e-3 stalled at
    bres 1.0e-8 against tol_b, R = 10 drifted by 1.9e-8, and the
    interval of length 1e-3 stopped on a translator residual of 2.5e-2.
    With absolute controls (tau_max = 10, tol_c = 1e-8) and max_steps
    3000, R = 100 took 752 steps and ended 1.9e-7 off in C_inf R, R =
    1000 stalled at osc 8.6e-5, the interval of length 100 took 297
    steps and ended 2.4e-9 off, and that of length 1000 stalled at osc
    6.9e-5."""

    def test_scaled_ball_speeds_agree(self):
        image = dom.ConvexDomain.ball([0, 0], 0.5)
        runs = {radius: flow.run_to_translator(flow.initialize(
                    dom.ConvexDomain.ball([0, 0], radius), image, (16, 32),
                    MINKOWSKI))
                for radius in (1e-3, 0.01, 1.0, 10.0, 100.0, 1e3)}
        speeds = [run.c_inf * radius for radius, run in runs.items()]
        assert max(speeds) - min(speeds) <= 1e-9
        assert {run.steps for run in runs.values()} == {runs[1.0].steps}

    @staticmethod
    def interval_runs_agree(lengths):
        """Runs on (0, L) onto (-0.5, 0.5) at N = 200 match the unit
        interval's C_inf L to 1e-9 and its steps."""
        image = dom.ConvexDomain.interval(-0.5, 0.5)
        unit, *runs = (flow.run_to_translator(flow.initialize(
                           dom.ConvexDomain.interval(0, length), image, 200,
                           MINKOWSKI)) for length in (1.0, *lengths))
        for length, run in zip(lengths, runs, strict=True):
            assert abs(run.c_inf * length - unit.c_inf) <= 1e-9, length
            assert run.steps == unit.steps, length

    def test_short_interval_converges(self):
        self.interval_runs_agree((1e-3,))

    def test_long_interval_converges(self):
        self.interval_runs_agree((100.0, 1e3))


class TestNoStepAcceptsItsGuess:
    """Every Newton attempt makes at least one chord correction, so a run
    cannot stop on a step that accepted its guess, the predictor
    u_prev + tau C, as it was (u_dot = C at every node up to
    rounding)."""

    def test_guess_at_the_floor_is_corrected_once(self, counted_factors):
        # the solution of a step at the ceiling, handed back as the guess,
        # already meets the floor; the attempt still solves once
        controls = StepControls()
        converged = disk_ball_run().state
        new = step_implicit(converged, controls)
        counted_factors.update(factor=0, solve=0)
        units = controls.for_domain(converged.omega)
        tau = units.tau_max
        base = (converged.u - converged.u[converged.anchor]
                - tau * flow.mean_rate(converged))
        got = flow._newton_solve(converged, base, new.u, tau,
                                 units.tol_newton, units.max_newton)
        assert got is not None
        assert got[1] == 2 and counted_factors["solve"] == 1

    def test_fine_radial_run_reaches_its_speed(self):
        # run 3's problem at 128x256, where the last step used to accept
        # its guess and report C 1.7e-8 low (1.0735689212)
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                dom.ConvexDomain.ball([0, 0], 0.5),
                                (128, 256), MINKOWSKI)
        result = flow.run_to_translator(state)
        assert abs(result.c_inf - 1.07356893833) <= 1e-9

    def test_speed_does_not_depend_on_the_height_of_u0(self):
        # a constant added to u0 raises the roundoff floor with ||u||_inf;
        # at 1e4 the last step used to accept its guess, 1.7e-8 off
        state = flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                dom.ConvexDomain.ball([0, 0], 0.5),
                                (32, 64), MINKOWSKI)
        base = flow.run_to_translator(state)
        lifted = flow.run_to_translator(
            dataclasses.replace(state, u=state.u + 1e4))
        assert abs(lifted.c_inf - base.c_inf) <= 1e-9


def at_tol_newton(monkeypatch):
    """Solve every Newton attempt to the default tol_newton in the base
    domain's units, the tolerance each attempt had before step_implicit
    took a rate_tol."""
    newton_solve = flow._newton_solve

    def solve(state, u_prev, guess, tau, tol, *rest):
        return newton_solve(state, u_prev, guess, tau,
                            StepControls().for_domain(state.omega).tol_newton,
                            *rest)

    monkeypatch.setattr(flow, "_newton_solve", solve)


class TestForcing:
    """run_to_translator solves each step to max(tol_newton, tau FORCING
    osc), osc the oscillation of the rate field it steps from; called
    without a rate_tol, step_implicit solves to tol_newton."""

    # (steps, C_inf) of each case: the steps are those of every step
    # solved to tol_newton, with the controls in the base domain's units
    # (line-euclidean's interval has length 3, the disks area pi and
    # 0.6 pi); at an absolute tau_max = 10 they were 3, 8, 4 and 4. C_inf
    # was taken at tau_max = 1, where the steps were 5, 26, 6 and 9
    PINNED = {
        "line-minkowski": (3, 1.0979655968892337),
        "line-euclidean": (5, 0.5904543926203426),
        "disk-ball": (3, 1.0677857357520102),
        "disk-rotated-ellipse": (4, 0.9315596982513149),
    }

    # at an absolute tau_max = 10 the runs took 8 and 47 (14 and 111
    # with every step to tol_newton), at tau_max = 1 12 and 123 (20 and
    # 257)
    @pytest.mark.parametrize("case, spec, most_residuals", [
        ("disk-ball", (32, 64), 6),   # 11 with every step to tol_newton
        ("line-euclidean", None, 31),  # 74 with every step to tol_newton
    ])
    def test_forcing_saves_residuals(self, case, spec, most_residuals,
                                     monkeypatch):
        # a residual evaluation is an _evaluate call of the run's Newton
        # attempts; the initial state's is initialize's
        counts = {"evaluate": 0}
        evaluate = flow._evaluate

        def counted(*args):
            counts["evaluate"] += 1
            return evaluate(*args)

        om, ot, case_spec, sig = JACOBIAN_CASES[case]
        state = flow.initialize(om, ot, spec or case_spec, sig)
        monkeypatch.setattr(flow, "_evaluate", counted)
        flow.run_to_translator(state)
        assert counts["evaluate"] <= most_residuals

    def test_run_solves_each_step_to_its_forcing_term(self, monkeypatch):
        newton_solve = flow._newton_solve
        om, ot, spec, sig = JACOBIAN_CASES["line-euclidean"]
        units = StepControls().for_domain(om)  # the interval's length is 3
        tol_newton = units.tol_newton

        def run(controls):
            tols = []

            def recorded(state, base, guess, tau, tol, *rest):
                tols.append((state.steps, tau, tol))
                return newton_solve(state, base, guess, tau, tol, *rest)

            monkeypatch.setattr(flow, "_newton_solve", recorded)
            state = flow.initialize(om, ot, spec, sig)
            oscs = [np.max(state.u_dot) - np.min(state.u_dot)]
            flow.run_to_translator(state, controls, on_accept=lambda s:
                                   oscs.append(np.max(s.u_dot) - np.min(s.u_dot)))
            for steps, tau, tol in tols:
                assert tol == max(tol_newton,
                                  tau * (flow.FORCING * oscs[steps]))
            return tols, oscs

        # at an absolute tau_max = 1: loose on the first step, tol_newton
        # on the last
        tols, _ = run(StepControls(tau_max=per_unit_volume(1.0, om)))
        assert tols[0][2] > tol_newton == tols[-1][2]
        # at the default tau_max = 10 the term reaches tol_newton only at
        # osc < tol_c, so the last step, which starts from a state whose
        # osc is at least tol_c, is solved to tau FORCING osc, tighter
        # than the first step and looser than tol_newton
        tols, oscs = run(None)
        assert tols[0][2] > tols[-1][2] > tol_newton
        assert oscs[-2] >= units.tol_c > oscs[-1]

    @pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
    def test_steps_and_speed_unchanged(self, case):
        om, ot, spec, sig = JACOBIAN_CASES[case]
        result = flow.run_to_translator(flow.initialize(om, ot, spec, sig))
        steps, c_inf = self.PINNED[case]
        assert result.steps == steps
        assert abs(result.c_inf - c_inf) <= 1e-10

    @pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
    def test_default_rate_tol_steps_as_at_tol_newton(self, case, monkeypatch):
        # four steps from tau_max, the last ones from a carried factor
        om, ot, spec, sig = JACOBIAN_CASES[case]

        def four_steps():
            state = flow.initialize(om, ot, spec, sig)
            state = dataclasses.replace(
                state, tau=StepControls().for_domain(om).tau_max)
            states = []
            for _ in range(4):
                state = step_implicit(state)
                states.append(state)
            return states

        forced = four_steps()
        at_tol_newton(monkeypatch)
        for new, ref in zip(forced, four_steps(), strict=True):
            assert np.array_equal(new.u, ref.u)
            assert np.array_equal(new.u_dot, ref.u_dot)
            assert (new.t, new.tau, new.newton_iters) == (
                ref.t, ref.tau, ref.newton_iters)

    def test_duality_probe_steps_as_at_tol_newton(self, monkeypatch):
        # on this grid the probe step takes a third Newton iteration to
        # reach tol_newton from these states, which one solved to the
        # forcing term would not take
        om, ot, spec, sig = JACOBIAN_CASES["line-euclidean"]
        state = flow.initialize(om, ot, spec, sig)
        states = [state, step_implicit(state)]
        forced = [monitors.duality_rate_defect(s) for s in states]
        at_tol_newton(monkeypatch)
        assert forced == [monitors.duality_rate_defect(s) for s in states]


class TestHotPath:
    def test_run_differentiates_once_per_residual_without_lapack(self,
                                                                  monkeypatch):
        # every residual takes p and r from one stacked product, and the
        # convexity checks use the closed-form 2x2 eigenvalue, not LAPACK
        om, ot, spec, sig = JACOBIAN_CASES["disk-ball"]
        state = flow.initialize(om, ot, spec, sig)
        counts = {"eigvalsh": 0, "derivatives": 0, "evaluate": 0}
        eigvalsh, evaluate = np.linalg.eigvalsh, flow._evaluate
        derivative_rows = type(state.grid).derivative_rows

        def counted_eigvalsh(*args, **kwargs):
            counts["eigvalsh"] += 1
            return eigvalsh(*args, **kwargs)

        def counted_derivatives(self, u):
            counts["derivatives"] += 1
            return derivative_rows(self, u)

        def counted_evaluate(*args):
            before = counts["derivatives"]
            got = evaluate(*args)
            assert counts["derivatives"] == before + 1
            counts["evaluate"] += 1
            return got

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(type(state.grid), "derivative_rows",
                            counted_derivatives)
        monkeypatch.setattr(flow, "_evaluate", counted_evaluate)
        flow.run_to_translator(state)
        assert counts["eigvalsh"] == 0
        assert counts["evaluate"] > 0
        assert counts["derivatives"] == counts["evaluate"]


    # counts with each first iterate read off the state; at tau_max = 1
    # the runs took 6 and 5 steps and 12 and 10 residuals, evaluating
    # each first iterate afresh 18 and 15, and with the nodewise u_dot
    # guess 29 and 28
    @pytest.mark.parametrize("case, steps, most_residuals", [
        ("disk-ball", 3, 6),   # 4 and 8 at an absolute tau_max = 10
        ("line-minkowski", 3, 6),
    ])
    def test_mean_rate_predictor_saves_residuals(self, case, steps,
                                                 most_residuals,
                                                 counted_factors, monkeypatch):
        # the step's predictor u_prev + tau C lands closer to its solution
        # than u_prev + tau u_dot once the transient decays, with the
        # same steps on one factorization
        counts = {"evaluate": 0}
        evaluate = flow._evaluate

        def counted(*args):
            counts["evaluate"] += 1
            return evaluate(*args)

        om, ot, spec, sig = JACOBIAN_CASES[case]
        state = flow.initialize(om, ot, spec, sig)
        monkeypatch.setattr(flow, "_evaluate", counted)
        result = flow.run_to_translator(state)
        assert result.steps == steps
        assert counted_factors["factor"] == 1
        assert counts["evaluate"] <= most_residuals

    def test_residual_evaluates_g_on_component_rows(self, monkeypatch):
        # an iterate's evaluation takes G from the component-major rows
        # and never calls g_value_many, which takes node-major (N, n, n)
        # input
        for case in JACOBIAN_CASES:
            state, u, tau = perturbed_state(case)
            res, ev = evaluated(state, u, state.u, tau)
            ii = state.grid.interior
            g = operators.g_value_many(state.grid.gradient(u),
                                       state.grid.hessian(u), state.sig)
            assert np.allclose(res[ii], (u - state.u - tau * g)[ii],
                               rtol=0.0, atol=1e-13)
            p_rows, r_rows = state.grid.derivative_rows(u)
            assert np.array_equal(ev.jets.p, p_rows)
            assert np.array_equal(ev.jets.r, r_rows)

        counts = {"evaluate": 0, "g_value_many": 0}
        inside = []
        evaluate, g_value_many = flow._evaluate, operators.g_value_many

        def counted_evaluate(*args):
            counts["evaluate"] += 1
            inside.append(True)
            try:
                return evaluate(*args)
            finally:
                inside.pop()

        def counted_g(*args):
            counts["g_value_many"] += bool(inside)
            return g_value_many(*args)

        monkeypatch.setattr(flow, "_evaluate", counted_evaluate)
        monkeypatch.setattr(operators, "g_value_many", counted_g)
        for case in ("line-minkowski", "disk-ball"):
            om, ot, spec, sig = JACOBIAN_CASES[case]
            flow.run_to_translator(flow.initialize(om, ot, spec, sig))
        assert counts["evaluate"] > 0
        assert counts["g_value_many"] == 0


class TestExtrapolatedRate:
    def test_geometric_rates_extrapolate_to_their_limit(self):
        rates = [2.0 - 0.3 * 0.25**k for k in range(5)]
        assert flow._extrapolated_rate(rates) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("rates", [
        [1.0, 1.5, 1.75],          # q = 0.5: too slow to trust the tail
        [1.0, 1.5, 1.25],          # q < 0: oscillating
        [1.0, 1.0, 1.0 + 1e-15],   # first difference 0
        [1.0, 1.2],                # fewer than three rates
        [1.3],
    ])
    def test_falls_back_to_the_last_mean_rate(self, rates):
        assert flow._extrapolated_rate(rates) == rates[-1]

    def test_run_reports_the_extrapolated_rate(self):
        # the mean rate of every accepted state, read at the monitor hook
        # (step_implicit's predictor calls mean_rate too)
        rates = []
        om, ot = interval_pair()
        result = flow.run_to_translator(
            flow.initialize(om, ot, 101, MINKOWSKI),
            on_accept=lambda state: rates.append(flow.mean_rate(state)))
        assert len(rates) == result.steps
        assert result.c_inf == flow._extrapolated_rate(rates) != rates[-1]
        state = result.state
        u_inf = state.u - state.u[state.anchor]
        assert np.array_equal(result.u_inf, u_inf)
