"""Property tests: the vectorized graph geometry (cached nodal jets and
the batch-of-one pointwise API) against the pointwise formulas it
replaced, and the snapshot round trip."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaussflow import cli, flow
from gaussflow import domains as dom
from gaussflow.errors import SpacelikeViolationError
from gaussflow.geometry import (
    EUCLIDEAN,
    MINKOWSKI,
    SPACELIKE_MARGIN,
    GraphGeometry,
    NodalJets,
    PointJet,
    graph_geometry,
    graph_geometry_many,
    signature_eps,
)

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def ref_graph_geometry(jet: PointJet, sig: str, paper_signs: bool = False) -> GraphGeometry:
    """The pointwise formulas the vectorized kernels replaced, kept as the
    reference they must reproduce."""
    eps = signature_eps(sig)
    p = np.asarray(jet.du, dtype=float)
    r = np.asarray(jet.d2u, dtype=float)
    n = p.size
    norm = float(np.linalg.norm(p))
    if sig == MINKOWSKI and norm > 1.0 - SPACELIKE_MARGIN:
        raise SpacelikeViolationError(
            f"|Du| = {norm:.12g} violates the spacelike bound 1 - {SPACELIKE_MARGIN:g}"
        )

    pp = np.outer(p, p)
    v2 = 1.0 + eps * (p @ p)
    v = np.sqrt(v2)
    eye = np.eye(n)

    g_lo = eye + eps * pp
    g_up = eye - eps * pp / v2
    b_sign = -eps
    if paper_signs and sig == MINKOWSKI:
        b_sign = eps
    b_up = eye + b_sign * pp / (v * (1.0 + v))
    b_lo = eye - b_sign * pp / (1.0 + v)

    a = (b_up @ r @ b_up) / v
    a = 0.5 * (a + a.T)
    kappa = np.linalg.eigvalsh(a)
    big_h = float(np.trace(a))

    if sig == MINKOWSKI:
        nu = np.concatenate([p, [1.0]]) / v
    else:
        nu = np.concatenate([-p, [1.0]]) / v

    return GraphGeometry(
        v=float(v), g_lo=g_lo, g_up=g_up, b_up=b_up, b_lo=b_lo,
        a=a, kappa=kappa, H=big_h, nu=nu,
    )


@st.composite
def jet_batches(draw):
    """(p, r, sig): a batch of gradients and symmetric Hessians, n = 1, 2, 3.

    Minkowski gradients are scaled into |p| <= 0.95 (spacelike).
    """
    n = draw(st.sampled_from([1, 2, 3]))
    batch = draw(st.integers(1, 6))
    sig = draw(st.sampled_from([MINKOWSKI, EUCLIDEAN]))
    p = draw(hnp.arrays(float, (batch, n), elements=unit))
    if sig == MINKOWSKI:
        p = 0.95 * p / max(1.0, float(np.max(np.linalg.norm(p, axis=1))))
    else:
        p = 3.0 * p
    m = 3.0 * draw(hnp.arrays(float, (batch, n, n), elements=unit))
    return p, 0.5 * (m + np.swapaxes(m, 1, 2)), sig


@settings(max_examples=200, deadline=None)
@given(jet_batches())
def test_nodal_jets_match_pointwise_geometry(batch):
    p, r, sig = batch
    jets = NodalJets.of(p, r, sig)
    for k in range(p.shape[0]):
        geo = ref_graph_geometry(PointJet(x=np.zeros(p.shape[1]), u=0.0,
                                          du=p[k], d2u=r[k]), sig)
        assert np.max(np.abs(jets.a[k] - geo.a)) <= 1e-12
        assert abs(jets.H[k] - geo.H) <= 1e-12
        assert np.max(np.abs(jets.kappa[k] - geo.kappa)) <= 1e-12
        assert np.max(np.abs(jets.g_lo[k] - geo.g_lo)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(jet_batches(), st.booleans())
def test_graph_geometry_matches_pointwise_reference(batch, paper_signs):
    """Every field of the batch of one and of each batch row; paper_signs
    flips b^ij and b_ij only."""
    p, r, sig = batch
    many = graph_geometry_many(p, r, sig, paper_signs)
    for k in range(p.shape[0]):
        jet = PointJet(x=np.zeros(p.shape[1]), u=0.0, du=p[k], d2u=r[k])
        ref = ref_graph_geometry(jet, sig)
        flipped = ref_graph_geometry(jet, sig, paper_signs)
        one = graph_geometry(jet, sig, paper_signs)
        for name, want in (("v", ref.v), ("g_lo", ref.g_lo), ("g_up", ref.g_up),
                           ("b_up", flipped.b_up), ("b_lo", flipped.b_lo),
                           ("a", ref.a), ("kappa", ref.kappa), ("H", ref.H),
                           ("nu", ref.nu)):
            assert np.shape(getattr(one, name)) == np.shape(want), name
            assert np.max(np.abs(getattr(one, name) - want)) <= 1e-12, name
            assert np.max(np.abs(getattr(many, name)[k] - want)) <= 1e-12, name


SNAPSHOT_STATES = [
    flow.initialize(dom.ConvexDomain.interval(-0.3, 1.7),
                    dom.ConvexDomain.interval(-0.5, 0.25), 6, MINKOWSKI),
    flow.initialize(dom.ConvexDomain.ball([0.2, -0.1], 0.7),
                    dom.ConvexDomain.ball([0.0, 0.0], 0.5), (4, 8),
                    EUCLIDEAN),
]

finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(which=st.sampled_from(range(len(SNAPSHOT_STATES))),
       data=st.data(), t=finite, c_inf=finite)
def test_snapshot_round_trip_is_exact(which, data, t, c_inf):
    state = SNAPSHOT_STATES[which]
    u = data.draw(hnp.arrays(float, state.grid.n_nodes, elements=finite))
    state = dataclasses.replace(state, u=u, t=t)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshot.txt"
        cli.write_snapshot(path, state, c_inf)
        header, coords, u_back = cli.read_snapshot(path)
    assert np.array_equal(u_back, u)
    assert np.array_equal(coords, state.grid.nodes)
    assert float(header["t"]) == t and float(header["c_inf"]) == c_inf
