"""Property tests: cached nodal jets against the pointwise geometry, and
the snapshot round trip."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaussflow import cli, flow
from gaussflow import domains as dom
from gaussflow.geometry import (
    EUCLIDEAN,
    MINKOWSKI,
    NodalJets,
    PointJet,
    graph_geometry,
)

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def jet_batches(draw):
    """(p, r, sig): a batch of gradients and symmetric Hessians, n = 1, 2.

    Minkowski gradients are scaled into |p| <= 0.95 (spacelike).
    """
    n = draw(st.sampled_from([1, 2]))
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
        geo = graph_geometry(PointJet(x=np.zeros(p.shape[1]), u=0.0,
                                      du=p[k], d2u=r[k]), sig)
        assert np.max(np.abs(jets.a[k] - geo.a)) <= 1e-12
        assert abs(jets.H[k] - geo.H) <= 1e-12
        assert np.max(np.abs(jets.kappa[k] - geo.kappa)) <= 1e-12
        assert np.max(np.abs(jets.g_lo[k] - geo.g_lo)) <= 1e-12


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
