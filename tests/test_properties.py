"""Property tests: the vectorized graph geometry (cached nodal jets and
the batch-of-one pointwise API) against the pointwise formulas it
replaced, the closed-form operator and eigenvalue kernels against the
metric contraction and LAPACK, the component-major kernels against
node-major reference formulas kept here (the curvature matrix, the
metric, the operator derivatives, the trace kernel and the Laplacian
and dual operator it serves), the snapshot round trip, and run configs
(valid ones parse back to the values written, invalid ones end in
exit 1)."""

import contextlib
import dataclasses
import io
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaussflow import cli, flow
from gaussflow import domains as dom
from gaussflow.errors import SpacelikeViolationError
from gaussflow.geometry import (
    EUCLIDEAN,
    MINKOWSKI,
    SPACELIKE_MARGIN,
    NodalJets,
    curvature_matrix_many,
    graph_geometry,
    eigenvalues_many,
    metric_lo_many,
    metric_trace,
    signature_eps,
)
from gaussflow.operators import g_derivatives_many, g_dual_many, g_value_many

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def ref_graph_geometry(du, d2u, sig: str, paper_signs: bool = False):
    """The pointwise formulas the vectorized kernels replaced, kept as the
    reference they must reproduce: every field of ``NodalJets`` at one
    point, without its node axis."""
    eps = signature_eps(sig)
    p = np.asarray(du, dtype=float)
    r = np.asarray(d2u, dtype=float)
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

    return SimpleNamespace(
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


def rows_of(p, r):
    """Node-major jets p (N, n), r (N, n, n) as component-major rows."""
    return p.T, r.transpose(1, 2, 0)


@settings(max_examples=200, deadline=None)
@given(jet_batches())
def test_nodal_jets_match_pointwise_geometry(batch):
    p, r, sig = batch
    jets = NodalJets(*rows_of(p, r), sig)
    for k in range(p.shape[0]):
        geo = ref_graph_geometry(p[k], r[k], sig)
        assert np.max(np.abs(jets.a[..., k] - geo.a)) <= 1e-12
        assert abs(jets.H[k] - geo.H) <= 1e-12
        assert np.max(np.abs(jets.kappa[:, k] - geo.kappa)) <= 1e-12
        assert np.max(np.abs(jets.g_lo[..., k] - geo.g_lo)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(jet_batches(), st.booleans())
def test_graph_geometry_matches_pointwise_reference(batch, paper_signs):
    """Every ``NodalJets`` field of the pointwise API (node 0 of its rows
    of one) and of each batch row; paper_signs flips b^ij and b_ij only,
    as ``oracles.identity_defects`` flips them (2 I - b in the Minkowski
    case)."""
    p, r, sig = batch
    many = NodalJets(*rows_of(p, r), sig)
    eye = np.eye(p.shape[1])
    for k in range(p.shape[0]):
        ref = ref_graph_geometry(p[k], r[k], sig)
        flipped = ref_graph_geometry(p[k], r[k], sig, paper_signs)
        one = graph_geometry(p[k], r[k], sig)
        for name, want in (("v", ref.v), ("g_lo", ref.g_lo), ("g_up", ref.g_up),
                           ("b_up", flipped.b_up), ("b_lo", flipped.b_lo),
                           ("a", ref.a), ("kappa", ref.kappa), ("H", ref.H),
                           ("nu", ref.nu)):
            got_one, got_k = getattr(one, name)[..., 0], getattr(many, name)[..., k]
            if paper_signs and sig == MINKOWSKI and name in ("b_up", "b_lo"):
                got_one, got_k = 2.0 * eye - got_one, 2.0 * eye - got_k
            assert np.shape(got_one) == np.shape(want), name
            assert np.max(np.abs(got_one - want)) <= 1e-12, name
            assert np.max(np.abs(got_k - want)) <= 1e-12, name


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


# -- run configs --------------------------------------------------------------

positive = st.floats(1e-12, 1e3, allow_nan=False, allow_infinity=False)
count = st.integers(1, 10**6)


@st.composite
def valid_settings(draw):
    """Optional config keys with values parse_config accepts."""
    tau_min, tau_max = sorted(draw(st.lists(positive, min_size=2, max_size=2,
                                            unique=True)))
    values = {
        "tol_c": draw(positive), "tol_b": draw(positive),
        "tol_newton": draw(positive), "tol_r": draw(positive),
        "tau_min": tau_min, "tau_max": tau_max,
        "tau0": draw(st.floats(tau_min, tau_max)),
        "max_steps": draw(count), "max_newton": draw(count),
        "cadence": draw(count), "anchor": draw(st.integers(0, 10**6)),
    }
    keys = draw(st.sets(st.sampled_from(sorted(values))))
    if {"tau_min", "tau_max", "tau0"} & keys:
        # a bound drawn alone may contradict the other's default
        keys |= {"tau_min", "tau_max"}
    return {k: values[k] for k in sorted(keys)}


def config_text(settings_: dict, out: Path, two_d: bool) -> str:
    if two_d:
        head = ("signature = minkowski\nomega = ball 0 0 1\n"
                "omega_tilde = ellipse 0 0 6.25 0 16\n"
                "n_rho = 12\nn_theta = 24\n")
    else:
        head = ("signature = euclidean\nomega = interval 0 1\n"
                "omega_tilde = interval -1 1\nn = 101\n")
    body = "".join(f"{k} = {v!r}\n" for k, v in settings_.items())
    return head + body + f"output_dir = {out}\n"


@settings(max_examples=150, deadline=None)
@given(valid_settings(), st.booleans())
def test_valid_config_round_trips(values, two_d):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(config_text(values, Path(tmp) / "out", two_d))
        config = cli.parse_config(cfg)
    controls = dataclasses.asdict(config.controls)
    for key, value in values.items():
        if key in ("cadence", "anchor"):
            assert getattr(config, key) == value, key
        else:
            assert controls.pop(key) == value, key
    # every control the config leaves out keeps its default
    defaults = dataclasses.asdict(flow.StepControls())
    assert controls == {k: defaults[k] for k in controls}
    assert config.grid_spec == ((12, 24) if two_d else 101)
    assert config.output_dir == str(Path(tmp) / "out")


bad_float = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "1e-400"]) | (
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False).map(repr))


@st.composite
def invalid_settings(draw):
    """(key named in the error, config lines) that parse_config rejects."""
    kind = draw(st.sampled_from(["float", "bounds", "tau0", "count",
                                 "token"]))
    if kind == "token":
        # a value that is no number of its key's kind
        key = draw(st.sampled_from(["tol_c", "tol_b", "tol_newton", "tol_r",
                                    "tau0", "tau_min", "tau_max", "max_steps",
                                    "max_newton", "cadence", "anchor",
                                    "dimension"]))
        tokens = ["abc", "ten", "1,5", "0x10", "1e", "--1", "1 2"]
        if key in ("max_steps", "max_newton", "cadence", "anchor",
                   "dimension"):
            tokens += ["1.5", "1e3", "2.0", "nan", "inf"]
        return key, f"{key} = {draw(st.sampled_from(tokens))}"
    if kind == "float":
        key = draw(st.sampled_from(["tol_c", "tol_b", "tol_newton", "tol_r",
                                    "tau0", "tau_min", "tau_max"]))
        return key, f"{key} = {draw(bad_float)}"
    if kind == "bounds":
        lo, hi = sorted(draw(st.lists(positive, min_size=2, max_size=2)))
        return "tau_min", f"tau_min = {hi!r}\ntau_max = {lo!r}"
    if kind == "tau0":
        tau_max = draw(positive)
        tau0 = draw(st.floats(tau_max, 2e3, exclude_min=True))
        return "tau0", f"tau_max = {tau_max!r}\ntau0 = {tau0!r}"
    key = draw(st.sampled_from(["max_steps", "max_newton", "cadence"]))
    return key, f"{key} = {draw(st.integers(-10**6, 0))}"


@settings(max_examples=150, deadline=None)
@given(invalid_settings(), st.booleans())
def test_invalid_config_exits_one_without_traceback(bad, two_d):
    key, lines = bad
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        out = Path(tmp) / "out"
        cfg.write_text(config_text({}, out, two_d) + lines + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(cfg)])
        assert not out.exists()
    assert code == 1
    assert "configuration error" in err.getvalue() and key in err.getvalue()
    assert "Traceback" not in err.getvalue()


# -- node-major reference formulas of the component-major kernels --------------

def node_major_v2(p, sig):
    return 1.0 + signature_eps(sig) * np.einsum("ni,ni->n", p, p)


def node_major_rank_one(p, coef):
    """I + coef p p^T over (N, n) gradients, coef one value per node."""
    pp = p[:, :, None] * p[:, None, :]
    return np.eye(p.shape[1]) + coef[:, None, None] * pp


def node_major_metric_up(p, sig):
    return node_major_rank_one(p, -signature_eps(sig) / node_major_v2(p, sig))


def node_major_curvature(p, r, sig):
    """(a, magnitude): a = sym(b r b) / v by matrix products, and the
    magnitude sum |b| |r| |b| / v of its terms."""
    v = np.sqrt(node_major_v2(p, sig))
    b = node_major_rank_one(p, -signature_eps(sig) / (v * (1.0 + v)))
    a = b @ r @ b / v[:, None, None]
    scale = np.abs(b) @ np.abs(r) @ np.abs(b) / v[:, None, None]
    return 0.5 * (a + np.swapaxes(a, 1, 2)), scale


def node_major_derivatives(p, r, sig):
    """(G_r, G_p) and the magnitude sums of their terms."""
    eps, v2 = signature_eps(sig), node_major_v2(p, sig)
    rp = np.einsum("nij,nj->ni", r, p)
    prp = np.einsum("ni,ni->n", p, rp)
    g_p = -2.0 * eps * rp / v2[:, None] + 2.0 * p * (prp / v2**2)[:, None]
    abs_rp = np.einsum("nij,nj->ni", np.abs(r), np.abs(p))
    p_scale = (2.0 * abs_rp / v2[:, None] + 2.0 * np.abs(p)
               * (np.einsum("ni,ni->n", np.abs(p), abs_rp) / v2**2)[:, None])
    pp = np.abs(p[:, :, None] * p[:, None, :])
    return (node_major_metric_up(p, sig), g_p,
            np.eye(p.shape[1]) + pp / v2[:, None, None], p_scale)


def within(got, ref, scale, rel=1e-13):
    return np.all(np.abs(got - ref)
                  <= rel * np.maximum(scale, np.finfo(float).tiny))


@settings(max_examples=300, deadline=None)
@given(jet_batches())
def test_rows_kernels_match_node_major_formulas(batch):
    """The curvature matrix, the metric g_lo and the operator derivatives
    G_r, G_p on component-major rows within 1e-13 of their node-major
    reference formulas, relative to the magnitude sum of their terms."""
    p, r, sig = batch
    p_rows, r_rows = rows_of(p, r)
    a, a_scale = node_major_curvature(p, r, sig)
    assert within(np.moveaxis(curvature_matrix_many(p_rows, r_rows, sig), -1, 0),
                  a, a_scale)
    pp = p[:, :, None] * p[:, None, :]
    assert within(np.moveaxis(metric_lo_many(p_rows, sig), -1, 0),
                  np.eye(p.shape[1]) + signature_eps(sig) * pp,
                  1.0 + np.abs(pp))
    g_r, g_p, r_scale, p_scale = node_major_derivatives(p, r, sig)
    got_r, got_p = g_derivatives_many(p_rows, r_rows, sig)
    assert within(np.moveaxis(got_r, -1, 0), g_r, r_scale)
    assert within(got_p.T, g_p, p_scale)


@settings(max_examples=300, deadline=None)
@given(jet_batches())
def test_closed_form_g_matches_metric_contraction(batch):
    """G = tr r - eps p^T r p / v^2 against g^ij r_ij, relative to the
    contraction's magnitude sum |g^ij| |r_ij|."""
    p, r, sig = batch
    g_up = node_major_metric_up(p, sig)
    want = np.einsum("nij,nij->n", g_up, r)
    scale = np.einsum("nij,nij->n", np.abs(g_up), np.abs(r))
    err = np.abs(g_value_many(p, r, sig) - want)
    assert np.all(err <= 1e-13 * np.maximum(scale, np.finfo(float).tiny))


def node_major_g(p, r, sig):
    """G = tr r - eps p^T r p / v^2 contracted over (N, n) and (N, n, n)
    arrays, the layout the component-major kernel replaced; kept as its
    reference."""
    rp = np.einsum("nij,nj->ni", r, p)
    prp = np.einsum("ni,ni->n", p, rp)
    return np.einsum("nii->n", r) - signature_eps(sig) * prp / node_major_v2(p, sig)


def metric_laplacian(p, big_h, sig, df, d2f):
    """The intrinsic Laplacian over node-major jets with its main term
    contracted on the built (N, n, n) inverse metric, as it was before
    ``metric_trace``; kept as its reference. big_h is the jets' H, which
    the curvature kernel's own check covers; df and d2f are node-major."""
    v = np.sqrt(node_major_v2(p, sig))
    main = np.einsum("nij,nij->n", node_major_metric_up(p, sig), d2f)
    p_df = np.einsum("ni,ni->n", p, df)
    return main - signature_eps(sig) * big_h * p_df / v


def metric_dual(y, m, sig):
    """Gdual = -g^ij(y) : (M^{-1})_ij on the built inverse metric, as it
    was before ``metric_trace``; kept as its reference."""
    return -np.sum(node_major_metric_up(y, sig) * np.linalg.inv(m), axis=(1, 2))


@st.composite
def field_rows(draw, batch):
    """A field's component-major gradient rows (n, N) and symmetric
    Hessian rows (n, n, N) at the nodes of a ``jet_batches`` batch."""
    p = batch[0]
    n, count = p.shape[1], p.shape[0]
    df = 3.0 * draw(hnp.arrays(float, (n, count), elements=unit))
    d2f = 3.0 * draw(hnp.arrays(float, (n, n, count), elements=unit))
    return df, 0.5 * (d2f + np.swapaxes(d2f, 0, 1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_component_major_g_matches_node_major_formula(data):
    """metric_trace on component-major rows, and g_value_many on (N, n)
    and (N, n, n) arrays through it, within 1e-13 of the node-major
    contraction, relative to its magnitude sum |tr r| + |p^T r p| / v^2;
    the kernel within 1e-13 of g^ij m_ij on the built metric, and the
    intrinsic Laplacian (``NodalJets.laplacian``) and the dual operator,
    which contract through it, within 1e-13 of their node-major
    built-metric forms, each relative to the sum of the magnitudes of
    its terms."""
    batch = data.draw(jet_batches())
    p, r, sig = batch
    want = node_major_g(p, r, sig)
    v2 = node_major_v2(p, sig)
    scale = (np.abs(np.einsum("nii->n", r))
             + np.einsum("ni,nij,nj->n", np.abs(p), np.abs(r), np.abs(p)) / v2)
    bound = 1e-13 * np.maximum(scale, np.finfo(float).tiny)
    rows = metric_trace(*(np.ascontiguousarray(x) for x in rows_of(p, r)), sig)
    assert np.all(np.abs(rows - want) <= bound)
    assert np.all(np.abs(g_value_many(p, r, sig) - want) <= bound)

    g_up = node_major_metric_up(p, sig)
    contraction = np.einsum("nij,nij->n", g_up, r)
    assert within(rows, contraction,
                  np.einsum("nij,nij->n", np.abs(g_up), np.abs(r)))

    df, d2f = data.draw(field_rows(batch))
    jets = NodalJets(*rows_of(p, r), sig)
    lap_scale = (np.einsum("nij,ijn->n", np.abs(g_up), np.abs(d2f))
                 + np.abs(jets.H) / jets.v
                 * np.einsum("ni,in->n", np.abs(p), np.abs(df)))
    assert within(jets.laplacian(df, d2f),
                  metric_laplacian(p, jets.H, sig, df.T,
                                   d2f.transpose(2, 0, 1)),
                  lap_scale)

    # the Hessian shifted positive definite, as the check suite shifts it
    lam_min = np.linalg.eigvalsh(r)[:, 0]
    m = r + (np.abs(lam_min) + 0.5)[:, None, None] * np.eye(p.shape[1])
    m_inv = np.linalg.inv(m)
    assert within(g_dual_many(*rows_of(p, m), sig), metric_dual(p, m, sig),
                  np.einsum("nij,nij->n", np.abs(g_up), np.abs(m_inv)))


# A subnormal Hessian: the closed form returns [0, 2e-323] and LAPACK
# [0, 1.5e-323], one subnormal step apart and below any relative bound.
SUBNORMAL = (np.zeros((1, 2)), np.array([[[1.5e-323, 0.0], [0.0, 0.0]]]),
             EUCLIDEAN)


@settings(max_examples=300, deadline=None)
@given(jet_batches())
@example(SUBNORMAL)
def test_min_eigenvalue_matches_lapack(batch):
    """eigenvalues_many on component-major rows: the whole ascending
    spectrum within 4 eps max |lam| of LAPACK, plus four subnormal steps,
    in closed form for n <= 2, and LAPACK's own for n = 3."""
    _, r, _ = batch
    lam = np.linalg.eigvalsh(r)
    got = eigenvalues_many(r.transpose(1, 2, 0)).T
    if r.shape[1] == 3:
        assert np.array_equal(got, lam)
    err = np.abs(got - lam)
    assert np.all(err <= 4 * np.finfo(float).eps
                  * np.max(np.abs(lam), axis=1, keepdims=True)
                  + 4 * np.finfo(float).smallest_subnormal)
