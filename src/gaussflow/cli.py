"""Command line interface: run orchestration, persistence, reporting.

Subcommands:

* ``run --config path``: parse a flat key = value config, advance the
  flow to its translator, write monitors.csv / snapshot.txt / fields.csv
  and a human-readable report. Exit 0 on convergence, 2 on
  non-convergence (artifacts still written), 1 on configuration errors
  and on an artifact that cannot be written. The result line is printed
  before the artifacts are written, and each artifact is attempted: one
  that cannot be written is named (``cannot write <file>: ...``) and the
  others are still written.
* ``oracle closed1d a b c d sig`` / ``oracle radial R rho n sig``:
  print the reference speed; the radial oracle also writes profile.csv.
* ``check [--debug-paper-signs]``: the full invariant suite as a
  pass/fail table; the debug flag flips the two documented sign typos in
  and demonstrates that the suite catches them.
* ``report monitors.csv``: convergence summary plus per-monitor
  two-column (t, value) files for plotting.

Config format: UTF-8 lines ``key = value``; a ``#`` at the start of a line
or after whitespace starts a comment, so a value such as ``run#1`` keeps
its ``#``. Domains are written ``interval a b``, ``ball cx [cy] r``,
``ellipse cx cy q11 q12 q22``.

``parse_config`` maps keys to the objects that check them: domains to
``ConvexDomain``, grid keys to ``check_resolution``, control keys (its
field names, stated for a base domain of unit volume) to ``StepControls``;
it refuses a 3D omega and an omega_tilde of another dimension itself.
Before ``output_dir`` is created, ``run`` refuses an anchor that is no
node and ``RunMonitor`` a cadence below 1. The report names the length
unit the controls were applied in and the absolute tau ceiling.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import domains as dom
from . import monitors as mon
from . import oracles
from .errors import ConfigError, GaussFlowError, NonConvergenceError
from .flow import StepControls, initialize, mean_rate, run_to_translator
from .geometry import MINKOWSKI, SIGNATURES
from .grids import LineGrid, check_resolution
from .operators import g_derivatives_many, legendre_transform


# the artifacts' one number format: 17 digits read back exactly
_fmt = "{:.17g}".format


def _cells(values) -> list[str]:
    """One table column as text: integers through ``str``, every other
    number through ``_fmt``."""
    values = np.asarray(values)
    return list(map(str if values.dtype.kind in "iu" else _fmt,
                    values.tolist()))


def _write_table(path, names, cells, sep=",", header=()):
    """Write the ``header`` lines, the column ``names`` joined by ``sep``
    (if any), then one line per row of the ``_cells`` columns ``cells``."""
    lines = [*header, sep.join(names)] if names else list(header)
    lines += map(sep.join, zip(*cells))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _parse_rows(lines, width, sep=None):
    """(rows, width) floats of the table ``lines`` split at ``sep``; a row
    of another width or with a token that is no number raises ValueError
    naming its data row, counted from 1."""
    rows = []
    for k, line in enumerate(lines, 1):
        tokens = line.split(sep)
        if len(tokens) != width:
            raise ValueError(f"data row {k} has {len(tokens)} fields, "
                             f"expected {width}")
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError as exc:
            raise ValueError(f"data row {k}: {exc}") from None
    return np.array(rows).reshape(len(rows), width)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    signature: str
    omega: dom.ConvexDomain
    omega_tilde: dom.ConvexDomain
    grid_spec: object  # int (1D) or (n_rho, n_theta)
    controls: StepControls
    cadence: int = 1
    output_dir: str = "."
    anchor: int | None = None


def _number(key: str, text: str, kind=float):
    """``kind(text)`` for config key ``key``, or ConfigError naming both."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: {text!r} is not {noun}") from None


def parse_domain_spec(text: str, key: str = "domain") -> dom.ConvexDomain:
    """The domain of config key ``key``; every error names the key."""
    toks = text.split()
    if not toks:
        raise ConfigError(f"{key}: empty domain spec")
    kind, vals = toks[0], [_number(key, t) for t in toks[1:]]
    try:
        if kind == "interval":
            if len(vals) != 2:
                raise ValueError(f"interval needs 2 numbers, got {text!r}")
            return dom.ConvexDomain.interval(*vals)
        if kind == "ball":
            if len(vals) < 2:
                raise ValueError(f"ball needs center and radius, got {text!r}")
            return dom.ConvexDomain.ball(vals[:-1], vals[-1])
        if kind == "ellipse":
            if len(vals) != 5:
                raise ValueError(f"ellipse needs cx cy q11 q12 q22, got {text!r}")
            cx, cy, q11, q12, q22 = vals
            return dom.ConvexDomain.ellipse([cx, cy], [[q11, q12], [q12, q22]])
        raise ValueError(f"unknown domain kind {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def domain_spec_string(d: dom.ConvexDomain) -> str:
    name, args = d.spec
    return " ".join([name, *(_fmt(x) for x in args)])


# a comment starts at a "#" that opens the line or follows whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} not found")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key}")
        raw[key] = val

    for key in ("signature", "omega", "omega_tilde"):
        if key not in raw:
            raise ConfigError(f"missing key: {key}")
    signature = raw.pop("signature")
    if signature not in SIGNATURES:
        raise ConfigError(f"signature must be one of {SIGNATURES}")
    omega = parse_domain_spec(raw.pop("omega"), "omega")
    omega_tilde = parse_domain_spec(raw.pop("omega_tilde"), "omega_tilde")

    if omega.dimension > 2:
        raise ConfigError(f"omega: a {omega.dimension}D domain; grids cover n <= 2")
    if omega_tilde.dimension != omega.dimension:
        raise ConfigError(f"omega_tilde: a {omega_tilde.dimension}D domain; "
                          f"omega is {omega.dimension}D")
    if omega.dimension == 1:
        if "n" not in raw:
            raise ConfigError("1D runs need key: n")
        grid_spec: object = _number("n", raw.pop("n"), int)
    else:
        if "n_rho" not in raw or "n_theta" not in raw:
            raise ConfigError("2D runs need keys: n_rho, n_theta")
        grid_spec = tuple(_number(key, raw.pop(key), int)
                          for key in ("n_rho", "n_theta"))
    try:
        check_resolution(grid_spec)
    except ValueError as exc:
        keys = "n" if omega.dimension == 1 else "n_rho, n_theta"
        raise ConfigError(f"{keys}: {exc}") from None

    try:
        controls = StepControls(**{
            f.name: _number(f.name, raw.pop(f.name), int if f.type == "int" else float)
            for f in fields(StepControls) if f.name in raw})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cadence = _number("cadence", raw.pop("cadence", "1"), int)
    output_dir = raw.pop("output_dir", ".")
    anchor = raw.pop("anchor", None)
    anchor = None if anchor is None else _number("anchor", anchor, int)
    dimension = _number("dimension", raw.pop("dimension", "0"), int)
    if dimension and dimension != omega.dimension:
        raise ConfigError(
            f"dimension = {dimension} conflicts with omega (n = {omega.dimension})"
        )
    if raw:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(raw))}")
    return RunConfig(
        signature=signature, omega=omega, omega_tilde=omega_tilde,
        grid_spec=grid_spec, controls=controls, cadence=cadence,
        output_dir=output_dir, anchor=anchor,
    )


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def write_monitors_csv(path, records):
    cells = [_cells([getattr(rec, name) for rec in records])
             for name in mon.CSV_COLUMNS]
    _write_table(path, mon.CSV_COLUMNS, cells)


def _node_table(state) -> tuple[list, list]:
    """(column names, columns) of the per-node table both node artifacts
    write: the node's index as the grid numbers it (``grid.node_index``:
    i, or ring i and angle j in 2D with the pole at 0 0), its coordinates
    and u, each column a list of ``_cells`` that both artifacts share."""
    grid = state.grid
    columns = [*zip("ij", grid.node_index), *zip("xy", grid.nodes.T),
               ("u", state.u)]
    return ([name for name, _ in columns],
            [_cells(vals) for _, vals in columns])


def write_fields_csv(path, state, table=None):
    names, cols = table or _node_table(state)
    jets = state.jets
    extra = [*zip(("du_x", "du_y"), jets.p), ("hess_min", jets.lam[0])]
    _write_table(path, [*names, *(name for name, _ in extra)],
                 [*cols, *(_cells(vals) for _, vals in extra)])


def write_snapshot(path, state, c_inf, table=None):
    grid = state.grid
    names, cols = table or _node_table(state)
    header = [
        "# gaussflow snapshot",
        f"signature = {state.sig}",
        f"dimension = {grid.dim}",
        f"omega = {domain_spec_string(state.omega)}",
        f"omega_tilde = {domain_spec_string(state.omega_tilde)}",
        f"grid = {' '.join(map(str, grid.resolution))}",
        f"t = {_fmt(state.t)}",
        f"c_inf = {_fmt(c_inf)}",
        f"nodes = {grid.n_nodes}",
        f"columns = {' '.join(names)}",
    ]
    _write_table(path, (), cols, sep=" ", header=header)


def read_snapshot(path):
    """Parse a snapshot file back into header dict + coordinate/u arrays;
    a bad header or table raises ConfigError naming the file."""
    header, rows = {}, []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line and not rows:
                key, val = (part.strip() for part in line.split("=", 1))
                header[key] = val
                continue
            rows.append(line)
    try:
        ncols = len(header["columns"].split())
        dim = int(header["dimension"])
        data = _parse_rows(rows, ncols)
    except (KeyError, ValueError) as exc:
        why = f"no header key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"snapshot {path}: {why}") from None
    return header, data[:, dim:-1], data[:, -1]


def write_report(path, config, converged, result, monitor, message=""):
    lines = ["gaussflow run report", "====================", ""]
    lines.append(f"signature     : {config.signature}")
    lines.append(f"omega         : {domain_spec_string(config.omega)}")
    lines.append(f"omega_tilde   : {domain_spec_string(config.omega_tilde)}")
    lines.append(f"grid          : {config.grid_spec}")
    # the controls are per unit volume; the run applies them in omega's units
    lines.append(f"length unit   : {_fmt(config.omega.length_unit)} (tau ceiling "
                 f"{_fmt(config.controls.for_domain(config.omega).tau_max)})")
    lines.append(f"converged     : {'yes' if converged else 'NO'}")
    if message:
        lines.append(f"note          : {message}")
    if result is not None:
        lines.append(f"C_inf         : {_fmt(result.c_inf)}")
        lines.append(f"residual      : {_fmt(result.residual)}")
        lines.append(f"steps         : {result.steps}")
        lines.append(f"wall_seconds  : {result.wall_seconds:.3f}")
    if monitor.records:
        ok, worst, t_worst = monitor.udot_ok()
        lines.append(f"rate bounds   : {'ok' if ok else 'VIOLATED'} "
                     f"(worst {worst:.3e} at t = {t_worst:.6g}, "
                     f"tol {monitor.tol_mon:.3e})")
        lines.append(f"obliq run min : {_fmt(monitor.obliq_run_min())}")
        lo, hi = monitor.hessian_run_range()
        lines.append(f"hessian range : [{_fmt(lo)}, {_fmt(hi)}]")
        lines.append(f"eps0          : {_fmt(monitor.eps0)}")
        lines.append(f"cone margin ok: {'yes' if monitor.convex_margin_ok() else 'NO'}")
        lines.append(f"sandwich ok   : {'yes' if monitor.sandwich_ok() else 'NO'}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_command(config_path) -> int:
    config = parse_config(config_path)
    state = initialize(config.omega, config.omega_tilde,
                       config.grid_spec, config.signature)
    n_nodes = state.grid.n_nodes
    if config.anchor is not None and not 0 <= config.anchor < n_nodes:
        raise ConfigError(f"anchor = {config.anchor} is not a node index "
                          f"in [0, {n_nodes})")
    if config.anchor is not None:
        state = replace(state, anchor=config.anchor)
    # the monitor refuses a bad cadence before output_dir exists
    monitor = mon.RunMonitor(state, cadence=config.cadence,
                             controls=config.controls)
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"output_dir {str(out)!r}: {exc.strerror or exc}") from None
    converged, result, message = False, None, ""
    try:
        result = run_to_translator(state, config.controls,
                                   on_accept=monitor.observe)
        converged = True
        state = result.state
    except NonConvergenceError as exc:
        message = str(exc)
        state = monitor.last_state
    monitor.finish()
    c_inf = result.c_inf if result else mean_rate(state)

    if converged:
        print(f"converged: C_inf = {result.c_inf:.10g} after {result.steps} steps "
              f"({result.wall_seconds:.2f} s)")
    else:
        print(f"non-convergence: {message}", file=sys.stderr)

    # a write failure must not lose the result: it is printed first, and
    # an artifact that cannot be written leaves the others to be written
    table = _node_table(state)
    unwritten = False
    for write, name, args in (
            (write_monitors_csv, "monitors.csv", (monitor.records,)),
            (write_fields_csv, "fields.csv", (state, table)),
            (write_snapshot, "snapshot.txt", (state, c_inf, table)),
            (write_report, "report.txt",
             (config, converged, result, monitor, message))):
        try:
            write(out / name, *args)
        except OSError as exc:
            print(f"cannot write {out / name}: {exc.strerror or exc}",
                  file=sys.stderr)
            unwritten = True
    if unwritten:
        return 1
    return 0 if converged else 2


# Numbers each oracle reads before the signature.
_ORACLE_ARITY = {"closed1d": 4, "radial": 3}


def oracle_command(args) -> int:
    arity = _ORACLE_ARITY[args.kind]
    if len(args.params) != arity:
        raise ValueError(f"{args.kind} needs {arity} numbers before the "
                         f"signature, got {len(args.params)}")
    if args.kind == "closed1d":
        speed, _ = oracles.translator_1d_closed_form(*args.params, args.sig)
        print(f"C = {speed:.7f}")
        return 0
    radius, rho, n = args.params
    if not (n.is_integer() and n >= 1):
        raise ValueError(f"radial needs a positive integer n, got {n:g}")
    profile = oracles.translator_radial_shooting(radius, rho, int(n),
                                                 args.sig, tol=1e-10)
    print(f"C = {profile.c_speed:.10f}")
    out = Path(args.out) if args.out else Path("profile.csv")
    _write_table(out, ("r", "phi"), [_cells(profile.radii), _cells(profile.phi)])
    print(f"profile written to {out}")
    return 0


def _check_rows(debug_paper_signs: bool):
    """Invariant suite rows: (name, ok, detail), in table order."""
    rng = np.random.default_rng(42)

    def identities(keys, count, sigs, bound):
        """Worst ``oracles.identity_defects`` of ``keys``, count jets per signature."""
        worst = 0.0
        for sig in sigs:
            jets = oracles.random_jets(rng, count, sig)
            defects = oracles.identity_defects(jets, sig, debug_paper_signs, keys)
            worst = max(worst, *defects.values())
        return worst <= bound, f"max defect {worst:.3e}"

    return [
        ("geometry-identities",
         *identities(("root", "inverse", "root-inverse"), 500, SIGNATURES, 1e-12)),
        ("trace-identity", *identities(("trace",), 500, SIGNATURES, 1e-12)),
        ("normal-pairing", *identities(("normal",), 300, (MINKOWSKI,), 1e-12)),
        ("derivative-fd", *_derivative_fd_row(debug_paper_signs)),
        ("hessian-slot-exact",
         *identities(("hessian-slot",), 200, SIGNATURES, 1e-14)),
        ("legendre-involution", *_legendre_involution_row()),
        ("oracle-consistency", *_oracle_consistency_row()),
        ("duality-sign", *identities(("duality",), 200, SIGNATURES, 1e-10)),
    ]


def _derivative_fd_row(debug_paper_signs: bool):
    """Exact operator derivatives against central differences."""
    worst = max(oracles.fd_check_derivatives(
        300, sig, 1e-5, seed=7, paper_form=debug_paper_signs and sig == MINKOWSKI)
        for sig in SIGNATURES)
    detail = f"max rel err {worst:.3e}"
    if debug_paper_signs:
        p, r = np.array([[0.6]]), np.array([[[1.0]]])
        ratio = (oracles.g_p_paper_many(p, r, MINKOWSKI)
                 / g_derivatives_many(p, r, MINKOWSKI)[1])
        detail += f"; 1D paper/true ratio {ratio[0, 0]:+.3f}"
    return worst <= 1e-6, detail


def _legendre_involution_row():
    """Legendre involution on a refining pair of 1D grids."""
    errs = [_legendre_involution_error(n_cells) for n_cells in (100, 200)]
    ratio = errs[0] / errs[1]
    return (errs[1] <= 1e-4 and ratio >= 3.0,
            f"errors {errs[0]:.3e} -> {errs[1]:.3e}, ratio {ratio:.2f}")


def _oracle_consistency_row():
    """Radial shooting in one dimension against the closed form."""
    prof = oracles.translator_radial_shooting(1.0, 0.5, 1, MINKOWSKI, tol=1e-10)
    closed, _ = oracles.translator_1d_closed_form(-1.0, 1.0, -0.5, 0.5, MINKOWSKI)
    diff = abs(prof.c_speed - closed)
    return diff <= 1e-8, f"|shoot - closed| {diff:.3e}"


def _legendre_involution_error(n_cells: int) -> float:
    """Double Legendre transform defect for u = x^2 / 2 + x^4 / 12 on (-0.6, 0.6)."""
    grid = LineGrid(-0.6, 0.6, n_cells)
    x = grid.nodes[:, 0]
    u = 0.5 * x**2 + x**4 / 12.0
    (y,), u_t = legendre_transform(u, grid)
    order = np.argsort(y)
    ys, uts = y[order], u_t[order]
    dual_grid = LineGrid(float(ys[0]), float(ys[-1]), n_cells)
    ut_grid = np.interp(dual_grid.nodes[:, 0], ys, uts)
    (yy,), uu = legendre_transform(ut_grid, dual_grid)
    order2 = np.argsort(yy)
    back = np.interp(x, yy[order2], uu[order2])
    inner = slice(5, -5)  # avoid extrapolation at the cloud edges
    return float(np.max(np.abs(back - u)[inner]))


def check_command(debug_paper_signs: bool = False) -> int:
    rows = _check_rows(debug_paper_signs)
    width = max(len(name) for name, _, _ in rows)
    all_ok = True
    for name, ok, detail in rows:
        mark = "PASS" if ok else "FAIL"
        all_ok = all_ok and ok
        print(f"{mark}  {name:<{width}}  {detail}")
    if debug_paper_signs:
        print("(debug-paper-signs: failures above lock in the documented "
              "sign corrections)")
    return 0 if all_ok else 1


# monitors.csv columns the report summary reads
REPORT_COLUMNS = ("t", "udot_min", "udot_max", "obliq_min", "hess_min", "hess_max")


def report_command(csv_path) -> int:
    path = Path(csv_path)
    if not path.is_file():
        raise ValueError(f"{path} not found")
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("monitors csv has no data rows")
    header = lines[0].split(",")
    missing = [name for name in REPORT_COLUMNS if name not in header]
    if missing:
        raise ValueError(f"monitors csv lacks column(s) {', '.join(missing)}")
    data = _parse_rows(lines[1:], len(header), ",")
    col = {name: k for k, name in enumerate(header)}
    final = data[-1]
    c_lo, c_hi = final[col["udot_min"]], final[col["udot_max"]]
    osc = c_hi - c_lo
    print(f"rows      = {data.shape[0]}")
    print(f"final t   = {final[col['t']]:.10g}")
    print(f"C_inf={0.5 * (c_lo + c_hi):.10g} "
          "(midpoint of final udot_min/udot_max)")
    print(f"osc(u_dot) final = {osc:.3e}")
    print(f"obliq_min over run = {np.min(data[:, col['obliq_min']]):.10g}")
    print(f"hessian range over run = [{np.min(data[:, col['hess_min']]):.10g}, "
          f"{np.max(data[:, col['hess_max']]):.10g}]")
    t = _cells(data[:, col["t"]])
    for name, k in col.items():
        if name != "t":
            _write_table(path.parent / f"monitor_{name}.dat", (),
                         [t, _cells(data[:, k])], sep=" ")
    print(f"per-monitor series written to {path.parent}/monitor_*.dat")
    return 0


def main(argv=None) -> int:
    """Run one subcommand. A library error, a ValueError or an OSError in
    it is one line on stderr and exit 1; inputs are checked to be files
    before they are read, so an OSError naming a file is a write."""
    parser = argparse.ArgumentParser(
        prog="gaussflow",
        description="Translating solitons of graphical mean curvature flow "
                    "with prescribed gradient image",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance a configured flow to its translator")
    p_run.add_argument("--config", required=True)

    p_oracle = sub.add_parser("oracle", help="print reference translator speeds")
    p_oracle.add_argument("kind", choices=["closed1d", "radial"])
    p_oracle.add_argument("params", nargs="+", type=float)
    p_oracle.add_argument("sig", choices=list(SIGNATURES))
    p_oracle.add_argument("--out", default=None)

    p_check = sub.add_parser("check", help="run the invariant suite")
    p_check.add_argument("--debug-paper-signs", action="store_true")

    p_report = sub.add_parser("report", help="summarize a monitors.csv")
    p_report.add_argument("csv")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_command(args.config)
        if args.command == "oracle":
            return oracle_command(args)
        if args.command == "check":
            return check_command(args.debug_paper_signs)
        return report_command(args.csv)
    except (GaussFlowError, ValueError, OSError) as exc:
        why = exc
        if isinstance(exc, OSError) and exc.filename is not None:
            why = f"cannot write {exc.filename}: {exc.strerror or exc}"
        label = "configuration" if args.command == "run" else args.command
        print(f"{label} error: {why}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
