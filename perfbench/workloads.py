"""The four benchmark workloads: inputs, one timed pass, and the gate.

Every workload is a closed loop with one client: its problems run back
to back, each after the previous one has returned.

* disk2d: ``run_to_translator`` (library call, no monitors) on the two
  2D Minkowski problems at 32 x 64, three draws of each. Sparse solves
  and the Newton stall.
* line1d: 1D Minkowski and Euclidean at N = 401, 801, 1601. Tridiagonal
  solves; per-iteration Python and Jacobian assembly dominate.
* audit_cli: ``gaussflow run`` with cadence 1 (ball onto ellipse at
  24 x 48, 1D Minkowski at N = 801), then ``gaussflow report`` on each
  monitors.csv. Monitors and artifact I/O on top of the flow.
* oracle_check: ``gaussflow check``, ``check --debug-paper-signs`` (must
  exit 1) and the two ``gaussflow oracle`` commands. Pointwise geometry
  and the oracles.

A pass times each problem or CLI call as one unit of a
``calibration.Clock`` and returns raw outcomes; ``gate`` turns them into
failures after the timed units.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import problems as pb
from calibration import Clock

NAMES = ("disk2d", "line1d", "audit_cli", "oracle_check")

# C_inf of every seed-0 problem on the seed commit (the ROADMAP invariant:
# speed-ups leave C_inf unchanged to 1e-9).
SEED0_C_INF = json.loads((Path(__file__).parent / "reference.json").read_text())
C_INF_TOL_SEED0 = 1e-9


@dataclass
class Outcome:
    pid: str
    c_inf: float | None = None
    speed_err: float | None = None
    failure: str = ""


@dataclass
class PassResult:
    clock: Clock
    outcomes: list

    def measured(self, key: str) -> float:
        return self.clock.measured.get(key, 0.0)

    def scaled(self, key: str) -> float:
        return self.clock.scaled.get(key, 0.0)


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    problems: list = field(default_factory=list)
    oracle: pb.OracleCase | None = None
    domains: list = field(default_factory=list)

    # -- inputs --------------------------------------------------------------

    def prepare(self, gf):
        """Generate the seeded inputs; reference speeds are computed here."""
        if self.name == "oracle_check":
            self.oracle = pb.oracle_case(self.seed, gf.oracles)
            return
        make = {"disk2d": pb.disk2d, "line1d": pb.line1d,
                "audit_cli": pb.audit_cli}[self.name]
        self.problems = make(self.seed, gf.oracles)
        if self.name == "audit_cli":
            self.workdir.mkdir(parents=True, exist_ok=True)
            for p in self.problems:
                (self.workdir / f"{p.pid}.cfg").write_text(
                    p.config_text(str(self.workdir / p.pid)))

    def bind(self, gf):
        """Build the domain objects with the modules the passes will use."""
        parse = gf.cli.parse_domain_spec
        self.domains = [(parse(p.omega), parse(p.omega_tilde))
                        for p in self.problems]

    # -- one pass ------------------------------------------------------------

    def run_pass(self, gf, tracer=None) -> PassResult:
        runner = {"disk2d": self._library_pass, "line1d": self._library_pass,
                  "audit_cli": self._cli_pass,
                  "oracle_check": self._oracle_pass}[self.name]
        clock = Clock()
        if self.name == "oracle_check" and tracer is None:
            # No flow set-up here: the set-up is the seeded inputs and
            # their reference speeds, timed apart from the pass.
            with clock.unit("setup_s"):
                self.prepare(gf)
        raw = runner(gf, tracer, clock)
        return PassResult(clock, self.gate(raw))

    def _library_pass(self, gf, tracer, clock):
        raw = []
        for p, (omega, omega_tilde) in zip(self.problems, self.domains):
            if tracer is not None:
                tracer.problem = p.pid
            try:
                with clock.unit() as parts:
                    t0 = time.perf_counter()
                    state = gf.flow.initialize(omega, omega_tilde, p.grid, p.sig)
                    t1 = time.perf_counter()
                    result = gf.flow.run_to_translator(state)
                    parts["setup_s"] = t1 - t0
                    parts["translator_s"] = time.perf_counter() - t1
                raw.append((p, result.c_inf, ""))
            except Exception:  # a failed problem is counted, not fatal
                raw.append((p, None, traceback.format_exc(limit=2)))
        return raw

    def _cli_pass(self, gf, tracer, clock):
        raw = []
        for p in self.problems:
            if tracer is not None:
                tracer.problem = p.pid
            out = self.workdir / p.pid
            with clock.unit() as parts, \
                    _Stopwatch(gf.cli, "initialize") as setup, \
                    _Stopwatch(gf.cli, "run_to_translator") as solve:
                rc_run, _ = _cli(gf, ["run", "--config",
                                      str(self.workdir / f"{p.pid}.cfg")])
                parts["setup_s"] = setup.seconds
                parts["translator_s"] = solve.seconds
            with clock.unit():
                rc_rep, _ = _cli(gf, ["report", str(out / "monitors.csv")])
            raw.append((p, rc_run, rc_rep))
        return raw

    def _oracle_pass(self, gf, tracer, clock):
        o = self.oracle
        radius, rho, n, sig = o.radial
        a, b, c, d, sig1 = o.closed1d
        calls = [
            ("check", ["check"], False),
            ("check-debug", ["check", "--debug-paper-signs"], False),
            ("radial", ["oracle", "radial", repr(radius), repr(rho), str(n), sig,
                        "--out", str(self.workdir / "profile.csv")], True),
            ("closed1d", ["oracle", "closed1d", repr(a), repr(b), repr(c),
                          repr(d), sig1], True),
        ]
        self.workdir.mkdir(parents=True, exist_ok=True)
        raw = []
        for pid, argv, is_oracle in calls:
            if tracer is not None:
                tracer.problem = pid
            with clock.unit() as parts:
                t0 = time.perf_counter()
                rc, text = _cli(gf, argv)
                if is_oracle:
                    parts["translator_s"] = time.perf_counter() - t0
            raw.append((pid, rc, text))
        return raw

    # -- correctness gate ----------------------------------------------------

    def gate(self, raw) -> list:
        if self.name == "oracle_check":
            return [self._gate_oracle(*r) for r in raw]
        if self.name == "audit_cli":
            return [self._gate_cli(*r) for r in raw]
        return [self._gate_flow(p, c_inf, err) for p, c_inf, err in raw]

    def _gate_flow(self, p, c_inf, error) -> Outcome:
        o = Outcome(p.pid, c_inf)
        if c_inf is None:
            o.failure = f"raised: {error.strip().splitlines()[-1]}"
            return o
        if p.c_ref is not None:
            o.speed_err = abs(c_inf - p.c_ref)
            if not o.speed_err <= p.speed_tol:
                o.failure = f"|C - C_ref| = {o.speed_err:.3e} > {p.speed_tol:g}"
        self._check_seed0(o)
        return o

    def _gate_cli(self, p, rc_run, rc_rep) -> Outcome:
        out = self.workdir / p.pid
        if rc_run != 0 or rc_rep != 0:
            return Outcome(p.pid, failure=f"exit codes run {rc_run}, report {rc_rep}")
        report = {}
        for line in (out / "report.txt").read_text().splitlines():
            key, sep, val = line.partition(":")
            if sep:
                report[key.strip()] = val.strip()
        steps = int(report["steps"])
        rows = len((out / "monitors.csv").read_text().splitlines()) - 1
        o = self._gate_flow(p, float(report["C_inf"]), "")
        if rows != 1 + steps:
            o.failure = f"monitors.csv has {rows} rows, expected {1 + steps}"
        elif not report["rate bounds"].startswith("ok"):
            o.failure = f"rate bounds: {report['rate bounds']}"
        elif report["cone margin ok"] != "yes":
            o.failure = "cone margin verdict is not ok"
        return o

    def _gate_oracle(self, pid, rc, text) -> Outcome:
        o = Outcome(pid)
        want_rc = 1 if pid == "check-debug" else 0
        if rc != want_rc:
            o.failure = f"exit code {rc}, expected {want_rc}"
            return o
        if pid == "check" and "FAIL" in text:
            o.failure = "check printed a FAIL row"
        if pid in ("radial", "closed1d"):
            o.c_inf = float(text.split("C = ", 1)[1].split()[0])
            ref, tol = ((self.oracle.radial_c, 1e-9) if pid == "radial"
                        else (self.oracle.closed_c, 1e-7))  # printed digits
            if abs(o.c_inf - ref) > tol:
                o.failure = f"printed C = {o.c_inf!r}, reference {ref!r}"
            self._check_seed0(o)
        return o

    def _check_seed0(self, o: Outcome):
        """On seed 0, C_inf must match the value recorded on the seed commit."""
        if self.seed != 0 or o.failure:
            return
        # every draw of seed 0 is the reference problem
        ref = SEED0_C_INF.get(self.name, {}).get(o.pid.split("#")[0])
        if ref is None or abs(o.c_inf - ref) > C_INF_TOL_SEED0:
            o.failure = f"seed 0 C_inf {o.c_inf!r} != recorded {ref!r}"


class _Stopwatch:
    """Times every call of ``module.attr`` while the context is open."""

    def __init__(self, module, attr):
        self.module, self.attr, self.seconds = module, attr, 0.0

    def __enter__(self):
        self.orig = orig = getattr(self.module, self.attr)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        setattr(self.module, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.orig)


def _cli(gf, argv):
    """In-process ``gaussflow`` call; returns (exit code, printed text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = gf.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue() + err.getvalue()
