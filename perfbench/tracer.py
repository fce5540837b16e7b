"""Span tracer that instruments gaussflow from outside.

Modules bind their imports by name (``from .operators import
g_value_many``), so a function is wrapped in every gaussflow namespace
that holds it: the tracer scans the module dicts for the original
object and replaces each binding with one wrapper. Methods are wrapped
on their class. ``uninstall`` restores every binding.

Each call leaves a span (name, module, start, end, parent, problem id)
in memory; ``write`` dumps them as CSV. A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

# (module that owns the function, attribute path, span name).
# Names are "<layer>.<function>"; the layer is the gaussflow module whose
# code runs inside the span, so self time can be charged to it. Besides
# the functions the metrics name, the list holds the costly entry points
# that one module calls in another, so that a layer's self time excludes
# the layers it calls. Cheap helpers (v_many, metric_up_many, ...) are
# not wrapped; their time counts to the calling layer.
TARGETS = [
    ("flow", "initialize", "flow.initialize"),
    ("flow", "run_to_translator", "flow.run_to_translator"),
    ("flow", "step_implicit", "flow.step_implicit"),
    ("flow", "_newton_solve", "flow.newton_solve"),
    ("flow", "_jacobian", "flow.jacobian"),
    ("flow", "spsolve", "linalg.spsolve"),
    ("operators", "g_value_many", "operators.g_value_many"),
    ("operators", "g_value", "operators.g_value"),
    ("operators", "g_derivatives_many", "operators.g_derivatives_many"),
    ("operators", "g_derivatives", "operators.g_derivatives"),
    ("operators", "structure_report", "operators.structure_report"),
    ("operators", "g_dual", "operators.g_dual"),
    ("operators", "legendre_transform", "operators.legendre_transform"),
    ("grids", "LineGrid.__init__", "grids.build"),
    ("grids", "MappedDiskGrid.__init__", "grids.build"),
    ("grids", "LineGrid.gradient", "grids.gradient"),
    ("grids", "LineGrid.hessian", "grids.hessian"),
    ("grids", "MappedDiskGrid.gradient", "grids.gradient"),
    ("grids", "MappedDiskGrid.hessian", "grids.hessian"),
    ("geometry", "curvature_matrix_many", "geometry.curvature_matrix_many"),
    ("geometry", "laplace_beltrami", "geometry.laplace_beltrami"),
    ("geometry", "graph_geometry", "geometry.graph_geometry"),
    ("domains", "defining_jet", "domains.defining_jet"),
    ("domains", "defining_jet_many", "domains.defining_jet_many"),
    ("domains", "inward_normal", "domains.inward_normal"),
    ("domains", "radial_range", "domains.radial_range"),
    ("monitors", "RunMonitor.__init__", "monitors.observe"),
    ("monitors", "RunMonitor.observe", "monitors.observe"),
    ("monitors", "RunMonitor._record", "monitors.record"),
    ("monitors", "evolution_residual", "monitors.evolution_residual"),
    ("monitors", "obliqueness", "monitors.obliqueness"),
    ("monitors", "eps0_candidate", "monitors.eps0_candidate"),
    ("cli", "main", "cli.main"),
    ("cli", "write_monitors_csv", "cli.write_artifact"),
    ("cli", "write_fields_csv", "cli.write_artifact"),
    ("cli", "write_snapshot", "cli.write_artifact"),
    ("cli", "write_report", "cli.write_artifact"),
    ("cli", "report_command", "cli.report_command"),
    ("cli", "check_command", "cli.check_command"),
    ("oracles", "translator_radial_shooting", "oracles.radial_shooting"),
    ("oracles", "fd_check_derivatives", "oracles.fd_check"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    problem: str = ""
    children_s: float = 0.0
    info: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.children_s


def _artifact_bytes(args, result):
    return os.path.getsize(args[0])


def _nnz(args, result):
    return result.nnz


def _rows(args, result):
    return len(args[0])


def _newton_iters(args, result):
    return result.newton_iters


def _converged(args, result):
    return result is not None


# Extra facts recorded on the span from the call's arguments or result.
INFO = {
    "cli.write_artifact": _artifact_bytes,
    "flow.jacobian": _nnz,
    "operators.g_value_many": _rows,
    "operators.g_derivatives_many": _rows,
    "flow.step_implicit": _newton_iters,
    "flow.newton_solve": _converged,
}


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    problem: str = ""
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               problem=self.problem))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.dur

    def wrap(self, fn, name: str):
        info = INFO.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if info is not None:
                tracer.spans[idx].info = info(args, result)
            return result

        return traced

    # -- instrumentation -------------------------------------------------

    def install(self, package: dict):
        """Wrap every TARGETS entry; ``package`` maps module name -> module."""
        for owner, path, name in TARGETS:
            mod = package[owner]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(orig, name))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, path)
            wrapped = self.wrap(orig, name)
            for ns in package.values():
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, wrapped)
                        self._undo.append((ns, key, orig))

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as f:
            f.write("id,name,start,end,parent,problem\n")
            for k, s in enumerate(self.spans):
                f.write(f"{k},{s.name},{s.start:.9f},{s.end:.9f},"
                        f"{s.parent},{s.problem}\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from one pass worth of spans
# ---------------------------------------------------------------------------

LAYERS = ("flow", "operators", "grids", "geometry", "domains", "monitors",
          "cli", "oracles")

PER_LAYER = {
    # name: unit
    "flow.steps": "count",
    "flow.residual_evals": "count",
    "flow.linear_solves": "count",
    "flow.linear_solve_s": "s",
    "flow.useful_solve_ratio": "ratio",
    "flow.jacobian_nnz": "count",
    "flow.self_s": "s",
    "operators.g_value_calls": "count",
    "operators.g_value_s": "s",
    "operators.g_derivatives_s": "s",
    "operators.nodes_evaluated": "count",
    "operators.structure_report_s": "s",
    "operators.self_s": "s",
    "grids.build_s": "s",
    "grids.jet_evals": "count",
    "grids.jet_s": "s",
    "grids.self_s": "s",
    "geometry.curvature_s": "s",
    "geometry.pointwise_calls": "count",
    "geometry.pointwise_s": "s",
    "geometry.self_s": "s",
    "domains.defining_jet_calls": "count",
    "domains.defining_jet_s": "s",
    "domains.self_s": "s",
    "monitors.records": "count",
    "monitors.observe_s": "s",
    "monitors.evolution_residual_s": "s",
    "monitors.obliqueness_s": "s",
    "monitors.eps0_s": "s",
    "monitors.self_s": "s",
    "cli.artifact_write_s": "s",
    "cli.artifact_bytes": "B",
    "cli.report_s": "s",
    "cli.check_s": "s",
    "cli.self_s": "s",
    "oracles.shooting_s": "s",
    "oracles.fd_check_s": "s",
    "oracles.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _ancestors(all_spans, span):
    p = span.parent
    while p >= 0:
        yield all_spans[p]
        p = all_spans[p].parent


def solve_split(spans, first: int = 0):
    """Accepted steps, linear solves and useful solves in spans[first:]."""
    steps = [s for s in spans[first:] if s.name == "flow.step_implicit"
             and s.info is not None]
    solves = sum(1 for s in spans[first:] if s.name == "linalg.spsolve")
    useful = sum(s.info - 1 for s in steps)
    return len(steps), solves, useful


def layer_metrics(all_spans: list, first: int) -> dict:
    """Per-layer metrics over all_spans[first:] (one traced pass)."""
    spans = all_spans[first:]
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total(*names):
        """Time inside the named spans, nested ones counted once."""
        return sum(s.dur for s in named(*names)
                   if not any(a.name in names for a in _ancestors(all_spans, s)))

    def count(*names):
        return len(named(*names))

    steps, solves, useful = solve_split(all_spans, first)
    jac = by_name.get("flow.jacobian", [])
    m = {
        "flow.steps": steps,
        "flow.residual_evals": sum(
            1 for s in by_name.get("operators.g_value_many", [])
            if any(a.name == "flow.step_implicit"
                   for a in _ancestors(all_spans, s))),
        "flow.linear_solves": solves,
        "flow.linear_solve_s": total("linalg.spsolve"),
        "flow.useful_solve_ratio": useful / solves if solves else 0.0,
        "flow.jacobian_nnz": (sum(s.info for s in jac) / len(jac)) if jac else 0.0,
        "operators.g_value_calls": count("operators.g_value_many"),
        "operators.g_value_s": total("operators.g_value_many", "operators.g_value"),
        "operators.g_derivatives_s": total("operators.g_derivatives_many",
                                           "operators.g_derivatives"),
        "operators.nodes_evaluated": sum(
            s.info for s in named("operators.g_value_many",
                                  "operators.g_derivatives_many")),
        "operators.structure_report_s": total("operators.structure_report"),
        "grids.build_s": total("grids.build"),
        "grids.jet_evals": count("grids.gradient", "grids.hessian"),
        "grids.jet_s": total("grids.gradient", "grids.hessian"),
        "geometry.curvature_s": total("geometry.curvature_matrix_many",
                                      "geometry.laplace_beltrami"),
        "geometry.pointwise_calls": count("geometry.graph_geometry"),
        "geometry.pointwise_s": total("geometry.graph_geometry"),
        "domains.defining_jet_calls": count("domains.defining_jet",
                                            "domains.defining_jet_many"),
        "domains.defining_jet_s": total("domains.defining_jet",
                                        "domains.defining_jet_many"),
        "monitors.records": count("monitors.record"),
        "monitors.observe_s": total("monitors.observe"),
        "monitors.evolution_residual_s": total("monitors.evolution_residual"),
        "monitors.obliqueness_s": total("monitors.obliqueness"),
        "monitors.eps0_s": total("monitors.eps0_candidate"),
        "cli.artifact_write_s": total("cli.write_artifact"),
        "cli.artifact_bytes": sum(s.info for s in by_name.get("cli.write_artifact", [])),
        "cli.report_s": total("cli.report_command"),
        "cli.check_s": total("cli.check_command"),
        "oracles.shooting_s": total("oracles.radial_shooting"),
        "oracles.fd_check_s": total("oracles.fd_check"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s.self_s for s in spans if s.layer == layer)
    return m
