"""gaussflow benchmark: time to translator on four workloads.

    python3 perfbench/run.py --workload disk2d --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see NOTES.md). The
last line of standard output is one JSON object. ``--workload all``
runs every workload in its own process and prints one table.

Passes run back to back until ``--seconds`` have elapsed (at least
MIN_PASSES of them); timings are medians over passes, scaled to a
reference host speed (calibration.py). BLAS is pinned to one thread
before NumPy loads: the solver's BLAS calls are small, and extra BLAS
threads on a small shared machine only add noise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_PASSES = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "translator_s": "s",
              "peak_rss_mb": "MB"}


def import_gaussflow() -> SimpleNamespace:
    """The gaussflow package and the modules the tracer instruments."""
    from tracer import LAYERS

    pkg = importlib.import_module("gaussflow")
    return SimpleNamespace(package=pkg, **{
        m: importlib.import_module(f"gaussflow.{m}") for m in LAYERS})


def run_workload(args) -> dict:
    from tracer import LAYERS, PER_LAYER, Tracer, layer_metrics
    from workloads import Workload

    gf = import_gaussflow()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    wl = Workload(args.workload, args.seed, workdir)
    try:
        wl.prepare(gf)
        wl.bind(gf)

        tracer = Tracer() if args.trace else None
        package = {m: getattr(gf, m) for m in LAYERS}
        package["gaussflow"] = gf.package
        plain, traced, layers, split = [], [], [], {}
        t_start = time.perf_counter()
        while (time.perf_counter() - t_start < args.seconds
               or len(plain) < (1 if tracer else MIN_PASSES)
               or (tracer and not traced)):
            gc.collect()
            if tracer is None or len(traced) >= len(plain):
                plain.append(wl.run_pass(gf))
                continue
            first = len(tracer.spans)
            tracer.install(package)
            try:
                traced.append(wl.run_pass(gf, tracer))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer.spans, first))
            if len(traced) == 1:
                split = per_problem_split(tracer.spans, first)
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    outcomes = [o for p in passes for o in p.outcomes]
    failures = [o for o in outcomes if o.failure]
    failures += determinism_failures(passes)
    speed_errs = [o.speed_err for o in outcomes if o.speed_err is not None]
    report = {
        "passes": len(plain), "traced_passes": len(traced),
        "outcomes": plain[0].outcomes, "failures": failures,
        "attempted": len(outcomes), "failed": len(failures),
        "speed_err": max(speed_errs) if speed_errs else None,
        "split": split,
        "walls": [p.measured("wall_s") for p in plain],
        "scaled_walls": [p.scaled("wall_s") for p in plain],
        "translator_s": [p.scaled("translator_s") for p in plain],
    }
    wall = statistics.median(p.measured("wall_s") for p in plain)
    if tracer is None:
        report["measured"] = {
            "wall_s": wall,
            "setup_s": statistics.median(p.measured("setup_s") for p in plain),
            "calibration_s": statistics.median(
                k for p in plain for k in p.clock.kernel),
        }
        report["metrics"] = {
            "wall_s": statistics.median(report["scaled_walls"]),
            "setup_s": statistics.median(p.scaled("setup_s") for p in plain),
            "translator_s": statistics.median(report["translator_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report["units"] = END_TO_END
    else:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(p.measured("wall_s") for p in traced) - wall)
        report["metrics"] = {k: metrics[k] for k in PER_LAYER}
        report["units"] = PER_LAYER
    return report


def per_problem_split(spans, first):
    """Steps, solves and useful-solve ratio per problem of one traced pass."""
    from tracer import solve_split

    by_problem = {}
    for k in range(first, len(spans)):
        by_problem.setdefault(spans[k].problem, []).append(spans[k])
    out = {}
    for pid, group in by_problem.items():
        steps, solves, useful = solve_split(group)
        if solves:
            out[pid] = (steps, solves, useful / solves)
    return out


def determinism_failures(passes):
    """Every pass, traced or not, must give bit-identical C_inf per problem."""
    from workloads import Outcome

    seen, bad = {}, []
    for p in passes:
        for o in p.outcomes:
            if o.c_inf is None:
                continue
            first = seen.setdefault(o.pid, o.c_inf)
            if o.c_inf != first:
                bad.append(Outcome(o.pid, o.c_inf,
                                   failure=f"C_inf {o.c_inf!r} differs from "
                                           f"an earlier pass ({first!r})"))
    return bad


def print_report(args, rep):
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  "
          f"passes {rep['passes']} untraced, {rep['traced_passes']} traced")
    for o in rep["outcomes"]:
        c = "" if o.c_inf is None else f"C_inf {o.c_inf:.17g}"
        err = "" if o.speed_err is None else f"  speed_err {o.speed_err:.3e}"
        print(f"  problem {o.pid:<12} {c}{err}")
    for pid, (steps, solves, ratio) in rep["split"].items():
        print(f"  split   {pid:<12} steps {steps}  linear solves {solves}  "
              f"useful ratio {ratio:.3f}")
    for o in rep["failures"]:
        print(f"  FAILED  {o.pid}: {o.failure}")
    print("  pass walls (s): " + " ".join(f"{w:.3f}" for w in rep["walls"]))
    print("  scaled pass walls (s): "
          + " ".join(f"{w:.3f}" for w in rep["scaled_walls"]))
    for name, value in rep.get("measured", {}).items():
        print(f"  {name + ' (measured)':<30} {value:.6g} s")
    for name, value in rep["metrics"].items():
        print(f"  {name:<30} {value:.6g} {rep['units'][name]}")
    err = rep["speed_err"]
    print(f"  {'speed_err':<30} {'n/a' if err is None else f'{err:.6g}'}"
          "  (max |C_inf - C_ref|, gated, not a JSON metric)")
    print(f"  {'fail_frac':<30} {rep['failed'] / rep['attempted']:.6g}"
          f"  ({rep['failed']} of {rep['attempted']} problems)")


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    from workloads import NAMES

    rows, status = [], 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        for metric, v in result["metrics"].items():
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "fail_frac", result["failed"] / result["attempted"],
                     "ratio"))
    print(f"\n{'workload':<14}{'metric':<32}{'value':>14}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:<14}{metric:<32}{value:>14.6g}  {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaussflow" / "__init__.py").is_file():
        print(f"error: no gaussflow sources under {SRC}; run from the root "
              "of a gaussflow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import NAMES

    if args.workload == "all":
        return run_all(args)
    if args.workload not in NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(NAMES)} or all", file=sys.stderr)
        return 2

    rep = run_workload(args)
    print_report(args, rep)
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": rep["units"][k]}
                    for k, v in rep["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
