"""One traced run of acceptance run 3, to set beside the profile figures
in ROADMAP.md (solve, assembly and monitor shares; solve count).

    python3 perfbench/reconcile.py

Run 3 is the 2D radial Minkowski problem (unit ball onto the half ball,
64 x 128 polar grid) with a RunMonitor at cadence 1, exactly as the
acceptance suite builds it. It takes about a minute on two cores.
"""

from __future__ import annotations

import sys
import time

import run  # pins BLAS threads before NumPy loads

from tracer import LAYERS, Tracer, layer_metrics


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    gf = run.import_gaussflow()
    package = {m: getattr(gf, m) for m in LAYERS}
    package["gaussflow"] = gf.package
    tracer = Tracer()
    tracer.install(package)
    t0 = time.perf_counter()
    try:
        dom = gf.domains
        state0 = gf.flow.initialize(dom.ConvexDomain.ball([0, 0], 1.0),
                                    dom.ConvexDomain.ball([0, 0], 0.5),
                                    (64, 128), "minkowski")
        monitor = gf.monitors.RunMonitor(state0, cadence=1)
        result = gf.flow.run_to_translator(state0, on_accept=monitor.observe)
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - t0
    m = layer_metrics(tracer.spans, 0)
    attempts = [s for s in tracer.spans if s.name == "flow.newton_solve"]
    failed = sum(1 for s in attempts if not s.info)
    jac = [s for s in tracer.spans if s.name == "flow.jacobian"]
    jac_self = sum(s.self_s for s in jac)
    solves = m["flow.linear_solves"]
    useful = m["flow.useful_solve_ratio"] * solves
    print(f"run 3 traced: C_inf {result.c_inf:.12g}, {result.steps} steps, "
          f"wall {wall:.1f} s")
    print(f"  linear solves    {solves} ({useful:.0f} useful, "
          f"{solves - useful:.0f} wasted), {m['flow.linear_solve_s']:.1f} s = "
          f"{m['flow.linear_solve_s'] / wall:.0%}, "
          f"{m['flow.linear_solve_s'] / solves * 1e3:.0f} ms each")
    print(f"  Newton attempts  {len(attempts)} ({failed} failed)")
    jac_all = sum(s.dur for s in jac)
    print(f"  Jacobian assembly {jac_all:.1f} s = {jac_all / wall:.0%} with its "
          f"operator calls, {jac_self:.1f} s = {jac_self / wall:.0%} in sparse "
          f"products alone; {jac_all / len(jac) * 1e3:.0f} ms each over {len(jac)}")
    print(f"  monitors         {m['monitors.observe_s']:.1f} s = "
          f"{m['monitors.observe_s'] / wall:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
