"""The benchmark's seed-0 gate, checked in the test suite.

``perfbench/run.py`` fails a seed-0 pass whose C_inf moves more than
1e-9 from ``perfbench/reference.json``. The flow problems of that gate
are run here with default controls, as the benchmark runs them, so a
change that moves C_inf past the bound fails before the benchmark runs.
"""

import json
from pathlib import Path

import pytest

from gaussflow import cli, flow

REFERENCE = json.loads((Path(__file__).resolve().parent.parent
                        / "perfbench" / "reference.json").read_text())
C_INF_TOL = 1e-9

BALL = "ball 0.0 0.0 1.0"
ELLIPSE = f"ellipse 0.0 0.0 {1 / 0.4**2!r} 0.0 {1 / 0.25**2!r}"

# (workload, problem): (signature, omega, omega_tilde, grid)
PROBLEMS = {
    ("disk2d", "ball"): ("minkowski", BALL, "ball 0.0 0.0 0.5", (32, 64)),
    ("disk2d", "ellipse"): ("minkowski", BALL, ELLIPSE, (32, 64)),
    ("audit_cli", "ellipse"): ("minkowski", BALL, ELLIPSE, (24, 48)),
    **{("line1d", f"mink1d-{n}"): ("minkowski", "interval 0.0 1.0",
                                   "interval -0.5 0.5", n)
       for n in (401, 801, 1601)},
    **{("line1d", f"eucl1d-{n}"): ("euclidean", "interval 0.0 1.0",
                                   "interval -1.0 1.0", n)
       for n in (401, 801, 1601)},
}


def test_every_flow_reference_is_covered():
    flows = {(w, p) for w, refs in REFERENCE.items() if w != "oracle_check"
             for p in refs}
    # audit_cli's 1D problem is line1d's at N = 801
    assert flows - set(PROBLEMS) == {("audit_cli", "mink1d-801")}
    assert (REFERENCE["audit_cli"]["mink1d-801"]
            == REFERENCE["line1d"]["mink1d-801"])


@pytest.mark.parametrize("key", sorted(PROBLEMS), ids="/".join)
def test_seed0_c_inf_matches_reference(key):
    sig, omega, omega_tilde, grid = PROBLEMS[key]
    state = flow.initialize(cli.parse_domain_spec(omega),
                            cli.parse_domain_spec(omega_tilde), grid, sig)
    c_inf = flow.run_to_translator(state).c_inf
    workload, pid = key
    assert abs(c_inf - REFERENCE[workload][pid]) <= C_INF_TOL
