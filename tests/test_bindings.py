"""Package names the benchmark harness binds from outside.

``perfbench/tracer.py`` wraps every ``TARGETS`` entry with ``getattr``
and no fallback, and ``perfbench/workloads.py`` times and calls CLI
functions by name, so a renamed or deleted function breaks
``perfbench/run.py`` (``--trace 1`` at once). These tests read the two
files and check that every name they bind resolves on the package.
"""

import ast
import importlib
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def tracer_targets():
    """(module, attribute path) of every ``TARGETS`` entry in tracer.py."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)):
            return [(owner, path) for owner, path, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracer.py defines no TARGETS list")


def workload_bindings():
    """(module, attribute) of every ``gf.<module>.<attr>`` use and every
    ``_Stopwatch(gf.<module>, "<attr>")`` in workloads.py."""
    text = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\bgf\.(\w+)\.(\w+)", text))
    names |= set(re.findall(r'_Stopwatch\(gf\.(\w+), "(\w+)"\)', text))
    return names


def test_tracer_targets_resolve():
    missing = []
    for owner, path in tracer_targets():
        module = importlib.import_module(f"gaussflow.{owner}")
        if "." in path:  # a method, wrapped on the class that defines it
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and callable(vars(cls).get(meth))
        else:
            found = callable(getattr(module, path, None))
        if not found:
            missing.append(f"{owner}.{path}")
    assert not missing, f"tracer targets missing from the package: {missing}"


def test_workload_bindings_resolve():
    names = workload_bindings()
    assert {("cli", "initialize"), ("cli", "run_to_translator"),
            ("cli", "parse_domain_spec")} <= names
    missing = [f"{module}.{attr}" for module, attr in sorted(names)
               if not callable(getattr(importlib.import_module(f"gaussflow.{module}"),
                                       attr, None))]
    assert not missing, f"workload bindings missing from the package: {missing}"
