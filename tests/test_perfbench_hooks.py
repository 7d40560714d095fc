"""The benchmark's passes call omcool by name: the traced pass patches
functions, the design sweep calls module attributes, and the tracer's hooks
read Trajectory fields.  A refactor that drops one of those names must fail
here rather than only under ``perfbench/run.py``.  The perfbench modules are
parsed, not imported, so the test never writes into ``perfbench/``."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
CHILD = PERFBENCH / "child.py"


def _patches():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PATCHES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no PATCHES")


@pytest.mark.parametrize("module, attr, layer", _patches())
def test_traced_binding_resolves(module, attr, layer):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module}.{attr} ({layer}) is not callable"


def test_propagate_takes_state_schedule_t_end_first():
    # the tracer counts strokes from the first three positional arguments
    from omcool.gaussian import propagate

    assert list(inspect.signature(propagate).parameters)[:3] == ["state", "schedule", "t_end"]


def test_kernel_backend_is_reported():
    from omcool import _kernels

    assert isinstance(_kernels.BACKEND, str) and _kernels.BACKEND


def _child_reads():
    """(module, attribute) of every omcool attribute ``child.py`` reads:
    ``alias.name`` for each ``from omcool import module as alias``,
    ``omcool.module.name`` chains, and the ``arm(module, "name")`` hooks."""
    tree = ast.parse(CHILD.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "omcool":
            for a in node.names:
                aliases[a.asname or a.name] = f"omcool.{a.name}"
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                reads.add((aliases[node.value.id], node.attr))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
              and isinstance(node.value.value, ast.Name) and node.value.value.id == "omcool"):
            reads.add((f"omcool.{node.value.attr}", node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "arm"):
            module, name = node.args
            reads.add((f"omcool.{module.attr}", name.value))
    return sorted(reads)


def test_child_reads_resolve():
    reads = _child_reads()
    modules = {m for m, _ in reads}
    assert {"omcool.runner", "omcool.schedule", "omcool.polariton",
            "omcool.params"} <= modules
    missing = [f"{m}.{a}" for m, a in reads if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_tracer_hooks_read_trajectory_fields():
    # _after_run_protocol and the boundary_occupations it calls take a Trajectory
    from omcool.runner import Trajectory

    read = set()
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name in (
                "_after_run_protocol", "boundary_occupations"):
            read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                     and isinstance(n.value, ast.Name) and n.value.id == "traj"}
    assert {"engine", "physicality", "leakage", "times", "markers"} <= read
    assert read <= {f.name for f in dataclasses.fields(Trajectory)}
