"""The benchmark's traced pass patches omcool functions by name; a refactor
that drops one of those bindings must fail here rather than only under
``perfbench/run.py --trace 1``.  The tracer module is parsed, not imported,
so the test never writes into ``perfbench/``."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
