"""Spans around omcool's public functions, recorded from outside the package.

The traced pass replaces the module attributes that callers look up at call
time with thin wrappers.  A name imported into several modules is bound once
per module, so each binding site in ``PATCHES`` gets its own wrapper around
the original function; nothing is wrapped twice.  Every call records one
span (layer name, parent span, start, end) in memory; ``Tracer.summary``
reduces them to per-layer call counts and self times when the pass ends.

A layer's self time is its span minus the time its child spans cover.  The
spans of one process are strictly nested (the workloads are single-threaded),
so the covered time is the sum of the children's durations.

The tracing overhead is measured in the traced process itself: the number of
spans times the calibrated cost of one span, plus the time the result hooks
took.  (The difference between a traced and an untraced pass would be
swamped by the machine's run-to-run drift, which exceeds the overhead.)
"""

from __future__ import annotations

import functools
import importlib
import time

#: (module, attribute path, layer).  An attribute path with a dot patches a
#: class attribute, i.e. a method.
PATCHES = (
    ("omcool.cli", "main", "cli.main"),
    ("omcool.cli", "load_config_file", "config.parse"),
    ("omcool.cli", "parse_cycle_config", "config.parse"),
    ("omcool.config", "build_default_cycle", "schedule.build_cycle"),
    ("omcool.schedule", "build_default_cycle", "schedule.build_cycle"),
    ("omcool.config", "adiabatic_ramp_profile", "schedule.ramp_profile"),
    ("omcool.schedule", "adiabatic_ramp_profile", "schedule.ramp_profile"),
    ("omcool.schedule", "polariton_spectrum", "polariton.spectrum"),
    ("omcool.polariton", "polariton_spectrum", "polariton.spectrum"),
    ("omcool.runner", "bogoliubov_basis", "polariton.basis"),
    ("omcool.gaussian", "propagate", "gaussian.propagate"),
    ("omcool.fock", "ModeOperators.__init__", "fock.operators"),
    ("omcool.fock", "propagate_fock", "fock.propagate"),
    ("omcool.fock", "mode_occupations", "fock.observables"),
    ("omcool.fock", "quadrature_moments", "fock.observables"),
    ("omcool.fock", "FockState.validate", "fock.checks"),
    ("omcool.runner", "run_protocol", "runner.run_protocol"),
    ("omcool.cli", "run_protocol", "runner.run_protocol"),
    ("omcool.runner", "analyze_cycles", "runner.analyze"),
    ("omcool.cli", "analyze_cycles", "runner.analyze"),
    ("omcool.runner", "adiabaticity_probe", "runner.probe"),
)

clock = time.monotonic  # the clock run.py and child.py stamp passes with


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.trajectories: list[dict] = []
        self.hook_s = 0.0

    def wrap(self, layer, fn, after=None):
        """Return ``fn`` wrapped in a span named ``layer``.

        ``after(args, kwargs, result)`` runs once the span has closed, so its
        own cost is charged to the caller's span, not to ``layer``.
        """
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(layer)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                t = clock()
                after(args, kwargs, result)
                self.hook_s += clock() - t
            return result

        return traced

    def span(self, layer, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``layer``."""
        return self.wrap(layer, fn)(*args, **kwargs)

    def install(self):
        """Patch every binding site in ``PATCHES``."""
        for module_name, attr, layer in PATCHES:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            after = _AFTER.get(layer)
            if after is not None:
                after = functools.partial(after, self)
            setattr(owner, name, self.wrap(layer, getattr(owner, name), after))

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def summary(self, window=None):
        """Per-layer call count, total self time, and self time inside ``window``.

        ``window`` is a (start, end) pair on the tracer's clock; the windowed
        self time lets the caller check that the layers account for the
        measured run time.
        """
        n = len(self.names)
        child_time = [0.0] * n
        child_in_window = [0.0] * n
        lo, hi = window if window is not None else (float("-inf"), float("inf"))
        inside = [max(0.0, min(e, hi) - max(s, lo)) for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
                child_in_window[p] += inside[i]
        layers: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            rec = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "window_self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += self.ends[i] - self.starts[i] - child_time[i]
            rec["window_self_s"] += inside[i] - child_in_window[i]
        return {"layers": layers, "counters": self.counters,
                "trajectories": self.trajectories, "spans": n,
                "overhead_s": n * span_cost() + self.hook_s}


def span_cost(calls: int = 20000) -> float:
    """Measured cost of one span: a wrapped call minus a bare call."""

    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    t0 = clock()
    for _ in range(calls):
        traced()
    t1 = clock()
    for _ in range(calls):
        noop()
    t2 = clock()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / calls)


def boundary_occupations(traj) -> list[list[float]]:
    """Bare-mode occupations at every stroke boundary of a Trajectory."""
    import numpy as np

    idx = [int(np.argmin(np.abs(traj.times - t))) for t in traj.markers]
    return traj.occupations[idx].tolist()


def _after_propagate(tracer, args, kwargs, result):
    state, schedule, t_end = args[:3]
    tracer.count("gaussian.strokes", sum(
        1 for s in schedule.spans() if s.t_end > state.time and s.t_start < t_end))


def _after_run_protocol(tracer, args, kwargs, traj):
    import numpy as np

    rec = {"engine": traj.engine, "boundary_occ": boundary_occupations(traj),
           "min_physicality": float(np.min(traj.physicality))}
    if traj.leakage is not None:
        rec["max_leakage"] = float(np.max(traj.leakage))
    tracer.trajectories.append(rec)


_AFTER = {
    "gaussian.propagate": _after_propagate,
    "runner.run_protocol": _after_run_protocol,
}
