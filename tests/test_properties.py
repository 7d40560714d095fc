"""Property tests: config files round-trip exactly, and the stroke spans of
any valid schedule tile its time axis, with the detuning continuous across
their boundaries."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from omcool.config import load_config_file, parse_cycle_config
from omcool.schedule import CycleSchedule, Stroke, StrokeKind, stroke_walk

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def system(draw):
    """A params section that passes every ``SystemParams`` check."""
    omega_b = draw(st.floats(0.5, 1e4, **finite))
    delta_f = -draw(st.floats(0.1, 1e4, **finite))
    delta_i = delta_f * draw(st.floats(1.01, 50.0, **finite))
    # a tiny g leaves no representable gap at the crossing, which an
    # adiabatic ramp needs (g = 0 itself is valid without one)
    g = draw(st.just(0.0) | st.floats(1e-3, 0.99)) * 0.5 * math.sqrt(abs(delta_f) * omega_b)
    n_targets = draw(st.integers(0, 2))
    rate = st.floats(0.0, 1e3, **finite)
    occupation = st.floats(0.0, 20.0, **finite)
    return {
        "omega_b": omega_b, "g": g, "kappa": draw(rate), "gamma": draw(rate),
        "n_a": draw(occupation), "n_b": draw(occupation),
        "delta_i": delta_i, "delta_f": delta_f, "omega_0": draw(rate),
        "delta_targets": draw(st.lists(st.floats(0.1, 1e4, **finite),
                                       min_size=n_targets, max_size=n_targets)),
        "n_targets": draw(st.lists(occupation, min_size=n_targets, max_size=n_targets)),
    }


@st.composite
def stroke_list(draw, params, shapes=("linear", "cosine")):
    """One cycle of strokes that starts and ends at ``delta_i``."""
    n_targets = len(params["delta_targets"])
    duration = st.floats(1e-3, 10.0, **finite)
    strokes, at_start = [], True
    for kind in draw(st.lists(st.sampled_from(["ramp", "exchange", "hold"]),
                              min_size=1, max_size=6)):
        if kind == "exchange" and n_targets == 0:
            kind = "hold"
        if kind == "ramp":
            d0, d1 = ((params["delta_i"], params["delta_f"]) if at_start
                      else (params["delta_f"], params["delta_i"]))
            strokes.append({"kind": "ramp", "duration": draw(duration), "delta_start": d0,
                            "delta_end": d1, "shape": draw(st.sampled_from(shapes))})
            at_start = not at_start
        elif kind == "exchange":
            strokes.append({"kind": "exchange", "duration": draw(duration),
                            "target": draw(st.integers(0, n_targets - 1)),
                            "amplitude": draw(st.floats(0.0, 1e3, **finite))})
        else:
            strokes.append({"kind": "hold", "duration": draw(duration)})
    if not at_start:
        strokes.append({"kind": "ramp", "duration": draw(duration),
                        "delta_start": params["delta_f"], "delta_end": params["delta_i"],
                        "shape": draw(st.sampled_from(shapes))})
    return strokes


@st.composite
def cycle_config(draw):
    params = draw(system())
    n_targets = len(params["delta_targets"])
    occupation = st.floats(0.0, 20.0, **finite)
    return {
        "schema_version": 1,
        "description": draw(st.text(max_size=20)),
        "params": params,
        "schedule": {"type": "strokes", "cycles": draw(st.integers(1, 4)),
                     "delta_start": params["delta_i"],
                     "strokes": draw(stroke_list(params))},
        "initial": {"basis": draw(st.sampled_from(["bare", "polariton"])),
                    "pair": draw(st.lists(occupation, min_size=2, max_size=2)),
                    "targets": draw(st.lists(occupation, min_size=n_targets,
                                             max_size=n_targets))},
        "engine": "gaussian",
        "integrator": {"tol": draw(st.floats(1e-14, 1e-2, **finite)),
                       "samples_per_stroke": draw(st.integers(1, 64))},
    }


def as_config(parsed, description):
    """The config dict that ``parse_cycle_config`` read ``parsed`` from."""
    p, sched = parsed.params, parsed.schedule
    strokes = []
    for s in sched.strokes:
        if s.kind is StrokeKind.RAMP_DETUNING:
            strokes.append({"kind": "ramp", "duration": s.duration, "delta_start": s.delta_start,
                            "delta_end": s.delta_end, "shape": s.shape})
        elif s.kind is StrokeKind.EXCHANGE_PULSE:
            strokes.append({"kind": "exchange", "duration": s.duration, "target": s.target,
                            "amplitude": s.amplitude})
        else:
            strokes.append({"kind": "hold", "duration": s.duration})
    return {
        "schema_version": 1,
        "description": description,
        "params": {name: getattr(p, name) for name in (
            "omega_b", "g", "kappa", "gamma", "n_a", "n_b", "delta_i", "delta_f", "omega_0")}
        | {"delta_targets": list(p.delta_targets), "n_targets": list(p.n_targets)},
        "schedule": {"type": "strokes", "cycles": sched.cycle_count,
                     "delta_start": sched.delta_start, "strokes": strokes},
        "initial": {"basis": parsed.initial.basis, "pair": list(parsed.initial.pair),
                    "targets": list(parsed.initial.targets)},
        "engine": parsed.engine,
        "integrator": {"tol": parsed.tol, "samples_per_stroke": parsed.samples_per_stroke},
    }


@settings(max_examples=60, deadline=None)
@given(cycle_config())
def test_config_round_trips_through_a_file(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        parsed = parse_cycle_config(load_config_file(path))
    assert as_config(parsed, cfg["description"]) == cfg
    assert parse_cycle_config(cfg) == parsed


@st.composite
def schedule(draw):
    params = draw(system())
    shapes = ("linear", "cosine", "adiabatic") if params["g"] > 0 else ("linear", "cosine")
    strokes = []
    for s in draw(stroke_list(params, shapes)):
        if s["kind"] == "ramp":
            pair = (params["omega_b"], params["g"]) if s["shape"] == "adiabatic" else None
            strokes.append(Stroke.ramp(s["delta_start"], s["delta_end"], s["duration"],
                                       shape=s["shape"], pair=pair))
        elif s["kind"] == "exchange":
            strokes.append(Stroke.exchange(s["target"], s["amplitude"], s["duration"]))
        else:
            strokes.append(Stroke.hold(s["duration"]))
    return CycleSchedule(strokes=tuple(strokes), cycle_count=draw(st.integers(1, 64)),
                         delta_start=params["delta_i"])


@settings(max_examples=60, deadline=None)
@given(schedule())
def test_delta_is_continuous_across_stroke_boundaries(sched):
    spans = sched.spans()
    for left, right in zip(spans[:-1], spans[1:]):
        both = np.concatenate((left.delta_values_local(np.array([left.duration])),
                               right.delta_values_local(np.array([0.0]))))
        assert np.all(both == left.delta1) and left.delta1 == right.delta0
        assert sched.delta_at(right.t_start) == right.delta0
    assert sched.delta_at(0.0) == sched.delta_start


@settings(max_examples=60, deadline=None)
@given(schedule(), st.lists(st.floats(0.0, 1.0, **finite), min_size=1, max_size=8))
def test_vectorized_delta_matches_scalar(sched, fractions):
    # delta_at routes each time to the span stroke_index picks and evaluates
    # the span-local profile the engines integrate with, bitwise
    spans = sched.spans()
    times = np.array(fractions) * sched.total_duration
    got = sched.delta_at(times)
    for t, d, k in zip(times, got, sched.stroke_index(times)):
        span = spans[k]
        assert span.t_start <= t and (t < span.t_end or k == len(spans) - 1)
        assert d == span.delta_values_local(np.array([t - span.t_start]))[0]
        assert sched.delta_at(float(t)) == d


@settings(max_examples=60, deadline=None)
@given(schedule(), st.integers(1, 8))
def test_spans_tile_and_every_walk_strictly_increases(sched, samples):
    spans = sched.spans()
    for left, right in zip(spans[:-1], spans[1:]):
        assert right.t_start == left.t_end
    assert sched.total_duration == spans[-1].t_end
    walk = stroke_walk(sched, 0.0, sched.total_duration, samples)
    assert [span.index for span, _, _ in walk] == list(range(len(spans)))
    times = np.concatenate([[0.0]] + [ends for _, _, ends in walk])
    assert np.all(np.diff(times) > 0)
    for span, seg_start, ends in walk:
        assert seg_start == span.t_start and ends.size == samples and ends[-1] == span.t_end
