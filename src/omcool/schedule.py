"""Time-ordered stroke schedules that drive the cooling cycle.

A schedule is one cycle's worth of strokes replayed ``cycle_count`` times.
The laser detuning delta(t) is piecewise defined: ramp strokes interpolate
between their endpoints, exchange and hold strokes keep the detuning
wherever the previous stroke left it.  The parametric coupling omega_0(t)
is a square pulse: nonzero only during an exchange stroke, and only on that
stroke's single target mode.

Three ramp profiles are available.  ``linear`` and ``cosine`` are the
obvious parametrizations of the fractional progress u.  ``adiabatic`` is a
rate-limited passage: the sweep rate is proportional to the square of the
local polariton gap, so the ramp slows down around the avoided crossing at
delta = -omega_b where Landau-Zener transitions between the branches would
otherwise occur.  For a crossing with half-gap g the residual transition
probability scales as exp(-2 pi g^2 / rate_at_crossing); a uniform-rate
ramp spends too little time at the crossing even when the total duration
comfortably satisfies tau >> 1/(2g).  The adiabatic profile depends on
omega_b and g, so it is stored with the stroke as a sampled table.

Evaluation conventions: one ownership rule and one evaluator.
``CycleSchedule.stroke_index`` bins a time that falls exactly on a stroke
boundary into the *starting* stroke (half-open [start, end) intervals, with
the final instant of the schedule clamped into the last stroke).  delta(t)
is always ``StrokeSpan.delta_values_local`` of the owning span at the local
time t - t_start, the same call the engines integrate with;
``CycleSchedule.delta_at`` only routes each time to its span.  Detuning
continuity across boundaries is enforced at construction, so either-side
evaluation at a boundary gives exactly equal values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import AdiabaticityWarning, ThermalizationWarning
from .polariton import polariton_spectrum

if TYPE_CHECKING:
    from .params import SystemParams

RAMP_SHAPES = ("linear", "cosine", "adiabatic")


class StrokeKind(Enum):
    RAMP_DETUNING = "ramp_detuning"
    EXCHANGE_PULSE = "exchange_pulse"
    HOLD = "hold"


def adiabatic_ramp_profile(
    delta_start: float, delta_end: float, omega_b: float, g: float, knots: int = 1025
) -> tuple[float, ...]:
    """Detuning profile of a rate-limited passage, sampled on a uniform u grid.

    The profile follows d(delta)/du proportional to (omega_A - omega_B)^2, so
    the fraction of the stroke spent near the avoided crossing grows as the
    gap shrinks.  Requires g > 0 (with g = 0 there is no crossing to respect;
    use a linear ramp instead).  A decreasing ramp is the increasing one
    reversed, so a ramp and its return pass through the same detunings.
    """
    if g <= 0:
        raise ValueError("adiabatic ramp profile needs g > 0; use shape='linear' for g = 0")
    if delta_start > delta_end:
        return adiabatic_ramp_profile(delta_end, delta_start, omega_b, g, knots)[::-1]
    dense = np.linspace(delta_start, delta_end, 8 * knots)
    om_a, om_b = polariton_spectrum(dense, omega_b, g)
    weight = 1.0 / (om_a - om_b)**2
    # cumulative time along the sweep (trapezoid rule), normalized to u in [0, 1]
    seg = 0.5 * (weight[1:] + weight[:-1]) * np.abs(np.diff(dense))
    u_of_delta = np.concatenate(([0.0], np.cumsum(seg)))
    u_of_delta /= u_of_delta[-1]
    u_grid = np.linspace(0.0, 1.0, knots)
    profile = np.interp(u_grid, u_of_delta, dense)
    profile[0] = delta_start
    profile[-1] = delta_end
    return tuple(profile)


@dataclass(frozen=True)
class Stroke:
    """One stroke of the cycle.  Use the ``ramp``/``exchange``/``hold``
    constructors rather than filling fields by hand."""

    kind: StrokeKind
    duration: float
    delta_start: float | None = None
    delta_end: float | None = None
    shape: str = "linear"
    target: int | None = None
    amplitude: float = 0.0
    profile: tuple[float, ...] | None = None
    knots: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("duration", "delta_start", "delta_end", "amplitude"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"stroke {name} must be finite, got {value}")
        if self.duration <= 0:
            raise ValueError(f"stroke duration must be positive, got {self.duration}")
        if self.kind is StrokeKind.RAMP_DETUNING:
            if self.delta_start is None or self.delta_end is None:
                raise ValueError("ramp stroke needs delta_start and delta_end")
            if self.delta_start >= 0 or self.delta_end >= 0:
                raise ValueError("ramp endpoints must stay red-detuned (delta < 0)")
            if self.shape not in RAMP_SHAPES:
                raise ValueError(f"unknown ramp shape {self.shape!r}; use one of {RAMP_SHAPES}")
            if self.shape == "adiabatic":
                if self.profile is None or len(self.profile) < 2:
                    raise ValueError("adiabatic ramp needs a sampled detuning profile")
                if self.profile[0] != self.delta_start or self.profile[-1] != self.delta_end:
                    raise ValueError("profile endpoints must match the ramp endpoints")
                if not all(map(math.isfinite, self.profile)):
                    raise ValueError("adiabatic ramp profile must be finite")
                object.__setattr__(self, "profile", tuple(self.profile))
                # the (progress, detuning) table ramp_values interpolates
                table = np.asarray(self.profile)
                object.__setattr__(self, "knots", (np.linspace(0.0, 1.0, table.size), table))
        elif self.kind is StrokeKind.EXCHANGE_PULSE:
            if self.target is None or self.target < 0:
                raise ValueError("exchange stroke needs a target-mode index")
            if self.amplitude < 0:
                raise ValueError("exchange amplitude must be non-negative")

    @classmethod
    def ramp(cls, delta_start: float, delta_end: float, duration: float,
             shape: str = "linear", profile=None) -> "Stroke":
        return cls(StrokeKind.RAMP_DETUNING, duration, delta_start=delta_start,
                   delta_end=delta_end, shape=shape, profile=profile)

    @classmethod
    def exchange(cls, target: int, amplitude: float, duration: float) -> "Stroke":
        return cls(StrokeKind.EXCHANGE_PULSE, duration, target=target, amplitude=amplitude)

    @classmethod
    def hold(cls, duration: float) -> "Stroke":
        return cls(StrokeKind.HOLD, duration)


def ramp_values(d0: float, d1: float, shape: str, u: np.ndarray, knots=None) -> np.ndarray:
    """Vectorized ramp profile with clamped progress."""
    u = np.clip(u, 0.0, 1.0)
    if shape == "linear":
        vals = d0 + (d1 - d0) * u
    elif shape == "cosine":
        vals = d0 + (d1 - d0) * 0.5 * (1.0 - np.cos(np.pi * u))
    else:
        vals = np.interp(u, *knots)
    vals = np.where(u <= 0.0, d0, vals)
    return np.where(u >= 1.0, d1, vals)


@dataclass(frozen=True)
class StrokeSpan:
    """One stroke instance placed on the absolute time axis."""

    index: int
    cycle: int
    position: int
    kind: StrokeKind
    t_start: float
    t_end: float
    duration: float
    delta0: float
    delta1: float
    shape: str
    target: int | None
    amplitude: float
    knots: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    def delta_values_local(self, t_local: np.ndarray) -> np.ndarray:
        if self.kind is not StrokeKind.RAMP_DETUNING:
            return np.full(np.shape(t_local), self.delta0)
        return ramp_values(self.delta0, self.delta1, self.shape,
                           np.asarray(t_local) / self.duration, self.knots)


@dataclass(frozen=True)
class CycleSchedule:
    """A cycle of strokes starting at detuning ``delta_start``, replayed
    ``cycle_count`` times.  Its spans are its one time axis and tile it
    exactly: each span starts where the previous one ends, and ends at
    ``cycle * period`` plus the stroke's end within the cycle."""

    strokes: tuple[Stroke, ...]
    cycle_count: int
    delta_start: float

    def __post_init__(self):
        object.__setattr__(self, "strokes", tuple(self.strokes))
        if not self.strokes:
            raise ValueError("schedule needs at least one stroke")
        if self.cycle_count < 1:
            raise ValueError("cycle_count must be >= 1")
        if self.delta_start >= 0:
            raise ValueError("delta_start must be negative (red-detuned)")
        # walk the cycle once to pin per-stroke detuning endpoints and check continuity
        d0s, d1s = [], []
        current = self.delta_start
        for stroke in self.strokes:
            if stroke.kind is StrokeKind.RAMP_DETUNING:
                if stroke.delta_start != current:
                    raise ValueError(
                        "detuning discontinuity: ramp starts at "
                        f"{stroke.delta_start} but the schedule is at {current}"
                    )
                d0s.append(stroke.delta_start)
                d1s.append(stroke.delta_end)
                current = stroke.delta_end
            else:
                d0s.append(current)
                d1s.append(current)
        if self.cycle_count > 1 and current != self.delta_start:
            raise ValueError(
                f"multi-cycle schedule must close: cycle ends at {current}, "
                f"started at {self.delta_start}"
            )
        durations = np.array([s.duration for s in self.strokes])
        edges = np.concatenate(([0.0], np.cumsum(durations)))
        period = float(edges[-1])
        spans = []
        for cycle in range(self.cycle_count):
            for pos, stroke in enumerate(self.strokes):
                pulse = stroke.kind is StrokeKind.EXCHANGE_PULSE
                spans.append(StrokeSpan(
                    index=len(spans), cycle=cycle, position=pos, kind=stroke.kind,
                    t_start=spans[-1].t_end if spans else 0.0,
                    t_end=cycle * period + edges[pos + 1], duration=stroke.duration,
                    delta0=d0s[pos], delta1=d1s[pos], shape=stroke.shape, target=stroke.target,
                    amplitude=stroke.amplitude if pulse else 0.0, knots=stroke.knots))
        object.__setattr__(self, "_period", period)
        object.__setattr__(self, "_spans", tuple(spans))
        object.__setattr__(self, "_starts", np.array([s.t_start for s in spans]))

    @property
    def period(self) -> float:
        return self._period

    @property
    def total_duration(self) -> float:
        return self._spans[-1].t_end

    def stroke_index(self, times):
        """Index into ``spans()`` of the stroke that owns each time.

        Strokes own half-open intervals [start, end), and the final instant
        of the schedule falls into the last stroke.  Returns an int for a
        scalar time and an integer array for an array of times.
        """
        t = np.asarray(times, dtype=float)
        inside = (t >= 0) & (t <= self.total_duration * (1 + 1e-12))
        if not np.all(inside):
            raise ValueError(
                f"time {t[~inside][0]} outside the schedule [0, {self.total_duration}]"
            )
        # starts[0] = 0, so every time has a start at or before it
        idx = np.searchsorted(self._starts, t, side="right") - 1
        return int(idx) if idx.ndim == 0 else idx

    def delta_at(self, times):
        """Detuning at each time: the owning span's ``delta_values_local`` at
        the local time.  Returns a float for a scalar time."""
        t = np.asarray(times, dtype=float)
        idx = np.asarray(self.stroke_index(t))
        out = np.empty(t.shape)
        for k in np.flatnonzero(np.bincount(idx.ravel())):
            span, own = self._spans[k], idx == k
            out[own] = span.delta_values_local(t[own] - span.t_start)
        return float(out) if out.ndim == 0 else out

    def spans(self) -> list[StrokeSpan]:
        """All stroke instances over the full run, on the absolute time axis."""
        return list(self._spans)

    def boundaries(self) -> np.ndarray:
        """All stroke boundary times, including t = 0 and the final instant."""
        return np.append(self._starts, self._spans[-1].t_end)


def span_fmax(span: StrokeSpan, params: "SystemParams", deltas=None) -> float:
    """Largest frequency or rate of a stroke, the scale that bounds step sizes.

    The detuning enters through the stroke's end detunings, or through the
    pair ``deltas`` when given: every ramp shape is monotone, so the detunings
    at the ends of an interval of the stroke bound |delta| on that interval.
    """
    d0, d1 = (span.delta0, span.delta1) if deltas is None else deltas
    scales = [abs(d0), abs(d1), params.omega_b, params.kappa,
              params.gamma, 2.0 * params.g, span.amplitude, 1.0]
    scales.extend(params.delta_targets)
    return max(scales)


def stroke_walk(
    schedule: CycleSchedule, t_start: float, t_end: float, samples_per_stroke: int
) -> list[tuple[StrokeSpan, float, np.ndarray]]:
    """The strokes a run from ``t_start`` to ``t_end`` crosses, with its samples.

    Returns one ``(span, seg_start, ends)`` per stroke the window overlaps:
    the run enters the stroke at ``seg_start`` and records a sample at each
    of ``ends``, the last of which is where it leaves the stroke.  Each
    stroke is sampled on its own part of the window alone, at
    ``samples_per_stroke`` uniform points; linspace ends them exactly on the
    part's end, so, as the spans tile, a run's samples strictly increase.
    """
    if samples_per_stroke < 1:
        raise ValueError(f"samples_per_stroke must be at least 1, got {samples_per_stroke}")
    if not (math.isfinite(t_start) and math.isfinite(t_end)):
        raise ValueError(f"the run window [{t_start}, {t_end}] must be finite")
    if t_end < t_start:
        raise ValueError(f"t_end={t_end} precedes the state time {t_start}")
    if t_end > schedule.total_duration * (1.0 + 1e-12):
        raise ValueError(
            f"t_end={t_end} exceeds the schedule duration {schedule.total_duration}"
        )
    parts = [(span, max(span.t_start, t_start), min(span.t_end, t_end))
             for span in schedule.spans()]
    return [(span, lo, np.linspace(lo, hi, samples_per_stroke + 1)[1:])
            for span, lo, hi in parts if lo < hi]


@dataclass(frozen=True)
class Samples:
    """What either engine returns: its run sampled on the ``stroke_walk`` grid.

    ``occupations`` (S, N) are the bare-mode occupations; ``means`` (S, 2N)
    and ``covs`` (S, 2N, 2N) the quadrature moments of every mode, with
    x = (a + a^dag)/sqrt(2) and p = -i(a - a^dag)/sqrt(2).  ``physicality``
    is each sample's invariant margin: the smallest eigenvalue of
    cov + iJ/2 (Gaussian engine) or of rho (Fock engine).  ``leakage``
    (S, N) is the Fock engine's top-level population per mode, None for the
    Gaussian engine; ``final_state`` is the last sample in the engine's own
    state type.
    """

    times: np.ndarray
    occupations: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    physicality: np.ndarray
    leakage: np.ndarray | None
    final_state: object


def _check_targets(targets, params: "SystemParams") -> None:
    """Raise ValueError unless each index in ``targets`` names a target mode."""
    n_targets = len(params.delta_targets)
    for t in targets:
        if not 0 <= t < n_targets:
            raise ValueError(f"unknown target index {t}; system has {n_targets} target(s)")


def build_default_cycle(
    params: "SystemParams",
    tau1: float,
    tau2: float,
    tau3: float,
    tau4: float,
    targets: tuple[int, ...] | list[int],
    cycles: int = 1,
    ramp_shape: str = "linear",
) -> CycleSchedule:
    """Standard four-stroke cooling cycle, one sub-cycle per target.

    Each target j contributes [ramp delta_i -> delta_f over tau1; exchange
    pulse on j of amplitude omega_0 over tau2; ramp back over tau3; hold over
    tau4], and multiple targets are served sequentially within one cycle.
    Emits diagnostics (non-fatal warnings) when tau1 or tau3 is too short for
    adiabatic ramping (< 5 / (2 g)) or when tau4 * kappa < 3 leaves the fluid
    only partially rethermalized.
    """
    targets = tuple(targets)
    if not targets:
        raise ValueError("need at least one target mode")
    _check_targets(targets, params)
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target indices; each target gets one pulse per cycle")
    for name, tau in (("tau1", tau1), ("tau2", tau2), ("tau3", tau3), ("tau4", tau4)):
        if tau <= 0:
            raise ValueError(f"{name} must be positive, got {tau}")

    if params.g > 0:
        tau_adiabatic = 5.0 / (2.0 * params.g)
        if tau1 < tau_adiabatic or tau3 < tau_adiabatic:
            warnings.warn(
                f"ramp durations tau1={tau1}, tau3={tau3} are below 5/(2g)="
                f"{tau_adiabatic:.4g}; the ramps may be too fast to stay adiabatic",
                AdiabaticityWarning,
                stacklevel=2,
            )
    if tau4 * params.kappa < 3.0:
        warnings.warn(
            f"tau4*kappa={tau4 * params.kappa:.4g} < 3: the fluid will not fully "
            "rethermalize during the hold stroke",
            ThermalizationWarning,
            stacklevel=2,
        )

    down = up = None
    if ramp_shape == "adiabatic":
        down = adiabatic_ramp_profile(params.delta_i, params.delta_f, params.omega_b, params.g)
        up = tuple(reversed(down))
    strokes = []
    for target in targets:
        strokes.extend(
            [
                Stroke.ramp(params.delta_i, params.delta_f, tau1, shape=ramp_shape, profile=down),
                Stroke.exchange(target, params.omega_0, tau2),
                Stroke.ramp(params.delta_f, params.delta_i, tau3, shape=ramp_shape, profile=up),
                Stroke.hold(tau4),
            ]
        )
    return CycleSchedule(strokes=tuple(strokes), cycle_count=cycles, delta_start=params.delta_i)
