"""Protocol orchestration: run schedules on either engine, record stroke-aware
observables, and compare per-cycle cooling against the analytic map."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from . import fock as fock_mod
from . import gaussian as gauss_mod
from .errors import IntegrationError, TruncationError
from .params import SystemParams
from .polariton import (
    CoolingMapParams,
    bogoliubov_basis,
    cooling_limit,
    exchange_efficiency,
    pair_occupations,
    survival_factor,
)
from .schedule import CycleSchedule, Samples, Stroke, StrokeKind, StrokeSpan, _check_targets

ENGINES = ("gaussian", "fock")


@dataclass(frozen=True)
class InitialOccupations:
    """Initial thermal occupations, in either the bare or the polariton basis.

    ``basis='polariton'`` interprets ``pair`` as (N_A, N_B) of the coupled
    photon-phonon pair at the schedule's starting detuning; ``basis='bare'``
    as (N_a, N_b).  ``targets`` are always bare-mode occupations.  The Fock
    engine accepts only bare-basis initial states (a polariton-basis thermal
    state is a correlated Gaussian state with no truncated-Fock-product
    form).
    """

    basis: str
    pair: tuple[float, float]
    targets: tuple[float, ...] = ()

    def __post_init__(self):
        if self.basis not in ("polariton", "bare"):
            raise ValueError("basis must be 'polariton' or 'bare'")
        object.__setattr__(self, "pair", tuple(float(x) for x in self.pair))
        object.__setattr__(self, "targets", tuple(float(x) for x in self.targets))
        if len(self.pair) != 2:
            raise ValueError("pair must hold two occupations")
        if not all(map(math.isfinite, self.pair + self.targets)):
            raise ValueError(f"occupations must be finite, got {self.pair + self.targets}")
        if any(x < 0 for x in self.pair + self.targets):
            raise ValueError("occupations must be non-negative")


@dataclass(frozen=True)
class FockOptions:
    """Fock-engine settings; ``check_run`` checks them against a run."""

    cutoffs: tuple[int, ...]
    dt: float | None = None
    leakage_threshold: float = fock_mod.DEFAULT_LEAKAGE_THRESHOLD

    def __post_init__(self):
        object.__setattr__(self, "cutoffs", fock_mod._cutoffs(self.cutoffs))
        fock_mod._check_leakage_threshold(self.leakage_threshold)


@dataclass(frozen=True)
class Trajectory(Samples):
    """Engine-agnostic protocol record: the engine's ``Samples`` and what
    ``run_protocol`` reads off them.

    ``stroke_index`` and ``delta`` are ``CycleSchedule.stroke_index`` and
    ``CycleSchedule.delta_at`` of each sample time; ``markers`` are the exact
    stroke boundary times.
    """

    n_polariton: np.ndarray
    delta: np.ndarray
    omega0_active: np.ndarray
    stroke_index: np.ndarray
    markers: np.ndarray
    spans: tuple[StrokeSpan, ...]
    engine: str
    mode_labels: tuple[str, ...]

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")


def check_run(params: SystemParams, schedule: CycleSchedule, engine: str = "gaussian",
              initial: InitialOccupations | None = None,
              fock_options: FockOptions | None = None) -> InitialOccupations:
    """Raise ValueError unless ``run_protocol`` can start this run; return
    its initial occupations (by default, the baths' in the polariton basis).
    Given ``fock_options`` are checked whatever the engine: one cutoff per
    mode, and ``dt`` within every stroke's step bound."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if initial is None:
        initial = InitialOccupations(
            basis="polariton", pair=(params.n_a, params.n_b), targets=params.n_targets
        )
    if len(initial.targets) != len(params.delta_targets):
        raise ValueError(
            "initial.targets must list one occupation per target mode "
            f"({len(params.delta_targets)} expected)"
        )
    spans = schedule.spans()
    _check_targets([s.target for s in spans if s.target is not None], params)
    if fock_options is not None:
        if len(fock_options.cutoffs) != params.n_modes:
            raise ValueError(
                "the Fock cutoffs must list one cutoff per mode "
                f"({params.n_modes} expected, got {len(fock_options.cutoffs)})"
            )
        if fock_options.dt is not None:
            fock_mod._check_dt(fock_options.dt, params, spans)
    if engine == "fock" and fock_options is None:
        raise ValueError("engine 'fock' requires fock_options (a config's 'fock' section) "
                         "with per-mode cutoffs")
    if engine == "fock" and initial.basis != "bare":
        raise ValueError("the fock engine requires initial.basis = 'bare'")
    return initial


def run_protocol(
    params: SystemParams,
    schedule: CycleSchedule,
    engine: str = "gaussian",
    initial: InitialOccupations | None = None,
    tol: float = 1e-7,
    samples_per_stroke: int = 32,
    fock_options: FockOptions | None = None,
) -> Trajectory:
    """Run a full cooling protocol and record stroke-aware observables.

    Polariton occupations are computed in the instantaneous normal-mode
    basis at every sample time.  The arguments are checked first
    (``check_run``).  Engine errors are re-raised with the stroke index
    where they occurred.
    """
    initial = check_run(params, schedule, engine, initial, fock_options)
    t_end = schedule.total_duration
    spans = tuple(schedule.spans())

    if engine == "gaussian":
        if initial.basis == "polariton":
            basis0 = bogoliubov_basis(schedule.delta_start, params.omega_b, params.g)
            state0 = gauss_mod.polariton_initial_state(basis0, *initial.pair, initial.targets)
        else:
            state0 = gauss_mod.thermal_state(list(initial.pair) + list(initial.targets))
        propagate = partial(gauss_mod.propagate, state0, schedule, t_end, tol=tol,
                            params=params, samples_per_stroke=samples_per_stroke)
    else:
        # the thermal start as its diagonal: no d x d array before the final state
        diagonal = fock_mod._thermal_diagonal(fock_options.cutoffs, initial.pair + initial.targets,
                                              fock_options.leakage_threshold)
        state0 = fock_mod.FockState(diagonal, fock_options.cutoffs)
        propagate = partial(fock_mod.propagate_fock, state0, params, schedule, t_end,
                            dt=fock_options.dt, samples_per_stroke=samples_per_stroke,
                            leakage_threshold=fock_options.leakage_threshold)
    try:
        run = propagate()
    except (IntegrationError, TruncationError) as exc:
        if exc.time is not None:
            k = schedule.stroke_index(exc.time)
            exc.args = (f"{exc.args[0]} [stroke {k}, cycle {spans[k].cycle}]",) + exc.args[1:]
        raise

    times = run.times
    idx = schedule.stroke_index(times)
    delta = schedule.delta_at(times)
    # a span's amplitude is zero outside exchange strokes
    omega0 = np.array([spans[i].amplitude for i in idx], dtype=float)
    bases = bogoliubov_basis(delta, params.omega_b, params.g)
    n_pol = np.column_stack(pair_occupations(run.means[:, :4], run.covs[:, :4, :4], bases))
    return Trajectory(**vars(run), n_polariton=n_pol, delta=delta, omega0_active=omega0,
                      stroke_index=idx, markers=schedule.boundaries(), spans=spans,
                      engine=engine, mode_labels=params.mode_labels)


@dataclass(frozen=True)
class CycleRecord:
    cycle: int
    n_before: float
    n_after: float
    predicted_after: float
    deviation: float


@dataclass(frozen=True)
class CycleReport:
    """Comparison of a simulated protocol against the analytic cooling map."""

    target: int
    eta: float
    r: float
    cycles: tuple[CycleRecord, ...]
    asymptote_estimate: float
    cooling_limit: float
    limit_deviation: float

    def as_dict(self) -> dict:
        return asdict(self)


def _sample_at(traj: Trajectory, t: float) -> int:
    i = int(np.argmin(np.abs(traj.times - t)))
    if abs(traj.times[i] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"trajectory has no sample at t={t}")
    return i


def analyze_cycles(traj: Trajectory, params: SystemParams, target: int = 0) -> CycleReport:
    """Extract per-cycle exchange boundaries for one target and compare them
    with the analytic heat-exchange map and its asymptotic limit.

    The asymptote estimate is the median of the post-exchange values of the
    last three cycles (the median is robust against the cycle-to-cycle
    interference wiggle left by the ramps).
    """
    ex_spans = [
        s for s in traj.spans
        if s.kind is StrokeKind.EXCHANGE_PULSE and s.target == target
    ]
    if not ex_spans:
        raise ValueError(f"trajectory contains no exchange stroke for target {target}")
    mode_col = 2 + target

    first = ex_spans[0]
    basis = bogoliubov_basis(first.delta0, params.omega_b, params.g)
    eta, _ = exchange_efficiency(basis, params.delta_targets[target], first.amplitude)
    # r uses the full cycle period: each target's exchange recurs once per cycle
    period = sum(s.duration for s in traj.spans if s.cycle == 0)
    r = survival_factor(params.gamma, period)

    records = []
    for span in ex_spans:
        i0 = _sample_at(traj, span.t_start)
        i1 = _sample_at(traj, span.t_end)
        n_before = float(traj.occupations[i0, mode_col])
        n_after = float(traj.occupations[i1, mode_col])
        predicted = (1.0 - eta) * n_before + eta * params.n_a
        dev = abs(n_after - predicted) / max(abs(predicted), 1e-12)
        records.append(
            CycleRecord(cycle=span.cycle, n_before=n_before, n_after=n_after,
                        predicted_after=predicted, deviation=dev)
        )

    last = sorted(c.n_after for c in records[-3:])
    asymptote = (last[len(last) // 2] + last[~(len(last) // 2)]) / 2
    limit = cooling_limit(
        CoolingMapParams(eta=eta, r=r, n_a=params.n_a, n_c=params.n_targets[target])
    )
    return CycleReport(
        target=target,
        eta=float(eta),
        r=r,
        cycles=tuple(records),
        asymptote_estimate=asymptote,
        cooling_limit=limit,
        limit_deviation=abs(asymptote - limit) / max(abs(limit), 1e-12),
    )


def adiabaticity_probe(params: SystemParams, tau_ramp: float,
                       ramp_shape: str = "linear") -> float:
    """Polariton-'A' population change across a lone expansion ramp.

    Runs only the first stroke (delta_i -> delta_f over ``tau_ramp``) with
    dissipation switched off, starting from (N_A, N_B) = (n_a, n_b), and
    returns |N_A(tau) - N_A(0)|: the net non-adiabatic transfer.  The
    instantaneous-basis occupation also wiggles while the state crosses the
    anticrossing, a transient that dies out by the end of the ramp and is not
    an energy transfer.  The ramp runs as one output segment, error-checked at
    the end state the probe reads, so that wiggle is not sampled at all.
    """
    free = replace(params, kappa=0.0, gamma=0.0)
    pair = (params.omega_b, params.g) if ramp_shape == "adiabatic" else None
    sched = CycleSchedule(
        strokes=(Stroke.ramp(params.delta_i, params.delta_f, tau_ramp,
                             shape=ramp_shape, pair=pair),),
        cycle_count=1,
        delta_start=params.delta_i,
    )
    traj = run_protocol(free, sched, engine="gaussian", samples_per_stroke=1)
    n_a_track = traj.n_polariton[:, 0]
    return float(abs(n_a_track[-1] - n_a_track[0]))
