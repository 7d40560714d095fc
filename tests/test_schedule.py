import numpy as np
import pytest

from omcool import fock, gaussian
from omcool.errors import AdiabaticityWarning, ThermalizationWarning
from omcool.params import SystemParams
from omcool.schedule import (
    CycleSchedule,
    Stroke,
    StrokeKind,
    adiabatic_ramp_profile,
    build_default_cycle,
    stroke_walk,
)


def fig1_like(**over):
    kwargs = dict(omega_b=2000.0, g=200.0, kappa=40.0, gamma=1.0, n_a=0.5, n_b=2.0,
                  delta_i=-6000.0, delta_f=-600.0, omega_0=200.0,
                  delta_targets=(2000.0,), n_targets=(12.0,))
    kwargs.update(over)
    return SystemParams(**kwargs)


class TestStroke:
    def test_ramp_needs_red_detuned_endpoints(self):
        with pytest.raises(ValueError, match="red-detuned"):
            Stroke.ramp(-6000.0, 1.0, 0.04)

    def test_positive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            Stroke.hold(0.0)

    def test_unknown_shape(self):
        with pytest.raises(ValueError, match="shape"):
            Stroke.ramp(-6000.0, -600.0, 0.04, shape="spline")

    def test_adiabatic_shape_needs_profile(self):
        with pytest.raises(ValueError, match="profile"):
            Stroke.ramp(-6000.0, -600.0, 0.04, shape="adiabatic")

    def test_non_finite_profile_rejected(self):
        # a ramp through the exact crossing with g too small for a
        # representable gap gives a NaN profile; it must not be accepted
        with np.errstate(divide="ignore", invalid="ignore"):
            profile = adiabatic_ramp_profile(-1.0, -2.0, 1.0, 1e-100, knots=65)
        assert not np.all(np.isfinite(profile))
        with pytest.raises(ValueError, match="finite"):
            Stroke.ramp(-1.0, -2.0, 0.04, shape="adiabatic", profile=profile)

    def test_exchange_needs_target(self):
        with pytest.raises(ValueError, match="target"):
            Stroke(StrokeKind.EXCHANGE_PULSE, 0.01)

    def test_non_finite_fields_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="duration must be finite"):
            Stroke.hold(nan)
        with pytest.raises(ValueError, match="delta_start must be finite"):
            Stroke.ramp(nan, -600.0, 0.04)
        with pytest.raises(ValueError, match="delta_end must be finite"):
            Stroke.ramp(-6000.0, float("-inf"), 0.04)
        with pytest.raises(ValueError, match="amplitude must be finite"):
            Stroke.exchange(0, nan, 0.01)


class TestDefaultCycle:
    def test_four_strokes_and_period(self):
        sched = build_default_cycle(fig1_like(), 0.04, 0.008, 0.04, 0.1, targets=[0])
        assert len(sched.strokes) == 4
        kinds = [s.kind for s in sched.strokes]
        assert kinds == [StrokeKind.RAMP_DETUNING, StrokeKind.EXCHANGE_PULSE,
                         StrokeKind.RAMP_DETUNING, StrokeKind.HOLD]
        assert sched.period == pytest.approx(0.188, abs=1e-15)

    def test_adiabaticity_warning(self):
        # tau1 = 0.1/(2g) violates the slow-ramp condition by a factor 50
        p = fig1_like()
        tau_fast = 0.1 / (2 * p.g)
        with pytest.warns(AdiabaticityWarning):
            build_default_cycle(p, tau_fast, 0.008, 0.04, 0.1, targets=[0])

    def test_thermalization_warning(self):
        with pytest.warns(ThermalizationWarning):
            build_default_cycle(fig1_like(), 0.04, 0.008, 0.04, 0.01, targets=[0])

    def test_reference_timings_warn_free(self, recwarn):
        build_default_cycle(fig1_like(), 0.04, 0.008, 0.04, 0.1, targets=[0])
        assert not [w for w in recwarn if issubclass(w.category, AdiabaticityWarning)]
        assert not [w for w in recwarn if issubclass(w.category, ThermalizationWarning)]

    def test_bad_duration(self):
        with pytest.raises(ValueError, match="tau2"):
            build_default_cycle(fig1_like(), 0.04, -1.0, 0.04, 0.1, targets=[0])

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            build_default_cycle(fig1_like(), 0.04, 0.008, 0.04, 0.1, targets=[1])

    def test_two_target_pulse_times(self):
        # per-target sub-cycles with the 10x-faster-clock stroke durations:
        # pulses start at 0.004 and 0.0228 in cycle 1, 0.0416 and 0.0604 in cycle 2
        p = fig1_like(omega_b=20000.0, g=2000.0, kappa=400.0, n_a=0.0,
                      delta_i=-60000.0, delta_f=-6000.0, omega_0=2000.0,
                      delta_targets=(20000.0, 20000.0), n_targets=(10.0, 7.4))
        sched = build_default_cycle(p, 0.004, 0.0008, 0.004, 0.01,
                                    targets=[0, 1], cycles=2)
        assert sched.period == pytest.approx(0.0376, abs=1e-15)
        pulses = [s for s in sched.spans() if s.kind is StrokeKind.EXCHANGE_PULSE]
        starts = [s.t_start for s in pulses]
        targets = [s.target for s in pulses]
        assert targets == [0, 1, 0, 1]
        assert starts == pytest.approx([0.004, 0.0228, 0.0416, 0.0604], abs=1e-12)


class TestScheduleEvaluation:
    def make(self, shape="linear", cycles=2):
        p = fig1_like()
        return p, build_default_cycle(p, 0.04, 0.008, 0.04, 0.1, targets=[0],
                                      cycles=cycles, ramp_shape=shape)

    @pytest.mark.parametrize("shape", ["linear", "cosine", "adiabatic"])
    def test_boundary_values_exact_from_both_sides(self, shape):
        _, sched = self.make(shape)
        spans = sched.spans()
        for left, right in zip(spans[:-1], spans[1:]):
            end_of_left = left.delta_values_local(np.array([left.duration]))
            start_of_right = right.delta_values_local(np.array([0.0]))
            assert end_of_left[0] == start_of_right[0] == left.delta1

    @pytest.mark.parametrize("shape", ["linear", "cosine", "adiabatic"])
    def test_delta_continuous_and_periodic(self, shape):
        _, sched = self.make(shape)
        ts = np.linspace(0.0, sched.period, 301)
        base = sched.delta_at(ts)
        shifted = sched.delta_at(ts[:-1] + sched.period)
        assert shifted == pytest.approx(base[:-1], rel=1e-9)
        # piecewise smooth: finite values everywhere, endpoints exact
        assert sched.delta_at(0.0) == -6000.0
        assert sched.delta_at(sched.total_duration) == -6000.0
        assert sched.delta_at(0.04) == -600.0

    def test_structurally_periodic_spans(self):
        _, sched = self.make(cycles=3)
        spans = sched.spans()
        per_cycle = len(sched.strokes)
        for s in spans:
            twin = spans[s.position]
            assert (s.duration, s.delta0, s.delta1, s.kind, s.target, s.amplitude) == (
                twin.duration, twin.delta0, twin.delta1, twin.kind, twin.target,
                twin.amplitude,
            )
        assert len(spans) == 3 * per_cycle

    def test_omega0_zero_outside_exchange(self):
        _, sched = self.make()
        spans = sched.spans()

        def pulse(t):
            span = spans[sched.stroke_index(t)]
            return span.target if span.kind is StrokeKind.EXCHANGE_PULSE else -1, span.amplitude

        assert pulse(0.02) == (-1, 0.0)   # mid ramp
        assert pulse(0.044) == (0, 200.0)  # mid exchange
        assert pulse(0.1) == (-1, 0.0)    # mid hold
        # half-open: the exchange start boundary belongs to the pulse,
        # the end boundary to the next stroke
        assert pulse(0.04) == (0, 200.0)
        assert pulse(0.048) == (-1, 0.0)

    def test_stroke_index_half_open_and_clamped(self):
        _, sched = self.make()
        bounds = sched.boundaries()
        assert sched.stroke_index(0.0) == 0
        assert np.array_equal(sched.stroke_index(bounds[:-1]), np.arange(bounds.size - 1))
        # the final instant belongs to the last stroke, not past it
        assert sched.stroke_index(sched.total_duration) == bounds.size - 2
        assert isinstance(sched.stroke_index(0.1), int)

    def test_continuity_enforced(self):
        with pytest.raises(ValueError, match="discontinuity"):
            CycleSchedule(
                strokes=(Stroke.ramp(-6000.0, -600.0, 0.04),
                         Stroke.ramp(-500.0, -6000.0, 0.04)),
                cycle_count=1, delta_start=-6000.0,
            )

    def test_multi_cycle_must_close(self):
        with pytest.raises(ValueError, match="close"):
            CycleSchedule(
                strokes=(Stroke.ramp(-6000.0, -600.0, 0.04),),
                cycle_count=2, delta_start=-6000.0,
            )

    def test_time_outside_schedule(self):
        _, sched = self.make()
        with pytest.raises(ValueError, match="outside"):
            sched.delta_at(2 * sched.total_duration)
        for bad in (-1e-9, float("nan"), np.array([0.1, 2 * sched.total_duration])):
            with pytest.raises(ValueError, match="outside"):
                sched.stroke_index(bad)


class TestAdiabaticProfile:
    def test_endpoints_and_monotonicity(self):
        prof = np.array(adiabatic_ramp_profile(-6000.0, -600.0, 2000.0, 200.0))
        assert prof[0] == -6000.0
        assert prof[-1] == -600.0
        assert np.all(np.diff(prof) > 0)

    def test_slows_down_at_the_crossing(self):
        # fraction of the stroke spent within one gap-width of the crossing
        # must far exceed the uniform-rate fraction
        prof = np.array(adiabatic_ramp_profile(-6000.0, -600.0, 2000.0, 200.0))
        near = np.abs(prof + 2000.0) < 400.0
        assert near.mean() > 3 * (800.0 / 5400.0)

    def test_needs_positive_coupling(self):
        with pytest.raises(ValueError, match="g > 0"):
            adiabatic_ramp_profile(-6000.0, -600.0, 2000.0, 0.0)

    def test_decreasing_ramp_is_the_reversed_increasing_one(self):
        # bit for bit, so a hand-built return ramp equals build_default_cycle's
        down = adiabatic_ramp_profile(-6000.0, -600.0, 2000.0, 200.0)
        assert adiabatic_ramp_profile(-600.0, -6000.0, 2000.0, 200.0) == down[::-1]
        sched = build_default_cycle(fig1_like(), 0.04, 0.008, 0.04, 0.1, targets=[0],
                                    ramp_shape="adiabatic")
        assert sched.strokes[0].profile == down
        assert sched.strokes[2].profile == down[::-1]


class TestStrokeWalk:
    def make(self):
        return build_default_cycle(fig1_like(), 0.04, 0.008, 0.04, 0.1,
                                   targets=[0], cycles=2)

    def test_window_checks(self):
        sched = self.make()
        with pytest.raises(ValueError, match="precedes"):
            stroke_walk(sched, 0.05, 0.01, 4)
        with pytest.raises(ValueError, match="exceeds"):
            stroke_walk(sched, 0.0, 2 * sched.total_duration, 4)

    def test_segments_tile_the_window(self):
        sched = self.make()
        walk = stroke_walk(sched, 0.02, 0.3, 4)
        assert walk[0][1] == 0.02
        assert walk[-1][2][-1] == 0.3
        for (_, _, ends), (span, seg_start, _) in zip(walk[:-1], walk[1:]):
            assert ends[-1] == seg_start == span.t_start
        for span, seg_start, ends in walk:
            assert seg_start < ends[0] and np.all(np.diff(ends) > 0)
            assert ends[-1] == min(span.t_end, 0.3)

    def test_full_strokes_get_uniform_samples(self):
        sched = self.make()
        walk = stroke_walk(sched, 0.0, sched.total_duration, 4)
        assert len(walk) == 8
        for span, seg_start, ends in walk:
            assert seg_start == span.t_start
            assert np.allclose(ends, span.t_start + span.duration * np.arange(1, 5) / 4,
                               rtol=0, atol=1e-15)

    def test_fifty_fig1_cycles_tile_exactly(self):
        # spans placed at cycle * period + edge left a +2.2e-16 gap after span
        # 23 and -4.4e-16 overlaps after spans 51 and 59, where a walk gave one
        # boundary time to two strokes
        sched = build_default_cycle(fig1_like(), 0.04, 0.008, 0.04, 0.1,
                                    targets=[0], cycles=50)
        spans = sched.spans()
        assert all(r.t_start == l.t_end for l, r in zip(spans[:-1], spans[1:]))
        assert sched.total_duration == spans[-1].t_end
        walk = stroke_walk(sched, 0.0, sched.total_duration, 4)
        times = np.concatenate([[0.0]] + [ends for _, _, ends in walk])
        assert times.size == 1 + 4 * len(spans) and np.all(np.diff(times) > 0)

    def test_empty_window_has_no_segments(self):
        assert stroke_walk(self.make(), 0.05, 0.05, 4) == []

    @pytest.mark.parametrize("t_start", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_time_rejected_before_any_step(self, monkeypatch, t_start):
        def no_step(*args, **kwargs):
            raise AssertionError("an engine stepped")

        for module, name in ((gaussian, "_segment_map"), (fock, "_rk4_step"),
                             (fock, "_taylor_step")):
            monkeypatch.setattr(module, name, no_step)
        sched, p = self.make(), fig1_like()
        g_state = gaussian.thermal_state([0.1, 0.2, 0.25], time=t_start)
        f_state = fock.thermal_state((4, 4, 4), (0.1, 0.2, 0.25), time=t_start,
                                     leakage_threshold=0.5)
        with pytest.raises(ValueError):
            gaussian.propagate(g_state, sched, 0.1, params=p)
        with pytest.raises(ValueError):
            fock.propagate_fock(f_state, p, sched, 0.1)
        with pytest.raises(ValueError, match="must be finite"):
            stroke_walk(sched, t_start, 0.1, 4)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_per_stroke_below_one_rejected(self, samples):
        with pytest.raises(ValueError, match="samples_per_stroke"):
            stroke_walk(self.make(), 0.0, 0.1, samples)
