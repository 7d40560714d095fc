import dataclasses

import numpy as np
import pytest

from omcool import _fock_engine, fock, gaussian, schedule
from omcool.config import load_config_file, parse_cycle_config, parse_params
from omcool.errors import AdiabaticityWarning, StabilityError, ThermalizationWarning
from omcool.params import SystemParams
from omcool.runner import run_protocol
from omcool.schedule import (
    CycleSchedule,
    Stroke,
    StrokeKind,
    adiabatic_ramp_profile,
    build_default_cycle,
    stroke_walk,
)

import dense_fock


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

    def test_pair_only_and_always_on_an_adiabatic_ramp(self):
        with pytest.raises(ValueError, match=r"take pair=\(omega_b, g\)"):
            Stroke.ramp(-6000.0, -600.0, 0.04, shape="adiabatic")
        # another shape would ignore a pair, so it refuses one
        for shape in ("linear", "cosine"):
            with pytest.raises(ValueError, match=r"take pair=\(omega_b, g\)"):
                Stroke.ramp(-6000.0, -600.0, 0.04, shape=shape, pair=(2000.0, 200.0))

    @pytest.mark.parametrize("pair", [
        (2000.0,), (2000.0, 200.0, 1.0), 200.0, "ab", (2000.0, None), (2000.0, "200"),
        (float("nan"), 200.0), (2000.0, float("inf")), (0.0, 200.0), (2000.0, 0.0),
        (2000.0, -200.0), (-2000.0, 200.0)])
    def test_bad_pair_rejected(self, pair):
        with pytest.raises(ValueError, match="pair must be two finite numbers"):
            Stroke.ramp(-6000.0, -600.0, 0.04, shape="adiabatic", pair=pair)

    def test_pair_builds_the_table(self):
        stroke = Stroke.ramp(-6000.0, -600.0, 0.04, "adiabatic", pair=[2000, np.float64(200.0)])
        assert stroke.pair == (2000, 200.0)
        u, table = stroke.knots
        assert np.array_equal(table, adiabatic_ramp_profile(-6000.0, -600.0, 2000.0, 200.0))
        assert np.array_equal(u, np.linspace(0.0, 1.0, 1025))

    def test_non_finite_table_rejected(self):
        # a ramp through the exact crossing with g too small for a
        # representable gap gives a NaN table; it must not be accepted
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                Stroke.ramp(-1.0, -2.0, 0.04, shape="adiabatic", pair=(1.0, 1e-100))

    @pytest.mark.parametrize("kind, name, value", [
        *((kind, name, value) for kind in (StrokeKind.HOLD, StrokeKind.EXCHANGE_PULSE)
          for name, value in (("pair", (2000.0, 200.0)), ("shape", "adiabatic"),
                              ("shape", "cosine"), ("delta_start", -6000.0),
                              ("delta_end", -600.0))),
        *((kind, name, value) for kind in (StrokeKind.RAMP_DETUNING, StrokeKind.HOLD)
          for name, value in (("target", 0), ("amplitude", 200.0), ("amplitude", -1.0)))])
    def test_a_kind_refuses_the_fields_it_ignores(self, kind, name, value):
        # a stroke keeps no field its kind would ignore: only a ramp reads
        # delta_start, delta_end, shape and pair, only an exchange target and amplitude
        fields = {StrokeKind.RAMP_DETUNING: dict(delta_start=-6000.0, delta_end=-600.0),
                  StrokeKind.EXCHANGE_PULSE: dict(target=0, amplitude=200.0),
                  StrokeKind.HOLD: {}}[kind]
        Stroke(kind, 0.01, **fields)
        with pytest.raises(ValueError, match=f"a {kind.value} stroke takes no {name}"):
            Stroke(kind, 0.01, **{**fields, name: value})

    def test_exchange_needs_target(self):
        with pytest.raises(ValueError, match="target"):
            Stroke(StrokeKind.EXCHANGE_PULSE, 0.01)

    @pytest.mark.parametrize("target", [True, 0.5, 1.0])
    def test_exchange_target_must_be_an_integer(self, target):
        # a bool or a float is refused, not truncated, as cutoffs and levels are
        with pytest.raises(ValueError, match="target-mode index"):
            Stroke.exchange(target, 200.0, 0.008)

    def test_numpy_integer_target_runs_as_its_int(self):
        cfg = parse_cycle_config(load_config_file("fig2"))
        strokes = tuple(s if s.target is None else dataclasses.replace(s, target=np.int64(s.target))
                        for s in cfg.schedule.strokes)
        assert {type(s.target) for s in strokes} == {type(None), np.int64}
        trajs = [run_protocol(cfg.params, sched, initial=cfg.initial, tol=cfg.tol,
                              samples_per_stroke=cfg.samples_per_stroke)
                 for sched in (cfg.schedule, dataclasses.replace(cfg.schedule, strokes=strokes))]
        assert trajs[0].occupations.tobytes() == trajs[1].occupations.tobytes()

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

    def test_pulsed_names_the_target_of_a_nonzero_exchange_alone(self):
        strokes = (Stroke.ramp(-6000.0, -600.0, 0.04), Stroke.exchange(1, 200.0, 0.008),
                   Stroke.exchange(0, 0.0, 0.008), Stroke.hold(0.1))
        sched = CycleSchedule(strokes=strokes, cycle_count=1, delta_start=-6000.0)
        assert [s.pulsed for s in sched.spans()] == [None, 1, None, None]

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

    @pytest.mark.parametrize("count", [0, -1, 2.5, 2.0, True, "2", None])
    def test_cycle_count_must_be_a_positive_integer(self, count):
        # a float or bool is refused, not truncated or taken as 1
        with pytest.raises(ValueError, match="cycle_count must be an integer"):
            CycleSchedule(strokes=(Stroke.hold(0.1),), cycle_count=count, delta_start=-6000.0)

    def test_numpy_integer_cycle_count_accepted(self):
        sched = CycleSchedule(strokes=(Stroke.hold(0.1),), cycle_count=np.int64(3),
                              delta_start=-6000.0)
        assert len(sched.spans()) == 3

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

    @pytest.mark.parametrize("knots", [1, 0, -3, True, 2.0, 65.0, None])
    def test_needs_an_integer_count_of_at_least_two_knots(self, knots):
        # one knot would drop delta_start, and zero knots divide by zero
        with pytest.raises(ValueError, match="knots must be an integer >= 2"):
            adiabatic_ramp_profile(-6000.0, -600.0, 2000.0, 200.0, knots=knots)

    def test_two_knots_are_the_endpoints(self):
        prof = adiabatic_ramp_profile(-6000.0, -600.0, 2000.0, 200.0, knots=np.int64(2))
        assert isinstance(prof, np.ndarray) and prof.tolist() == [-6000.0, -600.0]

    def test_decreasing_ramp_is_the_reversed_increasing_one(self):
        # bit for bit, so a hand-built return ramp equals build_default_cycle's
        down = adiabatic_ramp_profile(-6000.0, -600.0, 2000.0, 200.0)
        assert np.array_equal(adiabatic_ramp_profile(-600.0, -6000.0, 2000.0, 200.0), down[::-1])
        sched = build_default_cycle(fig1_like(), 0.04, 0.008, 0.04, 0.1, targets=[0],
                                    ramp_shape="adiabatic")
        assert sched.strokes[0].pair == sched.strokes[2].pair == (2000.0, 200.0)
        assert np.array_equal(sched.strokes[0].knots[1], down)
        assert np.array_equal(sched.strokes[2].knots[1], down[::-1])

    def test_decreasing_ramp_builds_its_table_in_one_call(self, monkeypatch):
        # a wrapper on the module's name, as perfbench's tracer patches it,
        # sees one call per table, and the decreasing table is bitwise the
        # reversed increasing one
        calls, profile = [], schedule.adiabatic_ramp_profile
        monkeypatch.setattr(schedule, "adiabatic_ramp_profile",
                            lambda *args: calls.append(args) or profile(*args))
        up = profile(-6000.0, -600.0, 2000.0, 200.0)
        down = schedule.adiabatic_ramp_profile(-600.0, -6000.0, 2000.0, 200.0)
        assert len(calls) == 1 and down.tobytes() == up[::-1].tobytes()
        calls.clear()
        sched = build_default_cycle(fig1_like(), 0.04, 0.008, 0.04, 0.1, targets=[0],
                                    ramp_shape="adiabatic")
        assert [args[:2] for args in calls] == [(-6000.0, -600.0), (-600.0, -6000.0)]
        assert sched.strokes[2].knots[1].tobytes() == up[::-1].tobytes()


class TestDeltaMoments:
    """``StrokeSpan.delta_moments`` against quad.  A tabulated ramp's moments
    are exact sums over its linear pieces: mu0 holds to 1e-12 of itself, and
    mu1 to 1e-12 of its bound h |mu0| / 2.  A short substep's mu1 ~ h^3
    delta' / 12 is a difference of delta values, each rounded to eps |delta|
    by the evaluation that quad integrates as well, so neither side holds it
    to more digits of itself."""

    T = 0.0625  # the knots at T j / 1024 are exact, so a substep can end on one

    def span(self):
        stroke = Stroke.ramp(-6000.0, -600.0, self.T, "adiabatic", pair=(2000.0, 200.0))
        return CycleSchedule(strokes=(stroke,), cycle_count=1, delta_start=-6000.0).spans()[0]

    def substeps(self):
        """(t, h, knots strictly inside) of substeps of every kind a map cuts."""
        tau = self.T * np.linspace(0.0, 1.0, 1025)
        gap, tiny = tau[1], 1e-7 * self.T
        cases = [
            (0.3 * self.T, tiny, 0), (0.3 * self.T, 0.4 * gap, 0),  # no knot
            (tau[100] + 0.25 * gap, gap, 1), (tau[700] - 0.5 * tiny, tiny, 1),  # one knot
            (0.1 * self.T, 0.5 * self.T, 512), (0.0, self.T, 1023),  # hundreds
            (tau[5], gap, 0), (tau[5], 3 * gap, 2), (tau[9] - gap, gap, 0),  # on knots
            (tau[9], tiny, 0), (tau[9] - tiny, tiny, 0), (self.T - tiny, tiny, 0),
        ]
        return cases, tau

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_tabulated_moments_match_quad(self, quad_moments):
        span = self.span()
        cases, tau = self.substeps()
        t, h = (np.array(x) for x in list(zip(*cases))[:2])
        mu0, mu1 = span.delta_moments(t, h)
        for (a, w, inside), m0, m1 in zip(cases, mu0, mu1):
            assert np.count_nonzero((a < tau) & (tau < a + w)) == inside
            r0, r1 = quad_moments(span, a, w)
            assert abs(m0 - r0) <= 1e-12 * abs(r0)
            assert abs(m1 - r1) <= 1e-12 * 0.5 * w * abs(r0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_two_knot_table_is_the_linear_ramp(self, quad_moments):
        # a table of its endpoints alone is linear, where Gauss-Legendre is exact
        linear = CycleSchedule(strokes=(Stroke.ramp(-6000.0, -600.0, self.T),),
                               cycle_count=1, delta_start=-6000.0).spans()[0]
        span = dataclasses.replace(linear, shape="adiabatic", knots=(
            np.array([0.0, 1.0]), np.array([-6000.0, -600.0])))
        t, h = np.array([0.0, 0.3 * self.T, self.T - 1e-7]), np.array([self.T, 1e-3, 1e-7])
        (m0, m1), (l0, l1) = span.delta_moments(t, h), linear.delta_moments(t, h)
        assert np.all(np.abs(m0 - l0) <= 1e-12 * np.abs(l0))
        assert np.all(np.abs(m1 - l1) <= 1e-12 * 0.5 * h * np.abs(l0))

    def test_constant_stroke_moments(self):
        span = CycleSchedule(strokes=(Stroke.hold(0.1),), cycle_count=1,
                             delta_start=-2000.0).spans()[0]
        h = np.array([1e-3, 0.1])
        mu0, mu1 = span.delta_moments(np.array([0.0, 0.0]), h)
        assert np.array_equal(mu0, -2000.0 * h) and not mu1.any()


class TestStrokeWalk:
    def make(self):
        return build_default_cycle(fig1_like(), 0.04, 0.008, 0.04, 0.1,
                                   targets=[0], cycles=2)

    def test_window_checks(self):
        sched = self.make()
        with pytest.raises(ValueError, match="precedes"):
            stroke_walk(sched, 0.05, 0.01, 4, params=fig1_like())
        with pytest.raises(ValueError, match="exceeds"):
            stroke_walk(sched, 0.0, 2 * sched.total_duration, 4, params=fig1_like())

    def test_segments_tile_the_window(self):
        sched = self.make()
        walk = stroke_walk(sched, 0.02, 0.3, 4, params=fig1_like())
        assert walk[0][1] == 0.02
        assert walk[-1][2][-1] == 0.3
        for (_, _, ends), (span, seg_start, _) in zip(walk[:-1], walk[1:]):
            assert ends[-1] == seg_start == span.t_start
        for span, seg_start, ends in walk:
            assert seg_start < ends[0] and np.all(np.diff(ends) > 0)
            assert ends[-1] == min(span.t_end, 0.3)

    def test_full_strokes_get_uniform_samples(self):
        sched = self.make()
        walk = stroke_walk(sched, 0.0, sched.total_duration, 4, params=fig1_like())
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
        walk = stroke_walk(sched, 0.0, sched.total_duration, 4, params=fig1_like())
        times = np.concatenate([[0.0]] + [ends for _, _, ends in walk])
        assert times.size == 1 + 4 * len(spans) and np.all(np.diff(times) > 0)

    def test_empty_window_has_no_segments(self):
        assert stroke_walk(self.make(), 0.05, 0.05, 4, params=fig1_like()) == []

    @pytest.mark.parametrize("t_start", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_time_rejected_before_any_step(self, monkeypatch, t_start):
        def no_step(*args, **kwargs):
            raise AssertionError("an engine stepped")

        for module, name in ((gaussian, "_stroke_maps"), (_fock_engine, "_rk4_step"),
                             (_fock_engine, "_taylor_step")):
            monkeypatch.setattr(module, name, no_step)
        sched, p = self.make(), fig1_like()
        g_state = gaussian.thermal_state([0.1, 0.2, 0.25], time=t_start)
        f_state = dense_fock.thermal_state((4, 4, 4), (0.1, 0.2, 0.25), time=t_start,
                                           leakage_threshold=0.5)
        with pytest.raises(ValueError):
            gaussian.propagate(g_state, sched, 0.1, params=p)
        with pytest.raises(ValueError):
            fock.propagate_fock(f_state, p, sched, 0.1)
        with pytest.raises(ValueError, match="must be finite"):
            stroke_walk(sched, t_start, 0.1, 4, params=fig1_like())

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_per_stroke_below_one_rejected(self, samples):
        with pytest.raises(ValueError, match="samples_per_stroke"):
            stroke_walk(self.make(), 0.0, 0.1, samples, params=fig1_like())

    @pytest.mark.parametrize("samples", [True, False, 2.5, 2.0, "2", None, np.nan])
    def test_non_integer_samples_per_stroke_rejected(self, samples):
        # a bool or float is refused, not taken as 1 or truncated, and no
        # other value escapes as a TypeError
        with pytest.raises(ValueError, match="samples_per_stroke must be an integer"):
            stroke_walk(self.make(), 0.0, 0.1, samples, params=fig1_like())

    def test_numpy_integer_samples_per_stroke_accepted(self):
        walk = stroke_walk(self.make(), 0.0, 0.1, np.int64(3), params=fig1_like())
        assert walk and all(ends.size == 3 for _, _, ends in walk)

    def walk_both_engines(self, monkeypatch, strokes, error, match):
        """Run each engine on smalltest's params over one cycle of ``strokes``,
        expecting ``error``; return the steps the engines took."""
        steps = []
        for module, name in ((gaussian, "_stroke_maps"), (_fock_engine, "_rk4_step"),
                             (_fock_engine, "_taylor_step")):
            step = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, step=step, **k: steps.append(a) or step(*a, **k))
        p = parse_params(load_config_file("smalltest")["params"])
        sched = CycleSchedule(strokes=strokes, cycle_count=1, delta_start=-30.0)
        with pytest.raises(error, match=match):
            gaussian.propagate(gaussian.thermal_state([0.1, 0.2, 0.25]), sched,
                               sched.total_duration, params=p)
        with pytest.raises(error, match=match):
            fock.propagate_fock(dense_fock.thermal_state((6, 6, 8), (0.1, 0.2, 0.25)), p, sched,
                                sched.total_duration)
        return steps

    @pytest.mark.parametrize("amplitude", [5.0, 0.0])
    def test_engines_refuse_an_exchange_on_a_missing_target(self, monkeypatch, amplitude):
        # smalltest has one target; a zero amplitude is refused as well
        assert self.walk_both_engines(
            monkeypatch, (Stroke.exchange(3, amplitude, 0.1),), ValueError,
            r"^unknown target index 3; system has 1 target\(s\)$") == []

    def test_engines_refuse_an_unstable_ramp_before_any_step(self, monkeypatch):
        # g = 2 exceeds the stability limit sqrt(0.5 * 10) / 2 = 1.118 at -0.5
        assert self.walk_both_engines(
            monkeypatch, (Stroke.ramp(-30.0, -0.5, 0.3),), StabilityError,
            "unstable at delta=-0.5: g=2.0") == []

    def test_walk_checks_only_the_strokes_it_crosses(self):
        p = parse_params(load_config_file("smalltest")["params"])
        sched = CycleSchedule(strokes=(Stroke.hold(0.1), Stroke.exchange(3, 5.0, 0.1)),
                              cycle_count=1, delta_start=-30.0)
        assert len(stroke_walk(sched, 0.0, 0.1, 4, params=p)) == 1
        with pytest.raises(ValueError, match="unknown target index 3"):
            stroke_walk(sched, 0.05, 0.15, 4, params=p)

    def test_engines_refuse_non_integer_samples_per_stroke(self):
        sched, p = self.make(), fig1_like()
        with pytest.raises(ValueError, match="samples_per_stroke must be an integer"):
            gaussian.propagate(gaussian.thermal_state([0.1, 0.2, 0.25]), sched, 0.1,
                               params=p, samples_per_stroke=True)
        with pytest.raises(ValueError, match="samples_per_stroke must be an integer"):
            fock.propagate_fock(dense_fock.thermal_state((4, 4, 4), (0.1, 0.2, 0.25),
                                                         leakage_threshold=0.5),
                                p, sched, 0.1, samples_per_stroke=2.0)
