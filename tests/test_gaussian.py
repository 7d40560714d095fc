import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.linalg import solve_continuous_lyapunov

from omcool import _kernels, gaussian
from omcool.config import load_config_file, parse_cycle_config
from omcool.errors import IntegrationError, StabilityError
from omcool.gaussian import (
    GaussianState,
    check_samples,
    polariton_initial_state,
    propagate,
    thermal_state,
)
from omcool.params import SystemParams
from omcool.polariton import (bogoliubov_basis, moment_occupations, pair_occupations,
                              rabi_populations, symplectic_form)
from omcool.schedule import (CycleSchedule, Stroke, StrokeKind, build_default_cycle,
                             span_fmax)


def params(**over):
    kwargs = dict(omega_b=2000.0, g=200.0, kappa=40.0, gamma=1.0, n_a=0.5, n_b=2.0,
                  delta_i=-6000.0, delta_f=-600.0, omega_0=200.0,
                  delta_targets=(2000.0,), n_targets=(12.0,))
    kwargs.update(over)
    return SystemParams(**kwargs)


def hold_schedule(duration, delta=-2000.0):
    return CycleSchedule(strokes=(Stroke.hold(duration),), cycle_count=1,
                         delta_start=delta)


class TestStateBasics:
    def test_vacuum_occupations(self):
        state = thermal_state([0.0, 0.0])
        assert np.array_equal(moment_occupations(state.mean, state.cov), [0.0, 0.0])

    def test_thermal_occupations(self):
        state = thermal_state([0.7, 3.0])
        assert moment_occupations(state.mean, state.cov) == pytest.approx([0.7, 3.0], rel=1e-14)

    def test_coherent_displacement_counts_as_occupation(self):
        state = GaussianState(mean=np.array([math.sqrt(2.0), 0.0]), cov=0.5 * np.eye(2))
        assert moment_occupations(state.mean, state.cov) == pytest.approx([1.0], rel=1e-14)

    def test_validate_rejects_unphysical_covariance(self):
        with pytest.raises(IntegrationError, match="uncertainty"):
            check_samples([0.0], np.zeros((1, 2)), 0.1 * np.eye(2)[None])

    def test_validate_rejects_asymmetry(self):
        cov = 0.5 * np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(IntegrationError, match="asymmetry"):
            check_samples([0.0], np.zeros((1, 2)), cov[None])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_occupations_rejected(self, bad):
        with pytest.raises(ValueError, match="occupations must be finite"):
            thermal_state([bad, 0.0])
        with pytest.raises(ValueError, match="occupations must be finite"):
            thermal_state([0.1, 0.2, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_polariton_occupations_rejected(self, bad):
        basis = bogoliubov_basis(-6000.0, 2000.0, 200.0)
        for args in ((bad, 0.2, ()), (0.1, bad, ()), (0.1, 0.2, (bad,))):
            with pytest.raises(ValueError, match="occupations must"):
                polariton_initial_state(basis, *args)

    def test_validate_rejects_nan(self):
        state = thermal_state([0.1, 0.2], time=0.7)
        state.cov[1, 1] = np.nan
        with pytest.raises(IntegrationError) as err:
            check_samples([state.time], state.mean[None], state.cov[None])
        assert err.value.time == 0.7


def reference_validate(t, mean, cov):
    """The error text of one sample's checks, made one at a time and one
    sample at a time, or None when the sample passes."""
    scale = max(1.0, float(np.max(np.abs(cov))))
    asym = float(np.max(np.abs(cov - cov.T)))
    if not asym <= gaussian.SYMMETRY_TOL * scale:
        return f"covariance asymmetry {asym:.3e} at t={t}"
    min_eig = float(np.linalg.eigvalsh(cov + 0.5j * symplectic_form(mean.size // 2)).min())
    if not min_eig >= -gaussian.UNCERTAINTY_TOL:
        return f"uncertainty relation violated (min eig {min_eig:.3e}) at t={t}"
    if not np.min(moment_occupations(mean, cov)) >= -gaussian.UNCERTAINTY_TOL:
        return f"negative mode occupation at t={t}"
    return None


def asymmetric(mean, cov):
    cov[0, 3] += 1e-6


def uncertain(mean, cov):
    cov[:2, :2] = 0.1 * np.eye(2)


def nan_cov(mean, cov):
    cov[2, 2] = np.nan


def nan_mean(mean, cov):
    mean[1] = np.nan


class TestStackedChecks:
    @pytest.fixture
    def run(self, fig1_params):
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1, targets=[0],
                                    ramp_shape="adiabatic")
        return propagate(thermal_state([0.5, 2.0, 12.0]), sched, sched.total_duration,
                         tol=1e-7, params=fig1_params, samples_per_stroke=8)

    @pytest.mark.parametrize("corrupt", [asymmetric, uncertain, nan_cov, nan_mean])
    def test_first_failing_sample_raises_its_own_error(self, run, corrupt):
        # sample 11 lies inside the second stroke; a later sample fails too
        times, means, covs = run.times, run.means.copy(), run.covs.copy()
        corrupt(means[11], covs[11])
        asymmetric(means[15], covs[15])
        expected = reference_validate(times[11], means[11], covs[11])
        assert expected is not None
        with pytest.raises(IntegrationError) as stacked:
            gaussian.check_samples(times, means, covs)
        with pytest.raises(IntegrationError) as single:
            check_samples(times[11:12], means[11:12], covs[11:12])
        assert str(stacked.value) == str(single.value) == expected
        assert stacked.value.time == single.value.time == times[11]

    def test_propagate_raises_the_first_failing_samples_error(self, fig1_params, monkeypatch):
        # a stroke map that removes noise drives the state below the
        # uncertainty bound partway through the second stroke
        stroke_maps, check_samples = gaussian._stroke_maps, gaussian.check_samples
        seen = []

        def drained(span, *args):
            phi, q = stroke_maps(span, *args)
            return phi, -30.0 * q if span.index == 1 else q

        def recorded(*samples):
            seen.append(samples)
            return check_samples(*samples)

        monkeypatch.setattr(gaussian, "_stroke_maps", drained)
        monkeypatch.setattr(gaussian, "check_samples", recorded)
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1, targets=[0])
        with pytest.raises(IntegrationError, match="uncertainty relation violated") as err:
            propagate(thermal_state([0.5, 2.0, 12.0]), sched, sched.total_duration,
                      tol=1e-7, params=fig1_params, samples_per_stroke=8)
        texts = [reference_validate(*sample) for sample in zip(*seen[0])]
        k = next(i for i, text in enumerate(texts) if text is not None)
        assert str(err.value) == texts[k]
        assert err.value.time == seen[0][0][k] > sched.spans()[1].t_start


class TestThermalRelaxation:
    def test_matches_closed_form(self):
        p = params(g=0.0, omega_0=0.0, gamma=0.0, n_b=0.0,
                   delta_targets=(), n_targets=())
        traj = propagate(thermal_state([5.0, 0.0]), hold_schedule(0.1), 0.1,
                         tol=1e-10, params=p)
        occ = traj.occupations[:, 0]
        exact = 0.5 + 4.5 * np.exp(-40.0 * traj.times)
        assert np.max(np.abs(occ - exact) / exact) < 1e-8


class TestRabiExchange:
    def test_matches_closed_form(self):
        p = params(g=0.0, kappa=0.0, gamma=0.0, n_a=0.0)
        t_swap = math.pi / 400.0
        sched = CycleSchedule(strokes=(Stroke.exchange(0, 200.0, t_swap),),
                              cycle_count=1, delta_start=-2000.0)
        traj = propagate(thermal_state([0.0, 2.0, 12.0]), sched, t_swap,
                         tol=1e-10, params=p)
        occ = traj.occupations
        n_b, n_c = rabi_populations(2.0, 12.0, 2000.0, 2000.0, 200.0, traj.times)
        assert np.max(np.abs(occ[:, 1] - n_b)) < 1e-7
        assert np.max(np.abs(occ[:, 2] - n_c)) < 1e-7
        assert occ[-1, 1] == pytest.approx(12.0, abs=1e-7)
        assert occ[-1, 2] == pytest.approx(2.0, abs=1e-7)


class TestSteadyState:
    def test_lyapunov_fixed_point(self, reference_drift_diffusion):
        # fast mechanical damping so one time unit reaches stationarity
        p = params(gamma=30.0)
        A, D = reference_drift_diffusion(p, -2000.0)
        traj = propagate(thermal_state([3.0, 1.0, 4.0]), hold_schedule(1.0), 1.0,
                         tol=1e-10, params=p)
        cov = traj.final_state.cov
        assert np.max(np.abs(A @ cov + cov @ A.T + D)) < 1e-8
        sigma_ref = solve_continuous_lyapunov(A, -D)
        assert np.max(np.abs(cov - sigma_ref)) < 1e-8

    def test_conservation_without_damping(self):
        p = params(g=0.0, kappa=0.0, gamma=0.0)
        t_end = 0.004
        sched = CycleSchedule(strokes=(Stroke.exchange(0, 200.0, t_end),),
                              cycle_count=1, delta_start=-2000.0)
        traj = propagate(thermal_state([0.0, 2.0, 12.0]), sched, t_end,
                         tol=1e-10, params=p)
        total = traj.occupations[:, 1:].sum(axis=1)
        assert np.max(np.abs(total - 14.0)) < 1e-8


def spy_stacks(monkeypatch):
    """The (t, h) of every Magnus stack built from here on, in order."""
    stacks, magnus4 = [], _kernels.magnus4

    def spy(G, t, h, moments):
        stacks.append((np.array(t), np.array(h)))
        return magnus4(G, t, h, moments)

    monkeypatch.setattr(_kernels, "magnus4", spy)
    return stacks


class TestPropagateContract:
    def test_uncertainty_invariant_along_protocol(self, fig1_params):
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1,
                                    targets=[0], ramp_shape="adiabatic")
        basis = bogoliubov_basis(-6000.0, 2000.0, 200.0)
        state = polariton_initial_state(basis, 0.5, 2.0, [12.0])
        traj = propagate(state, sched, sched.total_duration, tol=1e-7,
                         params=fig1_params)
        for m, c in zip(traj.means, traj.covs):
            assert check_samples([0.0], m[None], c[None])[1][0] > -1e-9

    def test_deterministic(self, fig1_params):
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1, targets=[0])
        state = thermal_state([0.5, 2.0, 12.0])
        t1 = propagate(state, sched, 0.05, tol=1e-7, params=fig1_params)
        t2 = propagate(state, sched, 0.05, tol=1e-7, params=fig1_params)
        assert np.array_equal(t1.means, t2.means)
        assert np.array_equal(t1.covs, t2.covs)

    def test_time_window_validation(self, fig1_params):
        sched = hold_schedule(0.1)
        state = thermal_state([0.5, 2.0, 12.0], time=0.05)
        with pytest.raises(ValueError, match="precedes"):
            propagate(state, sched, 0.01, params=fig1_params)
        with pytest.raises(ValueError, match="exceeds"):
            propagate(state, sched, 0.5, params=fig1_params)

    def test_instability_raises_before_stepping(self, fig1_params):
        sched = CycleSchedule(
            strokes=(Stroke.ramp(-6000.0, -50.0, 0.01),), cycle_count=1,
            delta_start=-6000.0,
        )
        with pytest.raises(StabilityError):
            propagate(thermal_state([0.5, 2.0, 12.0]), sched, 0.01,
                      params=fig1_params)

    def test_non_finite_tol_rejected(self, fig1_params):
        with pytest.raises(ValueError, match="finite"):
            propagate(thermal_state([0.5, 2.0, 12.0]), hold_schedule(0.01), 0.01,
                      tol=float("nan"), params=fig1_params)

    def test_non_finite_drift_raises_integration_error(self):
        # SystemParams rejects kappa = NaN, so plant it on a valid instance
        p = params()
        object.__setattr__(p, "kappa", float("nan"))
        with pytest.raises(IntegrationError, match="non-finite drift"):
            propagate(thermal_state([0.5, 2.0, 12.0]), hold_schedule(0.01), 0.01,
                      params=p)

    def test_non_finite_state_raises_integration_error(self, fig1_params):
        cov = np.diag([1.0, 1.0, 2.5, 2.5, 12.5, np.nan])
        state = GaussianState(mean=np.zeros(6), cov=cov)
        with pytest.raises(IntegrationError, match="non-finite state"):
            propagate(state, hold_schedule(0.01), 0.01, params=fig1_params)

    def test_tol_below_roundoff_fails_fast(self, fig1_params):
        # the error estimate stops shrinking at the roundoff floor; refining
        # further would only spin
        sched = CycleSchedule(strokes=(Stroke.ramp(-6000.0, -600.0, 0.002),),
                              cycle_count=1, delta_start=-6000.0)
        with pytest.raises(IntegrationError, match="stalled"):
            propagate(thermal_state([0.5, 2.0, 12.0]), sched, 0.002, tol=1e-20,
                      params=fig1_params)

    def test_each_refinement_level_swept_once(self, fig1_params, monkeypatch):
        # a refused attempt's fine sweep is the next attempt's coarse sweep,
        # so accepting level 2^k applies the maps of k + 1 levels, not 2k
        levels, applied = set(), []
        stroke_maps, then = gaussian._stroke_maps, gaussian._then

        def counting_maps(span, generator, start, stop, count, level, fmax):
            levels.add(level)
            return stroke_maps(span, generator, start, stop, count, level, fmax)

        def counting_then(*args):
            applied.append(None)
            return then(*args)

        monkeypatch.setattr(gaussian, "_stroke_maps", counting_maps)
        monkeypatch.setattr(gaussian, "_then", counting_then)
        sched = CycleSchedule(strokes=(Stroke.ramp(-6000.0, -600.0, 0.04),),
                              cycle_count=1, delta_start=-6000.0)
        segments = 8
        propagate(thermal_state([0.5, 2.0, 12.0]), sched, 0.04, tol=1e-10,
                  params=fig1_params, samples_per_stroke=segments)
        attempts = len(levels) - 1
        assert attempts >= 2
        assert len(applied) == (attempts + 1) * segments

    def test_constant_strokes_build_level_two_only(self, fig1_params, monkeypatch):
        # a hold or exchange map is exact at every level, so only the ramps
        # compare two levels, starting from (2, 4)
        levels = {}
        stroke_maps = gaussian._stroke_maps

        def recording_maps(span, generator, start, stop, count, level, fmax):
            levels.setdefault(span.kind, set()).add(level)
            return stroke_maps(span, generator, start, stop, count, level, fmax)

        monkeypatch.setattr(gaussian, "_stroke_maps", recording_maps)
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1, targets=[0])
        propagate(thermal_state([0.5, 2.0, 12.0]), sched, sched.total_duration,
                  tol=1e-10, params=fig1_params, samples_per_stroke=4)
        assert levels[StrokeKind.HOLD] == levels[StrokeKind.EXCHANGE_PULSE] == {2}
        assert {2, 4} <= levels[StrokeKind.RAMP_DETUNING]
        assert min(levels[StrokeKind.RAMP_DETUNING]) == 2

    def test_chunked_segment_map_matches_one_stack(self, fig1_params, monkeypatch):
        # a whole fig1 ramp at level 2 holds more substeps than one chunk;
        # composing chunk by chunk must match one whole stack
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1, targets=[0],
                                    ramp_shape="adiabatic")
        span = next(iter(sched.spans()))
        assert span.shape == "adiabatic"
        generator = gaussian._stroke_generator(fig1_params, span)
        fmax = span_fmax(span, fig1_params)
        stacks = spy_stacks(monkeypatch)
        whole_ramp = (0.0, span.duration, 1)
        chunked = gaussian._stroke_maps(span, generator, *whole_ramp, 2, fmax)
        substeps = sum(h.size for _, h in stacks)
        assert substeps > gaussian._CHUNK
        assert len(stacks) > 1 and max(h.size for _, h in stacks) == gaussian._CHUNK
        monkeypatch.setattr(gaussian, "_CHUNK", substeps + 1)
        stacks.clear()
        whole = gaussian._stroke_maps(span, generator, *whole_ramp, 2, fmax)
        assert [h.size for _, h in stacks] == [substeps]
        for x, y in zip(chunked, whole):
            assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()

    @pytest.mark.filterwarnings("ignore::omcool.errors.AdiabaticityWarning")
    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("case", ["fig1-adiabatic", "smalltest-cosine"])
    def test_batched_maps_match_one_stack_per_segment(self, case, level, fig1_params,
                                                     small_params, monkeypatch):
        # the maps of all a stroke's segments come from shared stacks; each
        # must match its segment built alone in one stack.  smalltest's ramp
        # holds few substeps, so its chunks are shortened to cut its segments.
        # The fig1 ramp is stretched to 2^-4 so that its 32 edges are exact and
        # a segment built alone has the part's segment width bit for bit
        if case == "fig1-adiabatic":
            p, taus, shape, segments, chunk = fig1_params, (0.0625, 0.008, 0.0625, 0.1), \
                "adiabatic", 32, gaussian._CHUNK
        else:
            p, taus, shape, segments, chunk = small_params, (0.3, 0.32, 0.3, 0.5), \
                "cosine", 4, 5
        span = build_default_cycle(p, *taus, targets=[0], ramp_shape=shape).spans()[0]
        generator = gaussian._stroke_generator(p, span)
        fmax = span_fmax(span, p)
        edges = np.linspace(0.0, span.duration, segments + 1)
        intervals = list(zip(edges[:-1], edges[1:]))
        assert case != "fig1-adiabatic" or np.all(np.diff(edges) == span.duration / segments)
        stacks = spy_stacks(monkeypatch)
        monkeypatch.setattr(gaussian, "_CHUNK", chunk)
        phi, q = gaussian._stroke_maps(span, generator, 0.0, span.duration, segments, level,
                                       fmax)
        assert phi.shape == q.shape == (segments, 6, 6)
        assert max(h.size for _, h in stacks) <= chunk
        cuts = [t[0] for t, _ in stacks[1:]]
        assert any(a < cut < b for cut in cuts for a, b in intervals)
        monkeypatch.setattr(gaussian, "_CHUNK", 10**6)
        for k, interval in enumerate(intervals):
            stacks.clear()
            alone = gaussian._stroke_maps(span, generator, *interval, 1, level, fmax)
            assert len(stacks) == 1
            for batched, single in zip((phi[k], q[k]), alone):
                assert np.abs(batched - single[0]).max() <= 1e-14 * np.abs(single[0]).max()

    def test_adiabatic_map_converges_at_fourth_order_to_level_64(self):
        # fig1's second ramp, substeps across its table's knots: each level
        # doubling cuts the map's change ~16x.  Moments taken in absolute time
        # flatten the fall by level 64 and stall this ramp's refinement at tol 1e-12
        cfg = parse_cycle_config(load_config_file("fig1"))
        span = cfg.schedule.spans()[2]
        assert span.kind is StrokeKind.RAMP_DETUNING and span.shape == "adiabatic"
        generator = gaussian._stroke_generator(cfg.params, span)
        fmax = span_fmax(span, cfg.params)
        maps = [np.concatenate(gaussian._stroke_maps(span, generator, 0.0, span.duration, 1,
                                                     level, fmax))
                for level in (2, 4, 8, 16, 32, 64)]
        diffs = [np.abs(fine - coarse).max() for coarse, fine in zip(maps, maps[1:])]
        assert all(d > 10.0 * e for d, e in zip(diffs, diffs[1:])), diffs

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("position", [4, 5])
    def test_fig2_maps_match_the_full_generators_expm(self, position, quad_moments, monkeypatch):
        # fig2's second sub-cycle: a ramp leaves both targets free, the
        # exchange couples target 1 and leaves target 0 free.  Each map must
        # match scipy's expm of the whole 16 x 16 Van Loan generator: over the
        # Magnus exponents of _stroke_maps's own substeps on the ramp, whose
        # moments of delta come from quad over the ramp table's linear pieces,
        # and over each whole interval on the exchange, which takes no substeps
        cfg = parse_cycle_config(load_config_file("fig2"))
        p, span = cfg.params, cfg.schedule.spans()[position]
        ramp = span.kind is StrokeKind.RAMP_DETUNING
        assert ramp or (span.kind is StrokeKind.EXCHANGE_PULSE and span.target == 1)
        generator = gaussian._stroke_generator(p, span)
        n = generator.shape[-1] // 2
        edges = np.linspace(0.0, span.duration, 5)
        intervals = list(zip(edges[:-1], edges[1:]))
        stacks = spy_stacks(monkeypatch)
        phi, q = gaussian._stroke_maps(span, generator, 0.0, span.duration, 4,
                                       1 if ramp else 2, span_fmax(span, p) if ramp else 0.0)
        assert n == 8 and (span.shape == "adiabatic" or not ramp)
        assert bool(stacks) == ramp
        M0, E, C = generator
        t, h = (np.concatenate(x) for x in zip(*stacks)) if ramp else (None, None)
        if ramp:
            # m equal substeps per interval, substep k at k h from the part's start
            m = t.size // 4
            assert t.size == 4 * m and np.all(h == h[0])
            assert np.array_equal(t, np.arange(t.size) * h[0])
        for k, (a, b) in enumerate(intervals):
            if ramp:
                Z = np.eye(2 * n)
                assert abs(t[k * m] - a) <= 1e-15 * span.duration
                for i in range(k * m, (k + 1) * m):
                    mu0, mu1 = quad_moments(span, t[i], h[i])
                    Z = scipy_expm(h[i] * M0 + mu0 * E - mu1 * C) @ Z
            else:
                Z = scipy_expm((b - a) * (M0 + span.delta0 * E))
            ref_phi, ref_q = Z[:n, :n], Z[:n, n:] @ Z[:n, :n].T
            assert np.abs(phi[k] - ref_phi).max() <= 1e-12 * np.abs(ref_phi).max()
            assert np.abs(q[k] - ref_q).max() <= 1e-12 * np.abs(ref_q).max()

    @pytest.mark.filterwarnings("ignore::omcool.errors.AdiabaticityWarning")
    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_no_magnus_stack_exceeds_a_chunk(self, name, monkeypatch):
        cfg = parse_cycle_config(load_config_file(name))
        stacks = spy_stacks(monkeypatch)
        propagate(thermal_state([0.5, 2.0, *cfg.params.n_targets]), cfg.schedule,
                  cfg.schedule.total_duration, tol=cfg.tol, params=cfg.params,
                  samples_per_stroke=cfg.samples_per_stroke)
        sizes = [h.size for _, h in stacks]
        assert max(sizes) == gaussian._CHUNK and sum(sizes) > 10 * gaussian._CHUNK

    def test_sample_grid_includes_boundaries(self, fig1_params):
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1, targets=[0])
        traj = propagate(thermal_state([0.5, 2.0, 12.0]), sched, 0.188,
                         tol=1e-7, params=fig1_params, samples_per_stroke=3)
        for t in sched.boundaries():
            assert np.any(traj.times == t)

    def test_halved_tolerance_changes_little(self, fig1_params):
        # step-halving error control: final occupations move by less than the
        # looser tolerance when the tolerance is tightened
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1, targets=[0])
        state = thermal_state([0.5, 2.0, 12.0])
        loose = propagate(state, sched, 0.052, tol=1e-4, params=fig1_params)
        tight = propagate(state, sched, 0.052, tol=1e-9, params=fig1_params)
        dev = np.abs(loose.final_state.cov - tight.final_state.cov).max()
        assert dev < 1e-4


class TestDissipationFreeMaps:
    """kappa = gamma = 0 leaves D = 0: every block's Van Loan generator is
    block diagonal, so the one map rule gives Q exactly zero."""

    STROKES = {
        "linear": Stroke.ramp(-6000.0, -600.0, 0.04, "linear"),
        "cosine": Stroke.ramp(-6000.0, -600.0, 0.04, "cosine"),
        "adiabatic": Stroke.ramp(-6000.0, -600.0, 0.04, "adiabatic", pair=(2000.0, 200.0)),
        "hold": Stroke.hold(0.01),
    }

    @pytest.mark.parametrize("name", STROKES)
    def test_q_is_zero_and_phi_is_the_full_generators_block(self, name, monkeypatch):
        p = params(kappa=0.0, gamma=0.0)
        span = CycleSchedule(strokes=(self.STROKES[name],), cycle_count=1,
                             delta_start=-6000.0).spans()[0]
        generator = gaussian._stroke_generator(p, span)
        n = generator[0].shape[0] // 2
        ramp = span.kind is StrokeKind.RAMP_DETUNING
        fmax = span_fmax(span, p) if ramp else 0.0
        substeps, magnus4 = [], _kernels.magnus4

        def spy(G, t, h, moments):
            # each pair propagator is the pair's block of the full generator's,
            # with no diffusion block in either
            full = magnus4(generator, t, h, moments)
            pair = magnus4(G, t, h, moments)
            assert pair.shape[1:] == (8, 8) and not pair[:, :4, 4:].any()
            assert not full[:, :n, n:].any()
            assert np.abs(pair[:, :4, :4] - full[:, :4, :4]).max() <= 1e-15 * np.abs(full).max()
            substeps.append(full)
            return pair

        monkeypatch.setattr(_kernels, "magnus4", spy)
        phi, q = gaussian._stroke_maps(span, generator, 0.0, span.duration, 1, 2, fmax)
        assert q.shape == (1, n, n) and not q.any()
        if not ramp:
            # a hold takes no substeps: each block, the pair's and the target's,
            # exponentiates its 2n x 2n Van Loan generator over the whole stroke
            assert not substeps
            sizes, expm1 = [], _kernels.expm1
            monkeypatch.setattr(_kernels, "expm1", lambda X: sizes.append(X.shape) or expm1(X))
            gaussian._stroke_maps(span, generator, 0.0, span.duration, 1, 2, fmax)
            assert sizes == [(1, 8, 8), (1, 4, 4)]
            M0, E, _ = generator
            reference = scipy_expm(span.duration * (M0 + span.delta0 * E))[:n, :n]
            # scipy's expm of the 12 x 12 generator is itself ~4e-13 off here
            assert np.abs(phi[0] - reference).max() <= 1e-12 * np.abs(reference).max()
            return
        Y = np.zeros_like(generator[0])
        for full in substeps:
            for step in full:
                Y = gaussian._compose(step, Y)
        # the pair's block is the full walk's; the free target's is its exact
        # rotation, which the walk's ~500 substeps miss by ~2e-14
        reference = np.eye(n) + Y[:n, :n]
        angle = p.delta_targets[0] * span.duration
        reference[4:, 4:] = [[math.cos(angle), math.sin(angle)],
                             [-math.sin(angle), math.cos(angle)]]
        assert not reference[:4, 4:].any() and not reference[4:, :4].any()
        # the maps chain ~500 substeps pairwise and the walk in time order
        assert np.abs(phi[0] - reference).max() <= 1e-14 * np.abs(reference).max()

    @pytest.mark.parametrize("kappa, gamma", [(0.0, 0.0), (40.0, 0.0), (0.0, 1.0),
                                              (40.0, 1.0)])
    def test_every_block_takes_its_van_loan_generator(self, kappa, gamma, monkeypatch):
        # only the ramps' pair (a, b) takes Magnus stacks; a hold or exchange
        # exponentiates each block whole.  Every stack and exponent is a
        # block's 2n x 2n Van Loan generator, with or without diffusion
        p = params(kappa=kappa, gamma=gamma)
        kind, calls, maps = [None], set(), []
        magnus4, expm1, stroke_maps = _kernels.magnus4, _kernels.expm1, gaussian._stroke_maps

        def maps_spy(span, *args):
            kind[0] = span.kind
            built = stroke_maps(span, *args)
            maps.append((span, *args[:4], built))
            return built

        def spy(name, func):
            def call(X, *args):
                calls.add((name, kind[0], X.shape[-1]))
                return func(X, *args)
            return call

        monkeypatch.setattr(gaussian, "_stroke_maps", maps_spy)
        monkeypatch.setattr(_kernels, "magnus4", spy("magnus4", magnus4))
        monkeypatch.setattr(_kernels, "expm1", spy("expm1", expm1))
        sched = build_default_cycle(p, 0.04, 0.008, 0.04, 0.1, targets=[0])
        propagate(thermal_state([0.5, 2.0, 12.0]), sched, sched.total_duration,
                  tol=1e-7, params=p, samples_per_stroke=2)
        ramp, hold, pulse = (StrokeKind.RAMP_DETUNING, StrokeKind.HOLD,
                             StrokeKind.EXCHANGE_PULSE)
        # magnus4's own exponentials are the ramps' pair's
        assert calls == {("magnus4", ramp, 8), ("expm1", ramp, 8), ("expm1", ramp, 4),
                         ("expm1", hold, 8), ("expm1", hold, 4), ("expm1", pulse, 12)}
        for span, (M0, E, _), start, stop, count, (phi, q) in maps:
            n = M0.shape[0] // 2
            assert phi.shape == q.shape == (count, n, n)
            # a block without diffusion gets an exactly zero noise map: the
            # free target's on a ramp or hold when gamma = 0, every block when
            # kappa = gamma = 0
            if gamma == 0.0 and span.kind is not pulse:
                assert not q[:, 4:].any() and not q[:, :, 4:].any()
            if kappa == gamma == 0.0:
                assert not q.any()
            if span.kind is ramp:
                continue
            Z = scipy_expm((stop - start) / count * (M0 + span.delta0 * E))
            ref_phi, ref_q = Z[:n, :n], Z[:n, n:] @ Z[:n, :n].T
            for phi_k, q_k in zip(phi, q):
                # one exponential serves every interval of a constant stroke
                assert np.array_equal(phi_k, phi[0]) and np.array_equal(q_k, q[0])
                assert np.abs(phi_k - ref_phi).max() <= 1e-12 * np.abs(ref_phi).max()
                assert np.abs(q_k - ref_q).max() <= 1e-12 * np.abs(ref_q).max()


class TestPolaritonObservables:
    def test_initial_state_round_trip(self):
        basis = bogoliubov_basis(-6000.0, 2000.0, 200.0)
        state = polariton_initial_state(basis, 0.5, 2.0, [12.0])
        n_a, n_b = pair_occupations(state.mean[:4], state.cov[:4, :4], basis)
        assert n_a == pytest.approx(0.5, abs=1e-10)
        assert n_b == pytest.approx(2.0, abs=1e-10)
        assert moment_occupations(state.mean, state.cov)[2] == pytest.approx(12.0, abs=1e-12)

    def test_identity_basis_reduces_to_bare_occupations(self):
        basis = bogoliubov_basis(-3000.0, 2000.0, 0.0)
        state = thermal_state([0.7, 1.3])
        n_a, n_b = pair_occupations(state.mean[:4], state.cov[:4, :4], basis)
        assert (n_a, n_b) == pytest.approx((0.7, 1.3), rel=1e-14)
