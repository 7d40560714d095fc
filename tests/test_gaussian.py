import math

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from omcool import _kernels, gaussian
from omcool.errors import IntegrationError, StabilityError
from omcool.gaussian import (
    GaussianState,
    mode_occupations,
    polariton_initial_state,
    polariton_occupations,
    propagate,
    thermal_state,
)
from omcool.params import SystemParams
from omcool.polariton import (bogoliubov_basis, moment_occupations, rabi_populations,
                              symplectic_form)
from omcool.schedule import (CycleSchedule, Stroke, StrokeKind, adiabatic_ramp_profile,
                             build_default_cycle, span_fmax)


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
        assert np.array_equal(mode_occupations(state), [0.0, 0.0])

    def test_thermal_occupations(self):
        state = thermal_state([0.7, 3.0])
        assert mode_occupations(state) == pytest.approx([0.7, 3.0], rel=1e-14)

    def test_coherent_displacement_counts_as_occupation(self):
        state = GaussianState(mean=np.array([math.sqrt(2.0), 0.0]), cov=0.5 * np.eye(2))
        assert mode_occupations(state) == pytest.approx([1.0], rel=1e-14)

    def test_validate_rejects_unphysical_covariance(self):
        state = GaussianState(mean=np.zeros(2), cov=0.1 * np.eye(2))
        with pytest.raises(IntegrationError, match="uncertainty"):
            state.validate()

    def test_validate_rejects_asymmetry(self):
        cov = 0.5 * np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(IntegrationError, match="asymmetry"):
            GaussianState(mean=np.zeros(2), cov=cov).validate()

    def test_validate_rejects_nan(self):
        state = thermal_state([0.1, 0.2], time=0.7)
        state.cov[1, 1] = np.nan
        with pytest.raises(IntegrationError) as err:
            state.validate()
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
            GaussianState(mean=means[11], cov=covs[11], time=float(times[11])).validate()
        assert str(stacked.value) == str(single.value) == expected
        assert stacked.value.time == single.value.time == times[11]

    def test_propagate_raises_the_first_failing_samples_error(self, fig1_params, monkeypatch):
        # a stroke map that removes noise drives the state below the
        # uncertainty bound partway through the second stroke
        segment_map, check_samples = gaussian._segment_map, gaussian.check_samples
        seen = []

        def drained(span, *args):
            phi, q = segment_map(span, *args)
            return phi, -30.0 * q if span.index == 1 else q

        def recorded(*samples):
            seen.append(samples)
            return check_samples(*samples)

        monkeypatch.setattr(gaussian, "_segment_map", drained)
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


class TestPropagateContract:
    def test_uncertainty_invariant_along_protocol(self, fig1_params):
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1,
                                    targets=[0], ramp_shape="adiabatic")
        basis = bogoliubov_basis(-6000.0, 2000.0, 200.0)
        state = polariton_initial_state(basis, 0.5, 2.0, [12.0])
        traj = propagate(state, sched, sched.total_duration, tol=1e-7,
                         params=fig1_params)
        for m, c in zip(traj.means, traj.covs):
            assert GaussianState(mean=m, cov=c).validate() > -1e-9

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
        segment_map, apply = gaussian._segment_map, gaussian._apply

        def counting_map(span, generator, a, b, level, fmax):
            levels.add(level)
            return segment_map(span, generator, a, b, level, fmax)

        def counting_apply(*args):
            applied.append(None)
            return apply(*args)

        monkeypatch.setattr(gaussian, "_segment_map", counting_map)
        monkeypatch.setattr(gaussian, "_apply", counting_apply)
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
        # compare two levels
        levels = {}
        segment_map = gaussian._segment_map

        def recording_map(span, generator, a, b, level, fmax):
            levels.setdefault(span.kind, set()).add(level)
            return segment_map(span, generator, a, b, level, fmax)

        monkeypatch.setattr(gaussian, "_segment_map", recording_map)
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1, targets=[0])
        propagate(thermal_state([0.5, 2.0, 12.0]), sched, sched.total_duration,
                  tol=1e-10, params=fig1_params, samples_per_stroke=4)
        assert levels[StrokeKind.HOLD] == levels[StrokeKind.EXCHANGE_PULSE] == {2}
        assert {1, 2} <= levels[StrokeKind.RAMP_DETUNING]

    def test_chunked_segment_map_matches_one_stack(self, fig1_params, monkeypatch):
        # an adiabatic ramp cut at its 1023 interior knots holds more substeps
        # than one chunk; composing chunk by chunk must match one whole stack
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1, targets=[0],
                                    ramp_shape="adiabatic")
        span = next(iter(sched.spans()))
        assert span.shape == "adiabatic"
        generator = gaussian._stroke_generator(fig1_params, span)
        fmax = span_fmax(span, fig1_params)
        stacks = []
        magnus4 = _kernels.magnus4

        def counting_magnus4(G, t, h, delta):
            stacks.append(h.size)
            return magnus4(G, t, h, delta)

        monkeypatch.setattr(_kernels, "magnus4", counting_magnus4)
        chunked = gaussian._segment_map(span, generator, 0.0, span.duration, 1, fmax)
        substeps = sum(stacks)
        assert len(stacks) > 1 and max(stacks) == gaussian._CHUNK
        monkeypatch.setattr(gaussian, "_CHUNK", substeps + 1)
        stacks.clear()
        whole = gaussian._segment_map(span, generator, 0.0, span.duration, 1, fmax)
        assert stacks == [substeps]
        for x, y in zip(chunked, whole):
            assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()

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
    """kappa = gamma = 0 leaves D = 0: the Van Loan generator is block
    diagonal, Q vanishes and Phi comes from the n x n drift alone."""

    STROKES = {
        "linear": Stroke.ramp(-6000.0, -600.0, 0.04, "linear"),
        "cosine": Stroke.ramp(-6000.0, -600.0, 0.04, "cosine"),
        "adiabatic": Stroke.ramp(-6000.0, -600.0, 0.04, "adiabatic",
                                 adiabatic_ramp_profile(-6000.0, -600.0, 2000.0, 200.0)),
        "hold": Stroke.hold(0.01),
    }

    @pytest.mark.parametrize("name", STROKES)
    def test_q_is_zero_and_phi_is_the_full_generators_block(self, name, monkeypatch):
        p = params(kappa=0.0, gamma=0.0)
        span = CycleSchedule(strokes=(self.STROKES[name],), cycle_count=1,
                             delta_start=-6000.0).spans()[0]
        generator = gaussian._stroke_generator(p, span)
        n = generator[0].shape[0] // 2
        fmax = span_fmax(span, p) if span.kind is StrokeKind.RAMP_DETUNING else 0.0
        substeps, magnus4 = [], _kernels.magnus4

        def spy(G, t, h, delta):
            # each n x n propagator is the top-left block of the full generator's
            full = magnus4(generator, t, h, delta)
            closed = magnus4(G, t, h, delta)
            assert closed.shape[1:] == (n, n) and not full[:, :n, n:].any()
            assert np.abs(closed - full[:, :n, :n]).max() <= 1e-15 * np.abs(full).max()
            substeps.append(full)
            return closed

        monkeypatch.setattr(_kernels, "magnus4", spy)
        phi, q = gaussian._segment_map(span, generator, 0.0, span.duration, 2, fmax)
        assert q.shape == (n, n) and not q.any()
        Y = np.zeros_like(generator[0])
        for full in substeps:
            Y = gaussian._compose(gaussian._chain(full), Y)
        reference = np.eye(n) + Y[:n, :n]
        # Pade-13's linear solve rounds differently at n and 2n (<= 6e-17 per
        # substep on fig1's fastest substeps); composing ~500 of them adds up
        assert np.abs(phi - reference).max() <= 1e-14 * np.abs(reference).max()

    @pytest.mark.parametrize("kappa, gamma", [(0.0, 0.0), (40.0, 0.0), (0.0, 1.0),
                                              (40.0, 1.0)])
    def test_magnus_stacks_are_n_by_n_only_without_dissipation(self, kappa, gamma,
                                                               monkeypatch):
        p = params(kappa=kappa, gamma=gamma)
        shapes, magnus4 = set(), _kernels.magnus4

        def spy(G, t, h, delta):
            shapes.add(G.shape)
            return magnus4(G, t, h, delta)

        monkeypatch.setattr(_kernels, "magnus4", spy)
        sched = build_default_cycle(p, 0.04, 0.008, 0.04, 0.1, targets=[0])
        propagate(thermal_state([0.5, 2.0, 12.0]), sched, sched.total_duration,
                  tol=1e-7, params=p, samples_per_stroke=2)
        n = 2 * p.n_modes
        assert shapes == ({(3, n, n)} if kappa == gamma == 0.0 else {(3, 2 * n, 2 * n)})


class TestPolaritonObservables:
    def test_initial_state_round_trip(self):
        basis = bogoliubov_basis(-6000.0, 2000.0, 200.0)
        state = polariton_initial_state(basis, 0.5, 2.0, [12.0])
        n_a, n_b = polariton_occupations(state, basis)
        assert n_a == pytest.approx(0.5, abs=1e-10)
        assert n_b == pytest.approx(2.0, abs=1e-10)
        assert mode_occupations(state)[2] == pytest.approx(12.0, abs=1e-12)

    def test_identity_basis_reduces_to_bare_occupations(self):
        basis = bogoliubov_basis(-3000.0, 2000.0, 0.0)
        state = thermal_state([0.7, 1.3])
        n_a, n_b = polariton_occupations(state, basis)
        assert (n_a, n_b) == pytest.approx((0.7, 1.3), rel=1e-14)
