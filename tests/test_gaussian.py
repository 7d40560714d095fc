import math

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from omcool import gaussian
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
from omcool.polariton import bogoliubov_basis, rabi_populations
from omcool.schedule import CycleSchedule, Stroke, build_default_cycle


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
            assert GaussianState(mean=m, cov=c).uncertainty_min_eig() > -1e-9

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
