import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm as scipy_expm

from omcool import _kernels, gaussian
from omcool.config import load_config_file, parse_cycle_config
from omcool.gaussian import GaussianState, _stroke_generator, propagate, thermal_state
from omcool.params import SystemParams
from omcool.schedule import CycleSchedule, Stroke, build_default_cycle


def fig1_like(**over):
    kwargs = dict(omega_b=2000.0, g=200.0, kappa=40.0, gamma=1.0, n_a=0.5, n_b=2.0,
                  delta_i=-6000.0, delta_f=-600.0, omega_0=200.0,
                  delta_targets=(2000.0,), n_targets=(12.0,))
    kwargs.update(over)
    return SystemParams(**kwargs)


def _drift_diffusion(p, stroke, delta):
    """A and D blocks of a one-stroke schedule's Van Loan generator at ``delta``."""
    span = CycleSchedule(strokes=(stroke,), cycle_count=1, delta_start=delta).spans()[0]
    M0, E, _ = _stroke_generator(p, span)
    n = M0.shape[0] // 2
    M = M0 + delta * E
    return M[:n, :n], M[:n, n:]


class TestDriftDiffusion:
    def test_single_mode_block(self):
        p = fig1_like(g=0.0, omega_0=0.0)
        A, _ = _drift_diffusion(p, Stroke.hold(0.1), -2000.0)
        assert np.array_equal(A[:2, :2], np.array([[-20.0, 2000.0], [-2000.0, -20.0]]))

    def test_vacuum_diffusion(self):
        p = fig1_like(g=0.0, omega_0=0.0, n_a=0.0, n_b=0.0, n_targets=(0.0,))
        _, D = _drift_diffusion(p, Stroke.hold(0.1), -2000.0)
        assert np.array_equal(D, np.diag([20.0, 20.0, 0.5, 0.5, 0.5, 0.5]))

    def test_thermal_diffusion_scaling(self):
        p = fig1_like()
        _, D = _drift_diffusion(p, Stroke.hold(0.1), -600.0)
        # rate * (2 n + 1) / 2 per quadrature
        assert D[0, 0] == pytest.approx(40.0 * (2 * 0.5 + 1) / 2)
        assert D[2, 2] == pytest.approx(1.0 * (2 * 2.0 + 1) / 2)
        assert D[4, 4] == pytest.approx(1.0 * (2 * 12.0 + 1) / 2)

    def test_exchange_block_antisymmetry(self):
        p = fig1_like()
        A, _ = _drift_diffusion(p, Stroke.exchange(0, 200.0, 0.008), -600.0)
        # beam-splitter coupling: x_b gains from p_c, p_b loses x_c, and
        # symmetrically for the target
        assert A[2, 5] == 200.0
        assert A[3, 4] == -200.0
        assert A[4, 3] == 200.0
        assert A[5, 2] == -200.0

    def test_reference_drift_is_stable(self):
        p = fig1_like()
        A, _ = _drift_diffusion(p, Stroke.exchange(0, 200.0, 0.008), -600.0)
        assert A.shape == (6, 6)
        assert np.max(np.linalg.eigvals(A).real) < 0.0

    @pytest.mark.filterwarnings("ignore::omcool.errors.AdiabaticityWarning")
    @pytest.mark.parametrize("name", ["fig1", "fig2", "smalltest"])
    def test_generator_matches_hamiltonian_reference(self, name, reference_drift_diffusion):
        # every stroke of the bundled config, exchange on and off, at both ends
        # of its detuning range: M0 + delta E = [[A, D], [0, -A^T]] with
        # A = J H - diag(rates)/2 and D = rate (n_bath + 1/2)
        raw = {k: v for k, v in load_config_file(name).items() if k != "comparison"}
        cfg = parse_cycle_config(raw)
        for span in cfg.schedule.spans():
            for amplitude in {span.amplitude, 0.0}:
                M0, E, C = _stroke_generator(
                    cfg.params, dataclasses.replace(span, amplitude=amplitude))
                for delta in (span.delta0, span.delta1):
                    A, D = reference_drift_diffusion(cfg.params, delta, span.target, amplitude)
                    M = np.block([[A, D], [np.zeros_like(A), -A.T]])
                    assert np.array_equal(M0 + delta * E, M)
                assert np.array_equal(C, M0 @ E - E @ M0)


RAMP_T = 0.002


def _ramp_schedule(p, duration, shape):
    return CycleSchedule(strokes=(Stroke.ramp(p.delta_i, p.delta_f, duration, shape),),
                         cycle_count=1, delta_start=p.delta_i)


def _run_span(nsteps):
    """Moments after a linear fig1-scale ramp, in nsteps uniform Magnus-4 steps."""
    p = fig1_like()
    span = _ramp_schedule(p, RAMP_T, "linear").spans()[0]
    G = _stroke_generator(p, span)
    h = np.full(nsteps, RAMP_T / nsteps)
    Z = np.eye(12)
    for step in _kernels.magnus4(G, h * np.arange(nsteps), h, span.delta_values_local):
        Z = (np.eye(12) + step) @ Z
    phi = Z[:6, :6]
    mean = np.array([0.3, -0.1, 0.2, 0.0, 0.05, -0.2])
    cov = np.diag([1.0, 1.0, 2.5, 2.5, 12.5, 12.5])
    return phi @ mean, phi @ cov @ phi.T + Z[:6, 6:] @ phi.T


def _moment_rhs(p, span, reference):
    def rhs(t, y):
        A, D = reference(p, float(span.delta_values_local(np.array(t))))
        cov = y[6:].reshape(6, 6)
        dc = A @ cov + cov @ A.T + D
        return np.concatenate((A @ y[:6], dc.ravel()))

    return rhs


class TestBackends:
    def test_backend_selected(self):
        assert _kernels.BACKEND == "magnus4"

    @pytest.mark.parametrize("norm", [0.01, 0.0239, 0.024, 0.2, 0.3066, 0.3067, 0.9, 2.0,
                                      5.0, 6.0, 50.0, 400.0])
    def test_expm_matches_scipy_across_scaling_threshold(self, norm):
        # Taylor degree 7 up to theta_7 = 0.0239, degree 12 up to theta_12 =
        # 0.3066, then Pade-13 alone up to theta_13 = 5.37 and scaling and
        # squaring above it
        X = np.random.default_rng(7).standard_normal((12, 12))
        X *= norm / np.abs(X).sum(axis=0).max()
        ref = scipy_expm(X)
        assert np.max(np.abs(np.eye(12) + _kernels.expm1(X) - ref)) < 1e-13 * np.abs(ref).max()

    def test_taylor_thresholds_follow_the_tail_rule(self):
        # theta_m is the norm at which ||X||^m / (m + 1)! reaches 2^-53
        for m, theta in _kernels._TAYLOR:
            assert theta**m / math.factorial(m + 1) == pytest.approx(2.0**-53, rel=1e-12)
        assert [(m, round(t, 4)) for m, t in _kernels._TAYLOR] == [(7, 0.0239), (12, 0.3066)]

    @pytest.mark.parametrize("norm", [1e-9, 0.02, 0.0239, 0.024, 0.2, 0.3066])
    def test_no_linear_solve_up_to_theta_12(self, norm, monkeypatch):
        def solve(*args):
            raise AssertionError("np.linalg.solve called")

        X = np.random.default_rng(10).standard_normal((5, 12, 12))
        X *= norm / np.abs(X).sum(axis=-2).max()
        want = np.stack([scipy_expm(x) for x in X]) - np.eye(12)
        monkeypatch.setattr(np.linalg, "solve", solve)
        assert np.max(np.abs(_kernels.expm1(X) - want)) < 1e-15
        with pytest.raises(AssertionError, match="solve"):
            _kernels.expm1(X * (0.31 / norm))

    def test_mixed_stack_takes_the_degree_of_its_largest_norm(self, monkeypatch):
        taken = []
        taylor = _kernels._taylor
        monkeypatch.setattr(_kernels, "_taylor",
                            lambda X, m: taken.append((X.shape[0], m)) or taylor(X, m))
        rng = np.random.default_rng(11)
        X = rng.standard_normal((4, 12, 12))
        X /= np.abs(X).sum(axis=-2).max(axis=-1)[:, None, None]
        for norms, degree in (((1e-6, 0.01, 0.02, 0.023), 7), ((1e-6, 0.01, 0.02, 0.2), 12)):
            stacked = _kernels.expm1(X * np.array(norms)[:, None, None])
            for k, norm in enumerate(norms):
                # each matrix gets what the same degree gives it alone
                alone = taylor(X[k:k + 1] * norm, degree)[0]
                assert np.max(np.abs(stacked[k] - alone)) <= 4e-16 * norm
            assert taken[-1] == (4, degree)

    def test_expm1_of_stack_and_non_finite_input(self):
        X = np.random.default_rng(8).standard_normal((3, 6, 6))
        stacked = _kernels.expm1(X)
        for k in range(3):
            assert np.max(np.abs(np.eye(6) + stacked[k] - scipy_expm(X[k]))) < 1e-12
        X[1, 2, 3] = np.nan
        assert np.all(np.isnan(_kernels.expm1(X)))

    def test_expm1_keeps_the_small_part_exact(self):
        # exp(X) - I of a tiny X is X to first order, far below the roundoff of I
        X = 1e-12 * np.random.default_rng(9).standard_normal((6, 6))
        assert np.max(np.abs(_kernels.expm1(X) - (X + 0.5 * X @ X))) < 1e-26

    @pytest.mark.parametrize("size", [12, 16])
    @pytest.mark.parametrize("K", [1, 7, 128])
    def test_magnus4_exponent_is_the_three_term_sum(self, size, K, monkeypatch):
        # one delta call for both Gauss nodes of every substep, and one
        # weight-table product for the exponents
        rng = np.random.default_rng(size + K)
        G = rng.standard_normal((3, size, size))
        M0, E, C = G
        t, h = rng.uniform(0.0, 1.0, K), rng.uniform(1e-3, 1e-2, K)
        calls, exponents = [], []

        def delta(times):
            calls.append(times.size)
            return 300.0 * np.cos(7.0 * times)

        monkeypatch.setattr(_kernels, "expm1", lambda X: exponents.append(X) or X)
        _kernels.magnus4(G, t, h, delta)
        assert calls == [2 * K]
        shift = math.sqrt(3.0) / 6.0
        d_lo, d_hi = (delta(t + (0.5 + s) * h)[:, None, None] for s in (-shift, shift))
        h = h[:, None, None]
        want = (h * M0 + (0.5 * h * (d_lo + d_hi)) * E
                + (0.5 * shift * h**2 * (d_lo - d_hi)) * C)
        scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(exponents[0] - want) <= 1e-15 * scale)

    def test_numpy_path_deterministic(self):
        m1, c1 = _run_span(50)
        m2, c2 = _run_span(50)
        assert np.array_equal(m1, m2)
        assert np.array_equal(c1, c2)

    def test_covariance_stays_bitwise_symmetric(self, fig1_params):
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1, targets=[0])
        traj = propagate(thermal_state([0.5, 2.0, 12.0]), sched, 0.1, tol=1e-7,
                         params=fig1_params, samples_per_stroke=4)
        for cov in traj.covs:
            assert np.array_equal(cov, cov.T)

    def test_fourth_order_convergence(self):
        _, c_ref = _run_span(1600)
        errs = []
        for nsteps in (25, 50, 100):
            _, c = _run_span(nsteps)
            errs.append(np.max(np.abs(c - c_ref)))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 > 3.8
        assert order2 > 3.8

    def test_ramp_stroke_matches_dop853(self, small_params, reference_drift_diffusion):
        # a smooth ramp: the kinks of the adiabatic table cap DOP853's own accuracy
        sched = _ramp_schedule(small_params, 0.3, "cosine")
        state = GaussianState(mean=np.array([0.3, -0.1, 0.2, 0.0, 0.05, -0.2]),
                              cov=np.diag([0.6, 0.6, 0.7, 0.7, 0.75, 0.75]))
        traj = propagate(state, sched, 0.3, tol=1e-10, params=small_params,
                         samples_per_stroke=4)
        y0 = np.concatenate((state.mean, state.cov.ravel()))
        rhs = _moment_rhs(small_params, sched.spans()[0], reference_drift_diffusion)
        ref = solve_ivp(rhs, (0.0, 0.3), y0, method="DOP853", rtol=1e-12, atol=1e-12,
                        t_eval=traj.times)
        assert np.max(np.abs(traj.means - ref.y[:6].T)) < 1e-10
        assert np.max(np.abs(traj.covs.reshape(-1, 36) - ref.y[6:].T)) < 1e-10

    def test_three_cycles_reuse_the_first_cycle_maps(self, fig1_params, monkeypatch):
        built = []
        segment_map = gaussian._segment_map
        monkeypatch.setattr(gaussian, "_segment_map",
                            lambda *args: built.append(args) or segment_map(*args))
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1, targets=[0],
                                    cycles=3, ramp_shape="adiabatic")
        state = thermal_state([0.5, 2.0, 12.0])
        full = propagate(state, sched, sched.total_duration, tol=1e-7,
                         params=fig1_params, samples_per_stroke=8)
        per_run = len(built)
        for cycle in range(3):
            part = propagate(state, sched, (cycle + 1) * sched.period, tol=1e-7,
                             params=fig1_params, samples_per_stroke=8)
            rows = np.isin(full.times, part.times)
            assert np.max(np.abs(full.means[rows] - part.means)) < 1e-12
            assert np.max(np.abs(full.covs[rows] - part.covs)) < 1e-12
            state = part.final_state
        # every call builds one cycle's maps; the full run reuses them twice
        assert len(built) == 4 * per_run
