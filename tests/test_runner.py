import math

import numpy as np
import pytest

from omcool import fock, gaussian
from omcool.config import load_config_file, parse_cycle_config
from omcool.errors import TruncationError
from omcool.params import SystemParams
from omcool.polariton import (
    CoolingMapParams,
    bogoliubov_basis,
    cooling_limit,
    exchange_efficiency,
    iterate_cooling_map,
    pair_occupations,
)
from omcool.runner import (
    ENGINES,
    FockOptions,
    InitialOccupations,
    Trajectory,
    adiabaticity_probe,
    analyze_cycles,
    run_protocol,
)
from omcool.schedule import (
    CycleSchedule,
    Samples,
    Stroke,
    StrokeKind,
    StrokeSpan,
    build_default_cycle,
    stroke_walk,
)


def params(**over):
    kwargs = dict(omega_b=2000.0, g=200.0, kappa=40.0, gamma=1.0, n_a=0.5, n_b=2.0,
                  delta_i=-6000.0, delta_f=-600.0, omega_0=200.0,
                  delta_targets=(2000.0,), n_targets=(12.0,))
    kwargs.update(over)
    return SystemParams(**kwargs)


class TestRunProtocol:
    def test_zero_coupling_relaxes_toward_bath(self):
        p = params()
        sched = CycleSchedule(strokes=(Stroke.hold(0.6),), cycle_count=1,
                              delta_start=-6000.0)
        init = InitialOccupations(basis="bare", pair=(0.5, 2.0), targets=(2.0,))
        traj = run_protocol(p, sched, "gaussian", init, tol=1e-8)
        n_c = traj.occupations[:, 2]
        assert np.all(np.diff(n_c) > -1e-9)
        assert n_c[-1] > n_c[0] + 3.0  # heading to n_c = 12 with gamma * t = 0.6

    def test_markers_match_boundaries_exactly(self, fig1_params):
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1,
                                    targets=[0], cycles=2)
        traj = run_protocol(fig1_params, sched, "gaussian", samples_per_stroke=4)
        assert np.array_equal(traj.markers, sched.boundaries())
        for t in traj.markers:
            assert np.any(traj.times == t)

    def test_deterministic_bit_identical(self, fig1_params):
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1, targets=[0])
        t1 = run_protocol(fig1_params, sched, "gaussian", samples_per_stroke=6)
        t2 = run_protocol(fig1_params, sched, "gaussian", samples_per_stroke=6)
        assert np.array_equal(t1.occupations, t2.occupations)
        assert np.array_equal(t1.n_polariton, t2.n_polariton)

    def test_stroke_index_and_omega0_columns(self, fig1_params):
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1, targets=[0])
        traj = run_protocol(fig1_params, sched, "gaussian", samples_per_stroke=8)
        during_pulse = (traj.times > 0.04) & (traj.times < 0.048)
        assert np.all(traj.omega0_active[during_pulse] == 200.0)
        assert np.all(traj.stroke_index[during_pulse] == 1)
        outside = traj.times > 0.048
        assert np.all(traj.omega0_active[outside] == 0.0)

    def _gaussian_pair(self, p):
        sched = build_default_cycle(p, 0.04, 0.008, 0.04, 0.1, targets=[0])
        init = InitialOccupations(basis="bare", pair=(0.5, 2.0), targets=(12.0,))
        traj = run_protocol(p, sched, "gaussian", init, tol=1e-8, samples_per_stroke=6)
        gtraj = gaussian.propagate(gaussian.thermal_state([0.5, 2.0, 12.0]), sched,
                                   sched.total_duration, tol=1e-8, params=p,
                                   samples_per_stroke=6)
        return traj, gtraj

    def test_physicality_is_each_samples_uncertainty_eigenvalue(self, fig1_params):
        traj, gtraj = self._gaussian_pair(fig1_params)
        expected = [gaussian.GaussianState(mean=m, cov=c).validate()
                    for m, c in zip(gtraj.means, gtraj.covs)]
        assert traj.physicality.tobytes() == np.array(expected).tobytes()

    def test_fock_engine_requires_options_and_bare_basis(self, small_params):
        sched = build_default_cycle(small_params, 0.3, 0.32, 0.3, 0.5, targets=[0])
        with pytest.raises(ValueError, match="fock_options"):
            run_protocol(small_params, sched, "fock")
        with pytest.raises(ValueError, match="bare"):
            run_protocol(
                small_params, sched, "fock",
                InitialOccupations(basis="polariton", pair=(0.1, 0.2), targets=(0.25,)),
                fock_options=FockOptions(cutoffs=(6, 6, 8)),
            )

    @pytest.mark.parametrize("engine", ["gaussian", "fock"])
    @pytest.mark.parametrize("options, message", [
        (FockOptions(cutoffs=(6, 6, 8), dt=1e-2), "too coarse"),
        (FockOptions(cutoffs=(6, 6)), "one cutoff per mode"),
    ])
    def test_fock_options_checked_whatever_the_engine(self, small_params, monkeypatch,
                                                      engine, options, message):
        # the same rules the config applies to a 'fock' section
        def no_stepping(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr("omcool.gaussian.propagate", no_stepping)
        monkeypatch.setattr("omcool.fock.propagate_fock", no_stepping)
        sched = build_default_cycle(small_params, 0.3, 0.32, 0.3, 0.5, targets=[0])
        init = InitialOccupations(basis="bare", pair=(0.1, 0.2), targets=(0.25,))
        with pytest.raises(ValueError, match=message):
            run_protocol(small_params, sched, engine, init, fock_options=options)

    @pytest.mark.parametrize("engine", ["gaussian", "fock"])
    def test_exchange_on_missing_target_rejected_before_stepping(
            self, small_params, monkeypatch, engine):
        def no_stepping(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr("omcool.gaussian.propagate", no_stepping)
        monkeypatch.setattr("omcool.fock.propagate_fock", no_stepping)
        sched = CycleSchedule(strokes=(Stroke.hold(0.1), Stroke.exchange(3, 5.0, 0.1)),
                              cycle_count=1, delta_start=-30.0)
        init = InitialOccupations(basis="bare", pair=(0.1, 0.2), targets=(0.25,))
        with pytest.raises(ValueError, match="unknown target index 3"):
            run_protocol(small_params, sched, engine, init,
                         fock_options=FockOptions(cutoffs=(4, 4, 4)))

    @pytest.mark.parametrize("pair, targets", [((math.nan, 0.2), (0.25,)),
                                               ((0.1, 0.2), (math.inf,))])
    def test_non_finite_initial_occupations_rejected(self, pair, targets):
        with pytest.raises(ValueError, match="finite"):
            InitialOccupations(basis="bare", pair=pair, targets=targets)

    def test_engine_errors_carry_stroke_index(self, small_params):
        sched = build_default_cycle(small_params, 0.3, 0.32, 0.3, 0.5, targets=[0])
        init = InitialOccupations(basis="bare", pair=(0.0, 0.0), targets=(0.25,))
        with pytest.raises(TruncationError, match="stroke"):
            run_protocol(small_params, sched, "fock", init,
                         fock_options=FockOptions(cutoffs=(2, 2, 8)))

    def test_strictly_increasing_times_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(
                times=np.array([0.0, 0.0]), occupations=np.zeros((2, 3)),
                n_polariton=np.zeros((2, 2)), delta=np.zeros(2),
                omega0_active=np.zeros(2), stroke_index=np.zeros(2, dtype=int),
                markers=np.zeros(1), spans=(), engine="gaussian",
                mode_labels=("a", "b", "c"), physicality=np.zeros(2),
            )


class TestManyCycles:
    """Runs past the bundled cycle counts, toward the periodic steady state:
    they sample every stroke boundary on one strictly increasing time axis,
    and their leading cycles are the bundled runs, bitwise."""

    @staticmethod
    def run(cfg):
        return run_protocol(cfg.params, cfg.schedule, cfg.engine, cfg.initial, tol=cfg.tol,
                            samples_per_stroke=cfg.samples_per_stroke)

    @pytest.mark.parametrize("name, cycles, rows", [("fig1", 14, 2241), ("fig2", 8, 2561)])
    def test_long_run_extends_the_bundled_run(self, name, cycles, rows):
        raw = load_config_file(name)
        bundled = parse_cycle_config(raw)
        cfg = parse_cycle_config({**raw, "schedule": {**raw["schedule"], "cycles": cycles}})
        long = self.run(cfg)
        per_cycle = len(cfg.schedule.strokes) * cfg.samples_per_stroke
        assert long.times.size == 1 + cycles * per_cycle == rows
        assert np.all(np.isin(cfg.schedule.boundaries(), long.times))
        short = self.run(bundled)
        n = short.times.size
        assert n == 1 + bundled.schedule.cycle_count * per_cycle
        for field in ("times", "occupations", "n_polariton", "delta", "omega0_active",
                      "physicality"):
            assert np.array_equal(getattr(long, field)[:n], getattr(short, field)), field
        # the bundled run's final instant stays in its last stroke; the long
        # run's sample there starts the next cycle
        assert np.array_equal(long.stroke_index[:n - 1], short.stroke_index[:-1])
        assert long.stroke_index[n - 1] == short.stroke_index[-1] + 1


class TestEngineRecord:
    def test_both_engines_return_one_record(self, monkeypatch):
        cfg = parse_cycle_config(load_config_file("smalltest"), for_validate=True)
        # smaller cutoffs than the config's keep the Fock run short
        fock_options = FockOptions(cutoffs=(5, 5, 6), leakage_threshold=1e-2)
        ops = fock.ModeOperators(fock_options.cutoffs)
        records, fock_pairs = {}, []
        validate = fock.FockState.validate

        def check(state):
            # the sample's (a, b) moments on their own, as contiguous blocks
            fock_pairs.append(fock.quadrature_moments(state, ops, (0, 1)))
            return validate(state)

        def kept(engine, propagate):
            def run(*args, **kwargs):
                records[engine] = propagate(*args, **kwargs)
                return records[engine]
            return run

        monkeypatch.setattr(fock.FockState, "validate", check)
        monkeypatch.setattr(gaussian, "propagate", kept("gaussian", gaussian.propagate))
        monkeypatch.setattr(fock, "propagate_fock", kept("fock", fock.propagate_fock))
        trajs = {engine: run_protocol(cfg.params, cfg.schedule, engine, cfg.initial,
                                      tol=cfg.tol, samples_per_stroke=cfg.samples_per_stroke,
                                      fock_options=fock_options)
                 for engine in ENGINES}

        g, f = records["gaussian"], records["fock"]
        n = g.times.size
        assert type(g) is type(f) is Samples
        for run in (g, f):
            assert run.means.shape == (n, 6)
            assert run.covs.shape == (n, 6, 6)
            assert run.occupations.shape == (n, 3)
            assert run.physicality.shape == (n,)
        assert g.leakage is None
        assert f.leakage.shape == (n, 3)
        assert len(fock_pairs) == n
        for i, (mean, cov) in enumerate(fock_pairs):
            assert np.array_equal(f.means[i, :4], mean)
            assert np.array_equal(f.covs[i, :4, :4], cov)
        # run_protocol reads each engine's (a, b) block as a view into the full
        # moments; the polariton formula gives the contiguous blocks' numbers
        pairs = {"gaussian": [(m[:4].copy(), c[:4, :4].copy()) for m, c in zip(g.means, g.covs)],
                 "fock": fock_pairs}
        for engine, traj in trajs.items():
            for d, (mean, cov), n_pol in zip(traj.delta, pairs[engine], traj.n_polariton):
                basis = bogoliubov_basis(d, cfg.params.omega_b, cfg.params.g)
                assert pair_occupations(mean, cov, basis) == tuple(n_pol)
        traj = trajs["gaussian"]
        for d, m, c, n_pol in zip(traj.delta, g.means, g.covs, traj.n_polariton):
            basis = bogoliubov_basis(d, cfg.params.omega_b, cfg.params.g)
            state = gaussian.GaussianState(mean=m, cov=c)
            assert gaussian.polariton_occupations(state, basis) == tuple(n_pol)


def walk_deltas(sched, samples_per_stroke):
    """delta at every sample as the engines form it from the stroke walk: the
    walked span's ``delta_values_local`` at (sample - span.t_start).  A sample
    that ends a stroke is where the next stroke's walk starts, except the last."""
    walk = stroke_walk(sched, 0.0, sched.total_duration, samples_per_stroke)
    out = []
    for j, (span, seg_start, ends) in enumerate(walk):
        owned = np.concatenate(([seg_start], ends if j == len(walk) - 1 else ends[:-1]))
        out.append(span.delta_values_local(owned - span.t_start))
    return np.concatenate(out)


class TestDeltaColumn:
    """The delta column is the detuning the engines integrate with, bitwise."""

    def run(self, name, engine):
        cfg = parse_cycle_config(load_config_file(name), for_validate=name == "smalltest")
        # smaller cutoffs than the config's keep the Fock run short; the
        # schedule and the sample grid, which fix delta, are unchanged
        fock = FockOptions(cutoffs=(5, 5, 6), leakage_threshold=1e-2)
        return cfg, run_protocol(cfg.params, cfg.schedule, engine, cfg.initial, tol=cfg.tol,
                                 samples_per_stroke=cfg.samples_per_stroke,
                                 fock_options=fock)

    @pytest.mark.parametrize("name", ["fig1", "smalltest"])
    def test_gaussian(self, name):
        cfg, traj = self.run(name, "gaussian")
        assert np.array_equal(traj.delta, walk_deltas(cfg.schedule, cfg.samples_per_stroke))

    def test_fock(self, monkeypatch):
        # each ramp segment evaluates its detunings in one call on a (stage,
        # step) grid whose first entry is the segment's starting sample; each
        # hold or exchange segment takes every Taylor step at its stroke's one
        # detuning, which is also the segment's starting sample
        used = []  # per output sample, the detunings of the segment after it
        local, taylor, occupations = (StrokeSpan.delta_values_local, fock._taylor_step,
                                      fock.mode_occupations)

        def spy(span, t_local):
            values = local(span, t_local)
            if np.ndim(t_local) == 2:
                used[-1].append(values[0, 0])
            return values

        def spy_taylor(gen, rho, bands, delta, *a):
            used[-1].append(delta)
            return taylor(gen, rho, bands, delta, *a)

        def mark(*a):
            used.append([])
            return occupations(*a)

        monkeypatch.setattr(StrokeSpan, "delta_values_local", spy)
        monkeypatch.setattr(fock, "_taylor_step", spy_taylor)
        monkeypatch.setattr(fock, "mode_occupations", mark)
        cfg, traj = self.run("smalltest", "fock")
        assert np.array_equal(traj.delta, walk_deltas(cfg.schedule, cfg.samples_per_stroke))
        assert len(used) == traj.delta.size and used[-1] == []
        for start, seg in zip(traj.delta[:-1], used[:-1]):
            assert seg and np.array_equal(seg, np.full(len(seg), start))


class TestAnalyzeCycles:
    def _synthetic_trajectory(self, p, sched):
        """Trajectory whose target occupations follow the analytic map exactly."""
        spans = tuple(sched.spans())
        basis = bogoliubov_basis(p.delta_f, p.omega_b, p.g)
        eta, _ = exchange_efficiency(basis, p.delta_targets[0], p.omega_0)
        r = float(np.exp(-p.gamma * sched.period))
        cmp_params = CoolingMapParams(eta=eta, r=r, n_a=p.n_a, n_c=p.n_targets[0])
        posts = iterate_cooling_map(cmp_params, p.n_targets[0], sched.cycle_count)
        times = sched.boundaries()
        # samples sit on span boundaries: sample i is the start of span i;
        # pin the pre/post values of each exchange span by index
        n_c = np.empty_like(times)
        current = posts[0]
        for i, span in enumerate(spans):
            if span.kind is StrokeKind.EXCHANGE_PULSE:
                current = p.n_targets[0] + r * (posts[span.cycle] - p.n_targets[0])
                n_c[i] = current
                current = posts[span.cycle + 1]
            else:
                n_c[i] = current
        n_c[-1] = current
        occupations = np.column_stack([np.full_like(times, p.n_a),
                                       np.full_like(times, p.n_b), n_c])
        return Trajectory(
            times=times, occupations=occupations,
            n_polariton=np.zeros((times.size, 2)),
            delta=sched.delta_at(times),
            omega0_active=np.zeros_like(times),
            stroke_index=np.zeros(times.size, dtype=int),
            markers=times, spans=spans, engine="synthetic",
            mode_labels=("a", "b", "c"), physicality=np.zeros_like(times),
        ), cmp_params

    def test_synthetic_map_reproduced_exactly(self, fig1_params):
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1,
                                    targets=[0], cycles=4)
        traj, cmp_params = self._synthetic_trajectory(fig1_params, sched)
        report = analyze_cycles(traj, fig1_params)
        for rec in report.cycles:
            assert rec.deviation < 1e-12
        assert report.cooling_limit == pytest.approx(cooling_limit(cmp_params), rel=1e-12)

    def test_single_cycle_gives_one_pair(self, fig1_params):
        sched = build_default_cycle(fig1_params, 0.04, 0.008, 0.04, 0.1,
                                    targets=[0], cycles=1)
        traj, _ = self._synthetic_trajectory(fig1_params, sched)
        report = analyze_cycles(traj, fig1_params)
        assert len(report.cycles) == 1

    def test_requires_exchange_markers(self, fig1_params):
        sched = CycleSchedule(strokes=(Stroke.hold(0.1),), cycle_count=1,
                              delta_start=-6000.0)
        traj = run_protocol(fig1_params, sched, "gaussian", samples_per_stroke=4)
        with pytest.raises(ValueError, match="no exchange stroke"):
            analyze_cycles(traj, fig1_params)


class TestEmpiricalMapSlope:
    def test_matches_analytic_contraction(self):
        # Detune the pulse so eta ~ 0.5: the per-cycle contraction
        # (1 - eta) r is then large enough to measure against the
        # cycle-to-cycle interference wiggle (near eta = 1 the residual
        # contraction ~1e-3 drowns in it).
        p = params(delta_targets=(1616.0,))
        basis = bogoliubov_basis(p.delta_f, p.omega_b, p.g)
        eta, omega_p = exchange_efficiency(basis, 1616.0, p.omega_0)
        assert 0.3 < eta < 0.7
        tau2 = float(np.pi / (2 * omega_p))
        sched = build_default_cycle(p, 0.04, tau2, 0.04, 0.1, targets=[0],
                                    cycles=4, ramp_shape="adiabatic")
        init = InitialOccupations(basis="polariton", pair=(0.5, 2.0), targets=(12.0,))
        traj = run_protocol(p, sched, "gaussian", init, tol=1e-7,
                            samples_per_stroke=8)
        report = analyze_cycles(traj, p)
        posts = np.array([c.n_after for c in report.cycles])
        diffs = np.diff(posts)
        slope = float(np.mean(diffs[1:] / diffs[:-1]))
        analytic = (1.0 - report.eta) * report.r
        assert abs(slope - analytic) / analytic < 0.25


class TestAdiabaticityProbe:
    def test_decoupled_modes_conserved(self):
        # g = 0 on a ramp that stays on one side of the crossing
        p = params(g=0.0, delta_i=-6000.0, delta_f=-2500.0)
        assert adiabaticity_probe(p, 0.02) < 1e-9

    def test_slow_ramp_is_adiabatic(self, fig1_params):
        # tau = 40 / (2 g)
        assert adiabaticity_probe(fig1_params, 0.1) < 0.05

    def test_fast_ramp_is_diabatic(self, fig1_params):
        # tau = 0.1 / (2 g)
        assert adiabaticity_probe(fig1_params, 0.00025) > 0.2

    def test_monotone_in_ramp_duration(self, fig1_params):
        taus = [0.0125, 0.025, 0.05, 0.1]
        probes = [adiabaticity_probe(fig1_params, tau) for tau in taus]
        violations = [nxt - prev for prev, nxt in zip(probes[:-1], probes[1:])
                      if nxt > prev + 1e-3]
        assert not violations, f"non-monotone probe values: {probes}"

    def test_linear_ramp_transfer_is_landau_zener(self):
        # a linear sweep across the anticrossing leaves the diabatic branch
        # with P_LZ = exp(-2 pi g^2 / v), v = |delta_f - delta_i| / tau, and
        # takes that share of n_b - n_a into polariton A; the counter-rotating
        # terms' correction falls with g / omega_b
        residuals = {}
        for ratio, taus in ((0.025, (0.2, 0.4)), (0.01, (1.0, 2.0))):
            p = params(g=ratio * 2000.0)
            for tau in taus:
                v = abs(p.delta_f - p.delta_i) / tau
                p_lz = math.exp(-2.0 * math.pi * p.g**2 / v)
                probe = adiabaticity_probe(p, tau, "linear")
                residuals.setdefault(ratio, []).append(abs(probe / (p_lz * (p.n_b - p.n_a)) - 1))
        assert max(max(r) for r in residuals.values()) <= 5e-3, residuals
        assert max(residuals[0.01]) < max(residuals[0.025]), residuals

    @pytest.mark.parametrize("tau", [0.0125, 0.05])
    @pytest.mark.parametrize("shape", ["linear", "cosine", "adiabatic"])
    def test_one_segment_matches_fine_sampled_run(self, fig1_params, monkeypatch, shape, tau):
        # one output segment, error-checked at the end state, reads the same
        # transfer within its tol (1e-7) as 64 segments at tol 1e-12
        probe = adiabaticity_probe(fig1_params, tau, shape)

        def fine_run_protocol(*args, **kwargs):
            return run_protocol(*args, **{**kwargs, "tol": 1e-12, "samples_per_stroke": 64})

        monkeypatch.setattr("omcool.runner.run_protocol", fine_run_protocol)
        reference = adiabaticity_probe(fig1_params, tau, shape)
        assert abs(probe - reference) <= 1e-7

    def test_asks_for_one_output_segment(self, fig1_params, monkeypatch):
        calls = []
        propagate = gaussian.propagate

        def spy(*args, **kwargs):
            run = propagate(*args, **kwargs)
            calls.append((kwargs["samples_per_stroke"], run.times.size))
            return run

        monkeypatch.setattr(gaussian, "propagate", spy)
        adiabaticity_probe(fig1_params, 0.05, "adiabatic")
        assert calls == [(1, 2)]
