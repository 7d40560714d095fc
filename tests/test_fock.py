import math

import numpy as np
import pytest

import omcool.fock as fock_mod
from omcool.errors import IntegrationError, TruncationError
from omcool.fock import (
    FockState,
    _Generator,
    ModeOperators,
    mode_occupations,
    number_state,
    propagate_fock,
    quadrature_moments,
    thermal_state,
)
from omcool.params import SystemParams
from omcool.polariton import rabi_populations
from omcool.schedule import CycleSchedule, Stroke, adiabatic_ramp_profile


def params(**over):
    kwargs = dict(omega_b=10.0, g=2.0, kappa=8.0, gamma=0.5, n_a=0.1, n_b=0.2,
                  delta_i=-30.0, delta_f=-3.0, omega_0=5.0,
                  delta_targets=(10.0,), n_targets=(0.25,))
    kwargs.update(over)
    return SystemParams(**kwargs)


class TestOperators:
    def test_qubit_truncated_ladder(self):
        ops = ModeOperators((2,))
        assert np.array_equal(ops.annihilation(0), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_commutator_defect_only_in_top_level(self):
        ops = ModeOperators((7,))
        a = ops.annihilation(0)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(7)
        expected[-1, -1] = -(7 - 1)
        assert np.allclose(comm, expected, atol=1e-12)

    def test_product_dimension(self):
        assert ModeOperators((4, 4, 6)).dim == 96

    def test_number_diagonal(self):
        ops = ModeOperators((3, 2))
        n0 = ops.number(0)
        assert np.array_equal(np.diag(n0), [0, 0, 1, 1, 2, 2])
        assert np.array_equal(n0, np.diag(np.diag(n0)))

    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            ModeOperators((1, 4))


class TestStates:
    def test_vacuum_thermal(self):
        st = thermal_state((4, 4), (0.0, 0.0))
        assert st.rho[0, 0] == 1.0
        assert np.trace(st.rho) == pytest.approx(1.0)
        assert np.array_equal(mode_occupations(st), [0.0, 0.0])

    def test_geometric_weights(self):
        st = thermal_state((20, 2), (1.0, 0.0))
        diag = np.real(np.diag(st.rho)).reshape(20, 2)[:, 0]
        ratios = diag[1:] / diag[:-1]
        assert ratios == pytest.approx(np.full(19, 0.5), rel=1e-12)
        assert mode_occupations(st)[0] == pytest.approx(1.0, abs=1e-4)

    def test_heavy_tail_rejected(self):
        with pytest.raises(TruncationError, match="levels"):
            thermal_state((6, 2), (12.0, 0.0))

    def test_number_state(self):
        st = number_state((5, 3), (4, 1))
        assert np.array_equal(mode_occupations(st), [4.0, 1.0])
        with pytest.raises(ValueError, match="cutoff"):
            number_state((5, 3), (5, 0))

    def test_validate_flags_bad_trace(self):
        st = number_state((3, 2), (0, 0))
        bad = FockState(rho=2.0 * st.rho, cutoffs=st.cutoffs)
        with pytest.raises(IntegrationError, match="trace"):
            bad.validate()

    def test_quadrature_moments_of_thermal_state(self):
        cutoff = 8
        st = thermal_state((cutoff, cutoff), (0.4, 0.6))
        ops = ModeOperators((cutoff, cutoff))
        mean, cov = quadrature_moments(st, ops)
        assert mean == pytest.approx(np.zeros(4), abs=1e-12)
        # enumeration oracle on the truncated space: for a diagonal state,
        # <x^2> = <p^2> = sum_k w_k (k + 1/2) - (c/2) w_top, the last term
        # being the top-level commutator defect of the truncated ladder
        expected = []
        for n in (0.4, 0.6):
            q = n / (n + 1.0)
            w = (1 - q) * q ** np.arange(cutoff)
            w /= w.sum()
            var = float(np.sum(w * (np.arange(cutoff) + 0.5)) - 0.5 * cutoff * w[-1])
            expected += [var, var]
        assert np.diag(cov) == pytest.approx(expected, rel=1e-12)
        occ = mode_occupations(st, ops)
        assert occ == pytest.approx([0.4, 0.6], abs=5e-3)


def dense_rhs(p, ops, rho, target, amplitude, delta):
    """-i[H, rho] plus the thermal dissipators, from dense ladder matrices."""
    a = [ops.annihilation(m) for m in range(len(ops.cutoffs))]
    ad = [x.conj().T for x in a]
    h = -delta * ad[0] @ a[0] + p.omega_b * ad[1] @ a[1]
    h = h + p.g * (a[0] + ad[0]) @ (a[1] + ad[1])
    for k, dk in enumerate(p.delta_targets):
        h = h + dk * ad[2 + k] @ a[2 + k]
    if amplitude != 0.0:
        c, cd = a[2 + target], ad[2 + target]
        h = h + amplitude * (ad[1] @ c + cd @ a[1])
    out = -1j * (h @ rho - rho @ h)
    rates = [p.kappa, p.gamma] + [p.gamma] * len(p.delta_targets)
    nbars = [p.n_a, p.n_b, *p.n_targets]
    for x, xd, rate, n in zip(a, ad, rates, nbars):
        out = out + rate * (n + 1.0) * (x @ rho @ xd - 0.5 * (xd @ x @ rho + rho @ xd @ x))
        out = out + rate * n * (xd @ rho @ x - 0.5 * (x @ xd @ rho + rho @ x @ xd))
    return out


def random_hermitian(dim, seed):
    """A random Hermitian matrix: every entry, so all four parity blocks, nonzero."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / dim


def block_rhs(gen, rho, bands, delta):
    """The generator's slope of a natural-order rho, split into blocks and
    reassembled."""
    buf = gen.split(rho)
    return gen.join(gen.rhs(buf, bands, delta, np.empty_like(buf)))


class TestGenerator:
    @pytest.mark.parametrize("cutoffs, targets", [
        ((2, 3), ()),
        ((3, 3, 4), ((10.0, 0.25),)),
        ((3, 3, 3, 2), ((10.0, 0.25), (7.0, 0.4))),
    ])
    def test_rhs_matches_dense_master_equation(self, cutoffs, targets):
        p = params(delta_targets=tuple(t[0] for t in targets),
                   n_targets=tuple(t[1] for t in targets))
        ops = ModeOperators(cutoffs)
        rho = random_hermitian(ops.dim, sum(cutoffs))
        gen = _Generator(p, ops, rho)
        # a rho with nonzero cross blocks carries all four blocks
        assert gen.size == ops.dim**2
        assert np.array_equal(gen.join(gen.split(rho)), rho)
        pulses = [(0, 0.0)] + [(k, amp) for k in range(len(targets)) for amp in (5.0, 2.5)]
        for target, amplitude in pulses:
            bands = gen.bands(target, amplitude)
            for delta in (-30.0, -7.5, -3.0):
                got = block_rhs(gen, rho, bands, delta)
                want = dense_rhs(p, ops, rho, target, amplitude, delta)
                assert np.max(np.abs(got - want)) < 1e-12, (target, amplitude, delta)

    def test_rhs_leaves_its_input_and_fills_out(self):
        p = params()
        ops = ModeOperators((3, 3, 4))
        rho = random_hermitian(ops.dim, 5)
        gen = _Generator(p, ops, rho)
        buf = gen.split(rho)
        before = buf.copy()
        out = np.full_like(buf, np.nan)
        got = gen.rhs(buf, gen.bands(0, 5.0), -3.0, out)
        assert got is out and np.all(np.isfinite(out))
        assert np.array_equal(buf, before)
        again = gen.rhs(buf, gen.bands(0, 5.0), -3.0, np.empty_like(buf))
        assert np.array_equal(out, again)

    def test_rhs_of_hermitian_rho_is_exactly_hermitian(self):
        # propagate_fock keeps no projection onto Hermitian matrices, so the
        # generator itself must map a Hermitian rho to an exactly Hermitian slope
        p = params(delta_targets=(10.0, 7.0), n_targets=(0.25, 0.4))
        ops = ModeOperators((3, 3, 3, 2))
        rho = random_hermitian(ops.dim, 11)
        gen = _Generator(p, ops, rho)
        for target, amplitude in ((0, 0.0), (0, 5.0), (1, 2.5)):
            out = block_rhs(gen, rho, gen.bands(target, amplitude), -7.5)
            assert np.array_equal(out, out.conj().T), (target, amplitude)

    def test_holds_no_dense_operator(self):
        ops = ModeOperators((6, 6, 8))
        for rho in (thermal_state(ops.cutoffs, (0.1, 0.2, 0.25)).rho,
                    random_hermitian(ops.dim, 3)):
            gen = _Generator(params(), ops, rho)
            square = [name for name, value in vars(gen).items()
                      if isinstance(value, np.ndarray) and value.shape == (ops.dim, ops.dim)]
            assert square == []
        # the operators hold per-mode diagonals and (offset, weight) shifts, none d x d
        held = [x for v in vars(ops).values() if isinstance(v, list) for x in v]
        weights = [x[1] if isinstance(x, tuple) else x for x in held]
        assert weights and all(w.shape == (ops.dim,) for w in weights)


@pytest.mark.parametrize("cutoffs, modes", [((3, 4, 2), (0, 1)), ((3, 4, 2), (2, 0)),
                                             ((5,), (0,))])
def test_quadrature_moments_match_dense_operators(cutoffs, modes):
    ops = ModeOperators(cutoffs)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(ops.dim, ops.dim)) + 1j * rng.normal(size=(ops.dim, ops.dim))
    rho = x @ x.conj().T
    st = FockState(rho=rho / np.trace(rho).real, cutoffs=cutoffs)
    quads = []
    for m in modes:
        a = ops.annihilation(m)
        quads += [(a + a.conj().T) / np.sqrt(2.0), -1j * (a - a.conj().T) / np.sqrt(2.0)]
    mean = np.array([np.trace(q @ st.rho).real for q in quads])
    second = np.array([[0.5 * np.trace((qi @ qj + qj @ qi) @ st.rho).real for qj in quads]
                       for qi in quads])
    got_mean, got_cov = quadrature_moments(st, ops, modes)
    assert np.max(np.abs(got_mean - mean)) < 1e-12
    assert np.max(np.abs(got_cov - (second - np.outer(mean, mean)))) < 1e-12


class TestPropagation:
    def test_single_mode_decay(self):
        p = params(g=0.0, omega_0=0.0, gamma=0.0, kappa=40.0, n_a=0.0,
                   omega_b=1.0, delta_i=-2.0, delta_f=-1.0,
                   delta_targets=(), n_targets=())
        sched = CycleSchedule(strokes=(Stroke.hold(0.1),), cycle_count=1,
                              delta_start=-2.0)
        traj = propagate_fock(number_state((5, 2), (1, 0)), p, sched, 0.1)
        exact = np.exp(-40.0 * traj.times)
        assert np.max(np.abs(traj.occupations[:, 0] - exact)) < 1e-6

    def test_resonant_exchange_matches_closed_form(self):
        p = params(g=0.0, kappa=0.0, gamma=0.0, n_a=0.0, n_b=0.0,
                   omega_b=2000.0, delta_i=-2000.0, delta_f=-600.0,
                   omega_0=200.0, delta_targets=(2000.0,), n_targets=(0.0,))
        t_swap = math.pi / 400.0
        sched = CycleSchedule(strokes=(Stroke.exchange(0, 200.0, t_swap),),
                              cycle_count=1, delta_start=-2000.0)
        traj = propagate_fock(number_state((2, 6, 6), (0, 0, 2)), p, sched, t_swap)
        n_b, n_c = rabi_populations(0.0, 2.0, 2000.0, 2000.0, 200.0, traj.times)
        assert np.max(np.abs(traj.occupations[:, 1] - n_b)) < 1e-5
        assert np.max(np.abs(traj.occupations[:, 2] - n_c)) < 1e-5

    def test_stationary_without_couplings_or_baths(self):
        p = params(g=0.0, omega_0=0.0, kappa=0.0, gamma=0.0)
        sched = CycleSchedule(strokes=(Stroke.hold(0.05),), cycle_count=1,
                              delta_start=-30.0)
        st = thermal_state((6, 6, 6), (0.1, 0.2, 0.25))
        traj = propagate_fock(st, p, sched, 0.05)
        assert np.max(np.abs(traj.final_state.rho - st.rho)) < 1e-12

    def test_invariants_recorded_and_satisfied(self, fock_checks):
        p = params()
        sched = CycleSchedule(strokes=(Stroke.hold(0.2),), cycle_count=1,
                              delta_start=-30.0)
        traj = propagate_fock(thermal_state((6, 6, 6), (0.1, 0.2, 0.25)), p,
                              sched, 0.2)
        trace_errors, hermiticity_errors, min_eigenvalues = np.array(fock_checks).T
        assert np.array_equal(min_eigenvalues, traj.physicality)
        assert np.max(trace_errors) < 1e-9
        assert np.max(hermiticity_errors) < 1e-10
        assert np.min(traj.physicality) > -1e-8

    def test_rho_stays_exactly_hermitian_without_projection(self, fock_checks):
        # a ramp into an exchange pulse exercises every coupling band
        p = params()
        sched = CycleSchedule(strokes=(Stroke.ramp(-30.0, -3.0, 0.05, shape="cosine"),
                                       Stroke.exchange(0, 5.0, 0.05)),
                              cycle_count=1, delta_start=-30.0)
        traj = propagate_fock(thermal_state((5, 5, 6), (0.05, 0.05, 0.1)), p, sched, 0.1,
                              samples_per_stroke=4)
        assert len(fock_checks) == traj.times.size
        assert np.all(np.array(fock_checks)[:, 1] == 0.0)
        rho = traj.final_state.rho
        assert np.array_equal(rho, rho.conj().T)

    def test_coherence_carried_in_cross_blocks(self):
        # mode a in (|0> + |1>)/sqrt(2): its coherence lives in the cross
        # parity blocks, and without couplings it rotates and decays as
        # <a>(t) = <a>(0) exp((i delta - kappa/2) t)
        p = params(g=0.0, omega_0=0.0, gamma=0.0, n_a=0.0)
        sched = CycleSchedule(strokes=(Stroke.hold(0.1),), cycle_count=1,
                              delta_start=-30.0)
        cutoffs = (3, 2, 2)
        psi = np.zeros(12)
        psi[[0, 4]] = 1.0 / math.sqrt(2.0)  # |0,0,0> and |1,0,0>
        st = FockState(rho=np.outer(psi, psi).astype(complex), cutoffs=cutoffs)
        traj = propagate_fock(st, p, sched, 0.1)
        a_mean = (traj.means[:, 0] + 1j * traj.means[:, 1]) / math.sqrt(2.0)
        exact = 0.5 * np.exp((1j * -30.0 - 0.5 * p.kappa) * traj.times)
        assert np.max(np.abs(a_mean - exact)) < 1e-8

    def test_thermal_start_carries_only_parity_diagonal_blocks(self, monkeypatch):
        p = params()
        sched = CycleSchedule(strokes=(Stroke.ramp(-30.0, -3.0, 0.05),
                                       Stroke.exchange(0, 5.0, 0.05)),
                              cycle_count=1, delta_start=-30.0)
        cutoffs = (3, 4, 3)
        sizes, rhs = set(), _Generator.rhs

        def sized_rhs(self, rho, *a):
            sizes.add(rho.size)
            return rhs(self, rho, *a)

        monkeypatch.setattr(_Generator, "rhs", sized_rhs)
        traj = propagate_fock(thermal_state(cutoffs, (0.05, 0.1, 0.1)), p, sched, 0.1,
                              samples_per_stroke=4, leakage_threshold=0.5)
        d = 36
        assert sizes == {d * d // 2}
        parity = np.add.reduce(ModeOperators(cutoffs).number_diag) % 2
        even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
        rho = traj.final_state.rho
        assert rho.shape == (d, d)
        assert not np.any(rho[np.ix_(even, odd)]) and not np.any(rho[np.ix_(odd, even)])
        # the carried blocks did evolve off their diagonals
        assert np.any(rho[np.ix_(even, even)] - np.diag(np.diag(rho)[even]))

    def test_leakage_monitor_trips(self):
        # pump the target mode hard against a tiny cutoff: the swap pushes
        # population into the top level and must abort with a clear error
        p = params(g=0.0, kappa=0.0, gamma=0.0, n_a=0.0, n_b=0.0,
                   omega_b=10.0, omega_0=5.0, delta_targets=(10.0,),
                   n_targets=(0.0,))
        t_swap = math.pi / 10.0
        sched = CycleSchedule(strokes=(Stroke.exchange(0, 5.0, t_swap),),
                              cycle_count=1, delta_start=-30.0)
        st = number_state((2, 3, 4), (0, 2, 3))
        with pytest.raises(TruncationError, match="cutoff"):
            propagate_fock(st, p, sched, t_swap)

    def test_coarse_dt_rejected(self):
        p = params()
        sched = CycleSchedule(strokes=(Stroke.hold(0.1),), cycle_count=1,
                              delta_start=-30.0)
        st = thermal_state((6, 6, 6), (0.1, 0.2, 0.25))
        with pytest.raises(ValueError, match="dt"):
            propagate_fock(st, p, sched, 0.1, dt=0.01)

    @pytest.mark.parametrize("dt", [-1e-4, 0.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_dt_rejected(self, dt):
        p = params()
        sched = CycleSchedule(strokes=(Stroke.hold(0.05),), cycle_count=1,
                              delta_start=-30.0)
        st = thermal_state((6, 6, 6), (0.1, 0.2, 0.25))
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            propagate_fock(st, p, sched, 0.05, dt=dt)

    def test_deterministic(self):
        p = params()
        sched = CycleSchedule(strokes=(Stroke.hold(0.05),), cycle_count=1,
                              delta_start=-30.0)
        st = thermal_state((6, 6, 6), (0.1, 0.2, 0.25))
        t1 = propagate_fock(st, p, sched, 0.05)
        t2 = propagate_fock(st, p, sched, 0.05)
        assert np.array_equal(t1.final_state.rho, t2.final_state.rho)
        assert np.array_equal(t1.occupations, t2.occupations)


def _step_counts(monkeypatch, *args, **kwargs):
    """Run propagate_fock and count its RK4 steps (four rhs calls each)
    between consecutive output samples."""
    calls, marks = [0], []
    rhs, occupations = _Generator.rhs, fock_mod.mode_occupations

    def counted_rhs(self, *a):
        calls[0] += 1
        return rhs(self, *a)

    def marked_occupations(*a):
        marks.append(calls[0])
        return occupations(*a)

    monkeypatch.setattr(_Generator, "rhs", counted_rhs)
    monkeypatch.setattr(fock_mod, "mode_occupations", marked_occupations)
    traj = propagate_fock(*args, **kwargs)
    monkeypatch.undo()
    assert all(m % 4 == 0 for m in marks)
    return traj, np.diff(marks) // 4


class TestStepRule:
    """Each sample segment steps at 1/(50 f), f the frequency scale on that
    segment alone; ``dt`` caps it up to the stroke-wide 1/(50 f_max)."""

    def test_segment_steps_follow_local_detuning(self, monkeypatch):
        # linear ramps -30 -> -3 and back in 4 segments of 0.0525 each, with a
        # hold at -3 between them; every other frequency scale of params() is
        # at most 10
        p = params()
        sched = CycleSchedule(strokes=(Stroke.ramp(-30.0, -3.0, 0.21), Stroke.hold(0.05),
                                       Stroke.ramp(-3.0, -30.0, 0.21)),
                              cycle_count=1, delta_start=-30.0)
        traj, steps = _step_counts(monkeypatch, thermal_state((3, 3, 2), (0.05, 0.05, 0.0)),
                                   p, sched, 0.47, samples_per_stroke=4,
                                   leakage_threshold=0.5)
        t = traj.times
        deltas = np.where(t <= 0.21, -30.0 + 27.0 * t / 0.21,
                          np.where(t <= 0.26, -3.0, -3.0 - 27.0 * (t - 0.26) / 0.21))
        f_seg = np.maximum(np.maximum(np.abs(deltas[:-1]), np.abs(deltas[1:])), 10.0)
        expected = np.ceil(np.diff(t) * 50.0 * f_seg)
        assert steps.tolist() == expected.tolist() == [79, 62, 44, 27, 7, 7, 7, 7,
                                                       27, 44, 62, 79]
        # the hold's f is its stroke-wide f (7 steps as before); each ramp took
        # 4 * 79 steps at its stroke-wide f = 30
        assert steps[:4].sum() == steps[8:].sum() < 4 * 79

    def test_adiabatic_ramps_agree_with_stroke_wide_steps(self, monkeypatch):
        p = params()
        down = adiabatic_ramp_profile(-30.0, -3.0, p.omega_b, p.g)
        sched = CycleSchedule(
            strokes=(Stroke.ramp(-30.0, -3.0, 0.31, shape="adiabatic", profile=down),
                     Stroke.ramp(-3.0, -30.0, 0.31, shape="adiabatic",
                                 profile=tuple(reversed(down)))),
            cycle_count=1, delta_start=-30.0)
        st = thermal_state((3, 4, 2), (0.05, 0.1, 0.0))
        kwargs = dict(samples_per_stroke=6, leakage_threshold=0.5)
        local, local_steps = _step_counts(monkeypatch, st, p, sched, 0.62, **kwargs)
        # both ramps reach |delta| = 30, so one dt is each stroke's own bound
        wide, wide_steps = _step_counts(monkeypatch, st, p, sched, 0.62,
                                        dt=1.0 / (50.0 * 30.0), **kwargs)
        assert wide_steps.tolist() == np.ceil(np.diff(wide.times) * 1500.0).tolist()
        assert local_steps.sum() < 0.6 * wide_steps.sum()
        assert np.array_equal(local.times, wide.times)
        assert np.max(np.abs(local.occupations - wide.occupations)) < 1e-8
        assert np.max(np.abs(local.covs[:, :4, :4] - wide.covs[:, :4, :4])) < 1e-8

    def test_dt_capped_at_stroke_wide_bound(self):
        p = params()
        sched = CycleSchedule(strokes=(Stroke.ramp(-3.0, -30.0, 0.02),), cycle_count=1,
                              delta_start=-3.0)
        st = thermal_state((2, 2, 2), (0.0, 0.0, 0.0))
        bound = 1.0 / (50.0 * 30.0)
        propagate_fock(st, p, sched, 0.02, dt=bound, samples_per_stroke=2,
                       leakage_threshold=1.0)
        with pytest.raises(ValueError, match="dt"):
            propagate_fock(st, p, sched, 0.02, dt=bound * (1.0 + 1e-6),
                           samples_per_stroke=2)


class TestEngineAgreement:
    def test_damped_exchange_matches_gaussian(self):
        # two coupled mechanical modes with thermal damping; the cavity is a
        # vacuum spectator (g = 0), small enough for tight cutoffs
        from omcool.gaussian import propagate as propagate_gauss
        from omcool.gaussian import thermal_state as gauss_thermal

        p = params(g=0.0, kappa=0.0, n_a=0.0)
        t_end = 0.45
        sched = CycleSchedule(strokes=(Stroke.exchange(0, 5.0, t_end),),
                              cycle_count=1, delta_start=-30.0)
        occ0 = [0.0, 0.2, 0.25]
        ftraj = propagate_fock(thermal_state((2, 6, 6), occ0), p, sched, t_end,
                               samples_per_stroke=8)
        gtraj = propagate_gauss(gauss_thermal(occ0), sched, t_end, tol=1e-10,
                                params=p, samples_per_stroke=8)
        gocc = gtraj.occupations
        assert np.array_equal(gtraj.times, ftraj.times)
        assert np.max(np.abs(gocc - ftraj.occupations)) < 5e-4
