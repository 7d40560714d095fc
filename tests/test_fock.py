import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import sparse
from scipy.linalg import expm as scipy_expm

import omcool._fock_engine as engine_mod
import omcool.fock as fock_mod
from omcool.config import load_config_file, parse_cycle_config
from omcool.errors import IntegrationError, TruncationError
from omcool._fock_engine import _Generator
from omcool.fock import (
    FockState,
    ModeOperators,
    mode_occupations,
    number_state,
    propagate_fock,
    quadrature_moments,
    thermal_state,
)
from omcool.gaussian import _stroke_generator
from omcool.params import SystemParams
from omcool.polariton import rabi_populations
from omcool.runner import FockOptions
from omcool.schedule import CycleSchedule, Stroke


# the largest leakage threshold in (0, 1): no truncation guard on these tiny
# spaces, where no top-level population comes near 1
NO_GUARD = math.nextafter(1.0, 0.0)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_occupations_rejected(self, bad):
        for occupations in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="occupations must be finite"):
                thermal_state((2, 2), occupations)

    def test_heavy_tail_rejected(self):
        with pytest.raises(TruncationError, match="levels"):
            thermal_state((6, 2), (12.0, 0.0))

    def test_number_state(self):
        st = number_state((5, 3), (4, 1))
        assert np.array_equal(mode_occupations(st), [4.0, 1.0])
        assert np.array_equal(mode_occupations(number_state((5, 3), np.array([4, 1]))), [4.0, 1.0])
        with pytest.raises(ValueError, match="cutoff"):
            number_state((5, 3), (5, 0))
        # a bool or a float level is refused, not truncated
        for levels in ((1.7, True), (1, True), (1.0, 1), (1, "1")):
            with pytest.raises(ValueError, match="every level must be an integer"):
                number_state((3, 3), levels)

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


def dense_h_off(p, ops, target, amplitude):
    """H_off = g (a + a^dag)(b + b^dag) + amplitude (b^dag c + c^dag b), dense."""
    a = [ops.annihilation(m) for m in range(len(ops.cutoffs))]
    h = p.g * (a[0] + a[0].T) @ (a[1] + a[1].T)
    if amplitude != 0.0:
        c = a[2 + target]
        h = h + amplitude * (a[1].T @ c + c.T @ a[1])
    return h


def dense_rhs(p, ops, rho, target, amplitude, delta):
    """-i[H, rho] plus the thermal dissipators, from dense ladder matrices."""
    a = [ops.annihilation(m) for m in range(len(ops.cutoffs))]
    ad = [x.conj().T for x in a]
    h = -delta * ad[0] @ a[0] + p.omega_b * ad[1] @ a[1]
    for k, dk in enumerate(p.delta_targets):
        h = h + dk * ad[2 + k] @ a[2 + k]
    h = h + dense_h_off(p, ops, target, amplitude)
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


def parity_diagonal(cutoffs, rho):
    """``rho`` with its cross-parity blocks set to 0, the form a thermal
    start keeps."""
    odd = np.indices(cutoffs).sum(0).ravel() % 2 == 1
    return np.where(odd[:, None] == odd[None, :], rho, 0.0)


class TestInputRules:
    """The cutoff and leakage-threshold rules hold for every entry point."""

    @pytest.mark.parametrize("threshold", [math.nan, 0.0, 1.0, 5.0])
    def test_leakage_threshold_outside_unit_interval_rejected(self, threshold):
        sched = CycleSchedule(strokes=(Stroke.hold(0.05),), cycle_count=1,
                              delta_start=-30.0)
        st = thermal_state((3, 3, 3), (0.1, 0.2, 0.25), leakage_threshold=0.5)
        calls = [lambda: FockOptions(cutoffs=(3, 3, 3), leakage_threshold=threshold),
                 lambda: thermal_state((3, 3, 3), (0.1, 0.2, 0.25),
                                       leakage_threshold=threshold),
                 lambda: propagate_fock(st, params(), sched, 0.05,
                                        leakage_threshold=threshold)]
        for call in calls:
            with pytest.raises(ValueError, match=r"leakage_threshold must lie in \(0, 1\)"):
                call()

    @pytest.mark.parametrize("bad", [True, 3.7, 3.0, "3"])
    def test_cutoff_must_be_an_integer(self, bad):
        cutoffs = (3, bad)
        calls = [lambda: FockOptions(cutoffs=cutoffs),
                 lambda: FockState(rho=np.eye(9) / 9, cutoffs=cutoffs),
                 lambda: ModeOperators(cutoffs),
                 lambda: thermal_state(cutoffs, (0.1, 0.1)),
                 lambda: number_state(cutoffs, (0, 0))]
        for call in calls:
            with pytest.raises(ValueError, match="every cutoff must be an integer of at least 2"):
                call()

    def test_numpy_integer_cutoffs_become_ints(self):
        st = thermal_state(np.array([3, 2]), (0.1, 0.1), leakage_threshold=0.5)
        assert st.cutoffs == (3, 2) and all(type(c) is int for c in st.cutoffs)


class TestGenerator:
    @pytest.mark.parametrize("cutoffs, targets", [
        ((2, 3), ()),
        ((3, 3, 4), ((10.0, 0.25),)),
        ((3, 3, 3, 2), ((10.0, 0.25), (7.0, 0.4))),
        ((3, 4, 3), ((10.0, 0.25),)),  # an odd last cutoff: gathered g bands
    ])
    def test_rhs_matches_dense_master_equation(self, cutoffs, targets):
        p = params(delta_targets=tuple(t[0] for t in targets),
                   n_targets=tuple(t[1] for t in targets))
        ops = ModeOperators(cutoffs)
        four = random_hermitian(ops.dim, sum(cutoffs))
        thermal = thermal_state(cutoffs, (0.3, 0.2, 0.25, 0.4)[:len(cutoffs)],
                                leakage_threshold=NO_GUARD).rho
        odd = int(np.sum(np.indices(cutoffs).sum(0) % 2))
        two_blocks = odd**2 + (ops.dim - odd)**2
        # a rho with nonzero cross blocks carries all four blocks, a thermal
        # one (or any with zero cross blocks) the two parity-diagonal ones
        for rho, size in ((four, ops.dim**2), (thermal, two_blocks),
                          (parity_diagonal(cutoffs, four), two_blocks)):
            gen = _Generator(p, ops, rho)
            assert gen.size == size
            assert np.array_equal(gen.join(gen.split(rho)), rho)
            pulses = [(0, 0.0)] + [(k, amp) for k in range(len(targets)) for amp in (5.0, 2.5)]
            for target, amplitude in pulses:
                bands = gen.bands(target, amplitude)
                for delta in (-30.0, -7.5, -3.0):
                    got = block_rhs(gen, rho, bands, delta)
                    want = dense_rhs(p, ops, rho, target, amplitude, delta)
                    assert np.max(np.abs(got - want)) < 1e-12, (size, target, amplitude, delta)

    @pytest.mark.parametrize("cutoffs, couple, exchange", [
        # the g bands shift rows by a fixed offset when the cutoffs after
        # modes a and b multiply to an even number; the exchange bands of the
        # last mode gather at (6, 6, 8), and shift at (3, 4, 3)
        ((6, 6, 8), "slice", "gather"),
        ((3, 4, 3), "gather", "slice"),
    ])
    def test_row_shift_bands_read_slices(self, cutoffs, couple, exchange):
        ops = ModeOperators(cutoffs)
        rho = thermal_state(cutoffs, (0.1, 0.2, 0.25), leakage_threshold=NO_GUARD).rho
        gen = _Generator(params(), ops, rho)
        kinds = [{"slice" if isinstance(src, slice) else "gather" for _, src, _ in band}
                 for band in gen.bands(0, 5.0)]
        assert kinds == [{couple}] * 4 + [{exchange}] * 2
        for band in gen.bands(0, 5.0):
            for block, (rows, src, w) in zip(gen.rows, band):
                n = block.stop - block.start
                # a slice band reads inside its block; a gather band covers every row
                if isinstance(src, slice):
                    assert 0 <= src.start <= src.stop <= n
                    assert src.stop - src.start == rows.stop - rows.start == w.shape[0] > 0
                else:
                    assert rows == slice(None) and src.shape == (n,) and w.shape == (n, 1)

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

    @pytest.mark.parametrize("start", ["thermal", "two-block"])
    def test_two_block_rhs_is_bitwise_the_four_block_one(self, start):
        # carrying the zero cross blocks changes no operation on the diagonal
        # blocks, so their slope is bitwise the same
        p = params(delta_targets=(10.0, 7.0), n_targets=(0.25, 0.4))
        cutoffs = (3, 3, 3, 2)
        ops = ModeOperators(cutoffs)
        rho = (thermal_state(cutoffs, (0.3, 0.2, 0.25, 0.4), leakage_threshold=NO_GUARD).rho
               if start == "thermal" else parity_diagonal(cutoffs, random_hermitian(ops.dim, 2)))
        two = _Generator(p, ops, rho)
        four = _Generator(p, ops, random_hermitian(ops.dim, 3))
        assert two.blocks == [(0, 0), (1, 1)] and len(four.blocks) == 4
        for target, amplitude in ((0, 0.0), (0, 5.0), (1, 2.5)):
            for delta in (-30.0, -3.0):
                got = block_rhs(two, rho, two.bands(target, amplitude), delta)
                full = block_rhs(four, rho, four.bands(target, amplitude), delta)
                assert two.split(got).tobytes() == two.split(full).tobytes()
                assert not np.any(got - full)

    def test_holds_no_dense_operator(self):
        ops = ModeOperators((6, 6, 8))
        for rho in (thermal_state(ops.cutoffs, (0.1, 0.2, 0.25)).rho,
                    random_hermitian(ops.dim, 3)):
            gen = _Generator(params(), ops, rho)
            square = [name for name, value in vars(gen).items()
                      if isinstance(value, np.ndarray) and value.shape == (ops.dim, ops.dim)]
            assert square == []
            # the slope is built in ``out``, and U in the halves of one scratch
            assert not hasattr(gen, "_y") and not hasattr(gen, "_acc")
            assert gen._tmp.size == max(gen.size, 2 * gen.upper.size)
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


class TestSampleReadout:
    """Every output sample is read off the carried parity blocks: no sample
    reassembles the d x d rho, and each reads what the public formulas give
    on the natural-order matrix."""

    @pytest.mark.parametrize("start", ["thermal", "cross blocks"])
    def test_last_sample_matches_dense_formulas_on_final_state(self, start, fock_checks):
        p = params()
        sched = CycleSchedule(strokes=(Stroke.ramp(-30.0, -3.0, 0.05, shape="cosine"),
                                       Stroke.exchange(0, 5.0, 0.05)),
                              cycle_count=1, delta_start=-30.0)
        cutoffs = (4, 3, 4)
        st = thermal_state(cutoffs, (0.05, 0.1, 0.1), leakage_threshold=NO_GUARD)
        if start == "cross blocks":
            # |0,0,0> + |1,0,0>: number states of opposite parity
            psi = np.zeros(st.rho.shape[0])
            psi[[0, 12]] = math.sqrt(0.5)
            st = FockState(rho=0.8 * np.outer(psi, psi) + 0.2 * st.rho, cutoffs=cutoffs)
        traj = propagate_fock(st, p, sched, 0.1, samples_per_stroke=3, leakage_threshold=0.5)
        final, ops = traj.final_state, ModeOperators(cutoffs)
        parity = np.add.reduce(ops.number_diag) % 2
        cross = final.rho[np.ix_(parity == 0, parity == 1)]
        assert np.any(cross) == (start == "cross blocks")
        mean, cov = quadrature_moments(final, ops, (0, 1, 2))
        assert np.array_equal(traj.occupations[-1], mode_occupations(final, ops))
        assert np.array_equal(traj.means[-1], mean)
        assert np.array_equal(traj.covs[-1], cov)
        assert len(fock_checks) == traj.times.size
        assert fock_checks[-1] == (final.trace_error(), final.hermiticity_error(),
                                   final.min_eigenvalue())
        dense = np.linalg.eigvalsh(final.rho).min()
        if start == "thermal":  # the two parity blocks' spectra, not the whole matrix's
            assert abs(traj.physicality[-1] - dense) < 1e-15
        else:  # the whole-rho branch: the same d x d matrix, in natural order
            assert traj.physicality[-1] == dense

    def test_rho_is_joined_once_for_the_final_state(self, monkeypatch):
        joins, join = [], _Generator.join

        def counted(self, buf):
            joins.append(buf.size)
            return join(self, buf)

        monkeypatch.setattr(_Generator, "join", counted)
        p = params()
        sched = CycleSchedule(strokes=(Stroke.ramp(-30.0, -3.0, 0.05),
                                       Stroke.exchange(0, 5.0, 0.05)),
                              cycle_count=1, delta_start=-30.0)
        st = thermal_state((4, 3, 4), (0.05, 0.1, 0.1), leakage_threshold=NO_GUARD)
        for samples in (1, 4, 9):
            joins.clear()
            traj = propagate_fock(st, p, sched, 0.1, samples_per_stroke=samples,
                                  leakage_threshold=0.5)
            assert traj.times.size == 2 * samples + 1
            assert joins == [48 * 48 // 2]


def sparse_quadratures(cutoffs):
    """x = (a + a^dag)/sqrt(2) and p = -i (a - a^dag)/sqrt(2) of every mode,
    in the order (x_a, p_a, x_b, p_b, ...), as sparse d x d matrices."""
    z = []
    for m, c in enumerate(cutoffs):
        factors = [sparse.identity(k, format="csr") for k in cutoffs]
        factors[m] = sparse.diags(np.sqrt(np.arange(1.0, c)), 1, format="csr")
        a = reduce(sparse.kron, factors).tocsr()
        z += [(a + a.T) / math.sqrt(2.0), -1j * (a - a.T) / math.sqrt(2.0)]
    return z


def touched_trace(op, rho):
    """tr(op rho) of a sparse ``op``, read from the entries of rho it touches."""
    op = op.tocoo()
    return complex(np.sum(op.data * rho[op.col, op.row]))


@pytest.mark.filterwarnings("ignore::omcool.errors.AdiabaticityWarning")
@pytest.mark.parametrize("name, cutoffs", [("smalltest", (4, 5, 4)), ("fig1", (5, 4, 4)),
                                           ("fig2", (4, 4, 4, 4))])
def test_rhs_moments_follow_the_gaussian_generator(name, cutoffs):
    # the moment equations of a quadratic Lindbladian close for any state: for
    # rho on levels <= 1 of every mode, where no term reaches the top level,
    # Tr(z drho) = A m and Tr({z_i, z_j}/2 drho) = A M + M A^T + D, m and M
    # the raw first and second moments and (A, D) the Gaussian engine's
    cfg = parse_cycle_config(load_config_file(name), for_validate=name == "smalltest")
    p = cfg.params
    ops = ModeOperators(cutoffs)
    low = np.flatnonzero(np.all(np.indices(cutoffs).reshape(len(cutoffs), -1) <= 1, axis=0))
    rng = np.random.default_rng(sum(cutoffs))
    x = rng.normal(size=(low.size, low.size)) + 1j * rng.normal(size=(low.size, low.size))
    rho = np.zeros((ops.dim, ops.dim), dtype=complex)
    rho[np.ix_(low, low)] = x @ x.conj().T
    rho /= np.trace(rho).real
    z = sparse_quadratures(cutoffs)
    sym = [[0.5 * (zi @ zj + zj @ zi) for zj in z] for zi in z]

    def moments(r):
        return (np.array([touched_trace(zi, r).real for zi in z]),
                np.array([[touched_trace(s, r).real for s in row] for row in sym]))

    m, M = moments(rho)
    gen = _Generator(p, ops, rho)
    n = 2 * p.n_modes
    sched = CycleSchedule(strokes=(Stroke.hold(0.1), *(Stroke.exchange(k, p.omega_0, 0.1)
                                                       for k in range(len(p.delta_targets)))),
                          cycle_count=1, delta_start=p.delta_i)
    for span in sched.spans():
        M0, E, _ = _stroke_generator(p, span)
        for delta in (p.delta_i, 0.5 * (p.delta_i + p.delta_f), p.delta_f):
            A, D = (M0 + delta * E)[:n, :n], (M0 + delta * E)[:n, n:]
            first, second = moments(block_rhs(gen, rho, gen.bands(span.target, span.amplitude),
                                              delta))
            scale = np.max(np.abs(A))
            assert np.max(np.abs(first - A @ m)) <= 1e-13 * scale, (span.index, delta)
            assert np.max(np.abs(second - (A @ M + M @ A.T + D))) <= 1e-13 * scale, \
                (span.index, delta)


def _step_counts(monkeypatch, *args, **kwargs):
    """Run propagate_fock and count its steps between consecutive output
    samples: RK4 steps (four rhs calls each) on ramp segments, Taylor steps
    on hold and exchange segments (0 where the segment takes the other kind)."""
    counts, marks = [0, 0], []  # rhs calls, Taylor steps
    rhs, taylor, observe = _Generator.rhs, engine_mod._taylor_step, _Generator.observe

    def counted_rhs(self, *a):
        counts[0] += 1
        return rhs(self, *a)

    def counted_taylor(*a):
        counts[1] += 1
        return taylor(*a)

    def marked_observe(*a):
        marks.append(tuple(counts))
        return observe(*a)

    monkeypatch.setattr(_Generator, "rhs", counted_rhs)
    monkeypatch.setattr(engine_mod, "_taylor_step", counted_taylor)
    monkeypatch.setattr(_Generator, "observe", marked_observe)
    traj = propagate_fock(*args, **kwargs)
    monkeypatch.undo()
    calls, taylor_steps = np.diff(np.array(marks), axis=0).T
    ramp = taylor_steps == 0
    assert np.all(calls[ramp] % 4 == 0)
    return traj, np.where(ramp, calls // 4, 0), taylor_steps


class TestStepRule:
    """Each ramp segment takes RK4 steps of 1/(50 f), f the frequency scale
    on that segment alone; each hold or exchange segment of length l takes
    ceil(l B / TAYLOR_THETA) Taylor steps for the generator's norm bound B;
    ``dt`` caps both, up to the stroke-wide 1/(50 f_max)."""

    def test_segment_steps_follow_local_detuning(self, monkeypatch):
        # linear ramps -30 -> -3 and back in 4 segments of 0.0525 each, with a
        # hold at -3 between them in 4 segments of 0.125; every other frequency
        # scale of params() is at most 10
        p = params()
        sched = CycleSchedule(strokes=(Stroke.ramp(-30.0, -3.0, 0.21), Stroke.hold(0.5),
                                       Stroke.ramp(-3.0, -30.0, 0.21)),
                              cycle_count=1, delta_start=-30.0)
        st = thermal_state((3, 3, 2), (0.05, 0.05, 0.0))
        traj, rk4_steps, taylor_steps = _step_counts(monkeypatch, st, p, sched, 0.92,
                                                     samples_per_stroke=4,
                                                     leakage_threshold=0.5)
        t = traj.times
        ramp = np.r_[0:4, 8:12]
        deltas = np.where(t <= 0.21, -30.0 + 27.0 * t / 0.21, -3.0 - 27.0 * (t - 0.71) / 0.21)
        f_seg = np.maximum(np.maximum(np.abs(deltas[:-1]), np.abs(deltas[1:])), 10.0)
        expected = np.ceil(np.diff(t) * 50.0 * f_seg)[ramp]
        assert rk4_steps[ramp].tolist() == expected.tolist() == [79, 62, 44, 27,
                                                                 27, 44, 62, 79]
        # each ramp took 4 * 79 steps at its stroke-wide f = 30
        assert rk4_steps[:4].sum() == rk4_steps[8:].sum() < 4 * 79
        gen = _Generator(p, ModeOperators(st.cutoffs), st.rho)
        bound = gen.norm_bound(gen.bands(None, 0.0), -3.0)
        hold = np.ceil(np.diff(t)[4:8] * bound / engine_mod.TAYLOR_THETA)
        assert taylor_steps.tolist() == [0] * 4 + hold.tolist() + [0] * 4
        assert hold.tolist() == [2, 2, 2, 2]
        assert np.all(rk4_steps[4:8] == 0)

    def test_adiabatic_ramps_agree_with_stroke_wide_steps(self, monkeypatch):
        p = params()
        pair = (p.omega_b, p.g)
        sched = CycleSchedule(
            strokes=(Stroke.ramp(-30.0, -3.0, 0.31, shape="adiabatic", pair=pair),
                     Stroke.ramp(-3.0, -30.0, 0.31, shape="adiabatic", pair=pair)),
            cycle_count=1, delta_start=-30.0)
        st = thermal_state((3, 4, 2), (0.05, 0.1, 0.0))
        kwargs = dict(samples_per_stroke=6, leakage_threshold=0.5)
        local, local_steps, _ = _step_counts(monkeypatch, st, p, sched, 0.62, **kwargs)
        # both ramps reach |delta| = 30, so one dt is each stroke's own bound
        wide, wide_steps, _ = _step_counts(monkeypatch, st, p, sched, 0.62,
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
                       leakage_threshold=NO_GUARD)
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


def dense_liouvillian(p, ops, target, amplitude, delta):
    """The d^2 x d^2 matrix of ``dense_rhs`` acting on row-major vec(rho)."""
    d = ops.dim
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return np.array([dense_rhs(p, ops, e, target, amplitude, delta).reshape(-1)
                     for e in basis]).T


def coherent_state(cutoffs, seed):
    """A pure state with every amplitude nonzero, so rho fills all four
    parity blocks."""
    rng = np.random.default_rng(seed)
    d = int(np.prod(cutoffs))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return FockState(rho=np.outer(psi, psi.conj()), cutoffs=cutoffs)


class TestTaylorAction:
    """Hold and exchange strokes advance by a Taylor series of exp(h L) rho,
    its step and stopping rule taken from the norm bound B >= ||L||."""

    @pytest.mark.parametrize("stroke, target, amplitude", [
        (Stroke.hold(0.3), None, 0.0), (Stroke.exchange(0, 5.0, 0.3), 0, 5.0)])
    @pytest.mark.parametrize("start", ["thermal", "coherent"])
    def test_matches_dense_expm(self, stroke, target, amplitude, start):
        p = params()
        cutoffs = (2, 2, 2)
        st = (thermal_state(cutoffs, (0.3, 0.2, 0.25), leakage_threshold=NO_GUARD) if start == "thermal"
              else coherent_state(cutoffs, 4))
        sched = CycleSchedule(strokes=(stroke,), cycle_count=1, delta_start=-30.0)
        traj = propagate_fock(st, p, sched, 0.3, samples_per_stroke=3, leakage_threshold=NO_GUARD)
        ops = ModeOperators(cutoffs)
        lv = dense_liouvillian(p, ops, target, amplitude, -30.0)
        for t, occ in zip(traj.times, traj.occupations):
            rho = (scipy_expm(t * lv) @ st.rho.reshape(-1)).reshape(ops.dim, ops.dim)
            want = mode_occupations(FockState(rho=rho, cutoffs=cutoffs), ops)
            assert np.max(np.abs(occ - want)) < 1e-12
        assert np.max(np.abs(traj.final_state.rho - rho)) < 1e-12

    @pytest.mark.parametrize("cutoffs", [(2, 2, 2), (3, 3, 2)])
    def test_norm_bound_covers_dense_norm(self, cutoffs):
        p = params()
        ops = ModeOperators(cutoffs)
        # a thermal start carries two parity blocks, a coherent one all four
        for st, blocks in ((thermal_state(cutoffs, (0.0, 0.0, 0.0)), 2),
                           (coherent_state(cutoffs, 5), 4)):
            gen = _Generator(p, ops, st.rho)
            assert len(gen.blocks) == blocks
            # ramp detunings at both ends, a hold, an exchange pulse
            for target, amplitude, delta in ((None, 0.0, -30.0), (None, 0.0, -3.0),
                                             (0, 5.0, -3.0)):
                bound = gen.norm_bound(gen.bands(target, amplitude), delta)
                norm = np.linalg.norm(dense_liouvillian(p, ops, target, amplitude, delta), 2)
                assert norm <= bound, (blocks, target, amplitude, delta)

    @settings(max_examples=30, deadline=None)
    @given(data=hst.data())
    def test_norm_bound_covers_dense_norm_of_drawn_params(self, data):
        rate, level = hst.floats(0.0, 50.0), hst.floats(0.0, 5.0)
        omega_b = data.draw(hst.floats(0.5, 50.0), "omega_b")
        delta_f = -data.draw(hst.floats(0.1, 50.0), "-delta_f")
        delta_i = delta_f * data.draw(hst.floats(1.01, 10.0), "delta_i / delta_f")
        # below the stability limit 0.5 sqrt(|delta| omega_b) on the whole range
        g = data.draw(hst.floats(0.0, 0.99), "g / limit") * 0.5 * math.sqrt(-delta_f * omega_b)
        p = SystemParams(omega_b=omega_b, g=g, kappa=data.draw(rate, "kappa"),
                         gamma=data.draw(rate, "gamma"), n_a=data.draw(level, "n_a"),
                         n_b=data.draw(level, "n_b"), delta_i=delta_i, delta_f=delta_f,
                         omega_0=data.draw(rate, "omega_0"),
                         delta_targets=(data.draw(hst.floats(0.1, 50.0), "delta_c"),),
                         n_targets=(data.draw(level, "n_c"),))
        cutoffs = data.draw(hst.sampled_from([(2, 2, 2), (3, 3, 2)]), "cutoffs")
        start = data.draw(hst.sampled_from(["thermal", "coherent"]), "start")
        ops = ModeOperators(cutoffs)
        st0 = (thermal_state(cutoffs, (0.0, 0.0, 0.0)) if start == "thermal"
               else coherent_state(cutoffs, 6))
        gen = _Generator(p, ops, st0.rho)
        amplitude = data.draw(hst.just(0.0) | rate, "amplitude")
        target = 0 if amplitude else None
        delta = data.draw(hst.sampled_from([delta_i, delta_f]), "delta")
        bound = gen.norm_bound(gen.bands(target, amplitude), delta)
        norm = np.linalg.norm(dense_liouvillian(p, ops, target, amplitude, delta), 2)
        assert norm <= bound * (1.0 + 1e-12)

    @pytest.mark.parametrize("cutoffs", [(2, 2, 2), (3, 3, 2)])
    def test_schur_bound_within_summed_bound(self, cutoffs):
        # sqrt(R_1 R_inf) against the bound summed part by part, max|L_i +
        # conj(L_j)| + 2 max row sum of the bands + s max|w|^2 per jump, which
        # caps both R_1 and R_inf
        p = params()
        ops = ModeOperators(cutoffs)
        for st in (thermal_state(cutoffs, (0.0, 0.0, 0.0)), coherent_state(cutoffs, 5)):
            gen = _Generator(p, ops, st.rho)
            for target, amplitude, delta in ((None, 0.0, -30.0), (None, 0.0, -3.0),
                                             (0, 5.0, -3.0)):
                bands = gen.bands(target, amplitude)
                lvec = gen._lvec(delta)
                # the bands' largest row sum of |weight|, from the dense H_off
                rows = np.abs(dense_h_off(p, ops, target, amplitude)).sum(axis=1)
                summed = (np.abs(lvec[:, None] + lvec.conj()).max() + 2.0 * np.max(rows)
                          + np.sum(gen.jump_scales[:, 0] * gen.jump_rows.max(axis=1) ** 2))
                assert gen.norm_bound(bands, delta) <= summed * (1.0 + 1e-15)

    @pytest.mark.parametrize("row_block", [None, 1, 7])
    @pytest.mark.parametrize("cutoffs", [(3, 3, 3), (3, 4, 5), (6, 6, 8)])
    def test_norm_bound_is_bitwise_the_whole_matrix_bound(self, monkeypatch, cutoffs, row_block):
        # B formed row block by row block equals B from whole d x d sums,
        # each entry going through the same operations (max is exact)
        if row_block is not None:
            monkeypatch.setattr(engine_mod, "_ROW_BLOCK", row_block)
        p = params()
        ops = ModeOperators(cutoffs)
        gen = _Generator(p, ops, thermal_state(cutoffs, (0.1, 0.2, 0.25),
                                               leakage_threshold=NO_GUARD).rho)
        pulses = [(None, 0.0)] + [(k, 5.0) for k in range(len(p.delta_targets))]
        for target, amplitude in pulses:
            bands = gen.bands(target, amplitude)
            for delta in (p.delta_i, 0.5 * (p.delta_i + p.delta_f), p.delta_f):
                lvec = gen._lvec(delta)
                rows = np.zeros((ops.dim, 1))
                for band in bands:
                    for block, (r, _, w) in zip(gen.rows, band):
                        rows[block][r] += np.abs(w)
                base = np.hypot(np.add.outer(lvec.real, lvec.real),
                                np.subtract.outer(lvec.imag, lvec.imag)) + rows + rows.T
                r_inf, r_1 = (np.max(np.einsum("ji,jk->ik", gen.jump_scales * w, w) + base)
                              for w in (gen.jump_rows, gen.jump_cols))
                assert gen.norm_bound(bands, delta) == np.sqrt(r_inf * r_1), (target, delta)

    def test_norm_bound_builds_no_square_array(self):
        ops = ModeOperators((6, 6, 8))
        gen = _Generator(params(), ops, thermal_state(ops.cutoffs, (0.1, 0.2, 0.25)).rho)
        bands = gen.bands(0, 5.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gen.norm_bound(bands, -3.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < ops.dim**2 * 8

    def test_norm_bound_takes_its_row_blocks_from_the_scratch(self):
        # base and sums, two row blocks of d reals each, live in the idle
        # scratch buffer; what one call allocates is below the pair (NumPy's
        # own iteration buffers for a broadcast, 128 kB, exceed one block)
        ops = ModeOperators((6, 6, 8))
        gen = _Generator(params(), ops, thermal_state(ops.cutoffs, (0.1, 0.2, 0.25)).rho)
        bands = gen.bands(0, 5.0)
        gen.norm_bound(bands, -3.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gen.norm_bound(bands, -3.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * engine_mod._ROW_BLOCK * ops.dim * 8

    def test_jump_term_read_before_halving(self):
        # one jump, kappa a rho a^dag at cutoffs (2, 2): on a thermal start its
        # largest weight, kappa, sits only on the diagonal of the parity
        # blocks, where U halves it.  In a whole generator the damping on the
        # diagonal, set by the same rate, has covered the lost half in every
        # small case tried, so the diagonal is zeroed here (and there are no
        # bands): the rhs is then the jump alone, of norm kappa, and the
        # bound must read kappa ||a||^2, not the halved kappa / 2
        p = params(g=0.0, kappa=3.0, gamma=0.0, n_a=0.0, delta_targets=(), n_targets=())
        ops = ModeOperators((2, 2))
        gen = _Generator(p, ops, thermal_state((2, 2), (0.0, 0.0)).rho)
        assert len(gen.jumps) == 1 and np.abs(gen.jumps[0][1]).max() == 1.5
        gen.damp_diag, gen.diag_static, gen.na_diag = (np.zeros(ops.dim) for _ in range(3))
        a = ops.annihilation(0)
        jump = 3.0 * np.kron(a, a.conj())  # row-major vec(a rho a^dag)
        rho = parity_diagonal((2, 2), random_hermitian(ops.dim, 8))
        want = (jump @ rho.reshape(-1)).reshape(ops.dim, ops.dim)
        assert np.max(np.abs(block_rhs(gen, rho, [], 0.0) - want)) < 1e-15
        norm = np.linalg.norm(jump, 2)
        assert norm == pytest.approx(3.0, rel=1e-12)
        assert gen.norm_bound([], 0.0) >= norm

    def test_norm_bound_attained_by_symmetric_spectrum(self):
        # no coupling or bath, and level energies -20 n_a + 20 n_b in [-20, 20]:
        # ||L|| = max |E_i - E_j| = 40 is twice max |E|, so the bound's factor
        # 2 on the Y term cannot be dropped
        p = params(g=0.0, kappa=0.0, gamma=0.0, omega_b=20.0, delta_targets=(), n_targets=())
        ops = ModeOperators((2, 2))
        gen = _Generator(p, ops, thermal_state((2, 2), (0.0, 0.0)).rho)
        bound = gen.norm_bound(gen.bands(None, 0.0), 20.0)
        norm = np.linalg.norm(dense_liouvillian(p, ops, None, 0.0, 20.0), 2)
        assert bound == 40.0 and norm == pytest.approx(40.0, rel=1e-12)

    def test_dt_caps_taylor_steps(self, monkeypatch):
        p = params()
        sched = CycleSchedule(strokes=(Stroke.hold(0.3),), cycle_count=1, delta_start=-30.0)
        st = thermal_state((2, 2, 2), (0.3, 0.2, 0.25), leakage_threshold=NO_GUARD)
        free, _, free_steps = _step_counts(monkeypatch, st, p, sched, 0.3,
                                           samples_per_stroke=3, leakage_threshold=NO_GUARD)
        capped, _, capped_steps = _step_counts(monkeypatch, st, p, sched, 0.3, dt=5e-4,
                                               samples_per_stroke=3, leakage_threshold=NO_GUARD)
        assert free_steps.tolist() != capped_steps.tolist() == [200, 200, 200]
        assert np.max(np.abs(free.final_state.rho - capped.final_state.rho)) < 1e-12


def _one_block_negative():
    """A thermal state with a 2 x 2 coherence inside the odd-parity block
    strong enough to make one eigenvalue of that block negative."""
    st = thermal_state((3, 2), (0.4, 0.3), leakage_threshold=NO_GUARD)
    rho = st.rho.copy()
    i, j = 1, 2  # |0, 1> and |1, 0>, both odd
    rho[i, j] = rho[j, i] = 1.5 * np.sqrt(rho[i, i].real * rho[j, j].real)
    return FockState(rho=rho, cutoffs=st.cutoffs, time=0.4)


def jump_steps(p, ops):
    """(offset, ladder weight) of each jump term of ``_Generator``, in its
    order: the lowering then the raising jump of every damped mode."""
    nbars = [p.n_a, p.n_b, *p.n_targets]
    rates = [p.kappa, p.gamma] + [p.gamma] * len(p.delta_targets)
    return [step for m, (rate, nbar) in enumerate(zip(rates, nbars)) if rate
            for step, scale in ((ops.lowering[m], nbar + 1.0), (ops.raising[m], nbar)) if scale]


class TestSharedIndexJumps:
    """Every jump reads through ``upper`` plus one offset per block of U
    where the offsets allow it; the slope must be bitwise the one of one
    explicit gather index per jump at U's entries."""

    @pytest.mark.parametrize("cutoffs", [(3, 3, 3), (3, 4, 5), (5, 6, 7), (6, 6, 8),
                                         (3, 3, 3, 3)])
    @pytest.mark.parametrize("start", ["thermal", "cross blocks"])
    def test_slope_is_bitwise_the_per_entry_gather_one(self, cutoffs, start):
        n = len(cutoffs)
        p = params(delta_targets=(10.0, 7.0)[:n - 2], n_targets=(0.25, 0.4)[:n - 2])
        ops = ModeOperators(cutoffs)
        d = ops.dim
        rho = (thermal_state(cutoffs, (0.3, 0.2, 0.25, 0.4)[:n], leakage_threshold=NO_GUARD).rho
               if start == "thermal" else random_hermitian(d, 7))
        gen, ref = _Generator(p, ops, rho), _Generator(p, ops, rho)
        # the natural row and column of every U entry, then each jump's
        # source position as one flat gather index: rho[i + s, j + s] where
        # the weight is nonzero, the entry itself elsewhere
        flat = gen.split(np.arange(d * d).reshape(d, d)).real.astype(np.intp)[gen.upper]
        rows, cols = np.divmod(flat, d)
        where = np.full(d * d, -1)
        where[gen.split(np.arange(d * d).reshape(d, d)).real.astype(np.intp)] = np.arange(gen.size)
        steps = jump_steps(p, ops)
        assert len(steps) == len(gen.jumps)
        ref.jumps = []
        for (s, _), (_, weight) in zip(steps, gen.jumps):
            valid = weight != 0
            gather = np.where(valid, where[np.where(valid, (rows + s) * d + cols + s, 0)],
                              gen.upper)
            assert np.all(gather >= 0)
            ref.jumps.append(([(slice(None), gather, slice(None))], weight))
        shared = [np.shares_memory(index, gen.upper)
                  for reads, _ in gen.jumps for _, index, _ in reads]
        # an even d reads every jump of a mode whose stride is even through
        # ``upper``; an odd d (parity blocks of two widths) keeps every index
        assert any(shared) == (d % 2 == 0)
        buf = gen.hermitian(gen.split(rho))
        for target, amplitude in [(0, 0.0)] + [(k, 5.0) for k in range(n - 2)]:
            bands = gen.bands(target, amplitude)
            for delta in (p.delta_i, 0.5 * (p.delta_i + p.delta_f), p.delta_f):
                got = gen.rhs(buf, bands, delta, np.empty_like(buf))
                want = ref.rhs(buf, bands, delta, np.empty_like(buf))
                assert got.tobytes() == want.tobytes(), (target, amplitude, delta)

    def test_shared_reads_hold_one_index_per_odd_stride_jump(self):
        # at (6, 6, 8) the four jumps of modes a and b read ``upper``, one
        # view per parity block, and only the two jumps of mode c keep an index
        ops = ModeOperators((6, 6, 8))
        gen = _Generator(params(), ops, thermal_state(ops.cutoffs, (0.1, 0.2, 0.25)).rho)
        kinds = [[np.shares_memory(index, gen.upper) for _, index, _ in reads]
                 for reads, _ in gen.jumps]
        assert kinds == [[True, True]] * 4 + [[False]] * 2


class TestStart:
    def hold(self):
        return CycleSchedule(strokes=(Stroke.hold(0.05),), cycle_count=1, delta_start=-30.0)

    def test_diagonal_start_is_bitwise_the_split_thermal_rho(self):
        cutoffs, occ = (6, 6, 8), (0.1, 0.2, 0.25)
        diagonal = fock_mod._thermal_diagonal(cutoffs, occ, fock_mod.DEFAULT_LEAKAGE_THRESHOLD)
        rho = thermal_state(cutoffs, occ).rho
        ops = ModeOperators(cutoffs)
        from_diagonal, from_rho = _Generator(params(), ops, diagonal), _Generator(params(), ops, rho)
        assert from_diagonal.blocks == from_rho.blocks == [(0, 0), (1, 1)]
        assert from_diagonal.split(diagonal).tobytes() == from_rho.split(rho).tobytes()
        assert np.array_equal(np.diag(rho), diagonal)

    def test_diagonal_state_runs_bitwise_the_d_by_d_one(self):
        cutoffs = (3, 4, 3)
        st = thermal_state(cutoffs, (0.1, 0.2, 0.25), leakage_threshold=NO_GUARD)
        diag = FockState(rho=np.diag(st.rho), cutoffs=cutoffs)
        assert diag.rho.shape == (36,) and st.rho.shape == (36, 36)
        assert diag.validate() == st.validate()
        runs = [propagate_fock(x, params(), self.hold(), 0.05, samples_per_stroke=3,
                               leakage_threshold=0.5) for x in (st, diag)]
        for field in ("times", "occupations", "means", "covs", "physicality", "leakage"):
            assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()
        assert runs[0].final_state.rho.tobytes() == runs[1].final_state.rho.tobytes()
        with pytest.raises(ValueError, match="or its diagonal"):
            FockState(rho=np.ones(35), cutoffs=cutoffs)

    @pytest.mark.parametrize("bad, message", [("hermiticity", "hermiticity deviates"),
                                              ("trace", "trace deviates"),
                                              ("positivity", "negative eigenvalue")])
    def test_bad_start_fails_at_t0(self, bad, message):
        cutoffs = (3, 3, 3)
        rho = thermal_state(cutoffs, (0.3, 0.2, 0.25), leakage_threshold=NO_GUARD).rho.copy()
        if bad == "hermiticity":
            rho[0, 2] = 0.304  # rho[2, 0] stays 0, in the same parity block
        elif bad == "trace":
            rho[0, 0] += 1e-6j  # the Hermitian part alone would keep the trace 1
        else:
            rho[0, 0], rho[1, 1] = rho[0, 0] + rho[1, 1] + 0.01, -0.01
        st = FockState(rho=rho, cutoffs=cutoffs, time=0.0)
        with pytest.raises(IntegrationError, match=message):
            st.validate()
        with pytest.raises(IntegrationError, match=message) as err:
            propagate_fock(st, params(), self.hold(), 0.05, samples_per_stroke=2,
                           leakage_threshold=0.5)
        assert err.value.time == 0.0

    def test_near_hermitian_start_runs_on_its_hermitian_part(self, fock_checks):
        # a start within the hermiticity tolerance passes and runs as before:
        # on its exact Hermitian part, from the first sample on
        cutoffs = (3, 3, 3)
        st = thermal_state(cutoffs, (0.3, 0.2, 0.25), leakage_threshold=NO_GUARD)
        rho = st.rho + 1e-12j * random_hermitian(27, 9)
        herm = FockState(rho=0.5 * (rho + rho.conj().T), cutoffs=cutoffs)
        runs = [propagate_fock(x, params(), self.hold(), 0.05, samples_per_stroke=2,
                               leakage_threshold=0.5)
                for x in (FockState(rho=rho, cutoffs=cutoffs), herm)]
        assert fock_checks[0][1] == 0.0  # the first sample reads the projection
        for field in ("occupations", "means", "covs", "physicality"):
            assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()


class TestPositivityCheck:
    """``min_eigenvalue`` diagonalizes the parity blocks of rho when its
    cross-parity blocks vanish, the full rho otherwise, on one BLAS thread."""

    @pytest.mark.parametrize("case, sizes", [
        ("thermal", [(9, 9), (9, 9)]),
        ("coherent", [(18, 18)]),
        ("one block negative", [(3, 3), (3, 3)]),
    ])
    def test_matches_full_eigvalsh(self, monkeypatch, case, sizes):
        st = {"thermal": lambda: thermal_state((3, 3, 2), (0.3, 0.2, 0.25),
                                               leakage_threshold=NO_GUARD),
              "coherent": lambda: coherent_state((3, 3, 2), 7),
              "one block negative": _one_block_negative}[case]()
        want = np.linalg.eigvalsh(0.5 * (st.rho + st.rho.conj().T)).min()
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        assert abs(st.min_eigenvalue() - want) < 1e-14
        assert shapes == sizes

    def test_negative_eigenvalue_in_one_block_fails_validate(self):
        st = _one_block_negative()
        assert st.min_eigenvalue() < -1e-3
        with pytest.raises(IntegrationError, match="negative eigenvalue") as err:
            st.validate()
        assert err.value.time == 0.4

    @pytest.mark.skipif(fock_mod._openblas_threads() is None,
                        reason="no OpenBLAS found in this process")
    @pytest.mark.parametrize("fails", [False, True])
    def test_eigvalsh_runs_on_one_blas_thread(self, monkeypatch, fails):
        get, set_ = fock_mod._openblas_threads()
        before = get()
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a):
            seen.append(get())
            if fails:
                raise np.linalg.LinAlgError("stub")
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        set_(2)  # so that the cap and the restore both show
        try:
            st = thermal_state((3, 2), (0.4, 0.3), leakage_threshold=NO_GUARD)
            if fails:
                with pytest.raises(np.linalg.LinAlgError, match="stub"):
                    st.min_eigenvalue()
            else:
                st.min_eigenvalue()
            assert seen == ([1] if fails else [1, 1])
            assert get() == 2
        finally:
            set_(before)

    def test_nan_fails_validate_with_the_state_time(self):
        st = number_state((2, 2), (0, 0), time=0.7)
        st.rho[1, 1] = np.nan
        with pytest.raises(IntegrationError) as err:
            st.validate()
        assert err.value.time == 0.7

    @pytest.mark.parametrize("entry", [(1, 2), (0, 1)])
    def test_off_diagonal_nan_fails_the_block_hermiticity_check(self, entry):
        # inside a parity block (|0, 1>, |1, 0>) and across the blocks
        # (|0, 0>, |0, 1>): the trace passes, the block-wise hermiticity
        # error keeps the NaN
        st = number_state((2, 2), (0, 0), time=0.7)
        st.rho[entry] = np.nan
        assert np.isnan(st.hermiticity_error())
        with pytest.raises(IntegrationError, match="hermiticity") as err:
            st.validate()
        assert err.value.time == 0.7


def _dense_checks(st):
    """(hermiticity error, min eigenvalue) of ``st`` by the d x d formulas the
    block-wise checks replace."""
    rho = st.rho
    herm = 0.5 * (rho + rho.conj().T)
    odd = np.indices(st.cutoffs).sum(0).ravel() % 2 == 1
    if np.any(herm[np.ix_(~odd, odd)]):
        blocks = [herm]
    else:
        blocks = [herm[np.ix_(s, s)] for s in (~odd, odd)]
    return (float(np.max(np.abs(rho - rho.conj().T))),
            float(min(np.linalg.eigvalsh(b).min() for b in blocks)))


@pytest.mark.parametrize("cutoffs", [(3, 3, 2), (3, 4, 3)])
@pytest.mark.parametrize("case", ["cross blocks", "parity-diagonal", "anti-Hermitian cross"])
def test_block_checks_bitwise_dense(cutoffs, case):
    # a Hermitian rho plus an anti-Hermitian part, so that the hermiticity
    # error is nonzero; in the last case the anti-Hermitian part fills the
    # cross blocks only: the hermiticity error comes from them alone, and
    # the positivity check must see the Hermitian part's zero cross blocks
    d = int(np.prod(cutoffs))
    herm = random_hermitian(d, 4) + 3.0 * np.eye(d)
    skew = 1e-12j * random_hermitian(d, 5)
    rho = {"cross blocks": herm + skew,
           "parity-diagonal": parity_diagonal(cutoffs, herm + skew),
           "anti-Hermitian cross": (parity_diagonal(cutoffs, herm) + skew
                                    - parity_diagonal(cutoffs, skew))}[case]
    st = FockState(rho=rho / np.trace(rho).real, cutoffs=cutoffs)
    got = (st.hermiticity_error(), st.min_eigenvalue())
    want = _dense_checks(st)
    assert got[0] > 0
    assert np.array(got).tobytes() == np.array(want).tobytes()
