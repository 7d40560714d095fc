import math

import numpy as np
import pytest

from omcool.errors import PhysicsError, StabilityError
from omcool.polariton import (
    CoolingMapParams,
    bogoliubov_basis,
    check_stability,
    cooling_limit,
    exchange_efficiency,
    hamiltonian_matrix,
    iterate_cooling_map,
    pair_occupations,
    polariton_spectrum,
    rabi_populations,
    stability_limit,
    survival_factor,
    symplectic_form,
)

OMEGA_B = 2000.0
G = 200.0


class TestSpectrum:
    def test_decoupled_branches_exact(self):
        assert polariton_spectrum(-3000.0, 2000.0, 0.0) == (3000.0, 2000.0)
        # below the crossing the mechanical branch is the upper one
        assert polariton_spectrum(-1500.0, 2000.0, 0.0) == (2000.0, 1500.0)

    def test_avoided_crossing_radicals(self):
        om_a, om_b = polariton_spectrum(-OMEGA_B, OMEGA_B, G)
        assert om_a == pytest.approx(math.sqrt(OMEGA_B**2 + 2 * G * OMEGA_B), rel=1e-13)
        assert om_b == pytest.approx(math.sqrt(OMEGA_B**2 - 2 * G * OMEGA_B), rel=1e-13)
        assert om_a == pytest.approx(2190.8902300206646, rel=1e-12)
        assert om_b == pytest.approx(1788.8543819998317, rel=1e-12)

    def test_final_detuning_upper_branch(self):
        om_a, _ = polariton_spectrum(-600.0, OMEGA_B, G)
        assert om_a == pytest.approx(2013.0, abs=0.5)

    def test_instability_error_names_detuning(self):
        with pytest.raises(StabilityError, match="-50"):
            polariton_spectrum(-50.0, OMEGA_B, G)
        with pytest.raises(StabilityError):
            polariton_spectrum(100.0, OMEGA_B, G)

    def test_array_call_equals_scalar_calls_bitwise(self):
        # every scalar kind takes the math path, which must give the array
        # call's bits
        for kind, deltas in ((np.float64, np.linspace(-8000.0, -200.0, 1001)),
                             (float, np.linspace(-8000.0, -200.0, 1001)),
                             (int, np.arange(-8000, -199, 8))):
            om_a, om_b = polariton_spectrum(deltas, OMEGA_B, G)
            scalars = [polariton_spectrum(kind(d), OMEGA_B, G) for d in deltas]
            assert all(type(x) is float for pair in scalars for x in pair)
            assert np.array_equal(om_a, [a for a, _ in scalars])
            assert np.array_equal(om_b, [b for _, b in scalars])
            assert check_stability(deltas, OMEGA_B, G) is None

    def test_array_call_names_first_unstable_entry(self):
        deltas = np.linspace(-6000.0, -200.0, 11)
        for bad, expected in ((-50.0, "unstable at delta=-50.0"),
                              (100.0, "requires delta < 0, got delta=100.0")):
            for call in (polariton_spectrum, check_stability, bogoliubov_basis):
                with_bad = deltas.copy()
                with_bad[[4, 8]] = bad, -40.0
                with pytest.raises(StabilityError, match=expected) as err:
                    call(with_bad, OMEGA_B, G)
                assert err.value.delta == bad
                with pytest.raises(StabilityError) as scalar_err:
                    call(bad, OMEGA_B, G)
                assert str(err.value) == str(scalar_err.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_fails_fast(self, bad):
        message = f"delta must be finite, got delta={bad}"
        for call in (polariton_spectrum, check_stability, bogoliubov_basis):
            with pytest.raises(StabilityError, match=message) as err:
                call(bad, 10.0, 2.0)
            assert err.value.delta is bad
        # an array names its first bad entry, as the scalar call does
        deltas = np.array([-30.0, -20.0, bad, 100.0, math.nan])
        for call in (polariton_spectrum, check_stability):
            with pytest.raises(StabilityError, match=f"got delta={bad}"):
                call(deltas, 10.0, 2.0)
        with pytest.raises(StabilityError, match=f"got delta={bad}"):
            polariton_spectrum(np.float64(bad), 10.0, 2.0)

    @pytest.mark.parametrize("name", ["omega_b", "g"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_omega_b_or_g_fails_fast(self, name, bad):
        args = {"omega_b": 10.0, "g": 2.0, name: bad}
        for delta in (-30.0, np.array([-30.0, -20.0])):
            for call in (polariton_spectrum, check_stability):
                message = f"{name} must be finite, got {name}={bad}"
                with pytest.raises(StabilityError, match=message):
                    call(delta, args["omega_b"], args["g"])
        with pytest.raises(StabilityError, match=f"{name}={bad}"):
            bogoliubov_basis(-30.0, args["omega_b"], args["g"])

    def test_min_gap_sits_at_the_crossing(self):
        deltas = np.linspace(-6000.0, -200.0, 4001)
        gaps = [np.subtract(*polariton_spectrum(d, OMEGA_B, G)) for d in deltas]
        gap_at_crossing = np.subtract(*polariton_spectrum(-OMEGA_B, OMEGA_B, G))
        expected = math.sqrt(OMEGA_B**2 + 2 * G * OMEGA_B) - math.sqrt(
            OMEGA_B**2 - 2 * G * OMEGA_B
        )
        assert min(gaps) >= gap_at_crossing - 1e-9 * OMEGA_B
        assert gap_at_crossing == pytest.approx(expected, rel=1e-9)


class TestBogoliubovBasis:
    @pytest.mark.parametrize("delta", [-6000.0, -2500.0, -2000.0, -1000.0, -600.0])
    def test_symplectic_and_diagonalizing(self, delta):
        basis = bogoliubov_basis(delta, OMEGA_B, G)
        J = symplectic_form(2)
        assert np.max(np.abs(basis.S @ J @ basis.S.T - J)) < 1e-10
        s_inv = basis.inverse()
        transformed = s_inv.T @ hamiltonian_matrix(delta, OMEGA_B, G) @ s_inv
        diag = np.diag([basis.omega_A, basis.omega_A, basis.omega_B, basis.omega_B])
        off = transformed - diag
        assert np.max(np.abs(off)) < 1e-9 * np.max(np.abs(diag))

    def test_frequencies_match_closed_form(self):
        for delta in np.linspace(-6000.0, -150.0, 50):
            om_a, om_b = polariton_spectrum(delta, OMEGA_B, G)
            basis = bogoliubov_basis(delta, OMEGA_B, G)
            assert basis.omega_A == pytest.approx(om_a, rel=1e-9)
            assert basis.omega_B == pytest.approx(om_b, rel=1e-9)

    def test_decoupled_photon_side(self):
        basis = bogoliubov_basis(-3000.0, OMEGA_B, 0.0)
        assert np.array_equal(basis.S, np.eye(4))
        assert basis.u == 0.0

    def test_decoupled_phonon_side_label_swap(self):
        basis = bogoliubov_basis(-1500.0, OMEGA_B, 0.0)
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
        assert np.array_equal(basis.S, expected)
        assert basis.u == 1.0

    def test_tie_at_the_crossing_takes_the_cavity_coefficient(self):
        # at delta = -omega_b both bare coefficients of a mode are equal in
        # size; the cavity's decides the sign, also for the lower branch
        basis = bogoliubov_basis(-OMEGA_B, OMEGA_B, G)
        assert basis.S[0, 0] == basis.S[0, 2] > 0
        assert basis.S[2, 0] == -basis.S[2, 2] > 0

    def test_overlap_photon_like_regime(self):
        assert bogoliubov_basis(-6000.0, OMEGA_B, G).u < 0.1

    def test_overlap_phonon_like_regime(self):
        u = bogoliubov_basis(-600.0, OMEGA_B, G).u
        assert abs(u - 1.0) < 0.1

    def test_overlap_approaches_one_near_zero_detuning(self):
        # g < |delta| with delta close to zero: the upper branch is the bare
        # mechanical mode up to tiny dressing
        u = bogoliubov_basis(-60.0, OMEGA_B, 10.0).u
        assert u == pytest.approx(1.0, abs=2e-3)

    def test_overlap_is_mean_of_quadrature_overlaps(self):
        basis = bogoliubov_basis(-600.0, OMEGA_B, G)
        assert basis.u == pytest.approx(0.5 * (basis.u_x + basis.u_p), rel=1e-12)


_spectrum = polariton_spectrum  # the unpatched one


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def spectrum_corrupted_at(bad, corrupt):
    """polariton_spectrum with ``corrupt`` applied to the branches of the
    detunings listed in ``bad``, scalar or stacked."""
    def spectrum(delta, omega_b, g):
        om_a, om_b = _spectrum(delta, omega_b, g)
        hit = np.isin(delta, bad)
        bad_a, bad_b = corrupt(om_a, om_b)
        return np.where(hit, bad_a, om_a), np.where(hit, bad_b, om_b)
    return spectrum


#: (delta, omega_b) pairs whose lower branch closes at g = stability_limit
MARGINAL = [(-600.0, 10.0), (-2000.0, 2000.0), (-2000.0, 10.0), (-1.7, 10.0), (-3.0, 2000.0),
            (-3.0, 10.0), (-600.0, 2000.0), (-1.7, 2000.0), (-6000.0, 10.0), (-6000.0, 2000.0)]


class TestArrayBasis:
    FIELDS = ("S", "u", "u_x", "u_p", "omega_A", "omega_B")

    @pytest.mark.parametrize("g, deltas", [
        # across the anticrossing at delta = -omega_b
        (G, np.concatenate((np.linspace(-6000.0, -200.0, 291),
                            np.linspace(-2100.0, -1900.0, 41)))),
        # decoupled: either side of |delta| = omega_b, and on it
        (0.0, np.array([-6000.0, -2000.5, -OMEGA_B, -1999.5, -200.0])),
    ])
    def test_array_call_equals_scalar_calls_bitwise(self, g, deltas):
        stacked = bogoliubov_basis(deltas, OMEGA_B, g)
        assert stacked.S.shape == (deltas.size, 4, 4)
        for k, delta in enumerate(deltas):
            scalar = bogoliubov_basis(float(delta), OMEGA_B, g)
            assert scalar.S.shape == (4, 4) and type(scalar.u) is float
            for name in self.FIELDS:
                assert bits(getattr(stacked, name)[k]) == bits(getattr(scalar, name)), (name, delta)
                assert bits(getattr(stacked[k], name)) == bits(getattr(scalar, name))

    def test_inverse_of_stacked_basis(self):
        deltas = np.linspace(-6000.0, -200.0, 9)
        stacked = bogoliubov_basis(deltas, OMEGA_B, G)
        inv = stacked.inverse()
        assert inv.shape == (9, 4, 4)
        assert np.max(np.abs(stacked.S @ inv - np.eye(4))) < 1e-12
        for k, delta in enumerate(deltas):
            assert bits(inv[k]) == bits(bogoliubov_basis(delta, OMEGA_B, G).inverse())

    def test_stacked_pair_occupations_equal_scalar_calls(self):
        rng = np.random.default_rng(7)
        deltas = np.linspace(-6000.0, -200.0, 13)
        bases = bogoliubov_basis(deltas, OMEGA_B, G)
        means = rng.normal(size=(13, 4))
        x = rng.normal(size=(13, 4, 4))
        covs = x @ np.swapaxes(x, -1, -2) + 0.5 * np.eye(4)
        n_a, n_b = pair_occupations(means, covs, bases)
        for k, delta in enumerate(deltas):
            pair = pair_occupations(means[k], covs[k], bogoliubov_basis(delta, OMEGA_B, G))
            assert all(type(n) is float for n in pair)
            assert pair == (n_a[k], n_b[k])

    def test_branches_are_the_spectrum_and_diagonalize_the_hamiltonian(self):
        deltas = np.concatenate((np.linspace(-6000.0, -200.0, 291),
                                 np.linspace(-2100.0, -1900.0, 41)))
        basis = bogoliubov_basis(deltas, OMEGA_B, G)
        om_a, om_b = polariton_spectrum(deltas, OMEGA_B, G)
        assert bits(basis.omega_A) == bits(om_a) and bits(basis.omega_B) == bits(om_b)
        s_inv = basis.inverse()
        for k, delta in enumerate(deltas):
            transformed = s_inv[k].T @ hamiltonian_matrix(delta, OMEGA_B, G) @ s_inv[k]
            diag = np.diag(np.repeat([om_a[k], om_b[k]], 2))
            assert np.abs(transformed - diag).max() <= 1e-12 * om_a[k], delta

    @pytest.mark.parametrize("corrupt, message", [
        (lambda om_a, om_b: (om_a, 0.0 * om_b), "marginally stable at delta={}: omega_B vanishes"),
        (lambda om_a, om_b: (math.nan * om_a, om_b), "symplectic construction failed at delta={}"),
        (lambda om_a, om_b: (1.01 * om_a, om_b), "diagonalization failed at delta={}"),
    ], ids=["marginal", "symplectic", "diagonal"])
    def test_each_check_names_the_first_failing_entry(self, monkeypatch, corrupt, message):
        bad = (-2500.0, -1000.0)
        monkeypatch.setattr("omcool.polariton.polariton_spectrum",
                            spectrum_corrupted_at(bad, corrupt))
        deltas = np.linspace(-6000.0, -200.0, 11)
        assert bits(bogoliubov_basis(deltas, OMEGA_B, G).S) == bits(
            [bogoliubov_basis(d, OMEGA_B, G).S for d in deltas])
        deltas[[4, 8]] = bad
        for delta in (deltas, bad[0]):
            with pytest.raises(StabilityError) as err:
                bogoliubov_basis(delta, OMEGA_B, G)
            assert str(err.value) == message.format(bad[0])
            assert err.value.delta == bad[0]

    @pytest.mark.parametrize("delta, omega_b", MARGINAL)
    def test_marginal_stability_is_refused(self, delta, omega_b):
        g = stability_limit(delta, omega_b)
        assert polariton_spectrum(delta, omega_b, g)[1] == 0.0
        # alone and stacked between stable entries, the first to fail
        for call in (delta, np.array([2.0 * delta, delta, 4.0 * delta])):
            with pytest.raises(StabilityError) as err:
                bogoliubov_basis(call, omega_b, g)
            assert str(err.value) == f"marginally stable at delta={delta}: omega_B vanishes"
            assert err.value.delta == delta


class TestRabiPopulations:
    def test_resonant_full_swap(self):
        t_swap = math.pi / (2 * 200.0)
        n_b, n_c = rabi_populations(2.0, 12.0, OMEGA_B, OMEGA_B, 200.0, t_swap)
        assert n_c == pytest.approx(2.0, rel=1e-12)
        assert n_b == pytest.approx(12.0, rel=1e-12)

    def test_no_coupling_is_static(self):
        for t in (0.0, 0.3, 7.0):
            assert rabi_populations(2.0, 12.0, OMEGA_B, 1234.5, 0.0, t) == (2.0, 12.0)

    def test_total_occupation_conserved(self, rng):
        for _ in range(200):
            nb0, nc0 = rng.uniform(0, 20, size=2)
            om, dt, amp, t = rng.uniform(0.1, 3000.0, size=4)
            n_b, n_c = rabi_populations(nb0, nc0, om, dt, amp, t)
            assert n_b + n_c == pytest.approx(nb0 + nc0, rel=1e-12)
            assert min(n_b, n_c) >= min(nb0, nc0) - 1e-9

    def test_detuned_exchange_amplitude(self):
        # mismatch 2*omega_0 gives eta = 1/2 at the first maximum
        omega0 = 100.0
        delta = OMEGA_B - 2 * omega0
        omega = math.sqrt((OMEGA_B - delta) ** 2 / 4 + omega0**2)
        t_peak = math.pi / (2 * omega)
        _, n_c = rabi_populations(10.0, 0.0, OMEGA_B, delta, omega0, t_peak)
        assert n_c == pytest.approx(5.0, rel=1e-12)

    def test_vectorized_time(self):
        ts = np.linspace(0.0, 0.01, 11)
        n_b, n_c = rabi_populations(2.0, 12.0, OMEGA_B, OMEGA_B, 200.0, ts)
        assert n_b.shape == ts.shape
        assert n_b[0] == 2.0 and n_c[0] == 12.0


class TestExchangeEfficiency:
    def test_resonance_gives_unity(self):
        basis = bogoliubov_basis(-600.0, OMEGA_B, G)
        eta, omega_p = exchange_efficiency(basis, basis.omega_A, 200.0)
        assert eta == 1.0
        assert omega_p == pytest.approx(basis.u * 200.0, rel=1e-12)

    def test_far_detuned_limit_vanishes(self):
        basis = bogoliubov_basis(-600.0, OMEGA_B, G)
        eta, _ = exchange_efficiency(basis, basis.omega_A + 1e7, 200.0)
        assert eta < 1e-8

    def test_reference_point_nearly_resonant(self):
        basis = bogoliubov_basis(-600.0, OMEGA_B, G)
        eta, omega_p = exchange_efficiency(basis, 2000.0, 200.0)
        assert eta > 0.99
        mismatch = basis.omega_A - 2000.0
        assert abs(mismatch) < 15.0
        assert omega_p == pytest.approx(
            math.sqrt(mismatch**2 / 4 + (basis.u * 200.0) ** 2), rel=1e-12
        )

    def test_zero_coupling_rejected(self):
        basis = bogoliubov_basis(-600.0, OMEGA_B, G)
        with pytest.raises(PhysicsError, match="degenerate"):
            exchange_efficiency(basis, 2000.0, 0.0)


class TestSurvivalFactor:
    def test_zero_durations(self):
        assert survival_factor(1.0, 0.0) == 1.0

    def test_zero_damping(self):
        assert survival_factor(0.0, 0.04 + 0.008 + 0.04 + 0.1) == 1.0

    def test_reference_cycle(self):
        r = survival_factor(1.0, 0.04 + 0.008 + 0.04 + 0.1)
        assert r == pytest.approx(0.828614707232681, rel=1e-12)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="period"):
            survival_factor(1.0, -0.1)
        with pytest.raises(ValueError, match="gamma"):
            survival_factor(-1.0, 0.1)


class TestCoolingLimit:
    def test_perfect_exchange_reaches_fluid_bath(self):
        lim = cooling_limit(CoolingMapParams(eta=1.0, r=0.8, n_a=0.5, n_c=12.0))
        assert lim == 0.5

    def test_no_exchange_stays_thermal(self):
        lim = cooling_limit(CoolingMapParams(eta=0.0, r=0.7, n_a=0.5, n_c=12.0))
        assert lim == pytest.approx(12.0, rel=1e-12)

    def test_degenerate_map_rejected(self):
        with pytest.raises(PhysicsError, match="no cooling"):
            cooling_limit(CoolingMapParams(eta=0.0, r=1.0, n_a=0.5, n_c=12.0))

    def test_monotone_in_eta_when_cooling(self, rng):
        for _ in range(100):
            n_a = rng.uniform(0.0, 1.0)
            n_c = n_a + rng.uniform(0.1, 20.0)
            r = rng.uniform(0.05, 0.999)
            etas = np.linspace(0.01, 1.0, 40)
            lims = [cooling_limit(CoolingMapParams(eta=e, r=r, n_a=n_a, n_c=n_c))
                    for e in etas]
            assert np.all(np.diff(lims) <= 1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CoolingMapParams(eta=1.2, r=0.5, n_a=0.0, n_c=1.0)
        with pytest.raises(ValueError):
            CoolingMapParams(eta=0.5, r=0.0, n_a=0.0, n_c=1.0)

    def test_non_finite_baths_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                CoolingMapParams(eta=0.5, r=0.5, n_a=bad, n_c=1.0)
            with pytest.raises(ValueError, match="finite"):
                CoolingMapParams(eta=0.5, r=0.5, n_a=0.0, n_c=bad)


class TestLimitComposition:
    def test_reference_cycle_reaches_the_fluid_bath(self):
        # compose efficiency, survival and the asymptotic map at the
        # single-target reference point: the limit lands within a few
        # percent of the fluid bath occupation
        basis = bogoliubov_basis(-600.0, OMEGA_B, G)
        eta, _ = exchange_efficiency(basis, 2000.0, 200.0)
        r = survival_factor(1.0, 0.04 + 0.008 + 0.04 + 0.1)
        lim = cooling_limit(CoolingMapParams(eta=eta, r=r, n_a=0.5, n_c=12.0))
        assert lim == pytest.approx(0.5, rel=0.05)


class TestIterateCoolingMap:
    def test_perfect_exchange_converges_in_one_cycle(self):
        params = CoolingMapParams(eta=1.0, r=0.9, n_a=0.5, n_c=12.0)
        seq = iterate_cooling_map(params, 12.0, 4)
        assert seq[0] == 12.0
        assert np.all(seq[1:] == 0.5)

    def test_pure_thermalization_geometric(self):
        params = CoolingMapParams(eta=0.0, r=0.6, n_a=0.5, n_c=12.0)
        seq = iterate_cooling_map(params, 2.0, 6)
        for prev, nxt in zip(seq[:-1], seq[1:]):
            assert nxt - 12.0 == pytest.approx(0.6 * (prev - 12.0), rel=1e-12)

    def test_fixed_point_matches_closed_form(self, rng):
        for _ in range(200):
            params = CoolingMapParams(
                eta=rng.uniform(0.05, 1.0), r=rng.uniform(0.3, 0.99),
                n_a=rng.uniform(0.0, 1.0), n_c=rng.uniform(0.0, 20.0),
            )
            seq = iterate_cooling_map(params, rng.uniform(0.0, 30.0), 800)
            lim = cooling_limit(params)
            assert seq[-1] == pytest.approx(lim, rel=1e-9, abs=1e-12)

    def test_monotone_after_first_step(self):
        params = CoolingMapParams(eta=0.7, r=0.9, n_a=0.2, n_c=10.0)
        seq = iterate_cooling_map(params, 10.0, 50)
        lim = cooling_limit(params)
        gaps = np.abs(seq[1:] - lim)
        assert np.all(np.diff(gaps) <= 1e-12)
