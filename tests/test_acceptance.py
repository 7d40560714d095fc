"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every stated runtime budget is asserted.
"""

import math
import time

import numpy as np
import pytest

from omcool import gaussian
from omcool.config import load_config_file, parse_cycle_config
from omcool.fock import number_state, propagate_fock
from omcool.gaussian import propagate, thermal_state
from omcool.params import SystemParams
from omcool.polariton import (
    CoolingMapParams,
    bogoliubov_basis,
    cooling_limit,
    hamiltonian_matrix,
    iterate_cooling_map,
    polariton_spectrum,
    rabi_populations,
)
from omcool.runner import analyze_cycles, run_protocol
from omcool.schedule import CycleSchedule, Stroke, StrokeKind

_CACHE = {}
_LOG = []


@pytest.fixture(autouse=True, scope="module")
def _bind_log(acceptance_log):
    # route the per-criterion lines into the terminal-summary collector
    global _LOG
    _LOG = acceptance_log
    return acceptance_log


def _report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"{name}: {status}  {detail}"
    print(f"\nACCEPTANCE {line}")
    _LOG.append(line)
    assert passed, f"{name} failed: {detail}"


def _check_runtime(name, elapsed, limit):
    detail = f"runtime {elapsed:.2f}s (budget {limit:.0f}s)"
    assert elapsed < limit, f"{name}: {detail}"
    return detail


def test_c1_thermal_relaxation_oracle(fock_checks):
    t0 = time.perf_counter()
    # Gaussian engine
    p = SystemParams(omega_b=2000.0, g=0.0, kappa=40.0, gamma=0.0, n_a=0.5,
                     n_b=0.0, delta_i=-2000.0, delta_f=-600.0, omega_0=0.0)
    sched = CycleSchedule(strokes=(Stroke.hold(0.1),), cycle_count=1,
                          delta_start=-2000.0)
    gtraj = propagate(thermal_state([5.0, 0.0]), sched, 0.1, tol=1e-10, params=p)
    exact = 0.5 + 4.5 * np.exp(-40.0 * gtraj.times)
    g_err = float(np.max(np.abs(gtraj.occupations[:, 0] - exact) / exact))

    # Fock engine, cutoff 30 on the damped mode
    pf = SystemParams(omega_b=1.0, g=0.0, kappa=40.0, gamma=0.0, n_a=0.5,
                      n_b=0.0, delta_i=-2.0, delta_f=-1.0, omega_0=0.0)
    schedf = CycleSchedule(strokes=(Stroke.hold(0.1),), cycle_count=1,
                           delta_start=-2.0)
    ftraj = propagate_fock(number_state((30, 2), (5, 0)), pf, schedf, 0.1)
    exactf = 0.5 + 4.5 * np.exp(-40.0 * ftraj.times)
    f_err = float(np.max(np.abs(ftraj.occupations[:, 0] - exactf) / exactf))

    elapsed = time.perf_counter() - t0
    _CACHE["c1_gauss"] = gtraj
    _CACHE["c1_fock"] = np.array(fock_checks)  # per-sample (trace, hermiticity, min eig)
    rt = _check_runtime("C1", elapsed, 5.0)
    _report("C1 thermal relaxation", g_err < 1e-8 and f_err < 1e-4,
            f"gaussian rel err {g_err:.2e} (<1e-8), fock rel err {f_err:.2e} "
            f"(<1e-4), {rt}")


def test_c2_rabi_exchange(fock_checks):
    t0 = time.perf_counter()
    t_swap = math.pi / (2 * 200.0)
    # Gaussian: thermal 2 <-> 12 swap
    p = SystemParams(omega_b=2000.0, g=0.0, kappa=0.0, gamma=0.0, n_a=0.0,
                     n_b=2.0, delta_i=-2000.0, delta_f=-600.0, omega_0=200.0,
                     delta_targets=(2000.0,), n_targets=(12.0,))
    sched = CycleSchedule(strokes=(Stroke.exchange(0, 200.0, t_swap),),
                          cycle_count=1, delta_start=-2000.0)
    gtraj = propagate(thermal_state([0.0, 2.0, 12.0]), sched, t_swap,
                      tol=1e-10, params=p)
    occ = gtraj.occupations
    nb, nc = rabi_populations(2.0, 12.0, 2000.0, 2000.0, 200.0, gtraj.times)
    g_err = float(max(np.max(np.abs(occ[:, 1] - nb)), np.max(np.abs(occ[:, 2] - nc))))
    g_swap = abs(occ[-1, 1] - 12.0) < 1e-5 and abs(occ[-1, 2] - 2.0) < 1e-5

    # Fock: number-state 0 <-> 2 swap
    pf = SystemParams(omega_b=2000.0, g=0.0, kappa=0.0, gamma=0.0, n_a=0.0,
                      n_b=0.0, delta_i=-2000.0, delta_f=-600.0, omega_0=200.0,
                      delta_targets=(2000.0,), n_targets=(0.0,))
    ftraj = propagate_fock(number_state((2, 6, 6), (0, 0, 2)), pf, sched, t_swap)
    nbf, ncf = rabi_populations(0.0, 2.0, 2000.0, 2000.0, 200.0, ftraj.times)
    f_err = float(max(np.max(np.abs(ftraj.occupations[:, 1] - nbf)),
                      np.max(np.abs(ftraj.occupations[:, 2] - ncf))))
    f_swap = (abs(ftraj.occupations[-1, 1] - 2.0) < 1e-5
              and abs(ftraj.occupations[-1, 2]) < 1e-5)

    elapsed = time.perf_counter() - t0
    _CACHE["c2_gauss"] = gtraj
    _CACHE["c2_fock"] = np.array(fock_checks)
    rt = _check_runtime("C2", elapsed, 30.0)
    _report("C2 resonant exchange", g_err < 1e-5 and f_err < 1e-5 and g_swap
            and f_swap,
            f"gaussian dev {g_err:.2e}, fock dev {f_err:.2e} (<1e-5), full "
            f"swaps reproduced, {rt}")


def test_c3_spectrum_against_symplectic_diagonalization():
    omega_b, g = 2000.0, 200.0
    deltas = np.linspace(-6000.0, -90.0, 200)
    worst = 0.0
    for delta in deltas:
        om_a, om_b = polariton_spectrum(delta, omega_b, g)
        basis = bogoliubov_basis(delta, omega_b, g)
        # the basis reports the closed-form branches, so S itself must carry
        # the Hamiltonian onto them
        s_inv = basis.inverse()
        resid = (s_inv.T @ hamiltonian_matrix(delta, omega_b, g) @ s_inv
                 - np.diag([om_a, om_a, om_b, om_b]))
        worst = max(worst, abs(basis.omega_A - om_a) / om_a,
                    abs(basis.omega_B - om_b) / max(om_b, 1e-300), np.abs(resid).max() / om_a)
    # decoupled limits are exact
    exact_photon = polariton_spectrum(-3000.0, omega_b, 0.0) == (3000.0, omega_b)
    exact_phonon = polariton_spectrum(-1500.0, omega_b, 0.0) == (omega_b, 1500.0)
    # avoided-crossing gap against the closed-form radicals
    om_a, om_b2 = polariton_spectrum(-omega_b, omega_b, g)
    gap_expected = (math.sqrt(omega_b**2 + 2 * g * omega_b)
                    - math.sqrt(omega_b**2 - 2 * g * omega_b))
    gap_err = abs((om_a - om_b2) - gap_expected) / gap_expected
    _report("C3 polariton spectrum",
            worst < 1e-9 and exact_photon and exact_phonon and gap_err < 1e-9,
            f"max branch and diagonalization mismatch {worst:.2e} over 200 detunings "
            f"(<1e-9), g=0 limits exact, gap mismatch {gap_err:.2e} (<1e-9)")


def test_c4_reference_protocol_single_target():
    cfg = parse_cycle_config(load_config_file("fig1.json"))
    t0 = time.perf_counter()
    traj = run_protocol(cfg.params, cfg.schedule, engine="gaussian",
                        initial=cfg.initial, tol=cfg.tol,
                        samples_per_stroke=cfg.samples_per_stroke)
    elapsed = time.perf_counter() - t0
    _CACHE["c4"] = traj

    # (a) the first exchange empties the target from 12 to below 1.5
    first_pulse = next(s for s in traj.spans
                       if s.kind is StrokeKind.EXCHANGE_PULSE)
    i_end = int(np.argmin(np.abs(traj.times - first_pulse.t_end)))
    n_c_after = float(traj.occupations[i_end, 2])

    # (b) the fluid occupation barely moves during the first expansion stroke
    stroke1 = traj.times <= traj.spans[0].t_end
    n_a_track = traj.n_polariton[stroke1, 0]
    fluid_dev = float(np.max(np.abs(n_a_track - n_a_track[0])))

    # the decoupled target reheats slowly during the first hold stroke
    hold = next(s for s in traj.spans if s.kind is StrokeKind.HOLD)
    in_hold = (traj.times >= hold.t_start) & (traj.times <= hold.t_end)
    n_c_hold = traj.occupations[in_hold, 2]
    reheat = float(n_c_hold[-1] - n_c_hold[0])
    assert 0.0 < reheat < 2.0, f"expected slow bath reheat, got {reheat}"

    # (c) post-exchange asymptote vs the analytic cooling limit
    report = analyze_cycles(traj, cfg.params)

    rt = _check_runtime("C4", elapsed, 60.0)
    _report("C4 single-target protocol",
            n_c_after < 1.5 and fluid_dev < 0.15 and report.limit_deviation < 0.20,
            f"N_c after first exchange {n_c_after:.3f} (<1.5), stroke-1 fluid "
            f"drift {fluid_dev:.3f} (<0.15), asymptote {report.asymptote_estimate:.3f} "
            f"vs limit {report.cooling_limit:.3f} (dev {report.limit_deviation:.1%} "
            f"< 20%), {rt}")


def test_c5_two_target_protocol():
    cfg = parse_cycle_config(load_config_file("fig2.json"))
    traj = run_protocol(cfg.params, cfg.schedule, engine="gaussian",
                        initial=cfg.initial, tol=cfg.tol,
                        samples_per_stroke=cfg.samples_per_stroke)
    _CACHE["c5"] = traj
    n_c0, n_d0 = traj.occupations[0, 2], traj.occupations[0, 3]
    n_c, n_d = traj.occupations[-1, 2], traj.occupations[-1, 3]
    _report("C5 two-target protocol",
            n_c < 1.5 and n_d < 1.5 and n_c < n_c0 and n_d < n_d0,
            f"N_c {n_c0:.1f}->{n_c:.3f}, N_d {n_d0:.1f}->{n_d:.3f} "
            "(both < 1.5 after two cycles)")


def test_c6_engine_equivalence():
    cfg = parse_cycle_config(load_config_file("smalltest.json"), for_validate=True)
    t0 = time.perf_counter()
    traj_g = run_protocol(cfg.params, cfg.schedule, engine="gaussian",
                          initial=cfg.initial, tol=cfg.tol,
                          samples_per_stroke=cfg.samples_per_stroke)
    traj_f = run_protocol(cfg.params, cfg.schedule, engine="fock",
                          initial=cfg.initial, tol=cfg.tol,
                          samples_per_stroke=cfg.samples_per_stroke,
                          fock_options=cfg.fock)
    elapsed = time.perf_counter() - t0
    _CACHE["c6_gauss"] = traj_g
    _CACHE["c6_fock"] = traj_f
    assert np.array_equal(traj_g.times, traj_f.times)
    max_dev = float(np.max(np.abs(traj_g.occupations - traj_f.occupations)))
    max_leak = float(np.max(traj_f.leakage))
    assert elapsed < 30.0, f"C6 runtime {elapsed:.1f}s over budget"
    _report("C6 engine equivalence", max_dev < 5e-2 and max_leak < 1e-3,
            f"max occupation deviation {max_dev:.2e} (<5e-2), max leakage "
            f"{max_leak:.2e} (<1e-3), runtime {elapsed:.1f}s (budget 30s)")


def test_c6_engines_agree_on_every_covariance():
    # beside C6, on its cached runs: the occupations C6 bounds are blind to a
    # sign flip of a coupling (negating one mode leaves them unchanged), while
    # the cross-covariances flip with it, so every 2N x 2N entry is compared
    missing = [k for k in ("c6_gauss", "c6_fock") if k not in _CACHE]
    assert not missing, f"C6 runs missing from cache: {missing}"
    traj_g, traj_f = _CACHE["c6_gauss"], _CACHE["c6_fock"]
    assert traj_g.covs.shape == traj_f.covs.shape
    max_dev = float(np.max(np.abs(traj_g.covs - traj_f.covs)))
    assert max_dev <= 2e-2, f"largest covariance deviation {max_dev:.3e} (<=2e-2)"


@pytest.mark.parametrize("mode", [0, 2], ids=["g-flipped", "exchange-flipped"])
def test_c6_covariance_check_fails_a_flipped_coupling(mode, monkeypatch):
    # negating mode a's quadratures (or the target's) in the Gaussian
    # generator flips the sign of g (or of the exchange) and nothing else:
    # that mutant keeps C6's occupations but must fail the check above
    assert "c6_fock" in _CACHE, "C6 run missing from cache"
    stroke_generator = gaussian._stroke_generator

    def mutant(params, span):
        G = stroke_generator(params, span)
        sign = np.ones(G.shape[-1] // 2)
        sign[2 * mode:2 * mode + 2] = -1.0
        sign = np.tile(sign, 2)  # the mode's rows in both halves of the Van Loan generator
        return G * np.outer(sign, sign)

    monkeypatch.setattr(gaussian, "_stroke_generator", mutant)
    cfg = parse_cycle_config(load_config_file("smalltest.json"), for_validate=True)
    traj_g = run_protocol(cfg.params, cfg.schedule, engine="gaussian", initial=cfg.initial,
                          tol=cfg.tol, samples_per_stroke=cfg.samples_per_stroke)
    traj_f = _CACHE["c6_fock"]
    assert np.max(np.abs(traj_g.occupations - traj_f.occupations)) < 5e-2
    assert np.max(np.abs(traj_g.covs - traj_f.covs)) > 2e-2


def test_c7_analytic_map_consistency():
    rng = np.random.default_rng(987654321)
    worst = 0.0
    for _ in range(1000):
        params = CoolingMapParams(
            eta=float(rng.uniform(0.02, 1.0)),
            r=float(rng.uniform(0.2, 0.995)),
            n_a=float(rng.uniform(0.0, 2.0)),
            n_c=float(rng.uniform(0.0, 30.0)),
        )
        lim = cooling_limit(params)
        seq = iterate_cooling_map(params, float(rng.uniform(0.0, 40.0)), 1500)
        worst = max(worst, abs(seq[-1] - lim) / max(abs(lim), 1e-9))
    exact = all(
        cooling_limit(CoolingMapParams(eta=1.0, r=r, n_a=n_a, n_c=17.0)) == n_a
        for r in (0.2, 0.7, 1.0) for n_a in (0.0, 0.5, 2.0)
    )
    _report("C7 analytic map consistency", worst < 1e-9 and exact,
            f"fixed point vs closed form rel dev {worst:.2e} over 1000 draws "
            "(<1e-9), perfect-exchange limit exact")


def test_c8_physicality_suite():
    required = ["c1_gauss", "c1_fock", "c2_gauss", "c2_fock", "c4", "c5",
                "c6_gauss", "c6_fock"]
    missing = [k for k in required if k not in _CACHE]
    assert not missing, f"criteria runs missing from cache: {missing}"

    # physicality is each sample's min eig(cov + iJ/2)
    worst_gauss = 0.0
    for key in ("c1_gauss", "c2_gauss", "c4", "c5", "c6_gauss"):
        worst_gauss = min(worst_gauss, float(np.min(_CACHE[key].physicality)))

    worst_trace = worst_herm = 0.0
    worst_eig = 0.0
    for key in ("c1_fock", "c2_fock"):
        trace_errors, hermiticity_errors, min_eigenvalues = _CACHE[key].T
        worst_trace = max(worst_trace, float(np.max(trace_errors)))
        worst_herm = max(worst_herm, float(np.max(hermiticity_errors)))
        worst_eig = min(worst_eig, float(np.min(min_eigenvalues)))
    fock_run = _CACHE["c6_fock"]
    worst_eig = min(worst_eig, float(np.min(fock_run.physicality)))

    ok = (worst_gauss > -1e-9 and worst_trace < 1e-9 and worst_herm < 1e-10
          and worst_eig > -1e-8)
    _report("C8 physicality suite", ok,
            f"min eig(cov + iJ/2) {worst_gauss:.2e} (>-1e-9); fock trace dev "
            f"{worst_trace:.2e} (<1e-9), hermiticity {worst_herm:.2e} (<1e-10), "
            f"min eig(rho) {worst_eig:.2e} (>-1e-8)")
