"""Invariances of the model that any correct engine keeps, checked over the
whole pipeline, from a config to the run's samples.  They need no reference
data (metamorphic testing: Chen et al., ACM Comput. Surv. 51, 4 (2018)):

- time rescaling: every frequency, rate and coupling times lambda and every
  duration over lambda leave the occupations at each sample unchanged, bit
  for bit when lambda is a power of two;
- target permutation: reversing the targets (their frequencies, baths,
  initial occupations and the exchanges' target indices) permutes the
  output columns bit for bit, and changes nothing else;
- a spectator: a target that is never pulsed leaves the other columns where
  they were, within roundoff.
"""

import copy
from functools import cache

import numpy as np
import pytest

from omcool.config import load_config_file, parse_cycle_config
from omcool.runner import run_protocol

FREQUENCIES = ("omega_b", "g", "kappa", "gamma", "delta_i", "delta_f", "omega_0")
DURATIONS = ("tau1", "tau2", "tau3", "tau4")


def smalltest_fock() -> dict:
    """smalltest as a Fock cycle config at cutoffs (4, 4, 4), with the
    leakage guard relaxed to fit them."""
    raw = load_config_file("smalltest")
    del raw["comparison"]
    return {**raw, "engine": "fock", "fock": {"cutoffs": [4, 4, 4], "leakage_threshold": 0.5}}


CONFIGS = {"fig1": lambda: load_config_file("fig1"), "fig2": lambda: load_config_file("fig2"),
           "smalltest-fock": smalltest_fock}


def run(raw: dict):
    cfg = parse_cycle_config(raw)
    return run_protocol(cfg.params, cfg.schedule, cfg.engine, cfg.initial, cfg.tol,
                        cfg.samples_per_stroke, cfg.fock)


@cache
def base(name: str):
    return run(CONFIGS[name]())


def rescaled(raw: dict, lam: float) -> dict:
    raw = copy.deepcopy(raw)
    params, schedule = raw["params"], raw["schedule"]
    for key in FREQUENCIES:
        params[key] *= lam
    params["delta_targets"] = [lam * d for d in params["delta_targets"]]
    for key in DURATIONS:
        schedule[key] /= lam
    return raw


@pytest.mark.parametrize("name, lam", [(name, lam) for name in CONFIGS for lam in (2.0, 0.5)])
def test_power_of_two_time_rescaling_is_bitwise(name, lam):
    want, got = base(name), run(rescaled(CONFIGS[name](), lam))
    assert got.times.tobytes() == (want.times / lam).tobytes()
    assert got.occupations.tobytes() == want.occupations.tobytes()
    assert got.covs.tobytes() == want.covs.tobytes()


@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_time_rescaling_by_three_holds_to_roundoff(name):
    want, got = base(name), run(rescaled(CONFIGS[name](), 3.0))
    assert np.allclose(3.0 * got.times, want.times, rtol=1e-14, atol=0.0)
    assert np.abs(got.occupations - want.occupations).max() < 1e-12
    assert np.abs(got.covs - want.covs).max() < 1e-12


def test_reversing_the_targets_permutes_the_columns_bitwise():
    raw = load_config_file("fig2")
    for section, key in (("params", "delta_targets"), ("params", "n_targets"),
                         ("initial", "targets")):
        raw[section][key] = raw[section][key][::-1]
    n = len(raw["params"]["delta_targets"])
    raw["schedule"]["targets"] = [n - 1 - k for k in raw["schedule"]["targets"]]
    want, got = base("fig2"), run(raw)
    modes = [0, 1, 3, 2]
    quadratures = [q for m in modes for q in (2 * m, 2 * m + 1)]
    assert got.times.tobytes() == want.times.tobytes()
    assert got.occupations[:, modes].tobytes() == want.occupations.tobytes()
    assert got.covs[:, quadratures][:, :, quadratures].tobytes() == want.covs.tobytes()
    assert got.n_polariton.tobytes() == want.n_polariton.tobytes()


def test_a_spectator_target_moves_no_other_column():
    raw = load_config_file("fig1")
    raw["params"]["delta_targets"] += [3100.0]
    raw["params"]["n_targets"] += [5.0]
    raw["initial"]["targets"] += [5.0]
    want, got = base("fig1"), run(raw)
    assert got.times.tobytes() == want.times.tobytes()
    assert np.abs(got.occupations[:, :3] - want.occupations).max() < 1e-12
    assert np.abs(got.covs[:, :6, :6] - want.covs).max() < 1e-12
    # at its bath's occupation from the start, the spectator stays there
    # (7.9e-13 off after fig1's three cycles)
    assert np.abs(got.occupations[:, 3] - 5.0).max() < 1e-11
