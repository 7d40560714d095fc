import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from omcool import fock, gaussian, runner
from omcool.cli import main
from omcool.config import load_config_file, parse_cycle_config, parse_fock_options, parse_params
from omcool.errors import StabilityError
from omcool.polariton import (CoolingMapParams, bogoliubov_basis, cooling_limit,
                              exchange_efficiency)
from omcool.runner import InitialOccupations, check_run, run_protocol
from omcool.schedule import CycleSchedule, Stroke


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def small_cycle_config(**over):
    cfg = {
        "schema_version": 1,
        "params": {
            "omega_b": 10.0, "g": 2.0, "kappa": 8.0, "gamma": 0.5,
            "n_a": 0.1, "n_b": 0.2, "delta_i": -30.0, "delta_f": -3.0,
            "omega_0": 5.0, "delta_targets": [10.0], "n_targets": [0.25],
        },
        "schedule": {
            "type": "default_cycle", "tau1": 0.3, "tau2": 0.32, "tau3": 0.3,
            "tau4": 0.5, "targets": [0], "cycles": 1, "ramp_shape": "linear",
        },
        "initial": {"basis": "bare", "pair": [0.1, 0.2], "targets": [0.25]},
        "integrator": {"tol": 1e-7, "samples_per_stroke": 6},
    }
    cfg.update(over)
    return cfg


class TestSpectrumCommand:
    def config(self, tmp_path, **over):
        payload = {"schema_version": 1, "omega_b": 2000.0, "g": 0.0,
                   "delta_start": -6000.0, "delta_stop": -100.0, "samples": 60}
        payload.update(over)
        return write_config(tmp_path, "spectrum.json", payload)

    def test_decoupled_branches_cross_at_omega_b(self, tmp_path, capsys):
        out = tmp_path / "branches.csv"
        assert run_cli("spectrum", "--config", self.config(tmp_path),
                       "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        assert header == ["delta", "omega_A", "omega_B", "u"]
        assert len(rows) == 60
        for row in rows:
            delta, om_a, om_b, u = map(float, row)
            assert om_a == pytest.approx(max(abs(delta), 2000.0), rel=1e-12)
            assert om_b == pytest.approx(min(abs(delta), 2000.0), rel=1e-12)
            assert u in (0.0, 1.0)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.config(tmp_path, g=200.0, delta_stop=-100.0)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("spectrum", "--config", cfg, "--out", str(out1)) == 0
        assert run_cli("spectrum", "--config", cfg, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unstable_range_reports_stable_subinterval(self, tmp_path, capsys):
        cfg = self.config(tmp_path, g=200.0, delta_stop=-50.0)
        assert run_cli("spectrum", "--config", cfg, "--out",
                       str(tmp_path / "x.csv")) == 3
        err = capsys.readouterr().err
        assert "stable sub-interval" in err
        assert "-80" in err

    def test_empty_range_is_usage_error(self, tmp_path):
        cfg = self.config(tmp_path, delta_start=-100.0, delta_stop=-6000.0)
        assert run_cli("spectrum", "--config", cfg, "--out",
                       str(tmp_path / "x.csv")) == 2

    def test_avoided_crossing_gap(self, tmp_path):
        cfg = self.config(tmp_path, g=200.0, delta_start=-6000.0,
                          delta_stop=-100.0, samples=400)
        out = tmp_path / "gap.csv"
        assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        gaps = [float(r[1]) - float(r[2]) for r in rows]
        expected = math.sqrt(2000**2 + 2 * 200 * 2000) - math.sqrt(
            2000**2 - 2 * 200 * 2000)
        assert min(gaps) == pytest.approx(expected, rel=1e-3)


class TestConfigErrors:
    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = small_cycle_config()
        cfg["params"]["omega_bb"] = 1.0
        path = write_config(tmp_path, "bad.json", cfg)
        assert run_cli("cycle", "--config", path, "--out",
                       str(tmp_path / "x.csv")) == 2
        assert "params.omega_bb" in capsys.readouterr().err

    def test_missing_schema_version(self, tmp_path, capsys):
        cfg = small_cycle_config()
        del cfg["schema_version"]
        path = write_config(tmp_path, "bad.json", cfg)
        assert run_cli("cycle", "--config", path, "--out",
                       str(tmp_path / "x.csv")) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("cycle", "--config", str(path), "--out",
                       str(tmp_path / "x.csv")) == 2

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_config_named(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes('{"description": "caf\xe9"}'.encode("latin-1"))
        assert run_cli("cycle", "--config", str(path), "--out",
                       str(tmp_path / "x.csv")) == 2
        assert f"cannot read config {path}" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run_cli("cycle", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "x.csv")) == 2

    def test_wrong_type_named(self, tmp_path, capsys):
        cfg = small_cycle_config()
        cfg["params"]["kappa"] = "fast"
        path = write_config(tmp_path, "bad.json", cfg)
        assert run_cli("cycle", "--config", path, "--out",
                       str(tmp_path / "x.csv")) == 2
        assert "params.kappa" in capsys.readouterr().err


    @pytest.mark.parametrize("section,key,value", [
        ("params", "kappa", float("nan")),
        ("params", "n_targets", [float("inf")]),
        ("integrator", "tol", float("-inf")),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, section, key, value):
        cfg = small_cycle_config()
        cfg[section][key] = value
        path = write_config(tmp_path, "bad.json", cfg)  # json writes NaN/Infinity
        assert run_cli("cycle", "--config", path, "--out",
                       str(tmp_path / "x.csv")) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cycle", "validate"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_tol_flag_must_be_finite_and_positive(self, tmp_path, capsys, command, tol):
        path = write_config(tmp_path, "cfg.json", small_cycle_config(
            fock={"cutoffs": [4, 4, 4]}))
        assert run_cli(command, "--config", path, "--out", str(tmp_path / "x.out"),
                       "--tol", tol) == 2
        # config's rule for a positive number, under the flag's name
        rule = "must be positive" if tol in ("-1", "0") else "must be a finite number"
        assert f"'--tol' {rule}" in capsys.readouterr().err


DROP = object()

SPECTRUM_BASE = {"schema_version": 1, "omega_b": 2000.0, "g": 0.0,
                 "delta_start": -6000.0, "delta_stop": -100.0, "samples": 60}
LIMIT_BASE = {"schema_version": 1, "n_a": 0.0, "n_c": 12.0, "eta": 0.9, "r": 0.8}
RAMP = {"kind": "ramp", "duration": 0.3, "delta_start": -30.0, "delta_end": -3.0}


def _edited(base, edits):
    """A copy of ``base`` with each dotted key set to its value (DROP deletes
    it, and the key "" replaces the whole config)."""
    cfg = json.loads(json.dumps(base))
    for key, value in edits.items():
        if key == "":
            return value
        *parents, last = key.split(".")
        node = cfg
        for part in parents:
            node = node.setdefault(part, {})
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return cfg


# (command, base config, edits, text the message must contain): each case is
# rejected by the parser, so it must exit 2 before any engine runs
BAD_CONFIGS = [
    ("cycle", "run", {"": [1, 2]}, "config must be a JSON object"),
    ("cycle", "run", {"schema_version": 2}, "schema_version = 1"),
    ("cycle", "run", {"description": 5}, "'description' must be a string"),
    ("cycle", "run", {"params": [1]}, "params must be a JSON object"),
    ("cycle", "run", {"integrator": 5}, "integrator must be a JSON object"),
    ("cycle", "run", {"params.g": DROP}, "missing required key 'params.g'"),
    ("cycle", "run", {"params.n_targets": "hot"}, "'params.n_targets' must be a list"),
    ("cycle", "run", {"params.kappa": -1.0}, "decay rates must be non-negative"),
    ("cycle", "run", {"schedule": None}, "missing required key 'schedule.type'"),
    ("cycle", "run", {"schedule.type": "zigzag"}, "'schedule.type' must be one of"),
    ("cycle", "run", {"schedule.type": 3}, "'schedule.type' must be a string"),
    ("cycle", "run", {"schedule.tau5": 1.0}, "unknown key 'schedule.tau5'"),
    ("cycle", "run", {"schedule.targets": [0.5]}, "'schedule.targets' must be a list of integers"),
    ("cycle", "run", {"schedule.targets": [1]}, "unknown target index 1"),
    ("cycle", "run", {"schedule.cycles": "two"}, "'schedule.cycles' must be an integer"),
    ("cycle", "run", {"schedule.ramp_shape": "square"}, "'schedule.ramp_shape' must be one of"),
    ("cycle", "run", {"schedule.tau1": -0.1}, "tau1 must be positive"),
    ("cycle", "run", {"schedule": {"type": "strokes", "strokes": []}},
     "'schedule.strokes' must be a non-empty list"),
    ("cycle", "run", {"schedule": {"type": "strokes", "strokes": [1]}},
     "missing required key 'schedule.strokes[0].kind'"),
    ("cycle", "run", {"schedule": {"type": "strokes", "strokes": [{"kind": "pause"}]}},
     "'schedule.strokes[0].kind' must be one of"),
    ("cycle", "run", {"schedule": {"type": "strokes", "strokes": [dict(RAMP, extra=1)]}},
     "unknown key 'schedule.strokes[0].extra'"),
    ("cycle", "run", {"schedule": {"type": "strokes", "strokes": [
        {"kind": "hold", "duration": 0.1}, {"kind": "exchange", "duration": 0.1}]}},
     "missing required key 'schedule.strokes[1].target'"),
    ("cycle", "run", {"schedule": {"type": "strokes", "strokes": [
        {"kind": "exchange", "duration": 0.1, "target": 3}]}},
     "unknown target index 3; system has 1 target(s)"),
    ("cycle", "run", {"schedule": {"type": "strokes", "strokes": [
        dict(RAMP, delta_start=-20.0)]}}, "detuning discontinuity"),
    ("cycle", "run", {"schedule": {"type": "strokes", "strokes": [
        {"kind": "hold", "duration": 0.0}]}}, "stroke duration must be positive"),
    ("cycle", "run", {"initial.basis": "dressed"}, "'initial.basis' must be one of"),
    ("cycle", "run", {"initial.pair": [0.1]},
     "invalid initial occupations: pair must hold two occupations"),
    ("cycle", "run", {"initial.targets": []},
     "initial.targets must list one occupation per target mode (1 expected)"),
    ("cycle", "run", {"initial.pair": [-0.1, 0.2]}, "occupations must be non-negative"),
    ("cycle", "run", {"engine": "exact"}, "unknown engine 'exact'; choose from"),
    ("cycle", "run", {"integrator.tol": 0.0}, "'integrator.tol' must be positive"),
    ("cycle", "run", {"integrator.samples_per_stroke": 0},
     "'integrator.samples_per_stroke' must be positive"),
    ("cycle", "run", {"integrator.order": 4}, "unknown key 'integrator.order'"),
    ("cycle", "run", {"engine": "fock"},
     "engine 'fock' requires fock_options (a config's 'fock' section)"),
    ("cycle", "run", {"engine": "fock", "fock.cutoffs": [4, 4, 4], "initial.basis": "polariton"},
     "requires initial.basis = 'bare'"),
    ("cycle", "run", {"fock.cutoffs": [6, 6]},
     "the Fock cutoffs must list one cutoff per mode (3 expected, got 2)"),
    ("cycle", "run", {"fock.cutoffs": "six"}, "'fock.cutoffs' must be a list of integers"),
    ("validate", "run", {"fock.cutoffs": [1, 5, 5], "params.n_a": 0.0,
                         "initial.pair": [0.0, 0.2]},
     "invalid fock options: every cutoff must be an integer of at least 2"),
    ("validate", "run", {"fock.cutoffs": [1, 5, 5]},
     "invalid fock options: every cutoff must be an integer of at least 2"),
    ("validate", "run", {"fock.cutoffs": [6, 6, 8], "fock.dt": 1.0},
     "dt=1.0 too coarse for stroke 0"),
    ("validate", "run", {"fock.cutoffs": [6, 6, 8], "fock.dt": -1e-3},
     "dt must be finite and positive, got dt=-0.001"),
    ("validate", "run", {"fock.cutoffs": [6, 6, 8], "fock.leakage_threshold": 2.0},
     "invalid fock options: leakage_threshold must lie in (0, 1), got 2.0"),
    ("validate", "run", {"fock.cutoffs": [6, 6, 8], "comparison.threshold": 0.0},
     "'comparison.threshold' must be positive"),
    ("validate", "run", {"fock.cutoffs": [6, 6, 8], "comparison.strict": True},
     "unknown key 'comparison.strict'"),
    ("validate", "run", {"params.n_a": 0.0}, "missing required key 'fock'"),
    ("spectrum", "spectrum", {"": None}, "config must be a JSON object"),
    ("spectrum", "spectrum", {"delta_start": DROP}, "missing required key 'delta_start'"),
    ("spectrum", "spectrum", {"omega_b": 0.0}, "'omega_b' must be positive"),
    ("spectrum", "spectrum", {"g": -1.0}, "'g' must be non-negative"),
    ("spectrum", "spectrum", {"samples": 1.5}, "'samples' must be an integer"),
    ("spectrum", "spectrum", {"samples": 0}, "empty sweep range"),
    ("spectrum", "spectrum", {"delta_start": -10.0, "delta_stop": 10.0}, "red-detuned"),
    ("limit", "limit", {"": "n_a"}, "config must be a JSON object"),
    ("limit", "limit", {"n_c": DROP}, "missing required key 'n_c'"),
    ("limit", "limit", {"n_a": -1.0}, "bath occupations must be non-negative"),
    ("limit", "limit", {"gamma": 1.0, "tau": 0.1}, "give either 'r' or ('gamma', 'tau')"),
    ("limit", "limit", {"r": DROP, "tau": 0.1}, "'gamma' is required"),
    ("limit", "limit", {"eta": DROP}, "'eta' is required"),
    ("limit", "limit", {"r": DROP}, "give 'r' or ('gamma', 'tau')"),
    ("limit", "limit", {"r": 1.5}, "r must lie in (0, 1]"),
    ("limit", "limit", {"eta": DROP, "sweep": {"variable": "n_a", "start": 0.0, "stop": 1.0,
                                               "samples": 3}}, "'sweep.variable' must be one of"),
    ("limit", "limit", {"eta": DROP, "sweep": {"variable": "eta", "start": 0.0, "samples": 3}},
     "missing required key 'sweep.stop'"),
    ("limit", "limit", {"eta": DROP, "sweep": {"variable": "eta", "start": 1.0, "stop": 0.0,
                                               "samples": 3}}, "empty sweep range"),
    # appended, so that every earlier case keeps its id
    ("cycle", "run", {"schema_version": True}, "schema_version = 1, got True"),
    ("limit", "limit", {"schema_version": 1.0}, "schema_version = 1, got 1.0"),
]


@pytest.mark.parametrize("command, base, edits, expected", BAD_CONFIGS,
                         ids=[f"{c}-{'-'.join(e) or 'top'}-{i}"
                              for i, (c, _, e, _) in enumerate(BAD_CONFIGS)])
def test_bad_config_exits_2_naming_its_key(tmp_path, capsys, monkeypatch,
                                           command, base, edits, expected):
    def no_engine(*args, **kwargs):
        raise AssertionError("an engine ran before the config was rejected")

    monkeypatch.setattr("omcool.cli.run_protocol", no_engine)
    bases = {"run": small_cycle_config(), "spectrum": SPECTRUM_BASE, "limit": LIMIT_BASE}
    path = write_config(tmp_path, "bad.json", _edited(bases[base], edits))
    assert run_cli(command, "--config", path, "--out", str(tmp_path / "x.out")) == 2
    assert expected in capsys.readouterr().err


UNWRITABLE = [("cycle", "--out"), ("cycle", "--report"), ("validate", "--out"),
              ("spectrum", "--out"), ("limit", "--out")]


@pytest.mark.parametrize("reason", ["Is a directory", "Not a directory", "Permission denied"])
@pytest.mark.parametrize("command, flag", UNWRITABLE)
def test_unwritable_output_exits_2_before_any_engine(tmp_path, capsys, monkeypatch,
                                                     command, flag, reason):
    def no_engine(*args, **kwargs):
        raise AssertionError("an engine ran before the output path was refused")

    monkeypatch.setattr("omcool.cli.run_protocol", no_engine)
    bases = {"cycle": small_cycle_config(), "validate": small_cycle_config(),
             "spectrum": SPECTRUM_BASE, "limit": LIMIT_BASE}
    config = write_config(tmp_path, "cfg.json", bases[command])
    if reason == "Is a directory":
        bad = tmp_path / "taken"
        bad.mkdir()
    elif reason == "Not a directory":
        # an ancestor that exists as a file cannot be created as a directory
        bad = Path(config) / "runs" / "out.csv"
    else:
        # the nearest existing ancestor is refused write access
        bad = tmp_path / "locked" / "out.csv"
        (tmp_path / "locked").mkdir()
        access = os.access
        monkeypatch.setattr("omcool.cli.os.access",
                            lambda p, mode: Path(p).name != "locked" and access(p, mode))
    paths = {"--out": str(tmp_path / "ok.csv"), flag: str(bad)}
    argv = [command, "--config", config] + [x for item in paths.items() for x in item]
    assert run_cli(*argv) == 2
    assert f"cannot write {bad}: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "ok.csv").exists()


def test_strokes_schedule_with_adiabatic_ramps_matches_default_cycle():
    # the custom-stroke path gives each adiabatic ramp the params' pair, and
    # the return ramp's table is the reverse of the outward one, so spelling
    # out the default cycle stroke by stroke gives its trajectory bit for bit
    default = small_cycle_config()
    default["schedule"]["ramp_shape"] = "adiabatic"
    strokes = _edited(default, {"schedule": {"type": "strokes", "strokes": [
        dict(RAMP, shape="adiabatic"),
        {"kind": "exchange", "duration": 0.32, "target": 0},
        dict(RAMP, delta_start=-3.0, delta_end=-30.0, shape="adiabatic"),
        {"kind": "hold", "duration": 0.5},
    ]}})
    parsed = [parse_cycle_config(cfg) for cfg in (default, strokes)]
    # equal strokes have equal shapes and pairs; the tables must match bitwise too
    assert parsed[0].schedule.strokes == parsed[1].schedule.strokes
    for default_stroke, stroke in zip(*(p.schedule.strokes for p in parsed)):
        if stroke.pair is not None:
            assert stroke.knots[1].tobytes() == default_stroke.knots[1].tobytes()
    runs = [run_protocol(p.params, p.schedule, initial=p.initial, tol=p.tol,
                         samples_per_stroke=p.samples_per_stroke) for p in parsed]
    for name in ("times", "occupations", "n_polariton", "delta", "physicality"):
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes(), name
    assert runs[1].times.size == 4 * 6 + 1


class TestLimitCommand:
    def test_eta_sweep_reaches_fluid_floor(self, tmp_path):
        cfg = write_config(tmp_path, "lim.json", {
            "schema_version": 1, "n_a": 0.0, "n_c": 12.0, "r": 0.83,
            "sweep": {"variable": "eta", "start": 0.05, "stop": 1.0, "samples": 50},
        })
        out = tmp_path / "lim.csv"
        assert run_cli("limit", "--config", cfg, "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        assert header == ["eta", "r", "n_a", "n_c", "N_infinity", "degenerate"]
        n_inf = [float(r[4]) for r in rows]
        assert np.all(np.diff(n_inf) < 1e-12)
        assert n_inf[-1] == 0.0

    def test_r_sweep_matches_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, "lim.json", {
            "schema_version": 1, "n_a": 0.0, "n_c": 10.0, "eta": 0.5,
            "sweep": {"variable": "r", "start": 0.1, "stop": 0.99, "samples": 20},
        })
        out = tmp_path / "lim.csv"
        assert run_cli("limit", "--config", cfg, "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        for row in rows:
            eta, r, n_a, n_c, n_inf, flag = map(float, row)
            expected = cooling_limit(CoolingMapParams(eta=eta, r=r, n_a=n_a, n_c=n_c))
            assert n_inf == pytest.approx(expected, rel=1e-10)
        # stronger bath contact (smaller r) leaves the target hotter
        n_inf = [float(r[4]) for r in rows]
        assert np.all(np.diff(n_inf) < 0)

    def test_tau_sweep_uses_gamma(self, tmp_path):
        cfg = write_config(tmp_path, "lim.json", {
            "schema_version": 1, "n_a": 0.5, "n_c": 12.0, "eta": 0.999,
            "gamma": 1.0,
            "sweep": {"variable": "tau", "start": 0.1, "stop": 1.0, "samples": 5},
        })
        out = tmp_path / "lim.csv"
        assert run_cli("limit", "--config", cfg, "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        for row in rows:
            assert float(row[1]) < 1.0  # r = exp(-gamma tau) < 1

    def test_single_point_single_row(self, tmp_path):
        cfg = write_config(tmp_path, "lim.json", {
            "schema_version": 1, "n_a": 0.5, "n_c": 12.0, "eta": 1.0, "r": 0.8,
        })
        out = tmp_path / "lim.csv"
        assert run_cli("limit", "--config", cfg, "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0][4]) == 0.5

    @pytest.mark.parametrize("fixed, variable, key", [
        ({"eta": 0.9, "gamma": 1.0, "tau": 0.188}, "r", "gamma"),
        ({"eta": 0.9, "tau": 0.188}, "r", "tau"),
        ({"eta": 0.9, "r": 0.5}, "r", "r"),
        ({"eta": 0.9, "r": 0.5}, "eta", "eta"),
        ({"eta": 0.9, "gamma": 1.0, "tau": 0.188}, "tau", "tau"),
    ])
    def test_ignored_keys_rejected(self, tmp_path, capsys, fixed, variable, key):
        cfg = write_config(tmp_path, "lim.json", {
            "schema_version": 1, "n_a": 0.0, "n_c": 10.0, **fixed,
            "sweep": {"variable": variable, "start": 0.1, "stop": 0.9, "samples": 3},
        })
        assert run_cli("limit", "--config", cfg, "--out", str(tmp_path / "o.csv")) == 2
        assert f"'{key}' is ignored" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("tau", -0.1), ("gamma", -1.0)])
    def test_negative_decay_inputs_named(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "lim.json", {
            "schema_version": 1, "n_a": 0.0, "n_c": 10.0, "eta": 0.9,
            "gamma": 1.0, "tau": 0.1, key: value,
        })
        assert run_cli("limit", "--config", cfg, "--out", str(tmp_path / "o.csv")) == 2
        assert key in capsys.readouterr().err

    def test_degenerate_rows_flagged(self, tmp_path):
        cfg = write_config(tmp_path, "lim.json", {
            "schema_version": 1, "n_a": 0.0, "n_c": 12.0, "eta": 0.0, "r": 1.0,
        })
        out = tmp_path / "lim.csv"
        assert run_cli("limit", "--config", cfg, "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        assert rows[0][5] == "1"
        assert rows[0][4] == "nan"
        # any eta > 0 contracts the map at r = 1, however small: the limit is
        # the fluid's n_a, and only eta = 0 itself is flagged
        cfg = write_config(tmp_path, "tiny.json", {
            "schema_version": 1, "n_a": 0.5, "n_c": 12.0, "eta": 1e-17, "r": 1.0,
        })
        assert run_cli("limit", "--config", cfg, "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][4]) == 0.5 and rows[0][5] == "0"
        cfg = write_config(tmp_path, "sweep.json", {
            "schema_version": 1, "n_a": 0.5, "n_c": 12.0, "r": 1.0,
            "sweep": {"variable": "eta", "start": 0.0, "stop": 1e-17, "samples": 5},
        })
        assert run_cli("limit", "--config", cfg, "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        assert [row[5] for row in rows] == ["1", "0", "0", "0", "0"]
        assert rows[0][4] == "nan" and all(float(row[4]) == 0.5 for row in rows[1:])


class TestCycleCommand:
    def test_trajectory_csv_and_report(self, tmp_path, capsys):
        path = write_config(tmp_path, "cyc.json", small_cycle_config())
        out = tmp_path / "traj.csv"
        report = tmp_path / "report.json"
        assert run_cli("cycle", "--config", path, "--out", str(out),
                       "--report", str(report)) == 0
        meta, header, rows = read_csv(out)
        assert header == ["t", "N_a", "N_b", "N_c", "N_A", "N_B", "delta",
                          "omega0_active", "stroke_index"]
        assert meta["engine"] == "gaussian"
        assert meta["command"] == "cycle"
        assert float(rows[0][0]) == 0.0
        payload = json.loads(report.read_text())
        (got,) = payload["reports"]
        assert got["cycles"] and 0 < got["cycle_contraction"] < 1
        assert got["limit_deviation"] == pytest.approx(
            abs(got["fixed_point"] - got["cooling_limit"]) / got["cooling_limit"], rel=1e-12)
        text = capsys.readouterr().out
        assert f"fixed_point={got['fixed_point']:.6g} " in text
        assert "asymptote" not in text

    def test_outputs_create_new_directories(self, tmp_path):
        path = write_config(tmp_path, "cyc.json", small_cycle_config())
        out, report = tmp_path / "runs" / "traj.csv", tmp_path / "reports" / "a" / "cyc.json"
        assert run_cli("cycle", "--config", path, "--out", str(out),
                       "--report", str(report)) == 0
        assert read_csv(out)[2] and json.loads(report.read_text())["reports"]
        # written as a plain open() would: the mode follows the umask
        umask = os.umask(0)
        os.umask(umask)
        for written in (out, report):
            assert written.stat().st_mode & 0o777 == 0o666 & ~umask
            assert os.listdir(written.parent) == [written.name]

    def test_report_naming_a_directory_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "cyc.json", small_cycle_config())
        taken = tmp_path / "taken"
        taken.mkdir()
        assert run_cli("cycle", "--config", path, "--out", str(tmp_path / "t.csv"),
                       "--report", str(taken)) == 2
        assert f"cannot write {taken}: Is a directory" in capsys.readouterr().err
        assert taken.is_dir() and not any(taken.iterdir())
        # refused before the run, so the trajectory is not written either
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cyc.json", "taken"]

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, "cyc.json", small_cycle_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("cycle", "--config", path, "--out", str(out1)) == 0
        assert run_cli("cycle", "--config", path, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_engine_flag_overrides_config(self, tmp_path):
        # cutoffs below smalltest's, as test_runner's TestDeltaColumn uses,
        # and a short hold keep the fock run short
        cfg = small_cycle_config(fock={"cutoffs": [5, 5, 6], "leakage_threshold": 1e-2})
        cfg["schedule"]["tau4"] = 0.1
        path = write_config(tmp_path, "cyc.json", cfg)
        out, report = tmp_path / "focktraj.csv", tmp_path / "fock.json"
        assert run_cli("cycle", "--config", path, "--out", str(out),
                       "--engine", "fock", "--report", str(report)) == 0
        meta, _, _ = read_csv(out)
        assert meta["engine"] == "fock"
        # the Fock engine has no stroke maps: its per-cycle records, and no limit cycle
        (got,) = json.loads(report.read_text())["reports"]
        assert len(got["cycles"]) == 1 and got["eta"] > 0
        assert got["fixed_point"] is got["cycle_contraction"] is got["limit_deviation"] is None

    def test_a_cycle_that_does_not_close_has_no_limit_cycle(self, tmp_path):
        # one cycle may end away from its start detuning, and so cannot repeat
        ramp = {"kind": "ramp", "delta_start": -6000.0, "delta_end": -600.0, "duration": 0.04}
        strokes = [ramp, {"kind": "exchange", "target": 0, "duration": 0.008},
                   {"kind": "hold", "duration": 0.1}]
        back = {**ramp, "delta_start": -600.0, "delta_end": -6000.0}
        for closed in (False, True):
            schedule = {"type": "strokes", "cycles": 1,
                        "strokes": strokes[:2] + [back] * closed + strokes[2:]}
            path = write_config(tmp_path, "open.json", {**load_config_file("fig1"),
                                                        "schedule": schedule})
            report = tmp_path / "open_report.json"
            assert run_cli("cycle", "--config", path, "--out", str(tmp_path / "open.csv"),
                           "--report", str(report)) == 0
            (got,) = json.loads(report.read_text())["reports"]
            assert len(got["cycles"]) == 1 and got["cooling_limit"] > 0
            exact = [got[key] for key in ("fixed_point", "cycle_contraction", "limit_deviation")]
            assert [x is None for x in exact] == [not closed] * 3

    def test_tol_refused_on_the_fock_engine(self, tmp_path, capsys, monkeypatch):
        def no_engine(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr("omcool.fock.propagate_fock", no_engine)
        cfg = small_cycle_config(engine="fock", fock={"cutoffs": [5, 5, 6]})
        path = write_config(tmp_path, "fock.json", cfg)
        out = tmp_path / "t.csv"
        assert run_cli("cycle", "--config", path, "--out", str(out), "--tol", "1e-9") == 2
        assert "--tol" in capsys.readouterr().err and not out.exists()

    def test_zero_amplitude_exchange_is_not_a_cycle_boundary(self, tmp_path):
        # a silent exchange on the target before its real pulse exchanges
        # nothing: the report must read the pulse of amplitude 5, once per cycle
        ramp = {"kind": "ramp", "duration": 0.3, "delta_start": -30.0, "delta_end": -3.0}
        back = {"kind": "ramp", "duration": 0.3, "delta_start": -3.0, "delta_end": -30.0}
        pulse = {"kind": "exchange", "duration": 0.32, "target": 0}
        cfg = small_cycle_config(schedule={
            "type": "strokes", "cycles": 2, "delta_start": -30.0,
            "strokes": [ramp, dict(pulse, amplitude=0.0), dict(pulse, amplitude=5.0), back,
                        {"kind": "hold", "duration": 0.5}]})
        path = write_config(tmp_path, "silent.json", cfg)
        report = tmp_path / "report.json"
        assert run_cli("cycle", "--config", path, "--out", str(tmp_path / "t.csv"),
                       "--report", str(report)) == 0
        (got,) = json.loads(report.read_text())["reports"]
        assert [c["cycle"] for c in got["cycles"]] == [0, 1]
        basis = bogoliubov_basis(-3.0, 10.0, 2.0)
        assert got["eta"] == pytest.approx(exchange_efficiency(basis, 10.0, 5.0)[0], rel=1e-12)
        assert got["eta"] > 0.5

    def test_bundled_reference_config_runs(self, tmp_path):
        # resolved by name from the packaged config directory; the target
        # mode must fall from 12 to below 1.5 right after the first exchange
        out = tmp_path / "ref.csv"
        assert run_cli("cycle", "--config", "fig1.json", "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        i_nc, i_t = header.index("N_c"), header.index("t")
        assert float(rows[0][i_nc]) == pytest.approx(12.0, abs=1e-6)
        after_first_pulse = [float(r[i_nc]) for r in rows
                             if 0.048 <= float(r[i_t]) <= 0.05]
        assert after_first_pulse and max(after_first_pulse) < 1.5


class TestValidateCommand:
    def swap_config(self, tmp_path, cutoffs=(2, 9, 9)):
        # dissipation-free resonant exchange: both engines must agree to
        # integrator accuracy
        cfg = {
            "schema_version": 1,
            "params": {
                "omega_b": 10.0, "g": 0.0, "kappa": 0.0, "gamma": 0.0,
                "n_a": 0.0, "n_b": 0.2, "delta_i": -30.0, "delta_f": -3.0,
                "omega_0": 5.0, "delta_targets": [10.0], "n_targets": [0.3],
            },
            "schedule": {
                "type": "strokes", "cycles": 1, "delta_start": -30.0,
                "strokes": [{"kind": "exchange", "duration": 0.3141592653589793,
                             "target": 0, "amplitude": 5.0}],
            },
            "initial": {"basis": "bare", "pair": [0.0, 0.2], "targets": [0.3]},
            "integrator": {"tol": 1e-9, "samples_per_stroke": 8},
            "fock": {"cutoffs": list(cutoffs)},
            "comparison": {"threshold": 1e-4},
        }
        return write_config(tmp_path, "swap.json", cfg)

    def test_dissipation_free_swap_passes_tightly(self, tmp_path, capsys):
        path = self.swap_config(tmp_path)
        report = tmp_path / "val.json"
        assert run_cli("validate", "--config", path, "--out", str(report)) == 0
        payload = json.loads(report.read_text())
        assert payload["status"] == "PASS"
        assert payload["max_deviation"] < 1e-4
        assert payload["max_cov_deviation"] < 1e-4

    def test_report_into_a_new_directory(self, tmp_path):
        report = tmp_path / "reports" / "a" / "val.json"
        assert run_cli("validate", "--config", self.swap_config(tmp_path),
                       "--out", str(report)) == 0
        assert json.loads(report.read_text())["status"] == "PASS"

    def test_out_naming_a_directory_exits_2(self, tmp_path, capsys):
        path = self.swap_config(tmp_path)
        assert run_cli("validate", "--config", path, "--out", str(tmp_path)) == 2
        assert f"cannot write {tmp_path}: Is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["swap.json"]

    def test_tiny_cutoffs_inconclusive(self, tmp_path, capsys, monkeypatch):
        # the Fock initial state's tail check settles it: no engine runs
        def no_engine(*args, **kwargs):
            raise AssertionError("an engine ran")

        monkeypatch.setattr("omcool.gaussian.propagate", no_engine)
        monkeypatch.setattr("omcool.fock.propagate_fock", no_engine)
        path = self.swap_config(tmp_path, cutoffs=(2, 2, 2))
        report = tmp_path / "val.json"
        assert run_cli("validate", "--config", path, "--out", str(report)) == 0
        out = capsys.readouterr().out
        assert "INCONCLUSIVE" in out
        assert "fock truncation: thermal occupation 0.2 needs more than 2 levels" in out
        payload = json.loads(report.read_text())
        assert payload["status"] == "INCONCLUSIVE"
        assert payload["max_deviation"] is None and payload["max_leakage"] is None
        assert payload["max_cov_deviation"] is None

    def test_unstable_stroke_exits_3_before_either_engine(self, tmp_path, capsys, monkeypatch):
        # smalltest's g = 2 exceeds the stability limit 1.118 at delta = -0.5,
        # which a strokes schedule reaches though params' delta_f is -3
        calls = []
        for module, name in ((gaussian, "propagate"), (fock, "propagate_fock")):
            engine = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, engine=engine, name=name, **k:
                                calls.append(name) or engine(*a, **k))
        raw = load_config_file("smalltest")
        raw["schedule"] = {"type": "strokes", "cycles": 1, "delta_start": -30.0, "strokes": [
            {"kind": "ramp", "delta_start": -30.0, "delta_end": -0.5, "duration": 0.3},
            {"kind": "ramp", "delta_start": -0.5, "delta_end": -30.0, "duration": 0.3}]}
        path = write_config(tmp_path, "unstable.json", raw)
        assert run_cli("validate", "--config", path) == 3
        assert "physics error: unstable at delta=-0.5: g=2.0" in capsys.readouterr().err
        assert calls == []
        # the config parse refuses it in runner.check_run
        sched = CycleSchedule(strokes=(Stroke.ramp(-30.0, -0.5, 0.3),
                                       Stroke.ramp(-0.5, -30.0, 0.3)),
                              cycle_count=1, delta_start=-30.0)
        with pytest.raises(StabilityError, match="delta=-0.5"):
            check_run(parse_params(raw["params"]), sched, "fock",
                      InitialOccupations(basis="bare", pair=(0.1, 0.2), targets=(0.25,)),
                      parse_fock_options(raw["fock"]))

    def test_config_parse_walks_the_schedule_once(self, monkeypatch):
        # the Fock engine's check_run raises every error the Gaussian one
        # raises, so validate's parse runs that check alone
        walks = []
        walk = runner.stroke_walk
        monkeypatch.setattr(runner, "stroke_walk", lambda *a, **k: walks.append(a) or walk(*a, **k))
        parse_cycle_config(load_config_file("smalltest"), for_validate=True)
        assert len(walks) == 1

    def test_engine_key_rejected(self, tmp_path, capsys):
        cfg = small_cycle_config(fock={"cutoffs": [6, 6, 8]})
        cfg["engine"] = "gaussian"
        path = write_config(tmp_path, "v.json", cfg)
        assert run_cli("validate", "--config", path) == 2
        assert "engine" in capsys.readouterr().err

    def test_failed_comparison_exits_with_numerics_code(self, tmp_path):
        # an absurd threshold forces FAIL, which is a numerical-failure exit
        path = self.swap_config(tmp_path)
        cfg = json.loads(Path(path).read_text())
        cfg["comparison"]["threshold"] = 1e-12
        path = write_config(tmp_path, "strict.json", cfg)
        assert run_cli("validate", "--config", path) == 4

    def test_nan_deviation_fails(self, tmp_path, capsys, monkeypatch):
        # a NaN compares false with the threshold either way: the verdict
        # must come out FAIL, never PASS with a null deviation
        def nan_occupations(*args, **kwargs):
            traj = run_protocol(*args, **kwargs)
            return dataclasses.replace(traj, occupations=np.full_like(traj.occupations, np.nan))

        monkeypatch.setattr("omcool.cli.run_protocol", nan_occupations)
        report = tmp_path / "val.json"
        assert run_cli("validate", "--config", self.swap_config(tmp_path),
                       "--out", str(report)) == 4
        assert "validate: FAIL" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["status"] == "FAIL" and payload["max_deviation"] is None
        assert payload["max_cov_deviation"] < 1e-4


class TestBundledConfigs:
    @pytest.mark.parametrize("name", ["fig1.json", "fig2.json", "smalltest.json"])
    def test_all_bundled_configs_validate(self, name):
        from omcool.config import load_config_file, parse_cycle_config
        cfg = load_config_file(name)
        parsed = parse_cycle_config(cfg, for_validate=(name == "smalltest.json"))
        assert parsed.schedule.total_duration > 0


NO_SCIPY_RUN = """
import sys
import numpy as np
import omcool.cli
from omcool.fock import FockState, propagate_fock
from omcool.params import SystemParams
from omcool.schedule import CycleSchedule, Stroke

p = SystemParams(omega_b=10.0, g=2.0, kappa=8.0, gamma=0.5, n_a=0.1, n_b=0.2,
                 delta_i=-30.0, delta_f=-3.0, omega_0=5.0,
                 delta_targets=(10.0,), n_targets=(0.25,))
sched = CycleSchedule(strokes=(Stroke.exchange(0, 5.0, 0.01),), cycle_count=1,
                      delta_start=-30.0)
propagate_fock(FockState(rho=np.eye(64)[0], cutoffs=(4, 4, 4)), p, sched, 0.01,
               samples_per_stroke=2)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy would also add ~20 MB of
    # peak memory to every run
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


GC_FREEZE_RUN = """
import gc
import omcool
print(gc.get_freeze_count())
import omcool.cli
print(gc.get_freeze_count())
"""


def test_only_the_cli_freezes_the_import_heap():
    # the console script's module moves its import-time objects out of the
    # collector's reach; the library must leave a host process's collector alone
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    out = subprocess.run([sys.executable, "-c", GC_FREEZE_RUN], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    library, cli = map(int, out.stdout.split())
    assert library == 0 and cli > 0


NO_NUMPY_MA_RUN = """
import sys
import tempfile
from pathlib import Path
from omcool.cli import main

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    codes = [main(["cycle", "--config", "fig1", "--out", str(out / "fig1.csv"),
                   "--report", str(out / "fig1.json")]),
             main(["validate", "--config", "smalltest", "--out", str(out / "validate.json")])]
print(codes, "numpy.ma" in sys.modules)
"""


def test_cli_runs_import_no_numpy_ma():
    # np.unique and np.median import numpy.ma on first use, 10-15 ms that
    # would count in every run's time; the run paths avoid both
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    out = subprocess.run([sys.executable, "-c", NO_NUMPY_MA_RUN], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0] False"


MISSING_KEYS_RUN = """
from omcool.config import parse_params
from omcool.errors import ConfigError

full = dict(omega_b=10.0, g=2.0, kappa=8.0, gamma=0.5, n_a=0.1, n_b=0.2,
            delta_i=-30.0, delta_f=-3.0, omega_0=5.0)
for obj in ({"omega_b": 1.0}, dict(full, kappa="fast", g="strong", n_b="hot")):
    try:
        parse_params(obj)
    except ConfigError as exc:
        print(exc)
"""


def test_config_error_independent_of_hash_seed():
    # the required keys and the numbers used to be walked in set order, so
    # the key a message named changed with PYTHONHASHSEED
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    messages = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        out = subprocess.run([sys.executable, "-c", MISSING_KEYS_RUN], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        messages.add(out.stdout)
    assert messages == {"missing required key 'params.delta_f'\n"
                        "'params.g' must be a finite number\n"}


def test_public_names_resolve():
    # a name left in __all__ after its import is gone breaks star-imports
    import omcool

    missing = [name for name in omcool.__all__ if not hasattr(omcool, name)]
    assert missing == []
    exec("from omcool import *", {})
