import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from omcool.cli import main
from omcool.polariton import CoolingMapParams, cooling_limit


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
        assert "--tol" in capsys.readouterr().err


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
        assert payload["reports"][0]["cycles"]
        text = capsys.readouterr().out
        assert "asymptote" in text

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, "cyc.json", small_cycle_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("cycle", "--config", path, "--out", str(out1)) == 0
        assert run_cli("cycle", "--config", path, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_engine_flag_overrides_config(self, tmp_path):
        cfg = small_cycle_config(fock={"cutoffs": [6, 6, 8]})
        path = write_config(tmp_path, "cyc.json", cfg)
        out = tmp_path / "focktraj.csv"
        cfg["schedule"]["tau4"] = 0.1  # keep the fock run short
        path = write_config(tmp_path, "cyc2.json", cfg)
        assert run_cli("cycle", "--config", path, "--out", str(out),
                       "--engine", "fock") == 0
        meta, _, _ = read_csv(out)
        assert meta["engine"] == "fock"

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

    def test_tiny_cutoffs_inconclusive(self, tmp_path, capsys):
        path = self.swap_config(tmp_path, cutoffs=(2, 2, 2))
        assert run_cli("validate", "--config", path) == 0
        out = capsys.readouterr().out
        assert "INCONCLUSIVE" in out

    def test_engine_key_rejected(self, tmp_path, capsys):
        cfg = small_cycle_config(fock={"cutoffs": [6, 6, 8]})
        cfg["engine"] = "gaussian"
        path = write_config(tmp_path, "v.json", cfg)
        assert run_cli("validate", "--config", path) == 2
        assert "engine" in capsys.readouterr().err

    def test_failed_comparison_exits_with_numerics_code(self, tmp_path):
        # an absurd threshold forces FAIL, which is a numerical-failure exit
        path = self.swap_config(tmp_path)
        cfg = json.loads(open(path).read())
        cfg["comparison"]["threshold"] = 1e-12
        path = write_config(tmp_path, "strict.json", cfg)
        assert run_cli("validate", "--config", path) == 4


class TestBundledConfigs:
    @pytest.mark.parametrize("name", ["fig1.json", "fig2.json", "smalltest.json"])
    def test_all_bundled_configs_validate(self, name):
        from omcool.config import load_config_file, parse_cycle_config
        cfg = load_config_file(name)
        parsed = parse_cycle_config(cfg, for_validate=(name == "smalltest.json"))
        assert parsed.schedule.total_duration > 0


NO_SCIPY_RUN = """
import sys
import omcool.cli
from omcool.fock import propagate_fock, thermal_state
from omcool.params import SystemParams
from omcool.schedule import CycleSchedule, Stroke

p = SystemParams(omega_b=10.0, g=2.0, kappa=8.0, gamma=0.5, n_a=0.1, n_b=0.2,
                 delta_i=-30.0, delta_f=-3.0, omega_0=5.0,
                 delta_targets=(10.0,), n_targets=(0.25,))
sched = CycleSchedule(strokes=(Stroke.exchange(0, 5.0, 0.01),), cycle_count=1,
                      delta_start=-30.0)
propagate_fock(thermal_state((4, 4, 4), (0.0, 0.0, 0.0)), p, sched, 0.01,
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


def test_public_names_resolve():
    # a name left in __all__ after its import is gone breaks star-imports
    import omcool

    missing = [name for name in omcool.__all__ if not hasattr(omcool, name)]
    assert missing == []
    exec("from omcool import *", {})
