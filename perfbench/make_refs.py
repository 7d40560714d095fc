"""Regenerate the reference outputs in ``refs/`` at tol=1e-12.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/make_refs.py [fig1-cycle] [smalltest-validate] [design-pool]

With no argument every reference file is rebuilt.  Each file holds a "full"
entry (the benchmark's size) and a "tiny" entry (the self-check's size);
``design-pool.json`` holds the generated design points with their
references.  At tol=1e-12 the Gaussian engine takes about two minutes per
fig1 cycle, so ``fig1-cycle`` takes about six minutes on one core; the other
two take a few minutes each.  The Fock engine has a fixed step and no
tolerance, so its reference is its own output.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import run_design_point  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import REFS, boundary_rows, read_trajectory_csv  # noqa: E402

WORK = HERE / "_work"

REF_TOL = 1e-12

#: Design pool: one ramp shape and one band of ramp durations per slot.
POOL_SEED = 1507
SLOT_SHAPES = ("adiabatic", "linear", "adiabatic", "cosine",
               "adiabatic", "linear", "adiabatic", "cosine")
SLOT_TAUS = tuple(0.20 + 0.05 * s for s in range(len(SLOT_SHAPES)))
TAU_JITTER = 0.02
CANDIDATES = 6
#: Upper-branch frequencies to place delta_f at, and the detuning sweep that
#: finds them: inside the stable range |delta| >= 4 g^2 / omega_b = 1.6.
OMEGA_A_RANGE = (10.2, 10.95)
SWEEP = (-8.0, -1.7, 2001)


def bundled_config(name: str) -> dict:
    from omcool.config import load_config_file

    return load_config_file(name)


def tiny_fig1() -> dict:
    """fig1 with 2 cycles of 1/20-length strokes (warns, but runs in ~1 s)."""
    cfg = bundled_config("fig1")
    for key in ("tau1", "tau2", "tau3", "tau4"):
        cfg["schedule"][key] *= 0.05
    cfg["schedule"]["cycles"] = 2
    cfg["description"] = "benchmark self-check size"
    return cfg


def tiny_smalltest() -> dict:
    """smalltest with quarter-length strokes and cutoffs (4, 4, 4)."""
    cfg = bundled_config("smalltest")
    for key in ("tau1", "tau2", "tau3", "tau4"):
        cfg["schedule"][key] *= 0.25
    cfg["fock"] = {"cutoffs": [4, 4, 4], "leakage_threshold": 0.05}
    cfg["description"] = "benchmark self-check size"
    return cfg


def _config_path(config, tmp: Path) -> str:
    if isinstance(config, str):
        return config
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def fig1_ref(config, tmp: Path) -> dict:
    from omcool import cli
    from omcool.config import parse_cycle_config

    path = _config_path(config, tmp)
    raw = bundled_config(config) if isinstance(config, str) else config
    boundaries = parse_cycle_config(raw).schedule.boundaries().tolist()
    csv_path = tmp / "trajectory.csv"
    rc = cli.main(["cycle", "--config", path, "--tol", str(REF_TOL),
                   "--out", str(csv_path), "--report", str(tmp / "report.json")])
    if rc != 0:
        raise SystemExit(f"reference cycle run exited with {rc}")
    header, body = read_trajectory_csv(csv_path)
    idx = boundary_rows(body[:, header.index("t")], boundaries)
    columns = [c for c in header if c.startswith("N_")]
    return {
        "config": config,
        "rows": len(body),
        "boundary_times": boundaries,
        "columns": columns,
        "boundary_occ": body[np.ix_(idx, [header.index(c) for c in columns])].tolist(),
    }


def smalltest_ref(config, tmp: Path, tracer: Tracer) -> dict:
    from omcool import cli

    tracer.trajectories.clear()
    out = tmp / "validate.json"
    cli.main(["validate", "--config", _config_path(config, tmp), "--tol", str(REF_TOL),
              "--out", str(out)])
    report = json.loads(out.read_text())
    by_engine = {t["engine"]: t["boundary_occ"] for t in tracer.trajectories}
    return {"config": config, "status": report["status"],
            "max_deviation": report["max_deviation"], "boundary_occ": by_engine}


def design_pool() -> dict:
    from omcool import runner

    raw = bundled_config("smalltest")
    base = {k: v for k, v in raw["params"].items() if k != "delta_f"}
    rng = np.random.default_rng(POOL_SEED)
    run_protocol = runner.run_protocol

    def fine_run_protocol(*args, **kwargs):
        # adiabaticity_probe has no tol argument; force the reference tolerance
        return run_protocol(*args, **{**kwargs, "tol": REF_TOL})

    runner.run_protocol = fine_run_protocol
    slots = []
    for s, (shape, tau) in enumerate(zip(SLOT_SHAPES, SLOT_TAUS)):
        slot = []
        for c in range(CANDIDATES):
            point = {
                "id": f"s{s}c{c}",
                "params": base,
                "sweep": list(SWEEP),
                "omega_A_target": float(rng.uniform(*OMEGA_A_RANGE)),
                "tau": round(float(tau + rng.uniform(-TAU_JITTER, TAU_JITTER)), 6),
                "tau2": raw["schedule"]["tau2"],
                "tau4": raw["schedule"]["tau4"],
                "shape": shape,
                "initial": {"pair": raw["initial"]["pair"], "targets": raw["initial"]["targets"]},
                "tol": raw["integrator"]["tol"],
                "samples_per_stroke": raw["integrator"]["samples_per_stroke"],
            }
            t0 = time.monotonic()
            point["ref"] = run_design_point(point)
            print(f"  {point['id']}: {time.monotonic() - t0:.1f} s", flush=True)
            slot.append(point)
        slots.append(slot)
    runner.run_protocol = run_protocol
    return {"pool_seed": POOL_SEED, "ref_tol": REF_TOL, "slots": slots}


def main(names):
    import warnings

    warnings.simplefilter("ignore")
    names = names or ["fig1-cycle", "smalltest-validate", "design-pool"]
    REFS.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    for name in names:
        t0 = time.monotonic()
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            tmp = Path(tmp)
            if name == "fig1-cycle":
                ref = {"ref_tol": REF_TOL, "tiny": fig1_ref(tiny_fig1(), tmp),
                       "full": fig1_ref("fig1", tmp)}
            elif name == "smalltest-validate":
                tracer = Tracer()
                tracer.install()  # captures both engines' trajectories
                ref = {"ref_tol": REF_TOL,
                       "tiny": smalltest_ref(tiny_smalltest(), tmp, tracer),
                       "full": smalltest_ref("smalltest", tmp, tracer)}
            elif name == "design-pool":
                ref = design_pool()
            else:
                raise SystemExit(f"unknown reference {name!r}")
        (REFS / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n")
        print(f"wrote refs/{name}.json in {time.monotonic() - t0:.0f} s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
