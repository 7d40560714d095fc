"""The three workloads: the inputs of a pass and the check of its outputs.

Every check compares the program's outputs with the references in
``refs/`` (made by ``make_refs.py`` at tol=1e-12).  A value that misses its
reference by more than ``OCC_TOL`` fails the pass.
"""

from __future__ import annotations

import copy
import csv
import json
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"

#: Largest accepted deviation from a reference, in quanta (ROADMAP parity gate).
OCC_TOL = 1e-6

#: Design points per pass, at full size and at the self-check's tiny size.
DESIGN_POINTS = {"full": 8, "tiny": 2}


def load_ref(workload, size: str) -> dict:
    """The references of one workload at one size ("full" or "tiny")."""
    ref = json.loads((REFS / f"{workload.ref_name}.json").read_text())
    if workload.ref_name == "design-pool":
        return {**ref, "points_per_pass": DESIGN_POINTS[size]}
    return ref[size]


def _config_arg(workdir: Path, ref: dict) -> str:
    """Bundled config name for a full pass; a written config file for a tiny one."""
    if isinstance(ref["config"], str):
        return ref["config"]
    path = workdir / "tiny-config.json"
    path.write_text(json.dumps(ref["config"]))
    return str(path)


def max_abs_dev(values, reference) -> float:
    return float(np.max(np.abs(np.asarray(values, float) - np.asarray(reference, float))))


def read_trajectory_csv(path: Path):
    """(header, rows as a float array) of a ``cycle`` trajectory CSV."""
    with path.open() as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], np.array(rows[1:], dtype=float)


def boundary_rows(times: np.ndarray, boundary_times) -> list[int] | None:
    """Row index of every stroke boundary, or None if one is missing."""
    idx = [int(np.argmin(np.abs(times - tb))) for tb in boundary_times]
    return idx if max_abs_dev(times[idx], boundary_times) <= 1e-9 else None


class Fig1Cycle:
    """``omcool cycle --config fig1 --report ...``: 3 cycles on the Gaussian engine."""

    name = "fig1-cycle"
    ref_name = "fig1-cycle"
    pass_timeout = 120.0
    speed_kernel = "small-dense"

    def inputs(self, workdir: Path, seed: int, ref: dict) -> dict:
        # The config is fixed; the seed has nothing to vary here.
        return {"kind": "cli", "argv": [
            "cycle", "--config", _config_arg(workdir, ref),
            "--out", str(workdir / "trajectory.csv"), "--report", str(workdir / "report.json"),
        ]}

    def check(self, workdir: Path, ref: dict, child: dict) -> dict:
        path = workdir / "trajectory.csv"
        if not path.is_file():
            return {"ok": False, "detail": "no trajectory CSV written", "metrics": {}}
        header, body = read_trajectory_csv(path)
        metrics = {"cli.csv_rows": len(body), "cli.csv_bytes": path.stat().st_size}
        if len(body) != ref["rows"]:
            return {"ok": False, "metrics": metrics,
                    "detail": f"{len(body)} CSV rows, reference has {ref['rows']}"}
        idx = boundary_rows(body[:, header.index("t")], ref["boundary_times"])
        if idx is None:
            return {"ok": False, "metrics": metrics, "detail": "stroke boundaries missing from CSV"}
        cols = [header.index(c) for c in ref["columns"]]
        err = max_abs_dev(body[np.ix_(idx, cols)], ref["boundary_occ"])
        metrics["gaussian.occ_err"] = err
        return {"ok": err <= OCC_TOL, "metrics": metrics,
                "detail": f"boundary occupations within {err:.3g} quanta of the reference"}

    @staticmethod
    def perturbed(ref: dict, delta: float) -> dict:
        ref = copy.deepcopy(ref)
        ref["boundary_occ"][-1][2] += delta
        return ref


class SmalltestValidate:
    """``omcool validate --config smalltest``: both engines, Fock cutoffs (6, 6, 8)."""

    name = "smalltest-validate"
    ref_name = "smalltest-validate"
    pass_timeout = 150.0
    speed_kernel = "complex-gemm"

    def inputs(self, workdir: Path, seed: int, ref: dict) -> dict:
        # The config is fixed; the seed has nothing to vary here.
        return {"kind": "cli", "argv": [
            "validate", "--config", _config_arg(workdir, ref),
            "--out", str(workdir / "validate.json"),
        ]}

    def check(self, workdir: Path, ref: dict, child: dict) -> dict:
        path = workdir / "validate.json"
        if not path.is_file():
            return {"ok": False, "detail": "no validation report written", "metrics": {}}
        report = json.loads(path.read_text())
        dev = report["max_deviation"]
        metrics = {"cli.validate_max_dev": dev}
        trace = child.get("trace")
        if trace is not None:
            # traced passes also compare each engine's stroke-boundary occupations
            for traj in trace["trajectories"]:
                engine = traj["engine"]
                key = f"{engine}.occ_err"
                err = max_abs_dev(traj["boundary_occ"], ref["boundary_occ"][engine])
                metrics[key] = max(metrics.get(key, 0.0), err)
        if report["status"] != ref["status"] or dev is None:
            return {"ok": False, "metrics": metrics,
                    "detail": f"status {report['status']}, reference {ref['status']}"}
        err = abs(dev - ref["max_deviation"])
        ok = err <= OCC_TOL and all(
            metrics.get(f"{e}.occ_err", 0.0) <= OCC_TOL for e in ("gaussian", "fock"))
        return {"ok": ok, "metrics": metrics,
                "detail": f"status {report['status']}, max_deviation {err:.3g} from the reference"}

    @staticmethod
    def perturbed(ref: dict, delta: float) -> dict:
        return {**ref, "max_deviation": ref["max_deviation"] + delta}


class DesignSweep:
    """Seed-chosen design points at smalltest scale, each run through the
    spectrum sweep, the adiabaticity probe, one cycle and the cycle analysis."""

    name = "design-sweep"
    ref_name = "design-pool"
    pass_timeout = 60.0
    speed_kernel = "small-dense"
    keys = ("delta_f", "eta", "n_after", "N_infinity", "probe_transfer")

    @staticmethod
    def select(pool: dict, seed: int) -> list[dict]:
        """One candidate from every slot, in a seed-shuffled order.

        Each slot fixes the ramp shape and a narrow band of ramp durations, so
        every seed asks for about the same amount of work.
        """
        rng = np.random.default_rng(seed)
        slots = pool["slots"]
        picks = rng.integers(len(slots[0]), size=len(slots))
        return [slots[s][picks[s]] for s in rng.permutation(len(slots))]

    def inputs(self, workdir: Path, seed: int, ref: dict) -> dict:
        points = self.select(ref, seed)[:ref["points_per_pass"]]
        (workdir / "points.json").write_text(json.dumps(
            [{k: v for k, v in pt.items() if k != "ref"} for pt in points]))
        return {"kind": "design", "points": str(workdir / "points.json"),
                "out": str(workdir / "design.json")}

    def check(self, workdir: Path, ref: dict, child: dict) -> dict:
        path = workdir / "design.json"
        if not path.is_file():
            return {"ok": False, "detail": "no design results written", "metrics": {}}
        results = json.loads(path.read_text())
        by_id = {pt["id"]: pt["ref"] for slot in ref["slots"] for pt in slot}
        expected = [by_id[pt["id"]] for pt in json.loads((workdir / "points.json").read_text())]
        if len(results) != len(expected):
            return {"ok": False, "metrics": {}, "detail": "wrong number of design results"}
        dev = {k: max_abs_dev([r[k] for r in results], [e[k] for e in expected])
               for k in self.keys}
        metrics = {"gaussian.occ_err": max(dev["n_after"], dev["probe_transfer"])}
        worst = max(dev, key=dev.get)
        return {"ok": dev[worst] <= OCC_TOL, "metrics": metrics,
                "detail": f"{len(results)} points; worst deviation {dev[worst]:.3g} in {worst}"}

    @staticmethod
    def perturbed(ref: dict, delta: float) -> dict:
        ref = copy.deepcopy(ref)
        for slot in ref["slots"]:
            for point in slot:
                point["ref"]["n_after"] += delta
        return ref


WORKLOADS = {w.name: w for w in (Fig1Cycle(), SmalltestValidate(), DesignSweep())}
