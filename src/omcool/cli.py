"""Command-line interface: config-driven runs with CSV output.

Subcommands
-----------
spectrum   sweep the polariton branch frequencies and overlap over detuning
cycle      run a cooling protocol on one engine; emit trajectory CSV + report
limit      evaluate the analytic cooling limit, optionally swept
validate   run the same protocol on both engines and compare occupations

Exit codes: 0 success, 2 config/usage error, 3 physics/stability error,
4 numerical failure.  CSV files start with '#'-prefixed metadata lines
(tool version, config fingerprint, engine) followed by a header row; floats
are written with 12 significant digits so identical configs yield
byte-identical files.

Importing this module freezes the import-time heap (``gc.freeze()``), so
that neither a run's full collections nor interpreter exit traverse it; the
library (``import omcool``) leaves the host's collector alone.
"""

from __future__ import annotations

import argparse
import errno
import gc
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    _positive,
    load_config_file,
    parse_cycle_config,
    parse_limit_config,
    parse_spectrum_config,
)
from .errors import (
    ConfigError,
    IntegrationError,
    OmcoolError,
    PhysicsError,
    StabilityError,
    TruncationError,
)
from .polariton import (
    CoolingMapParams,
    bogoliubov_basis,
    cooling_limit,
    survival_factor,
)
from .runner import ENGINES, analyze_cycles, run_protocol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERICS = 4


def config_fingerprint(payload: dict) -> str:
    """Stable hash of a run description (canonical JSON, sha256, 16 hex chars)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_file(path: str, text: str) -> None:
    """Write ``text`` atomically, by a temporary file beside ``path`` that
    then replaces it; the directory is created, and the mode follows the
    umask as for a plain open().  A failed write raises ConfigError."""
    out = Path(path)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=out.parent, prefix=out.name, suffix=".tmp")
        try:
            os.umask(umask := os.umask(0))  # read the umask, then restore it
            os.fchmod(fd, 0o666 & ~umask)
            with os.fdopen(fd, "w", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, out)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(path: str) -> None:
    """Refuse, as a failed write would, a path that names a directory or lies in no
    writable one: its nearest existing ancestor must be a writable directory."""
    up = next(p for p in Path(path).absolute().parents if p.exists())
    code = (errno.EISDIR if Path(path).is_dir() else errno.ENOTDIR if not up.is_dir()
            else None if os.access(up, os.W_OK | os.X_OK) else errno.EACCES)
    if code:
        raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


def _write_csv(path: str, metadata: dict, header: list[str], table: np.ndarray) -> None:
    """Write CSV: metadata lines, header, then the rows of the float
    ``table``, each number as %.12g (an integer below 1e12 prints as one)."""
    row = ",".join(["%.12g"] * len(header)) + "\n"
    lines = [f"# {key}={value}\n" for key, value in metadata.items()]
    lines.append(",".join(header) + "\n")
    _write_file(path, "".join(lines + [row % tuple(r) for r in table.tolist()]))


def _metadata(command: str, cfg: dict, engine: str | None = None) -> dict:
    md = {
        "tool": f"omcool {__version__}",
        "command": command,
        "config_sha256": config_fingerprint(cfg),
    }
    if engine is not None:
        md["engine"] = engine
    return md


def cmd_spectrum(args) -> int:
    raw = load_config_file(args.config)
    cfg = parse_spectrum_config(raw)
    deltas = np.linspace(cfg.delta_start, cfg.delta_stop, cfg.samples)

    basis = bogoliubov_basis(deltas, cfg.omega_b, cfg.g)
    _write_csv(args.out, _metadata("spectrum", raw), ["delta", "omega_A", "omega_B", "u"],
               np.column_stack((deltas, basis.omega_A, basis.omega_B, basis.u)))
    print(f"wrote {cfg.samples} spectrum rows to {args.out}")
    return EXIT_OK


def _limit_rows(cfg):
    def resolve(eta, r, tau):
        if r is None:
            r = survival_factor(cfg.gamma, tau)
        try:
            n_inf = cooling_limit(CoolingMapParams(eta=eta, r=r, n_a=cfg.n_a, n_c=cfg.n_c))
        except PhysicsError:  # a map without contraction: a flagged row
            return (eta, r, cfg.n_a, cfg.n_c, float("nan"), 1)
        return (eta, r, cfg.n_a, cfg.n_c, n_inf, 0)

    point = dict(eta=cfg.eta, r=cfg.r, tau=cfg.tau)
    if cfg.sweep_variable is None:
        return [resolve(**point)]
    return [resolve(**{**point, cfg.sweep_variable: float(v)})
            for v in np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_samples)]


def cmd_limit(args) -> int:
    raw = load_config_file(args.config)
    cfg = parse_limit_config(raw)
    try:
        rows = _limit_rows(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_csv(args.out, _metadata("limit", raw),
               ["eta", "r", "n_a", "n_c", "N_infinity", "degenerate"], np.array(rows, float))
    flagged = sum(r[-1] for r in rows)
    note = f" ({flagged} degenerate row(s) flagged)" if flagged else ""
    print(f"wrote {len(rows)} limit rows to {args.out}{note}")
    return EXIT_OK


def _trajectory_table(traj):
    header = ["t"] + [f"N_{lbl}" for lbl in traj.mode_labels]
    header += ["N_A", "N_B", "delta", "omega0_active", "stroke_index"]
    table = np.column_stack((traj.times, traj.occupations, traj.n_polariton, traj.delta,
                             traj.omega0_active, traj.stroke_index))
    return header, table


def _print_report(report) -> None:
    print(f"target {report.target}: eta={report.eta:.6g} r={report.r:.6g}")
    for c in report.cycles:
        print(
            f"  cycle {c.cycle}: N_before={c.n_before:.6g} N_after={c.n_after:.6g} "
            f"predicted={c.predicted_after:.6g} deviation={c.deviation:.3g}"
        )
    exact = [(key, getattr(report, key)) for key in
             ("fixed_point", "cycle_contraction", "cooling_limit", "limit_deviation")]
    print("  " + " ".join(f"{k}={'null' if v is None else format(v, '.6g')}" for k, v in exact))


def _resolve_tol(args, cfg) -> float:
    return cfg.tol if args.tol is None else _positive({"--tol": args.tol}, "--tol", "")


def cmd_cycle(args) -> int:
    raw = load_config_file(args.config)
    # --engine overrides the config before parsing, so one place checks the
    # engine's preconditions; the metadata still fingerprints the file as read
    cfg = parse_cycle_config({**raw, "engine": args.engine} if args.engine else raw)
    engine = cfg.engine
    if engine == "fock" and args.tol is not None:
        raise ConfigError("--tol sets the Gaussian engine's tolerance; the fock engine takes none")
    tol = _resolve_tol(args, cfg)
    traj = run_protocol(
        cfg.params, cfg.schedule, engine=engine, initial=cfg.initial, tol=tol,
        samples_per_stroke=cfg.samples_per_stroke, fock_options=cfg.fock,
    )
    header, table = _trajectory_table(traj)
    _write_csv(args.out, _metadata("cycle", raw, engine), header, table)
    print(f"wrote {len(table)} trajectory rows to {args.out}")

    targets_pulsed = sorted({s.pulsed for s in traj.spans} - {None})
    reports = [analyze_cycles(traj, cfg.params, target=t) for t in targets_pulsed]
    for report in reports:
        _print_report(report)
    if args.report:
        payload = {
            "config_sha256": config_fingerprint(raw),
            "engine": engine,
            "reports": [r.as_dict() for r in reports],
        }
        _write_file(args.report, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote cycle report to {args.report}")
    return EXIT_OK


def cmd_validate(args) -> int:
    raw = load_config_file(args.config)
    cfg = parse_cycle_config(raw, for_validate=True)
    tol = _resolve_tol(args, cfg)

    def run(engine):
        return run_protocol(
            cfg.params, cfg.schedule, engine=engine, initial=cfg.initial, tol=tol,
            samples_per_stroke=cfg.samples_per_stroke, fock_options=cfg.fock,
        )

    max_dev = max_cov_dev = max_leak = float("nan")
    try:
        # the Fock run first: its initial state's tail check can settle
        # INCONCLUSIVE before either engine steps
        traj_f, traj_g = run("fock"), run("gaussian")
        if traj_g.times.size != traj_f.times.size or not np.allclose(
            traj_g.times, traj_f.times, rtol=0, atol=1e-12
        ):
            raise OmcoolError("engines returned mismatched sample grids")
        max_dev = float(np.max(np.abs(traj_g.occupations - traj_f.occupations)))
        # every 2N x 2N entry: a flipped coupling sign leaves occupations as they are
        max_cov_dev = float(np.max(np.abs(traj_g.covs - traj_f.covs)))
        max_leak = float(np.max(traj_f.leakage))
        passed = max_dev < cfg.threshold  # False for a NaN deviation
        status = "PASS" if passed else "FAIL"
        detail = (f"max occupation deviation {max_dev:.3e} "
                  f"{'<' if passed else 'is not below'} {cfg.threshold:.1e}")
    except TruncationError as exc:
        status = "INCONCLUSIVE"
        detail = f"fock truncation: {exc}"

    print(f"validate: {status}")
    print(f"  {detail}")
    if status != "INCONCLUSIVE":
        print(f"  max covariance deviation {max_cov_dev:.3e}")
        print(f"  max fock top-level leakage {max_leak:.3e}")
    if args.out:
        payload = {
            "config_sha256": config_fingerprint(raw),
            "status": status,
            "detail": detail,
            "max_deviation": None if np.isnan(max_dev) else max_dev,
            "max_cov_deviation": None if np.isnan(max_cov_dev) else max_cov_dev,
            "max_leakage": None if np.isnan(max_leak) else max_leak,
            "threshold": cfg.threshold,
        }
        _write_file(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote validation report to {args.out}")
    return EXIT_OK if status != "FAIL" else EXIT_NUMERICS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omcool",
        description="Cooling-cycle simulator for optomechanical polariton heat pumps",
    )
    parser.add_argument("--version", action="version", version=f"omcool {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="sweep polariton branches over detuning")
    sp.add_argument("--config", required=True, help="JSON config (path or bundled name)")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=cmd_spectrum)

    cy = sub.add_parser("cycle", help="run a cooling protocol")
    cy.add_argument("--config", required=True)
    cy.add_argument("--out", required=True, help="trajectory CSV path")
    cy.add_argument("--engine", choices=ENGINES)
    cy.add_argument("--tol", type=float)
    cy.add_argument("--report", help="optional JSON cycle-report path")
    cy.set_defaults(func=cmd_cycle)

    li = sub.add_parser("limit", help="evaluate the analytic cooling limit")
    li.add_argument("--config", required=True)
    li.add_argument("--out", required=True)
    li.set_defaults(func=cmd_limit)

    va = sub.add_parser("validate", help="cross-validate both engines")
    va.add_argument("--config", required=True)
    va.add_argument("--out", help="optional JSON report path")
    va.add_argument("--tol", type=float)
    va.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for path in filter(None, map(vars(args).get, ("out", "report"))):  # before any run
            _check_writable(path)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StabilityError, PhysicsError) as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (IntegrationError, TruncationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except OmcoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


# last in the module body, after every import: objects made by a run are
# still collected as before
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
