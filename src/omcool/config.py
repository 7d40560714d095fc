"""JSON run-configuration parsing and validation.

Configs are versioned JSON objects (``schema_version: 1``).  Unknown keys
are rejected with the full key path so typos fail loudly before any physics
runs.  Value errors raised by the domain constructors (negative rates,
discontinuous schedules, ...) are reported as ConfigError naming the
section; stability violations keep their own type so the CLI can map them
to the physics exit code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .fock import DEFAULT_LEAKAGE_THRESHOLD, _check_dt
from .params import SystemParams
from .runner import ENGINES, FockOptions, InitialOccupations
from .schedule import (
    RAMP_SHAPES,
    CycleSchedule,
    Stroke,
    _check_targets,
    adiabatic_ramp_profile,
    build_default_cycle,
)

SCHEMA_VERSION = 1

_NUMBER = (int, float)


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config'} must be a JSON object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path + key}'")
    # sorted, so the key a message names does not depend on the hash seed
    for key in sorted(required):
        if key not in obj:
            raise ConfigError(f"missing required key '{path + key}'")


def _number(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, _NUMBER) or not math.isfinite(val):
        raise ConfigError(f"'{path}{key}' must be a finite number")
    return float(val)


def _integer(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"'{path}{key}' must be an integer")
    return val


def _number_list(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        return default
    val = obj[key]
    if not isinstance(val, list) or any(
        isinstance(x, bool) or not isinstance(x, _NUMBER) or not math.isfinite(x) for x in val
    ):
        raise ConfigError(f"'{path}{key}' must be a list of finite numbers")
    return [float(x) for x in val]


def _string(obj: dict, key: str, path: str, default=None, choices=None):
    if key not in obj:
        return default
    val = obj[key]
    if not isinstance(val, str):
        raise ConfigError(f"'{path}{key}' must be a string")
    if choices is not None and val not in choices:
        raise ConfigError(f"'{path}{key}' must be one of {choices}, got {val!r}")
    return val


def _kind(obj, key: str, path: str, choices) -> str:
    """The required string ``key`` that selects what else the object holds."""
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError(f"missing required key '{path}{key}'")
    return _string(obj, key, path, choices=choices)


def _check_version(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config must declare schema_version = {SCHEMA_VERSION}, got {version!r}"
        )


def load_config_file(path: str | Path) -> dict:
    """Load a JSON config from a path or from the bundled config directory."""
    p = Path(path)
    if not p.exists():
        name = p.name if p.name.endswith(".json") else p.name + ".json"
        bundled = resources.files("omcool").joinpath("configs", name)
        if bundled.is_file():
            return json.loads(bundled.read_text())
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def parse_params(obj: dict, path: str = "params.") -> SystemParams:
    allowed = {f.name for f in fields(SystemParams)}
    required = allowed - {"delta_targets", "n_targets"}
    _check_keys(obj, allowed, required, path)
    kwargs = {f.name: _number(obj, f.name, path) for f in fields(SystemParams)
              if f.name in required}
    kwargs["delta_targets"] = tuple(_number_list(obj, "delta_targets", path, []))
    kwargs["n_targets"] = tuple(_number_list(obj, "n_targets", path, []))
    try:
        return SystemParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid params: {exc}") from exc


def _parse_stroke(obj: dict, params: SystemParams, path: str) -> Stroke:
    kind = _kind(obj, "kind", path, ("ramp", "exchange", "hold"))
    if kind == "ramp":
        _check_keys(obj, {"kind", "duration", "delta_start", "delta_end", "shape"},
                    {"kind", "duration", "delta_start", "delta_end"}, path)
        shape = _string(obj, "shape", path, default="linear", choices=RAMP_SHAPES)
        d0 = _number(obj, "delta_start", path)
        d1 = _number(obj, "delta_end", path)
        profile = None
        if shape == "adiabatic":
            profile = adiabatic_ramp_profile(d0, d1, params.omega_b, params.g)
        return Stroke.ramp(d0, d1, _number(obj, "duration", path), shape=shape,
                           profile=profile)
    if kind == "exchange":
        _check_keys(obj, {"kind", "duration", "target", "amplitude"},
                    {"kind", "duration", "target"}, path)
        target = _integer(obj, "target", path)
        try:
            _check_targets([target], params)
        except ValueError as exc:
            raise ConfigError(f"'{path}target': {exc}") from exc
        amplitude = _number(obj, "amplitude", path, default=params.omega_0)
        return Stroke.exchange(target, amplitude, _number(obj, "duration", path))
    _check_keys(obj, {"kind", "duration"}, {"kind", "duration"}, path)
    return Stroke.hold(_number(obj, "duration", path))


def parse_schedule(obj: dict, params: SystemParams, path: str = "schedule.") -> CycleSchedule:
    kind = _kind(obj, "type", path, ("default_cycle", "strokes"))
    try:
        if kind == "default_cycle":
            _check_keys(obj, {"type", "tau1", "tau2", "tau3", "tau4", "targets",
                              "cycles", "ramp_shape"},
                        {"type", "tau1", "tau2", "tau3", "tau4", "targets"}, path)
            targets = obj["targets"]
            if not isinstance(targets, list) or any(
                isinstance(t, bool) or not isinstance(t, int) for t in targets
            ):
                raise ConfigError(f"'{path}targets' must be a list of integers")
            return build_default_cycle(
                params,
                _number(obj, "tau1", path), _number(obj, "tau2", path),
                _number(obj, "tau3", path), _number(obj, "tau4", path),
                targets=targets,
                cycles=_integer(obj, "cycles", path, default=1),
                ramp_shape=_string(obj, "ramp_shape", path, default="linear",
                                   choices=RAMP_SHAPES),
            )
        _check_keys(obj, {"type", "cycles", "delta_start", "strokes"},
                    {"type", "strokes"}, path)
        strokes_cfg = obj["strokes"]
        if not isinstance(strokes_cfg, list) or not strokes_cfg:
            raise ConfigError(f"'{path}strokes' must be a non-empty list")
        strokes = [
            _parse_stroke(s, params, f"{path}strokes[{i}].")
            for i, s in enumerate(strokes_cfg)
        ]
        return CycleSchedule(
            strokes=tuple(strokes),
            cycle_count=_integer(obj, "cycles", path, default=1),
            delta_start=_number(obj, "delta_start", path, default=params.delta_i),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc


def parse_initial(obj: dict, params: SystemParams, path: str = "initial.") -> InitialOccupations:
    _check_keys(obj, {"basis", "pair", "targets"}, {"basis", "pair"}, path)
    basis = _string(obj, "basis", path, choices=("polariton", "bare"))
    pair = _number_list(obj, "pair", path)
    if len(pair) != 2:
        raise ConfigError(f"'{path}pair' must hold exactly two occupations")
    targets = _number_list(obj, "targets", path, [])
    if len(targets) != len(params.delta_targets):
        raise ConfigError(
            f"'{path}targets' must list one occupation per target mode "
            f"({len(params.delta_targets)} expected)"
        )
    try:
        return InitialOccupations(basis=basis, pair=tuple(pair), targets=tuple(targets))
    except ValueError as exc:
        raise ConfigError(f"invalid initial occupations: {exc}") from exc


def parse_fock_options(obj: dict, params: SystemParams, schedule: CycleSchedule,
                       path: str = "fock.") -> FockOptions:
    _check_keys(obj, {"cutoffs", "dt", "leakage_threshold"}, {"cutoffs"}, path)
    cutoffs = obj["cutoffs"]
    if not isinstance(cutoffs, list) or any(
        isinstance(c, bool) or not isinstance(c, int) or c < 2 for c in cutoffs
    ):
        raise ConfigError(f"'{path}cutoffs' must be a list of integers, each at least 2")
    if len(cutoffs) != params.n_modes:
        raise ConfigError(
            f"'{path}cutoffs' must list one cutoff per mode ({params.n_modes} expected)"
        )
    dt = None
    if obj.get("dt") is not None:
        dt = _number(obj, "dt", path)
        try:
            _check_dt(dt, params, schedule.spans())
        except ValueError as exc:
            raise ConfigError(f"invalid '{path}dt': {exc}") from exc
    threshold = _number(obj, "leakage_threshold", path, default=DEFAULT_LEAKAGE_THRESHOLD)
    if not 0 < threshold < 1:
        raise ConfigError(f"'{path}leakage_threshold' must lie in (0, 1)")
    return FockOptions(cutoffs=tuple(cutoffs), dt=dt, leakage_threshold=threshold)


@dataclass(frozen=True)
class CycleConfig:
    params: SystemParams
    schedule: CycleSchedule
    initial: InitialOccupations
    engine: str
    tol: float
    samples_per_stroke: int
    fock: FockOptions | None
    threshold: float


def parse_cycle_config(cfg: dict, *, for_validate: bool = False) -> CycleConfig:
    """Parse a protocol-run config (used by both ``cycle`` and ``validate``)."""
    _check_version(cfg)
    allowed = {"schema_version", "description", "params", "schedule", "initial",
               "engine", "integrator", "fock"}
    required = {"schema_version", "params", "schedule", "initial"}
    if for_validate:
        allowed = (allowed | {"comparison"}) - {"engine"}
        required = required | {"fock"}
    _check_keys(cfg, allowed, required, "")
    _string(cfg, "description", "", default="")
    params = parse_params(cfg["params"])
    schedule = parse_schedule(cfg["schedule"], params)
    initial = parse_initial(cfg["initial"], params)
    engine = _string(cfg, "engine", "", default="gaussian", choices=ENGINES)

    integ = cfg.get("integrator", {})
    _check_keys(integ, {"tol", "samples_per_stroke"}, set(), "integrator.")
    tol = _number(integ, "tol", "integrator.", default=1e-7)
    if tol <= 0:
        raise ConfigError("'integrator.tol' must be positive")
    spp = _integer(integ, "samples_per_stroke", "integrator.", default=32)
    if spp < 1:
        raise ConfigError("'integrator.samples_per_stroke' must be >= 1")

    fock = None
    if "fock" in cfg:
        fock = parse_fock_options(cfg["fock"], params, schedule)
    if engine == "fock" and fock is None:
        raise ConfigError("engine 'fock' requires a 'fock' section with cutoffs")
    if (engine == "fock" or for_validate) and initial.basis != "bare":
        raise ConfigError("the fock engine requires initial.basis = 'bare'")

    threshold = 5e-2
    if for_validate:
        comp = cfg.get("comparison", {})
        _check_keys(comp, {"threshold"}, set(), "comparison.")
        threshold = _number(comp, "threshold", "comparison.", default=5e-2)
        if threshold <= 0:
            raise ConfigError("'comparison.threshold' must be positive")

    return CycleConfig(params=params, schedule=schedule, initial=initial,
                       engine=engine, tol=tol, samples_per_stroke=spp,
                       fock=fock, threshold=threshold)


@dataclass(frozen=True)
class SpectrumConfig:
    omega_b: float
    g: float
    delta_start: float
    delta_stop: float
    samples: int


def parse_spectrum_config(cfg: dict) -> SpectrumConfig:
    _check_version(cfg)
    _check_keys(cfg, {"schema_version", "description", "omega_b", "g",
                      "delta_start", "delta_stop", "samples"},
                {"schema_version", "omega_b", "g", "delta_start", "delta_stop",
                 "samples"}, "")
    _string(cfg, "description", "", default="")
    omega_b = _number(cfg, "omega_b", "")
    g = _number(cfg, "g", "")
    d0 = _number(cfg, "delta_start", "")
    d1 = _number(cfg, "delta_stop", "")
    samples = _integer(cfg, "samples", "")
    if omega_b <= 0:
        raise ConfigError("'omega_b' must be positive")
    if g < 0:
        raise ConfigError("'g' must be non-negative")
    if samples < 1 or d0 >= d1:
        raise ConfigError(
            "empty sweep range: need delta_start < delta_stop and samples >= 1"
        )
    if d1 >= 0:
        raise ConfigError("the sweep must stay red-detuned (delta < 0)")
    return SpectrumConfig(omega_b=omega_b, g=g, delta_start=d0, delta_stop=d1,
                          samples=samples)


@dataclass(frozen=True)
class LimitConfig:
    n_a: float
    n_c: float
    eta: float | None
    r: float | None
    gamma: float | None
    tau: float | None
    sweep_variable: str | None
    sweep_start: float | None
    sweep_stop: float | None
    sweep_samples: int | None


def parse_limit_config(cfg: dict) -> LimitConfig:
    _check_version(cfg)
    _check_keys(cfg, {"schema_version", "description", "n_a", "n_c", "eta", "r",
                      "gamma", "tau", "sweep"},
                {"schema_version", "n_a", "n_c"}, "")
    _string(cfg, "description", "", default="")
    n_a = _number(cfg, "n_a", "")
    n_c = _number(cfg, "n_c", "")
    if n_a < 0 or n_c < 0:
        raise ConfigError("bath occupations must be non-negative")
    eta = _number(cfg, "eta", "")
    r = _number(cfg, "r", "")
    gamma = _number(cfg, "gamma", "")
    tau = _number(cfg, "tau", "")
    if r is not None and (gamma is not None or tau is not None):
        raise ConfigError("give either 'r' or ('gamma', 'tau'), not both")

    sweep = cfg.get("sweep")
    variable = start = stop = samples = None
    if sweep is not None:
        _check_keys(sweep, {"variable", "start", "stop", "samples"},
                    {"variable", "start", "stop", "samples"}, "sweep.")
        variable = _string(sweep, "variable", "sweep.", choices=("eta", "r", "tau"))
        start = _number(sweep, "start", "sweep.")
        stop = _number(sweep, "stop", "sweep.")
        samples = _integer(sweep, "samples", "sweep.")
        if samples < 1 or start > stop:
            raise ConfigError("empty sweep range: need start <= stop and samples >= 1")
    # the swept variable replaces its fixed value; a swept r also replaces gamma and tau
    for key in {"eta": ("eta",), "r": ("r", "gamma", "tau"), "tau": ("tau",)}.get(variable, ()):
        if key in cfg:
            raise ConfigError(f"'{key}' is ignored when sweep.variable is '{variable}'")
    if variable == "tau" or tau is not None:
        if gamma is None:
            raise ConfigError("'gamma' is required to derive r from tau")
    if variable != "eta" and eta is None:
        raise ConfigError("'eta' is required unless it is the swept variable")
    if variable not in ("r", "tau") and r is None and tau is None:
        raise ConfigError("give 'r' or ('gamma', 'tau') unless r/tau is swept")
    return LimitConfig(n_a=n_a, n_c=n_c, eta=eta, r=r, gamma=gamma, tau=tau,
                       sweep_variable=variable, sweep_start=start,
                       sweep_stop=stop, sweep_samples=samples)
