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
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .params import SystemParams
from .runner import FockOptions, InitialOccupations, check_run
from .schedule import (
    RAMP_SHAPES,
    CycleSchedule,
    Stroke,
    adiabatic_ramp_profile,
    build_default_cycle,
)

SCHEMA_VERSION = 1

_NUMBER = (int, float)
_REQUIRED = object()  # the default of a key that must be present


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


def _read(obj: dict, path: str, readers: dict) -> dict:
    """Check ``obj``'s keys against ``readers``, then read its values in order.

    ``readers`` maps each key to ``(reader, default, *args)``, its value read
    as ``reader(obj, key, path, default, *args)``; a key whose default is
    ``_REQUIRED`` must be present, and one whose reader is None is read by
    the caller.  Returns the values read, by key.
    """
    required = {key for key, (_, default, *_) in readers.items() if default is _REQUIRED}
    _check_keys(obj, set(readers), required, path)
    return {key: read(obj, key, path, default, *args)
            for key, (read, default, *args) in readers.items() if read is not None}


def _number(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, _NUMBER) or not math.isfinite(val):
        raise ConfigError(f"'{path}{key}' must be a finite number")
    return float(val)


def _positive(obj: dict, key: str, path: str, default=None, read=_number):
    val = read(obj, key, path, default)
    if val <= 0:
        raise ConfigError(f"'{path}{key}' must be positive")
    return val


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


def _integer_list(obj: dict, key: str, path: str, default=None, note=""):
    if key not in obj:
        return default
    val = obj[key]
    if not isinstance(val, list) or any(isinstance(x, bool) or not isinstance(x, int) for x in val):
        raise ConfigError(f"'{path}{key}' must be a list of integers{note}")
    return val


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
    # bool is an int and 1.0 == 1, so equality alone would accept true and 1.0
    if type(version) is not int or version != SCHEMA_VERSION:
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
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def parse_params(obj: dict, path: str = "params.") -> SystemParams:
    # the fields with a default are the target lists, each optional
    values = _read(obj, path, {f.name: (_number, _REQUIRED) if f.default_factory is MISSING
                               else (_number_list, []) for f in fields(SystemParams)})
    try:
        return SystemParams(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid params: {exc}") from exc


def _parse_stroke(obj: dict, params: SystemParams, path: str) -> Stroke:
    kind = _kind(obj, "kind", path, ("ramp", "exchange", "hold"))
    if kind == "ramp":
        shape, d0, d1, duration = _read(obj, path, {
            "kind": (None, _REQUIRED), "shape": (_string, "linear", RAMP_SHAPES),
            "delta_start": (_number, _REQUIRED), "delta_end": (_number, _REQUIRED),
            "duration": (_number, _REQUIRED)}).values()
        profile = None
        if shape == "adiabatic":
            profile = adiabatic_ramp_profile(d0, d1, params.omega_b, params.g)
        return Stroke.ramp(d0, d1, duration, shape=shape, profile=profile)
    if kind == "exchange":
        return Stroke.exchange(**_read(obj, path, {
            "kind": (None, _REQUIRED), "target": (_integer, _REQUIRED),
            "amplitude": (_number, params.omega_0), "duration": (_number, _REQUIRED)}))
    return Stroke.hold(**_read(obj, path, {"kind": (None, _REQUIRED),
                                           "duration": (_number, _REQUIRED)}))


def _strokes(obj: dict, key: str, path: str, default, params: SystemParams) -> list[Stroke]:
    strokes = obj[key]
    if not isinstance(strokes, list) or not strokes:
        raise ConfigError(f"'{path}{key}' must be a non-empty list")
    return [_parse_stroke(s, params, f"{path}{key}[{i}].") for i, s in enumerate(strokes)]


def parse_schedule(obj: dict, params: SystemParams, path: str = "schedule.") -> CycleSchedule:
    kind = _kind(obj, "type", path, ("default_cycle", "strokes"))
    try:
        if kind == "default_cycle":
            return build_default_cycle(params, **_read(obj, path, {
                "type": (None, _REQUIRED), "targets": (_integer_list, _REQUIRED),
                **{tau: (_number, _REQUIRED) for tau in ("tau1", "tau2", "tau3", "tau4")},
                "cycles": (_integer, 1), "ramp_shape": (_string, "linear", RAMP_SHAPES)}))
        strokes, cycles, delta_start = _read(obj, path, {
            "type": (None, _REQUIRED), "strokes": (_strokes, _REQUIRED, params),
            "cycles": (_integer, 1), "delta_start": (_number, params.delta_i)}).values()
        return CycleSchedule(strokes=tuple(strokes), cycle_count=cycles, delta_start=delta_start)
    except ValueError as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc


def parse_initial(obj: dict, path: str = "initial.") -> InitialOccupations:
    values = _read(obj, path, {"basis": (_string, _REQUIRED, ("polariton", "bare")),
                               "pair": (_number_list, _REQUIRED),
                               "targets": (_number_list, [])})
    try:
        return InitialOccupations(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid initial occupations: {exc}") from exc


def parse_fock_options(obj: dict, path: str = "fock.") -> FockOptions:
    values = _read(obj, path, {
        "cutoffs": (_integer_list, _REQUIRED, ", each at least 2"),
        # null, like an absent key, leaves dt unset
        "dt": (lambda o, k, p, d: d if o.get(k) is None else _number(o, k, p), None),
        "leakage_threshold": (_number, FockOptions.leakage_threshold)})
    try:
        return FockOptions(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid fock options: {exc}") from exc


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
    """Parse a protocol-run config (used by both ``cycle`` and ``validate``).

    The run is checked (``runner.check_run``) for each engine the command
    runs, so a config that ``run_protocol`` would refuse fails here.
    """
    _check_version(cfg)
    # the sections are read below, in turn: the schedule needs the params
    _read(cfg, "", {
        "schema_version": (None, _REQUIRED), "description": (_string, ""),
        "params": (None, _REQUIRED), "schedule": (None, _REQUIRED),
        "initial": (None, _REQUIRED), "integrator": (None, None),
        "fock": (None, _REQUIRED if for_validate else None),
        **({"comparison": (None, None)} if for_validate else {"engine": (None, None)})})
    params = parse_params(cfg["params"])
    schedule = parse_schedule(cfg["schedule"], params)
    initial = parse_initial(cfg["initial"])
    engine = _string(cfg, "engine", "", default="gaussian")  # check_run refuses unknown ones
    integrator = _read(cfg.get("integrator", {}), "integrator.", {
        "tol": (_positive, 1e-7), "samples_per_stroke": (_positive, 32, _integer)})
    fock = parse_fock_options(cfg["fock"]) if "fock" in cfg else None
    for run_engine in ("fock", "gaussian") if for_validate else (engine,):
        try:
            check_run(params, schedule, run_engine, initial, fock)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    # a cycle config has no comparison section, so it reads the default
    comparison = _read(cfg.get("comparison", {}), "comparison.",
                       {"threshold": (_positive, 5e-2)})
    return CycleConfig(params=params, schedule=schedule, initial=initial, engine=engine,
                       fock=fock, **integrator, **comparison)


@dataclass(frozen=True)
class SpectrumConfig:
    omega_b: float
    g: float
    delta_start: float
    delta_stop: float
    samples: int


def parse_spectrum_config(cfg: dict) -> SpectrumConfig:
    _check_version(cfg)
    _, omega_b, g, d0, d1, samples = _read(cfg, "", {
        "schema_version": (None, _REQUIRED), "description": (_string, ""),
        **{key: (_number, _REQUIRED) for key in ("omega_b", "g", "delta_start", "delta_stop")},
        "samples": (_integer, _REQUIRED)}).values()
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


def _sweep(obj: dict, key: str, path: str, default):
    """The limit sweep's (variable, start, stop, samples), or ``default``
    when the section is absent or null."""
    if obj.get(key) is None:
        return default
    variable, start, stop, samples = _read(obj[key], f"{path}{key}.", {
        "variable": (_string, _REQUIRED, ("eta", "r", "tau")),
        "start": (_number, _REQUIRED), "stop": (_number, _REQUIRED),
        "samples": (_integer, _REQUIRED)}).values()
    if samples < 1 or start > stop:
        raise ConfigError("empty sweep range: need start <= stop and samples >= 1")
    return variable, start, stop, samples


def parse_limit_config(cfg: dict) -> LimitConfig:
    _check_version(cfg)
    _, n_a, n_c, eta, r, gamma, tau, sweep = _read(cfg, "", {
        "schema_version": (None, _REQUIRED), "description": (_string, ""),
        "n_a": (_number, _REQUIRED), "n_c": (_number, _REQUIRED),
        **{key: (_number, None) for key in ("eta", "r", "gamma", "tau")},
        "sweep": (_sweep, (None,) * 4)}).values()
    if n_a < 0 or n_c < 0:
        raise ConfigError("bath occupations must be non-negative")
    if r is not None and (gamma is not None or tau is not None):
        raise ConfigError("give either 'r' or ('gamma', 'tau'), not both")
    variable, start, stop, samples = sweep
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
