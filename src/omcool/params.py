"""Physical parameters of the linearized cavity/mechanics model.

Conventions used everywhere in the package:

* the mechanical decay rate ``gamma`` is the global time unit, so all
  frequencies and rates are quoted in units of ``gamma`` and all times in
  units of ``1/gamma``;
* decay rates are energy decay rates: a damped mode relaxes as
  ``d<N>/dt = -rate * (<N> - n_bath)``;
* hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .polariton import check_stability

MODE_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class SystemParams:
    """All frequencies, couplings, decay rates and bath occupations.

    The system is one cavity mode 'a', one mechanical mode 'b' coupled to it
    with strength ``g``, and any number of extra mechanical target modes
    ('c', 'd', ...) that can be parametrically coupled to 'b' with strength
    ``omega_0``.  ``delta_targets[j]`` is the rotating-frame frequency of
    target j and ``n_targets[j]`` its bath occupation.  ``delta_i`` and
    ``delta_f`` are the two laser-cavity detunings the cooling cycle ramps
    between (both negative, ``delta_i < delta_f``).
    """

    omega_b: float
    g: float
    kappa: float
    gamma: float
    n_a: float
    n_b: float
    delta_i: float
    delta_f: float
    omega_0: float
    delta_targets: tuple[float, ...] = field(default_factory=tuple)
    n_targets: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "delta_targets", tuple(float(d) for d in self.delta_targets))
        object.__setattr__(self, "n_targets", tuple(float(n) for n in self.n_targets))
        for f in fields(self):
            value = getattr(self, f.name)
            if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.omega_b <= 0:
            raise ValueError("omega_b must be positive")
        if self.g < 0:
            raise ValueError("g must be non-negative")
        if self.kappa < 0 or self.gamma < 0:
            raise ValueError("decay rates must be non-negative")
        if self.omega_0 < 0:
            raise ValueError("omega_0 must be non-negative")
        if self.n_a < 0 or self.n_b < 0 or any(n < 0 for n in self.n_targets):
            raise ValueError("bath occupations must be non-negative")
        if not (self.delta_i < self.delta_f < 0):
            raise ValueError(
                "red-detuned protocol requires delta_i < delta_f < 0, got "
                f"delta_i={self.delta_i}, delta_f={self.delta_f}"
            )
        if len(self.delta_targets) != len(self.n_targets):
            raise ValueError("delta_targets and n_targets must have equal length")
        if any(d <= 0 for d in self.delta_targets):
            raise ValueError("target-mode frequencies must be positive")
        # delta_f has the smallest |delta| on the ramp, so it is the worst case,
        # but check both endpoints so the error names the offending value.
        check_stability(self.delta_i, self.omega_b, self.g)
        check_stability(self.delta_f, self.omega_b, self.g)

    @property
    def n_modes(self) -> int:
        return 2 + len(self.delta_targets)

    @property
    def mode_labels(self) -> tuple[str, ...]:
        return tuple(MODE_NAMES[: self.n_modes])


@dataclass(frozen=True)
class MeanFieldInputs:
    """Drive-level quantities that determine the linearized model parameters."""

    alpha_in: float
    g0: float
    omega_b: float
    delta_bare: float

    def __post_init__(self):
        if self.omega_b <= 0:
            raise ValueError("omega_b must be positive")
        if self.delta_bare == 0:
            raise ValueError("delta_bare must be nonzero for the steady-state formulas")


class MeanFieldResult(NamedTuple):
    alpha: float
    beta: float
    g: float
    delta: float


def mean_field_reduce(inputs: MeanFieldInputs) -> MeanFieldResult:
    """Small-damping steady-state reduction from drive to model parameters.

    Computes the intracavity amplitude ``alpha = alpha_in / delta_bare``, the
    static mechanical displacement ``beta = -g0 * alpha**2 / omega_b``, the
    linearized coupling ``g = alpha * g0`` and the shifted detuning
    ``delta = delta_bare - 2 * beta * g0``.  The pump phase is chosen so that
    alpha is real.
    """
    alpha = inputs.alpha_in / inputs.delta_bare
    beta = -inputs.g0 * alpha**2 / inputs.omega_b
    g = alpha * inputs.g0
    delta = inputs.delta_bare - 2.0 * beta * inputs.g0
    return MeanFieldResult(alpha=alpha, beta=beta, g=g, delta=delta)
