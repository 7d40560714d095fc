"""Normal-mode (polariton) analytics for the linearized optomechanical model.

The two-mode quadratic Hamiltonian

    H = -delta a^dag a + omega_b b^dag b + g (b + b^dag)(a + a^dag)

is diagonalized by a real symplectic (Bogoliubov) transformation of the
quadratures ``z = (x_a, p_a, x_b, p_b)`` into polariton quadratures
``w = S z``.  Branch 'A' is always the upper branch (larger frequency); which
bare mode it resembles is encoded in the overlap coefficient ``u`` rather
than in any relabeling.

This module also carries the closed-form results built on that picture: the
two-mode exchange (Rabi) populations, the per-pulse exchange efficiency, the
inter-pulse survival factor, and the asymptotic limit of the repeated
cooling map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError, StabilityError

#: Standard symplectic form for interleaved (x1, p1, x2, p2, ...) ordering.
_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form J for ``n_modes`` modes."""
    J = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        J[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = _J2
    return J


def stability_limit(delta, omega_b: float):
    """Largest coupling g for which both polariton branches are real."""
    return 0.5 * np.sqrt(np.abs(delta) * omega_b)


def check_stability(delta, omega_b: float, g: float) -> None:
    """Raise StabilityError unless g <= sqrt(|delta| * omega_b) / 2 and delta < 0.

    ``delta`` may be an array; the error then names its first bad entry.
    """
    if np.ndim(delta):
        d = np.asarray(delta, dtype=float)
        bad = (d >= 0) | (g > stability_limit(d, omega_b))
        if bad.any():
            check_stability(d.flat[np.argmax(bad)].item(), omega_b, g)
        return
    if delta >= 0:
        raise StabilityError(
            f"red-detuned regime requires delta < 0, got delta={delta}", delta=delta
        )
    g_max = stability_limit(delta, omega_b)
    if g > g_max:
        raise StabilityError(
            f"unstable at delta={delta}: g={g} exceeds the stability limit "
            f"0.5*sqrt(|delta|*omega_b)={g_max:.6g}",
            delta=delta,
        )


def polariton_spectrum(delta, omega_b: float, g: float):
    """Closed-form polariton branch frequencies (omega_A >= omega_B).

    omega_{A,B}^2 = [delta^2 + omega_b^2 +- sqrt((delta^2 - omega_b^2)^2
                     - 16 g^2 delta omega_b)] / 2

    Returns two floats for a scalar ``delta`` and two arrays for an array.
    """
    check_stability(delta, omega_b, g)
    if np.ndim(delta):
        delta = np.asarray(delta, dtype=float)
    s = delta * delta + omega_b * omega_b
    disc = (delta * delta - omega_b * omega_b) ** 2 - 16.0 * g * g * delta * omega_b
    root = np.sqrt(disc)
    omega_a2 = 0.5 * (s + root)
    omega_b2 = 0.5 * (s - root)
    # check_stability guarantees omega_b2 >= 0 up to roundoff
    om_a, om_b = np.sqrt(omega_a2), np.sqrt(np.maximum(omega_b2, 0.0))
    if np.ndim(delta):
        return om_a, om_b
    return float(om_a), float(om_b)


def hamiltonian_matrix(delta: float, omega_b: float, g: float) -> np.ndarray:
    """Quadratic-form matrix M with H = z^T M z / 2 over (x_a, p_a, x_b, p_b)."""
    return np.array(
        [
            [-delta, 0.0, 2.0 * g, 0.0],
            [0.0, -delta, 0.0, 0.0],
            [2.0 * g, 0.0, omega_b, 0.0],
            [0.0, 0.0, 0.0, omega_b],
        ]
    )


@dataclass(frozen=True)
class PolaritonBasis:
    """Symplectic normal-mode basis of the coupled photon-phonon pair.

    ``S`` maps bare quadratures to polariton quadratures,
    ``(X_A, P_A, X_B, P_B) = S (x_a, p_a, x_b, p_b)``, with S^T J S = J.
    ``u`` is the annihilation-operator overlap between polariton 'A' and the
    bare mechanical mode, i.e. the coefficient of A in the expansion of b; it
    rescales the parametric coupling as ``omega_0' = u * omega_0``.  ``u_x``
    and ``u_p`` are the corresponding quadrature overlaps (coefficients of
    x_b in X_A and of p_b in P_A); u = (u_x + u_p) / 2.  The annihilation
    overlap is the one that drives the exchange efficiency to 1 on resonance.
    """

    delta: float
    omega_b: float
    g: float
    omega_A: float
    omega_B: float
    S: np.ndarray
    u: float
    u_x: float
    u_p: float

    def inverse(self) -> np.ndarray:
        """Symplectic inverse of S (maps polariton quadratures back to bare)."""
        J = symplectic_form(2)
        return -J @ self.S.T @ J


def _decoupled_basis(delta: float, omega_b: float) -> PolaritonBasis:
    # g = 0: branches are the bare modes; 'A' is whichever has the larger
    # frequency (|delta| for the cavity, omega_b for the mechanics).
    if abs(delta) >= omega_b:
        S = np.eye(4)
        u = u_x = u_p = 0.0
        om_a, om_b2 = abs(delta), omega_b
    else:
        S = np.zeros((4, 4))
        S[0, 2] = S[1, 3] = S[2, 0] = S[3, 1] = 1.0
        u = u_x = u_p = 1.0
        om_a, om_b2 = omega_b, abs(delta)
    return PolaritonBasis(
        delta=delta, omega_b=omega_b, g=0.0, omega_A=om_a, omega_B=om_b2,
        S=S, u=u, u_x=u_x, u_p=u_p,
    )


def bogoliubov_basis(delta: float, omega_b: float, g: float) -> PolaritonBasis:
    """Numerically construct the symplectic diagonalization of the pair Hamiltonian.

    Normal modes are extracted from the eigenvectors of M J: a row vector w
    with (M J) w = i omega w defines an annihilation operator A = w . z once
    normalized to [A, A^dag] = i w^T J w* = 1.  The free phase of each mode
    is fixed so that the dominant bare-mode overlap is real and positive,
    which makes S real and u >= 0.
    """
    check_stability(delta, omega_b, g)
    if g == 0.0:
        return _decoupled_basis(delta, omega_b)

    M = hamiltonian_matrix(delta, omega_b, g)
    J = symplectic_form(2)
    evals, evecs = np.linalg.eig(M @ J)
    pos = [k for k in range(4) if evals[k].imag > 1e-12 * max(abs(delta), omega_b)]
    if len(pos) != 2:
        raise StabilityError(
            f"normal-mode extraction failed at delta={delta} (marginally stable?)",
            delta=delta,
        )
    # sort by frequency, upper branch first
    pos.sort(key=lambda k: -evals[k].imag)

    rows = []
    overlaps = []
    for k in pos:
        w = evecs[:, k]
        norm = (1j * w @ J @ w.conj()).real
        if norm <= 0:
            raise StabilityError(
                f"non-positive symplectic norm at delta={delta}", delta=delta
            )
        w = w / np.sqrt(norm)
        u_b = (w[2] - 1j * w[3]) / np.sqrt(2.0)  # [A, b^dag]
        u_a = (w[0] - 1j * w[1]) / np.sqrt(2.0)  # [A, a^dag]
        ref = u_b if abs(u_b) > abs(u_a) else u_a
        w = w * (ref.conj() / abs(ref))
        rows.append(np.sqrt(2.0) * w.real)
        rows.append(np.sqrt(2.0) * w.imag)
        overlaps.append(((w[2] - 1j * w[3]) / np.sqrt(2.0)).real)
    S = np.array(rows)

    # guard the construction itself; the tight tolerances live in the tests
    scale = max(abs(delta), omega_b)
    if np.max(np.abs(S @ J @ S.T - J)) > 1e-8:
        raise StabilityError(f"symplectic construction failed at delta={delta}", delta=delta)
    Sinv = -J @ S.T @ J
    resid = Sinv.T @ M @ Sinv
    if np.max(np.abs(resid - np.diag(np.diag(resid)))) > 1e-6 * scale:
        raise StabilityError(f"diagonalization failed at delta={delta}", delta=delta)

    omega_a = float(evals[pos[0]].imag)
    omega_b_branch = float(evals[pos[1]].imag)
    u = float(overlaps[0])
    u_x = float(S[0, 2])
    u_p = float(S[1, 3])
    return PolaritonBasis(
        delta=delta, omega_b=omega_b, g=g, omega_A=omega_a, omega_B=omega_b_branch,
        S=S, u=u, u_x=u_x, u_p=u_p,
    )


def pair_occupations(mean: np.ndarray, cov: np.ndarray,
                     basis: PolaritonBasis) -> tuple[float, float]:
    """(N_A, N_B) from the quadrature mean (4,) and covariance (4, 4) of (a, b)."""
    m = basis.S @ mean
    c = basis.S @ cov @ basis.S.T
    n_a = 0.5 * (c[0, 0] + c[1, 1] - 1.0) + 0.5 * (m[0] ** 2 + m[1] ** 2)
    n_b = 0.5 * (c[2, 2] + c[3, 3] - 1.0) + 0.5 * (m[2] ** 2 + m[3] ** 2)
    return float(n_a), float(n_b)


def rabi_populations(n_b0, n_c0, omega_b, delta, omega_0, t):
    """Mean occupations of two parametrically coupled modes after time t.

    With effective Rabi frequency Omega = sqrt((omega_b - delta)^2 / 4
    + omega_0^2), the target mode holds

        N_c(t) = N_c(0) + [N_b(0) - N_c(0)] (omega_0 / Omega)^2 sin^2(Omega t)

    and N_b(t) + N_c(t) is conserved.  Accepts scalar or array ``t``.
    """
    t = np.asarray(t, dtype=float)
    omega = np.sqrt(0.25 * (omega_b - delta) ** 2 + omega_0**2)
    if omega_0 == 0.0 or omega == 0.0:
        transfer = np.zeros_like(t)
    else:
        transfer = (omega_0 / omega) ** 2 * np.sin(omega * t) ** 2
    n_c = n_c0 + (n_b0 - n_c0) * transfer
    n_b = n_b0 + n_c0 - n_c
    if t.ndim == 0:
        return float(n_b), float(n_c)
    return n_b, n_c


def exchange_efficiency(
    basis: PolaritonBasis, delta_target: float, omega_0: float
) -> tuple[float, float]:
    """Fraction of occupation swapped per exchange pulse, and the pulse Rabi rate.

    The polariton-'A'/target coupling is omega_0' = u * omega_0, the pulse
    Rabi frequency is Omega' = sqrt((omega_A - delta_target)^2 / 4
    + omega_0'^2), and the efficiency is eta = (omega_0' / Omega')^2, which
    equals 1 exactly on resonance omega_A = delta_target.
    """
    if omega_0 <= 0.0:
        raise PhysicsError("exchange efficiency undefined for omega_0 = 0 (degenerate coupling)")
    omega_0p = basis.u * omega_0
    mismatch = basis.omega_A - delta_target
    omega_p = np.sqrt(0.25 * mismatch**2 + omega_0p**2)
    if omega_p == 0.0:
        raise PhysicsError("degenerate exchange: zero effective coupling on resonance")
    eta = (omega_0p / omega_p) ** 2
    return float(eta), float(omega_p)


def survival_factor(gamma: float, period: float) -> float:
    """Fraction of excess target-mode population that survives one full cycle
    of length ``period``, r = exp(-gamma * period)."""
    if period < 0:
        raise ValueError(f"the cycle period tau must be non-negative, got {period}")
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    return float(np.exp(-gamma * period))


@dataclass(frozen=True)
class CoolingMapParams:
    """Parameters of the per-cycle cooling map: exchange efficiency eta,
    inter-exchange survival factor r, and the two bath occupations."""

    eta: float
    r: float
    n_a: float
    n_c: float

    def __post_init__(self):
        if not (math.isfinite(self.n_a) and math.isfinite(self.n_c)):
            raise ValueError("bath occupations must be finite")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if not 0.0 < self.r <= 1.0:
            raise ValueError("r must lie in (0, 1]")
        if self.n_a < 0 or self.n_c < 0:
            raise ValueError("bath occupations must be non-negative")


def cooling_limit(params: CoolingMapParams) -> float:
    """Asymptotic post-exchange occupation of the target mode,

        N_inf = [eta n_a + (1 - r)(1 - eta) n_c] / [1 - r (1 - eta)].

    For eta = 1 this reduces to n_a exactly.
    """
    denom = 1.0 - params.r * (1.0 - params.eta)
    if denom == 0.0:
        raise PhysicsError("eta = 0 with r = 1: the map has no contraction (no cooling)")
    return (params.eta * params.n_a + (1.0 - params.r) * (1.0 - params.eta) * params.n_c) / denom


def iterate_cooling_map(
    params: CoolingMapParams, n_c_initial: float, cycles: int
) -> np.ndarray:
    """Post-exchange target occupations over ``cycles`` iterations of the map.

    Each cycle first rethermalizes the target toward n_c with retention r,
    then swaps a fraction eta with a fluid holding n_a.  Returns an array of
    length cycles + 1 whose first entry is ``n_c_initial``.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    out = np.empty(cycles + 1)
    out[0] = n_c_initial
    n = n_c_initial
    for j in range(1, cycles + 1):
        n_in = params.n_c + params.r * (n - params.n_c)
        n = (1.0 - params.eta) * n_in + params.eta * params.n_a
        out[j] = n
    return out
