"""Normal-mode (polariton) analytics for the linearized optomechanical model.

The two-mode quadratic Hamiltonian

    H = -delta a^dag a + omega_b b^dag b + g (b + b^dag)(a + a^dag)

is diagonalized by a real symplectic (Bogoliubov) transformation of the
quadratures ``z = (x_a, p_a, x_b, p_b)`` into polariton quadratures
``w = S z``, in closed form: a canonical rescaling and one rotation of the
pair, whose branch frequencies are ``polariton_spectrum``'s.  Branch 'A' is
always the upper branch (larger frequency); which bare mode it resembles is
encoded in the overlap coefficient ``u`` rather than in any relabeling.

This module also carries the closed-form results built on that picture: the
two-mode exchange (Rabi) populations, the per-pulse exchange efficiency, the
inter-pulse survival factor, and the asymptotic limit of the repeated
cooling map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    Each test passes only when it holds, so a NaN fails it; a non-finite
    delta, omega_b or g is an error of its own.
    """
    for name, value in (("omega_b", omega_b), ("g", g)):
        if not math.isfinite(value):
            raise StabilityError(f"{name} must be finite, got {name}={value}")
    if np.ndim(delta):
        d = np.asarray(delta, dtype=float)
        good = np.isfinite(d) & (d < 0) & (g <= stability_limit(d, omega_b))
        if not good.all():
            check_stability(d.flat[np.argmin(good)].item(), omega_b, g)
        return
    if not math.isfinite(delta):
        raise StabilityError(f"delta must be finite, got delta={delta}", delta=delta)
    if not delta < 0:
        raise StabilityError(
            f"red-detuned regime requires delta < 0, got delta={delta}", delta=delta
        )
    g_max = stability_limit(delta, omega_b)
    if not g <= g_max:
        raise StabilityError(
            f"unstable at delta={delta}: g={g} exceeds the stability limit "
            f"0.5*sqrt(|delta|*omega_b)={g_max:.6g}; the stable sub-interval is "
            f"delta <= {-4.0 * g * g / omega_b:.6g}",
            delta=delta,
        )


def polariton_spectrum(delta, omega_b: float, g: float):
    """Closed-form polariton branch frequencies (omega_A >= omega_B).

    omega_{A,B}^2 = [delta^2 + omega_b^2 +- sqrt((delta^2 - omega_b^2)^2
                     - 16 g^2 delta omega_b)] / 2

    Returns two floats for a scalar ``delta`` and two arrays for an array.
    """
    # (np.ndim costs more than the scalar arithmetic, so Python numbers skip it)
    if not isinstance(delta, (float, int)) and np.ndim(delta):
        check_stability(delta, omega_b, g)
        delta = np.asarray(delta, dtype=float)
        s = delta * delta + omega_b * omega_b
        root = np.sqrt((delta * delta - omega_b * omega_b) ** 2
                       - 16.0 * g * g * delta * omega_b)
        # check_stability guarantees s - root >= 0 up to roundoff
        return np.sqrt(0.5 * (s + root)), np.sqrt(np.maximum(0.5 * (s - root), 0.0))
    d = float(delta)
    # check_stability's pass condition, written out: it raises when this fails
    if not (-math.inf < d < 0.0 and 0.0 <= omega_b < math.inf
            and -math.inf < g <= 0.5 * math.sqrt(-d * omega_b)):
        check_stability(delta, omega_b, g)
    # the array arithmetic above in the same order, so the bits agree (numpy's
    # ** 2 is a product, which cannot raise OverflowError as float ** 2 can)
    s = d * d + omega_b * omega_b
    t = d * d - omega_b * omega_b
    root = math.sqrt(t * t - 16.0 * g * g * d * omega_b)
    return math.sqrt(0.5 * (s + root)), math.sqrt(max(0.5 * (s - root), 0.0))


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

    A stacked basis, built for a delta array of length K, holds (K,) arrays
    and a (K, 4, 4) ``S``; indexing it selects entries along that axis.
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

    def __getitem__(self, index) -> PolaritonBasis:
        return replace(self, **{k: v[index] for k, v in vars(self).items() if np.ndim(v)})

    def inverse(self) -> np.ndarray:
        """Symplectic inverse of S (maps polariton quadratures back to bare)."""
        J = symplectic_form(2)
        return -J @ np.swapaxes(self.S, -1, -2) @ J


def bogoliubov_basis(delta, omega_b: float, g: float) -> PolaritonBasis:
    """Symplectic diagonalization of the pair Hamiltonian, in closed form.

    With w_a = -delta, the canonical rescaling x_j = sqrt(w_j) y_j,
    p_j = q_j / sqrt(w_j) turns H into |q|^2 / 2 + y^T K y / 2 with
    K = [[w_a^2, 2 g sqrt(w_a omega_b)], [., omega_b^2]].  One rotation,
    cos 2theta = (w_a^2 - omega_b^2) / hypot(w_a^2 - omega_b^2,
    4 g sqrt(w_a omega_b)), turns K into diag(omega_A^2, omega_B^2), and
    rescaling each normal coordinate by its frequency gives S.  The branch
    frequencies are ``polariton_spectrum``'s, bit for bit.  cos theta and
    sin theta are half-angle square roots, so at g = 0 S is exactly eye(4)
    (also at |delta| = omega_b) or the label swap whenever the spectrum is
    exact there.  Each mode's sign makes its dominant bare coefficient
    positive, hence u >= 0 for g >= 0; on a tie (delta = -omega_b exactly)
    the cavity coefficient is taken as the dominant one.

    A delta array of length K gives a stacked basis; a scalar delta is the
    K = 1 case.  The first entry that fails a check raises the error its
    scalar call raises; a lower branch at omega_B <= 1e-12 max(|delta|,
    omega_b) is refused as marginally stable.
    """
    om_a, om_b = polariton_spectrum(delta, omega_b, g)  # checks stability first
    d, om_a, om_b = (np.asarray(x, dtype=float).reshape(-1) for x in (delta, om_a, om_b))
    split = d * d - omega_b * omega_b
    hyp = np.hypot(split, 4.0 * g * np.sqrt(-d * omega_b))
    # hyp = 0 only at g = 0 on the crossing, where S is eye(4)
    cos2 = np.divide(split, hyp, out=np.ones_like(hyp), where=hyp > 0)
    c, s = np.sqrt(0.5 * (1.0 + cos2)), np.copysign(np.sqrt(0.5 * (1.0 - cos2)), g)
    V = np.stack((np.stack((c, s), -1), np.stack((-s, c), -1)), -2)  # rows A, B over (a, b)
    dominant = np.where(np.abs(V[..., 1]) > np.abs(V[..., 0]), V[..., 1], V[..., 0])
    V *= np.sign(dominant)[..., None]
    om = np.stack((om_a, om_b), -1)
    S = np.zeros((d.size, 4, 4))
    J = symplectic_form(2)
    M = hamiltonian_matrix(0.0, omega_b, g) - d[:, None, None] * np.diag([1.0, 1.0, 0.0, 0.0])
    with np.errstate(invalid="ignore", divide="ignore"):  # a failing entry raises below
        ratio = np.sqrt(om[:, :, None] / np.stack((-d, np.full_like(d, omega_b)), -1)[:, None])
        S[:, 0::2, 0::2], S[:, 1::2, 1::2] = V * ratio, V / ratio
        # guard the construction itself; the tight tolerances live in the tests
        St = np.swapaxes(S, -1, -2)
        Sinv = -J @ St @ J
        resid = np.swapaxes(Sinv, -1, -2) @ M @ Sinv - np.repeat(om, 2, -1)[:, None] * np.eye(4)
        symp = np.abs(S @ J @ St - J).max(axis=(-2, -1))
    scale = np.maximum(np.abs(d), omega_b)
    failures = (
        (~(om_b > 1e-12 * scale), "marginally stable at delta={}: omega_B vanishes"),
        (~(symp <= 1e-8), "symplectic construction failed at delta={}"),
        (~(np.abs(resid).max(axis=(-2, -1)) <= 1e-6 * scale), "diagonalization failed at delta={}"),
    )
    bad = np.any([mask for mask, _ in failures], axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        text = next(text for mask, text in failures if mask[k])
        raise StabilityError(text.format(d[k]), delta=float(d[k]))
    out = dict(delta=d, omega_A=om_a, omega_B=om_b, S=S, u=0.5 * (S[:, 0, 2] + S[:, 1, 3]),
               u_x=S[:, 0, 2], u_p=S[:, 1, 3])
    if np.ndim(delta) == 0:
        out = {k: v[0] if k == "S" else float(v[0]) for k, v in out.items()}
    return PolaritonBasis(omega_b=omega_b, g=g, **out)


def moment_occupations(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """N = (sigma_xx + sigma_pp - 1)/2 + |mean|^2/2 per mode, over any leading axes."""
    d = np.diagonal(covs, axis1=-2, axis2=-1)
    therm = 0.5 * (d[..., 0::2] + d[..., 1::2] - 1.0)
    coh = 0.5 * (means[..., 0::2] ** 2 + means[..., 1::2] ** 2)
    return therm + coh


def pair_occupations(mean: np.ndarray, cov: np.ndarray, basis: PolaritonBasis):
    """(N_A, N_B) from the quadrature means (..., 4) and covariances (..., 4, 4)
    of (a, b), rotated by the basis ``S`` (4, 4) or a stack of them aligned
    with the samples.  Returns two floats for one sample, two arrays for a stack."""
    S = basis.S
    n = moment_occupations((S @ mean[..., None])[..., 0], S @ cov @ np.swapaxes(S, -1, -2))
    return (float(n[0]), float(n[1])) if n.ndim == 1 else (n[..., 0], n[..., 1])


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

        N_inf = [eta n_a + (1 - r)(1 - eta) n_c] / [(1 - r) + r eta].

    The denominator, 1 - r (1 - eta), is a sum of two non-negative terms, so
    it takes no cancellation and vanishes only for eta = 0 with r = 1.  For
    eta = 1 the limit is n_a exactly.
    """
    denom = (1.0 - params.r) + params.r * params.eta
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
