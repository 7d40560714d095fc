"""Exact propagation of Gaussian first/second moments with thermal damping.

For the linearized model every state of interest is Gaussian, so the full
open-system dynamics reduces to

    d<z>/dt  = A(t) <z>
    d sigma/dt = A(t) sigma + sigma A(t)^T + D

over the 2N quadratures z = (x_a, p_a, x_b, p_b, x_c, p_c, ...), with the
convention x = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2) and vacuum
variance 1/2.  A carries the symplectic Hamiltonian flow plus -rate/2
damping, D = diag(rate * (2 n_bath + 1) / 2) per quadrature.

Being linear, each stretch of a stroke is an affine map on the moments, <z> ->
Phi <z> and sigma -> Phi sigma Phi^T + Q.  Both come from the propagator Z of
Van Loan's block generator M = [[A, D], [0, -A^T]] (C. Van Loan, IEEE TAC 23,
395 (1978)): Phi = Z_11 and Q = Z_12 Z_11^T, which holds for time-dependent A
as well.  Every block of modes is mapped by one rule: its own block of M,
exponentiated by ``_kernels.expm1``.  A run cuts a stroke into equal segments,
one per sample.  A block whose generator is constant over the stroke (every
block of a hold or exchange, and each target a ramp leaves free) is mapped
exactly by one exponential over that width, the one map all segments share.
Only a ramp's pair (a, b) takes fourth-order Magnus substeps, at most 1/f_max
long for the stroke's largest frequency scale f_max.  A substep's exponent
needs delta only through its two moments (``StrokeSpan.delta_moments``), which
a tabulated ramp profile gives exactly over the linear pieces between its
knots, so its kinks cap no order and cut no substep.

Error control: each ramp is run with m and 2m substeps per segment (m = 2, 4,
8, ...); the ramp is accepted once the two agree within 15 tol at every
sample, and the 2m result is kept.  A hold or exchange takes no substeps, so
its maps are the same at every m and it runs at m = 2 alone.  A stroke's maps
at each m are one stack over its samples, built with its generator in one pass
and kept in one ``propagate`` call by its place in the cycle, the local ends
of the run's part of it and m, so later cycles reuse the first cycle's stacks;
the run returns the stack it applied to each part as ``Samples.stroke_maps``.
A non-finite drift, map, state or error estimate raises IntegrationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import _kernels
from .errors import IntegrationError
from .params import SystemParams
from .polariton import PolaritonBasis, moment_occupations, symplectic_form
from .schedule import CycleSchedule, Samples, StrokeKind, StrokeSpan, span_fmax, stroke_walk

SYMMETRY_TOL = 1e-12
UNCERTAINTY_TOL = 1e-9
_MAX_REFINE = 13  # the finest level is 2^15
# substeps per Magnus-4 stack, which a stroke's segments share: the Taylor
# exponential holds a stack's powers X..X^s at once, so it sets their peak memory
_CHUNK = 128


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and quadrature covariance matrix of a Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise ValueError("mean must be a flat vector of length 2N")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov must be 2N x 2N")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def check_samples(times, means: np.ndarray, covs: np.ndarray):
    """Bare-mode occupations and the smallest eigenvalue of cov + i J / 2
    (>= 0 for a physical state) of stacked samples, once every sample has a
    symmetric covariance, and that eigenvalue and every occupation at least
    -UNCERTAINTY_TOL.

    The first failing sample raises IntegrationError for the first check it
    fails, at its time.  A NaN fails every check (each check passes only on
    a true comparison).
    """
    scale = np.maximum(1.0, np.abs(covs).max(axis=(-2, -1)))
    asym = np.abs(covs - np.swapaxes(covs, -1, -2)).max(axis=(-2, -1))
    symmetric = asym <= SYMMETRY_TOL * scale
    # eigvalsh cannot take a non-finite matrix, which the symmetry check refuses
    J = symplectic_form(means.shape[-1] // 2)
    min_eig = np.linalg.eigvalsh(np.where(symmetric[:, None, None], covs, 0.0)
                                 + 0.5j * J).min(axis=-1)
    occupations = moment_occupations(means, covs)
    failures = (
        (~symmetric, lambda k: f"covariance asymmetry {asym[k]:.3e}"),
        (~(min_eig >= -UNCERTAINTY_TOL),
         lambda k: f"uncertainty relation violated (min eig {min_eig[k]:.3e})"),
        (~(occupations.min(axis=-1) >= -UNCERTAINTY_TOL), lambda k: "negative mode occupation"),
    )
    bad = np.any([mask for mask, _ in failures], axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        text = next(text(k) for mask, text in failures if mask[k])
        raise IntegrationError(f"{text} at t={times[k]}", time=float(times[k]))
    return occupations, min_eig


def thermal_state(occupations, time: float = 0.0) -> GaussianState:
    """Product thermal state in the bare-mode basis (zero means)."""
    occupations = np.asarray(occupations, dtype=float)
    if not np.all((occupations >= 0) & (occupations < np.inf)):  # NaN fails too
        raise ValueError(f"occupations must be finite and non-negative, got {occupations.tolist()}")
    diag = np.repeat(occupations + 0.5, 2)
    return GaussianState(
        mean=np.zeros(2 * occupations.size),
        cov=np.diag(diag),
        time=time,
    )


def polariton_initial_state(
    basis: PolaritonBasis, n_A: float, n_B: float, target_occupations=(),
    time: float = 0.0,
) -> GaussianState:
    """Thermal state specified in the polariton basis of the (a, b) pair.

    The target modes are bare thermal modes; the (a, b) block is the inverse
    symplectic image of a polariton-diagonal thermal covariance.
    """
    if n_A < 0 or n_B < 0:
        raise ValueError("polariton occupations must be non-negative")
    state = thermal_state([n_A, n_B, *target_occupations], time)
    s_inv = basis.inverse()
    state.cov[:4, :4] = s_inv @ state.cov[:4, :4] @ s_inv.T
    return state


def _stroke_generator(params: SystemParams, span: StrokeSpan):
    """The (3, 2n, 2n) stack (M0, E, [M0, E]) of the stroke's Van Loan
    generator M0 + delta E.

    M(delta) = [[A(delta), D], [0, -A(delta)^T]].  Each mode (a, b,
    targets...) rotates at its frequency and damps at -rate/2 in A, and
    diffuses at rate * (n_bath + 1/2) per quadrature in D.  The cavity's
    frequency -delta is the only entry that depends on the detuning, so it
    enters through the constant E alone.  The optomechanical coupling enters
    the momenta as -2g x; an exchange span adds its beam-splitter block.
    """
    rates = np.array([params.kappa] + [params.gamma] * (params.n_modes - 1))
    baths = np.array([params.n_a, params.n_b, *params.n_targets])
    freqs = np.array([0.0, params.omega_b, *params.delta_targets])
    x = np.arange(0, 2 * params.n_modes, 2)
    A = np.diag(np.repeat(-0.5 * rates, 2))
    A[x, x + 1] = freqs
    A[x + 1, x] -= freqs
    A[[1, 3], [2, 0]] -= 2.0 * params.g
    if span.pulsed is not None:
        c = 4 + 2 * span.pulsed
        A[[2, c], [c + 1, 3]] = span.amplitude
        A[[3, c + 1], [c, 2]] = -span.amplitude
    n = A.shape[0]
    M0 = np.zeros((2 * n, 2 * n))
    M0[:n, :n] = A
    M0[:n, n:] = np.diag(np.repeat(rates * (baths + 0.5), 2))
    M0[n:, n:] = -A.T
    E = np.zeros_like(M0)
    E[0, 1] = E[n, n + 1] = -1.0
    E[1, 0] = E[n + 1, n] = 1.0
    return np.stack((M0, E, M0 @ E - E @ M0))


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """(I + later)(I + earlier) - I, for propagators held as I + Y."""
    return later + earlier + later @ earlier


def _chain(Y: np.ndarray) -> np.ndarray:
    """Time-ordered products of the propagators I + Y[:, k] over a power-of-two
    count of k, minus I, by pairwise reduction; trailing identities (Y = 0)
    change them in no bit, so they pad any count."""
    while Y.shape[1] > 1:
        Y = _compose(Y[:, 1::2], Y[:, ::2])
    return Y[:, 0]


def _stroke_maps(span: StrokeSpan, generator, start, stop, count, level: int, fmax: float):
    """Stacked (Phi, Q) of the stroke over the ``count`` equal intervals from
    local time ``start`` to ``stop``.  Each block of modes takes its 2n x 2n
    Van Loan generator, so Phi and Q come from one propagator.  A block whose
    generator is constant over the stroke (every block of a hold or exchange,
    and each free target) takes one exponential, exact at any ``level``, the
    one map all intervals share.
    A ramp's coupled block cuts each into m = ``level`` times ceil(width * fmax)
    Magnus-4 substeps whatever ramp-table knots they hold, substep k at k h past
    start, h = width / m, in stacks of at most ``_CHUNK`` chained slice by slice."""
    n = generator.shape[-1] // 2
    width = (stop - start) / count

    coupled = [0, 1] + ([] if span.pulsed is None else [2 + span.pulsed])
    free = [mode for mode in range(2, n // 2) if mode not in coupled]
    phi, noise = np.zeros((2, count, n, n))
    for modes in filter(None, (coupled, free)):
        q = (2 * np.array(modes)[:, None] + (0, 1)).ravel()
        rows = np.concatenate((q, n + q))
        G = generator[:, rows[:, None], rows]
        if modes is free or span.kind is not StrokeKind.RAMP_DETUNING:
            # a constant generator, delta at delta0 (E is zero on a free target's block)
            Y = _kernels.expm1(width * (G[0] + span.delta0 * G[1])[None])
        else:
            m = level * max(1, math.ceil(width * fmax - 1e-9))
            h = width / m
            Y = np.zeros((count,) + G.shape[1:])
            # the grid is formed a stack at a time, so its memory does not grow with level
            for i in range(0, count * m, _CHUNK):
                k = np.arange(i, min(i + _CHUNK, count * m))
                Z = _kernels.magnus4(G, start + k * h, np.full(k.size, h), span.delta_moments)
                # each interval's substeps in the stack as one row, padded with identities
                s = k // m
                col = k - np.maximum(s * m, i)
                pad = np.zeros((s[-1] - s[0] + 1, 1 << int(col.max()).bit_length()) + Z.shape[1:])
                pad[s - s[0], col] = Z
                Y[s[0]:s[-1] + 1] = _compose(_chain(pad), Y[s[0]:s[-1] + 1])
        phi[:, q[:, None], q] = block = np.eye(q.size) + Y[:, :q.size, :q.size]
        noise[:, q[:, None], q] = Y[:, :q.size, q.size:] @ np.swapaxes(block, -1, -2)
    return phi, 0.5 * (noise + np.swapaxes(noise, -1, -2))


def _then(a, b):
    """The map ``a`` = (Phi, Q), or the state ``a`` = (mean, cov), followed by ``b``."""
    c = b[0] @ a[1] @ b[0].T + b[1]
    return b[0] @ a[0], 0.5 * (c + c.T)


def propagate(
    state: GaussianState,
    schedule: CycleSchedule,
    t_end: float,
    tol: float = 1e-8,
    *,
    params: SystemParams,
    samples_per_stroke: int = 32,
) -> Samples:
    """Propagate a Gaussian state through the schedule up to ``t_end``.

    ``params`` supplies the frequencies, couplings and rates.  The samples
    lie on the ``schedule.stroke_walk`` grid (whose walk checks the strokes)
    and pass the state invariants.  ``stroke_maps`` holds, in walk order,
    the accepted (Phi, Q) stack that carried each part's entry to its samples.
    """
    if state.n_modes != params.n_modes:
        raise ValueError(
            f"state has {state.n_modes} modes but params describe {params.n_modes}"
        )
    t0 = state.time
    walk = stroke_walk(schedule, t0, t_end, samples_per_stroke, params=params)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")

    mean, cov = state.mean, state.cov
    times, means, covs, applied = [[t0]], [mean[None]], [cov[None]], []
    # each stroke's maps, stacked over its samples, keyed by its place in the
    # cycle, the part of it the run crosses and the level: later cycles reuse
    # the first cycle's stacks, and a partial stroke builds its own
    maps = {}

    for span, seg_start, ends in walk:
        start, stop = seg_start - span.t_start, ends[-1] - span.t_start
        part = (span.position, *(round(x / span.duration, 12) for x in (start, stop)))
        ramp = span.kind is StrokeKind.RAMP_DETUNING

        def sweep(level):
            """The stroke's samples, stacked (means, covs), reached by its maps at ``level``."""
            if (part, level) not in maps:
                generator = _stroke_generator(params, span)
                if not np.all(np.isfinite(generator[0])):
                    raise IntegrationError(f"non-finite drift in stroke {span.index}",
                                           time=seg_start)
                phis, qs = maps[part, level] = _stroke_maps(
                    span, generator, start, stop, ends.size, level,
                    span_fmax(span, params) if ramp else 0.0)
                if not (np.all(np.isfinite(phis)) and np.all(np.isfinite(qs))):
                    raise IntegrationError(
                        f"non-finite stroke map in stroke {span.index}", time=seg_start)
            ms, cs = zip(*accumulate(zip(*maps[part, level]), _then, initial=(mean, cov)))
            return np.stack(ms[1:]), np.stack(cs[1:])

        # each attempt checks the next level against the last one, so a
        # refused fine sweep becomes the coarse sweep of the next attempt.  A
        # ramp starts at (2, 4): (1, 2), one substep per 1/fmax, passed no ramp
        # of the bundled configs or the design pool.  A constant stroke's
        # maps are the same at every level, so its level-2 sweep is compared
        # with itself, which checks only that it is finite
        level = 2 if ramp else 1
        coarse = sweep(level) if ramp else None
        for attempt in range(_MAX_REFINE + 1):
            fine = sweep(2 * level)
            # np.max keeps a NaN, where the builtin max() may drop it
            err = np.max([np.abs(f - c).max() for f, c in zip(fine, coarse or fine)]) / 15.0
            if not math.isfinite(err):
                raise IntegrationError(f"non-finite state or error estimate in stroke "
                                       f"{span.index}", time=seg_start)
            if err <= tol:
                break
            # a fourth-order estimate falls ~16x per doubling; one that does
            # not halve has hit the roundoff floor, below which tol is out of reach
            stalled = attempt > 0 and err > 0.5 * prev_err
            if stalled or attempt == _MAX_REFINE:
                raise IntegrationError(
                    f"step refinement {'stalled' if stalled else 'exhausted'} in stroke "
                    f"{span.index} (error {err:.3e} > tol {tol:.3e})",
                    time=seg_start,
                )
            prev_err = err
            coarse, level = fine, 2 * level

        applied.append(maps[part, 2 * level])
        mean, cov = fine[0][-1], fine[1][-1]
        times.append(ends)
        means.append(fine[0])
        covs.append(fine[1])

    times, means, covs = (np.concatenate(x) for x in (times, means, covs))
    occupations, min_eigs = check_samples(times, means, covs)
    return Samples(
        times=times, occupations=occupations, means=means, covs=covs,
        physicality=min_eigs, leakage=None,
        final_state=GaussianState(mean=means[-1], cov=covs[-1], time=float(times[-1])),
        stroke_maps=tuple(applied),
    )
