"""Brute-force master-equation integration on a truncated Fock space.

This engine propagates the full density matrix

    drho/dt = -i [H(t), rho] + kappa L_a[rho] + gamma (L_b[rho] + L_c[rho] + ...)

with the standard thermal dissipator

    L[rho] = (n+1) (a rho a^dag - {a^dag a, rho}/2) + n (a^dag rho a - {a a^dag, rho}/2)

so that a lone mode relaxes as d<N>/dt = -rate (<N> - n).  It exists to
cross-validate the Gaussian engine at small scale, so it favors exactness
and transparency over reach: fixed-step RK4 (reproducible baselines), dense
complex density matrix, and matrix-free superoperator application -- the
Hamiltonian acts through one dense matrix product, the jump terms through
index shifts on the reshaped density tensor, so memory stays O(d^2) rather
than the O(d^4) of a full Liouvillian.  As an independent oracle it shares
only the schedule with the Gaussian engine (its stroke walk, sample grid and
step-size scale), never the Gaussian engine's code.

Truncation is monitored continuously: the population of the top retained
Fock level of each mode is tracked at every step and a TruncationError is
raised when it crosses the configured threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import IntegrationError, TruncationError
from .params import SystemParams
from .schedule import CycleSchedule, span_fmax, stroke_walk

TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
DEFAULT_LEAKAGE_THRESHOLD = 1e-3


@dataclass(frozen=True)
class FockState:
    """Density matrix on a product of truncated Fock spaces."""

    rho: np.ndarray
    cutoffs: tuple[int, ...]
    time: float = 0.0

    def __post_init__(self):
        cutoffs = tuple(int(c) for c in self.cutoffs)
        object.__setattr__(self, "cutoffs", cutoffs)
        if any(c < 2 for c in cutoffs):
            raise ValueError("every cutoff must be at least 2")
        d = int(np.prod(cutoffs))
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (d, d):
            raise ValueError(f"rho must be {d} x {d} for cutoffs {cutoffs}")
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def n_modes(self) -> int:
        return len(self.cutoffs)

    def trace_error(self) -> float:
        return abs(float(np.trace(self.rho).real) - 1.0) + abs(float(np.trace(self.rho).imag))

    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T)).min())

    def leakage(self) -> np.ndarray:
        """Population of the top retained Fock level, per mode."""
        diag = np.real(np.einsum("ii->i", self.rho)).reshape(self.cutoffs)
        return np.array(
            [np.sum(np.take(diag, self.cutoffs[m] - 1, axis=m)) for m in range(self.n_modes)]
        )

    def validate(self, trace_tol: float = TRACE_TOL,
                 hermiticity_tol: float = HERMITICITY_TOL,
                 positivity_tol: float = POSITIVITY_TOL) -> float:
        """Check trace, hermiticity and positivity; return the
        ``min_eigenvalue`` the check computed."""
        terr = self.trace_error()
        if terr > trace_tol:
            raise IntegrationError(f"trace deviates by {terr:.3e} at t={self.time}", time=self.time)
        herr = self.hermiticity_error()
        if herr > hermiticity_tol:
            raise IntegrationError(
                f"hermiticity deviates by {herr:.3e} at t={self.time}", time=self.time
            )
        mineig = self.min_eigenvalue()
        if mineig < -positivity_tol:
            raise IntegrationError(
                f"negative eigenvalue {mineig:.3e} at t={self.time}; reduce the step size",
                time=self.time,
            )
        return mineig


class ModeOperators:
    """Annihilation/number operators for each mode, embedded in the product space."""

    def __init__(self, cutoffs):
        self.cutoffs = tuple(int(c) for c in cutoffs)
        if any(c < 2 for c in self.cutoffs):
            raise ValueError("every cutoff must be at least 2")
        self.dim = int(np.prod(self.cutoffs))
        eyes = [np.eye(c) for c in self.cutoffs]
        self.annihilation = []
        for m, c in enumerate(self.cutoffs):
            a = np.diag(np.sqrt(np.arange(1.0, c)), k=1)
            factors = list(eyes)
            factors[m] = a
            self.annihilation.append(reduce(np.kron, factors))
        # number operators are diagonal; keep the diagonals
        self.number_diag = []
        self.lower_diag = []  # diag of a a^dag on the truncated space (top level -> 0)
        for m, c in enumerate(self.cutoffs):
            nvec = np.arange(c, dtype=float)
            self.number_diag.append(self._embed_diag(nvec, m))
            low = np.arange(1.0, c + 1)
            low[-1] = 0.0
            self.lower_diag.append(self._embed_diag(low, m))
        self._quad_cache = None

    def _embed_diag(self, vec, mode):
        shape = [1] * len(self.cutoffs)
        shape[mode] = self.cutoffs[mode]
        return np.broadcast_to(vec.reshape(shape), self.cutoffs).reshape(self.dim).copy()

    def number(self, mode: int) -> np.ndarray:
        return np.diag(self.number_diag[mode])

    def quad_operators(self, modes=(0, 1)):
        """First-moment quadrature operators and their symmetrized pair
        products for ``modes``, cached (transposed for fast traces)."""
        if self._quad_cache is not None and self._quad_cache[0] == tuple(modes):
            return self._quad_cache[1], self._quad_cache[2]
        quads = []
        for m in modes:
            a = self.annihilation[m]
            quads.append((a + a.conj().T) / np.sqrt(2.0))
            quads.append(-1j * (a - a.conj().T) / np.sqrt(2.0))
        firsts = [np.ascontiguousarray(q.T) for q in quads]
        k = len(quads)
        seconds = {}
        for i in range(k):
            for j in range(i, k):
                sym = 0.5 * (quads[i] @ quads[j] + quads[j] @ quads[i])
                seconds[(i, j)] = np.ascontiguousarray(sym.T)
        self._quad_cache = (tuple(modes), firsts, seconds)
        return firsts, seconds


def build_operators(cutoffs) -> ModeOperators:
    """Per-mode ladder and number operators on the tensor-product space."""
    return ModeOperators(cutoffs)


def thermal_state(cutoffs, occupations, time: float = 0.0,
                  leakage_threshold: float = DEFAULT_LEAKAGE_THRESHOLD) -> FockState:
    """Product of truncated, renormalized thermal (geometric) states.

    Rejects occupations whose geometric tail beyond the cutoff exceeds the
    leakage threshold, since the truncated state could not represent them.
    """
    cutoffs = tuple(int(c) for c in cutoffs)
    occupations = [float(n) for n in occupations]
    if len(occupations) != len(cutoffs):
        raise ValueError("need one occupation per mode")
    diags = []
    for c, n in zip(cutoffs, occupations):
        if n < 0:
            raise ValueError("occupations must be non-negative")
        if n == 0:
            w = np.zeros(c)
            w[0] = 1.0
        else:
            q = n / (n + 1.0)
            tail = q**c
            if tail > leakage_threshold:
                raise TruncationError(
                    f"thermal occupation {n} needs more than {c} levels "
                    f"(tail mass {tail:.3e} > {leakage_threshold:.1e})",
                    mode=len(diags), leakage=tail,
                )
            w = (1.0 - q) * q ** np.arange(c)
            w /= w.sum()
        diags.append(w)
    rho = np.diag(reduce(np.kron, diags).astype(complex))
    return FockState(rho=rho, cutoffs=cutoffs, time=time)


def number_state(cutoffs, levels, time: float = 0.0) -> FockState:
    """Product Fock number state |n1, n2, ...><...|."""
    cutoffs = tuple(int(c) for c in cutoffs)
    levels = [int(n) for n in levels]
    if len(levels) != len(cutoffs):
        raise ValueError("need one level per mode")
    for c, n in zip(cutoffs, levels):
        if not 0 <= n < c:
            raise ValueError(f"level {n} outside cutoff {c}")
    index = 0
    for c, n in zip(cutoffs, levels):
        index = index * c + n
    d = int(np.prod(cutoffs))
    rho = np.zeros((d, d), dtype=complex)
    rho[index, index] = 1.0
    return FockState(rho=rho, cutoffs=cutoffs, time=time)


def mode_occupations(state: FockState, ops: ModeOperators | None = None) -> np.ndarray:
    """Mean occupation <a^dag a> per mode."""
    if ops is None:
        ops = ModeOperators(state.cutoffs)
    diag = np.real(np.einsum("ii->i", state.rho))
    return np.array([float(np.dot(nv, diag)) for nv in ops.number_diag])


def quadrature_moments(state: FockState, ops: ModeOperators, modes=(0, 1)):
    """Mean vector and symmetric covariance of the quadratures of ``modes``.

    Uses x = (a + a^dag)/sqrt(2), p = -i (a - a^dag)/sqrt(2) and the
    symmetrized second moment, matching the Gaussian-engine convention, so
    polariton observables can be computed identically for both engines.
    """
    rho = state.rho
    firsts, seconds = ops.quad_operators(modes)
    # tr(Q rho) as an elementwise sum against the pre-transposed operator
    mean = np.array([float(np.sum(qt * rho).real) for qt in firsts])
    k = len(firsts)
    cov = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            val = float(np.sum(seconds[(i, j)] * rho).real) - mean[i] * mean[j]
            cov[i, j] = cov[j, i] = val
    return mean, cov


def _sandwich_slices(n_modes, mode, lowering):
    """(dst, src) slice tuples for a rho a^dag (lowering) or a^dag rho a on the
    density tensor reshaped to (cutoffs + cutoffs)."""
    src = [slice(None)] * (2 * n_modes)
    dst = [slice(None)] * (2 * n_modes)
    hi, lo = slice(1, None), slice(0, -1)
    row, col = mode, mode + n_modes
    if lowering:
        src[row] = src[col] = hi
        dst[row] = dst[col] = lo
    else:
        src[row] = src[col] = lo
        dst[row] = dst[col] = hi
    return tuple(dst), tuple(src)


@dataclass(frozen=True)
class FockTrajectory:
    """Occupation trajectory plus per-sample invariant metrics.

    Full density matrices are not stored (d^2 complex entries per sample adds
    up quickly); the final state is kept, and the quadrature moments of the
    (a, b) pair are recorded so polariton observables can be reconstructed.
    """

    times: np.ndarray
    occupations: np.ndarray
    ab_means: np.ndarray
    ab_covs: np.ndarray
    leakage: np.ndarray
    trace_errors: np.ndarray
    hermiticity_errors: np.ndarray
    min_eigenvalues: np.ndarray
    final_state: FockState
    cutoffs: tuple[int, ...]

    def __len__(self) -> int:
        return self.times.size


class _Generator:
    """Pieces of the master-equation right-hand side, precomputed per system.

    The right-hand side is evaluated as Y + Y^dag + jump sandwiches, with

        Y = -i H_off rho + L[:, None] * rho,
        L = damp_diag - i h_diag(t),

    which folds the diagonal Hamiltonian commutator and every dissipator
    anticommutator into a single broadcast multiply (rho stays Hermitian
    through all RK4 stages, so the mirror term is just Y^dag).  The jump
    sandwiches a rho a^dag / a^dag rho a are index shifts on the reshaped
    density tensor with rate-scaled sqrt factors, accumulated in place.
    """

    def __init__(self, params: SystemParams, ops: ModeOperators):
        if len(ops.cutoffs) != params.n_modes:
            raise ValueError(
                f"cutoffs describe {len(ops.cutoffs)} modes, params {params.n_modes}"
            )
        self.params = params
        self.ops = ops
        self.dim = ops.dim
        n_modes = params.n_modes
        a_op, b_op = ops.annihilation[0], ops.annihilation[1]
        qa = a_op + a_op.conj().T
        qb = b_op + b_op.conj().T
        self.h_couple = (params.g * (qb @ qa)).astype(complex)
        self.h_exchange = []
        for k in range(2, n_modes):
            c_op = ops.annihilation[k]
            self.h_exchange.append((b_op.conj().T @ c_op + c_op.conj().T @ b_op).astype(complex))
        self.diag_static = params.omega_b * ops.number_diag[1].copy()
        for k, dt in enumerate(params.delta_targets):
            self.diag_static += dt * ops.number_diag[2 + k]
        self.na_diag = ops.number_diag[0]

        rates = [params.kappa, params.gamma] + [params.gamma] * len(params.delta_targets)
        nbars = [params.n_a, params.n_b, *params.n_targets]
        self.damp_diag = np.zeros(self.dim)
        self.jumps = []
        for m in range(n_modes):
            rate, nbar = rates[m], nbars[m]
            if rate == 0.0:
                continue
            self.damp_diag -= 0.5 * rate * (
                (nbar + 1.0) * ops.number_diag[m] + nbar * ops.lower_diag[m]
            )
            sq = np.sqrt(np.arange(1.0, ops.cutoffs[m]))
            row = [1] * (2 * n_modes)
            row[m] = sq.size
            col = [1] * (2 * n_modes)
            col[m + n_modes] = sq.size
            factor = sq.reshape(row) * sq.reshape(col)
            self.jumps.append(
                (_sandwich_slices(n_modes, m, True), rate * (nbar + 1.0) * factor)
            )
            if nbar > 0.0:
                self.jumps.append(
                    (_sandwich_slices(n_modes, m, False), rate * nbar * factor)
                )
        self.tensor_shape = ops.cutoffs + ops.cutoffs

    def h_offdiag(self, omega0_target: int, omega0_amp: float) -> np.ndarray:
        h = self.h_couple
        if omega0_amp != 0.0:
            h = h + omega0_amp * self.h_exchange[omega0_target]
        return h

    def rhs(self, rho: np.ndarray, h_off: np.ndarray, delta_now: float) -> np.ndarray:
        lvec = self.damp_diag - 1j * (self.diag_static - delta_now * self.na_diag)
        y = h_off @ rho
        y *= -1j
        y += lvec[:, None] * rho
        drho = y + y.conj().T
        drho6 = drho.reshape(self.tensor_shape)
        rho6 = rho.reshape(self.tensor_shape)
        for (dst, src), factor in self.jumps:
            drho6[dst] += rho6[src] * factor
        return drho


def propagate_fock(
    state: FockState,
    params: SystemParams,
    schedule: CycleSchedule,
    t_end: float,
    dt: float | None = None,
    samples_per_stroke: int = 16,
    leakage_threshold: float = DEFAULT_LEAKAGE_THRESHOLD,
) -> FockTrajectory:
    """Integrate the master equation through the schedule up to ``t_end``.

    ``dt`` caps the RK4 step; the default (and the validated upper bound) is
    1/(50 f_max) for the largest frequency scale f_max of each stroke.  The
    trajectory is sampled on the ``schedule.stroke_walk`` grid.  Top
    Fock-level population is checked after every step against
    ``leakage_threshold``; trace, hermiticity and positivity are checked at
    every output sample.
    """
    ops = ModeOperators(state.cutoffs)
    gen = _Generator(params, ops)
    t0 = state.time
    walk = stroke_walk(schedule, t0, t_end, samples_per_stroke)

    rho = np.array(state.rho, dtype=complex)
    rho = 0.5 * (rho + rho.conj().T)

    times = [t0]
    records = []

    def record(r, t):
        st = FockState(rho=r, cutoffs=state.cutoffs, time=t)
        occ = mode_occupations(st, ops)
        mean, cov = quadrature_moments(st, ops)
        records.append((occ, mean, cov, st.leakage(), st.trace_error(),
                        st.hermiticity_error(), st.validate()))

    record(rho, t0)

    for span, seg_start, targets_local in walk:
        h_off = gen.h_offdiag(span.target if span.target is not None else 0, span.amplitude)
        dt_max = 1.0 / (50.0 * span_fmax(span, params))
        dt_target = dt_max if dt is None else min(dt, dt_max)
        if dt is not None and dt > dt_max * (1.0 + 1e-9):
            raise ValueError(
                f"dt={dt} too coarse for stroke {span.index}; need dt <= {dt_max:.3e}"
            )

        t_now = seg_start
        for t_target in targets_local:
            length = t_target - t_now
            nsteps = max(1, int(np.ceil(length / dt_target - 1e-12)))
            h = length / nsteps
            for k in range(nsteps):
                t_loc = (t_now - span.t_start) + k * h
                d0 = span.delta_at_local(t_loc)
                dh = span.delta_at_local(t_loc + 0.5 * h)
                d1 = span.delta_at_local(t_loc + h)
                k1 = gen.rhs(rho, h_off, d0)
                k2 = gen.rhs(rho + 0.5 * h * k1, h_off, dh)
                k3 = gen.rhs(rho + 0.5 * h * k2, h_off, dh)
                k4 = gen.rhs(rho + h * k3, h_off, d1)
                rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                rho = 0.5 * (rho + rho.conj().T)
                diag = np.real(np.einsum("ii->i", rho)).reshape(state.cutoffs)
                for m in range(len(state.cutoffs)):
                    leak = float(np.sum(np.take(diag, state.cutoffs[m] - 1, axis=m)))
                    if leak > leakage_threshold:
                        raise TruncationError(
                            f"top-level population {leak:.3e} of mode {m} exceeds "
                            f"{leakage_threshold:.1e} at t={t_now + (k + 1) * h:.6g}; "
                            "increase the cutoff",
                            time=t_now + (k + 1) * h, mode=m, leakage=leak,
                        )
            t_now = t_target
            times.append(t_now)
            record(rho, t_now)

    occ = np.array([r[0] for r in records])
    means = np.array([r[1] for r in records])
    covs = np.array([r[2] for r in records])
    leaks = np.array([r[3] for r in records])
    return FockTrajectory(
        times=np.asarray(times),
        occupations=occ,
        ab_means=means,
        ab_covs=covs,
        leakage=leaks,
        trace_errors=np.array([r[4] for r in records]),
        hermiticity_errors=np.array([r[5] for r in records]),
        min_eigenvalues=np.array([r[6] for r in records]),
        final_state=FockState(rho=rho, cutoffs=state.cutoffs, time=times[-1]),
        cutoffs=state.cutoffs,
    )
