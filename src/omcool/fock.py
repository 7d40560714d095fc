"""Brute-force master-equation integration on a truncated Fock space.

This engine propagates the full density matrix

    drho/dt = -i [H(t), rho] + kappa L_a[rho] + gamma (L_b[rho] + L_c[rho] + ...)

with the standard thermal dissipator

    L[rho] = (n+1) (a rho a^dag - {a^dag a, rho}/2) + n (a^dag rho a - {a a^dag, rho}/2)

so that a lone mode relaxes as d<N>/dt = -rate (<N> - n).  It exists to
cross-validate the Gaussian engine at small scale, so it favors exactness
and transparency over reach: fixed-step RK4 (reproducible baselines), the
density matrix held as dense complex blocks, and matrix-free superoperator
application.  The RK4
step of each sample segment is 1/(50 f) for the largest frequency scale f on
that segment, with the detuning taken at the segment's two ends (every ramp
shape is monotone, so these bound it); a caller's ``dt`` caps the step and
must not exceed the stroke-wide 1/(50 f_max).

Every term of the master equation conserves the total excitation parity
P = (-1)^(n_a + n_b + ...): g (a + a^dag)(b + b^dag) changes the total
number by 0 or +-2, omega_0 (b^dag c + c^dag b) keeps it, the diagonal
terms are diagonal, and each jump a rho a^dag flips the parity of the row
and of the column together.  With the basis sorted by parity, rho is four
blocks rho_pq, and the cross blocks (p != q) are never fed from the
diagonal ones.  The step loop therefore carries rho as its two diagonal
blocks, plus the cross blocks only when the initial rho has a nonzero entry
there, in one flat buffer; a thermal start carries d^2/2 entries for an
even d.  In the generator the Hamiltonian acts through weighted row gathers
inside each block and the jump terms through weighted flat gathers between
blocks, so no d x d operator product (nor a multi-threaded BLAS call) runs
in the step loop and every entry sees the same operations, in the same
order, as on the full matrix.  The memory is O(d^2) rather than the O(d^4)
of a full Liouvillian: the RK4 buffers, the generator's two scratch
buffers, and an index and a weight per carried entry for each jump term
(about 8 MB at cutoffs (6, 6, 8)).  Each output sample reassembles the
natural-order d x d rho for the observables and the checks; the quadrature
moments are traces along its diagonals, again with no d x d operator.  As
an independent oracle it shares only the schedule with the Gaussian engine
(its stroke walk, sample grid and step-size scale), never the Gaussian
engine's code.

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
from .schedule import CycleSchedule, Samples, StrokeSpan, span_fmax, stroke_walk

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

    def trace_error(self) -> float:
        tr = np.trace(self.rho)
        return abs(float(tr.real) - 1.0) + abs(float(tr.imag))

    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T)).min())

    def validate(self) -> float:
        """Check trace, hermiticity and positivity; return the
        ``min_eigenvalue`` the positivity check computed."""
        terr = self.trace_error()
        if terr > TRACE_TOL:
            raise IntegrationError(f"trace deviates by {terr:.3e} at t={self.time}", time=self.time)
        herr = self.hermiticity_error()
        if herr > HERMITICITY_TOL:
            raise IntegrationError(
                f"hermiticity deviates by {herr:.3e} at t={self.time}", time=self.time
            )
        mineig = self.min_eigenvalue()
        if mineig < -POSITIVITY_TOL:
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
        # number operators are diagonal; keep the diagonals
        self.number_diag = []
        self.lower_diag = []  # diag of a a^dag on the truncated space (top level -> 0)
        for m, c in enumerate(self.cutoffs):
            nvec = np.arange(c, dtype=float)
            self.number_diag.append(self._embed_diag(nvec, m))
            low = np.arange(1.0, c + 1)
            low[-1] = 0.0
            self.lower_diag.append(self._embed_diag(low, m))
        # ladder operators as (offset, weight) shifts of the flat index: for the
        # stride s of mode m, (a rho)[i] = sqrt(n_i + 1) rho[i + s] and
        # (a^dag rho)[i] = sqrt(n_i) rho[i - s], the weights vanishing wherever
        # the shift would leave the truncated space
        strides = [int(np.prod(self.cutoffs[m + 1:])) for m in range(len(self.cutoffs))]
        self.lowering = [(s, np.sqrt(w)) for s, w in zip(strides, self.lower_diag)]
        self.raising = [(-s, np.sqrt(n)) for s, n in zip(strides, self.number_diag)]

    def _embed_diag(self, vec, mode):
        shape = [1] * len(self.cutoffs)
        shape[mode] = self.cutoffs[mode]
        return np.broadcast_to(vec.reshape(shape), self.cutoffs).reshape(self.dim).copy()

    def number(self, mode: int) -> np.ndarray:
        return np.diag(self.number_diag[mode])

    def annihilation(self, mode: int) -> np.ndarray:
        """Dense d x d annihilation operator of ``mode``, built on demand."""
        factors = [np.eye(c) for c in self.cutoffs]
        factors[mode] = np.diag(np.sqrt(np.arange(1.0, self.cutoffs[mode])), k=1)
        return reduce(np.kron, factors)


def _compose(x, y):
    """The shift of the product x y of two shifts (offset, weight):
    (x y rho)[i] = w_x[i] w_y[i + o_x] rho[i + o_x + o_y]."""
    (ox, wx), (oy, wy) = x, y
    wy_at = np.zeros_like(wy)
    if ox >= 0:
        wy_at[: wy.size - ox] = wy[ox:]
    else:
        wy_at[-ox:] = wy[: wy.size + ox]
    return ox + oy, wx * wy_at


def _expect(rho: np.ndarray, op) -> complex:
    """tr(O rho) of a shift O = (offset, weight): sum_i w[i] rho[i + o, i]."""
    o, w = op
    return complex(np.dot(w[max(0, -o): w.size - max(0, o)], np.diagonal(rho, -o)))


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
    Every moment is built from traces tr(O rho) of ladder products O, each a
    weighted sum along one diagonal of rho, with <a_m> = (<x> + i <p>)/sqrt(2).
    """
    rho = state.rho
    diag = np.real(np.einsum("ii->i", rho))
    low = [ops.lowering[m] for m in modes]
    firsts = [_expect(rho, x) for x in low]
    mean = np.sqrt(2.0) * np.array([(z.real, z.imag) for z in firsts]).reshape(-1)
    second = np.empty((2 * len(modes), 2 * len(modes)))
    for i, m in enumerate(modes):
        sq = _expect(rho, _compose(low[i], low[i]))
        # a^dag a + a a^dag, diagonal; a a^dag lacks the top level when truncated
        half = 0.5 * float(np.dot(ops.number_diag[m] + ops.lower_diag[m], diag))
        second[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[half + sq.real, sq.imag],
                                                    [sq.imag, half - sq.real]]
        for j in range(i + 1, len(modes)):
            aa = _expect(rho, _compose(low[i], low[j]))  # <a_i a_j>
            da = _expect(rho, _compose(ops.raising[m], low[j]))  # <a_i^dag a_j>
            block = np.array([[aa.real + da.real, aa.imag + da.imag],
                              [aa.imag - da.imag, da.real - aa.real]])
            second[2 * i:2 * i + 2, 2 * j:2 * j + 2] = block
            second[2 * j:2 * j + 2, 2 * i:2 * i + 2] = block.T
    return mean, second - np.outer(mean, mean)


class _Generator:
    """Pieces of the master-equation right-hand side, precomputed per run.

    rho is carried as its parity blocks (see the module docstring): block
    (p, q) holds the rows of parity p and the columns of parity q, each in
    natural order, and the carried blocks lie one after the other in one flat
    buffer, each in row-major order (``split``/``join`` convert to and from
    the natural d x d matrix).  The right-hand side is evaluated block by
    block as Y + Y^dag + jump sandwiches, with

        Y = -i H_off rho + L[:, None] * rho,
        L = damp_diag - i h_diag(t),

    which folds the diagonal Hamiltonian commutator and every dissipator
    anticommutator into a single broadcast multiply (rho stays Hermitian
    through all RK4 stages, so the mirror term of block pq is Y_qp^dag).
    Nothing here is a d x d operator: H_off = g (a + a^dag)(b + b^dag)
    + omega_0 (b^dag c + c^dag b) is a few bands, each a weighted row gather
    inside a block, and each jump sandwich a rho a^dag reads the block of
    the flipped parities through a flat gather index, weighted by the
    rate-scaled outer product of the ladder weights.  Each entry sees the
    operations of the full-matrix evaluation in its order: L * rho, the
    bands in order, the mirror sum, the jumps in order.
    """

    def __init__(self, params: SystemParams, ops: ModeOperators, rho: np.ndarray):
        if len(ops.cutoffs) != params.n_modes:
            raise ValueError(
                f"cutoffs describe {len(ops.cutoffs)} modes, params {params.n_modes}"
            )
        d = self.dim = ops.dim
        n_modes = params.n_modes
        lower, upper = ops.lowering, ops.raising

        # the natural indices of each parity, and each index's place among them
        parity = np.add.reduce(ops.number_diag).astype(int) % 2
        natural = [np.flatnonzero(parity == p) for p in (0, 1)]
        order = np.concatenate(natural)  # parity-sorted: even states, then odd
        local = np.empty(d, dtype=np.intp)
        for nat in natural:
            local[nat] = np.arange(nat.size)
        sizes = [nat.size for nat in natural]
        self.rows = [slice(0, sizes[0]), slice(sizes[0], d)]  # of each parity in order
        # the cross blocks are carried only if the initial rho has them
        cross = bool(np.any(rho[np.ix_(natural[0], natural[1])] != 0))
        self.blocks = [(0, 0), (1, 1)] + ([(0, 1), (1, 0)] if cross else [])
        self.shapes = [(sizes[p], sizes[q]) for p, q in self.blocks]
        ends = np.cumsum([a * b for a, b in self.shapes])
        self.spans = [slice(int(e) - a * b, int(e)) for e, (a, b) in zip(ends, self.shapes)]
        self.size = int(ends[-1])
        self.mirror = [self.blocks.index((q, p)) for p, q in self.blocks]
        # natural flat index (row * d + column) of every carried entry
        self.flat_index = np.concatenate(
            [(natural[p][:, None] * d + natural[q][None, :]).reshape(-1)
             for p, q in self.blocks])
        # buffer position of each diagonal entry rho_ii, in natural order
        self.diagonal = np.empty(d, dtype=np.intp)
        for p, nat in enumerate(natural):
            self.diagonal[nat] = self.spans[p].start + np.arange(nat.size) * (nat.size + 1)

        def source(offset, weight):
            """Place, among its parity, of each natural index's source i + offset;
            0 where the weight vanishes (the term adds 0 there)."""
            return local[np.where(weight != 0, np.arange(d) + offset, 0)]

        def bands(scale, pairs):
            """The nonzero bands of ``scale`` times each product of two ladder
            shifts, as (source row, weight) per row in parity-sorted order."""
            shifts = ((o, scale * w) for o, w in (_compose(x, y) for x, y in pairs))
            return [(source(o, w)[order], w[order]) for o, w in shifts if np.any(w != 0)]

        # -i g (a + a^dag)(b + b^dag), and -i (b^dag c + c^dag b) per target
        self.couple = bands(-1j * params.g, [(x, y) for x in (lower[0], upper[0])
                                             for y in (lower[1], upper[1])])
        self.exchange = [bands(-1j, [(upper[1], lower[k]), (lower[1], upper[k])])
                         for k in range(2, n_modes)]
        diag_static = params.omega_b * ops.number_diag[1].copy()
        for k, dt in enumerate(params.delta_targets):
            diag_static += dt * ops.number_diag[2 + k]
        self.diag_static = diag_static[order]
        self.na_diag = ops.number_diag[0][order]

        rates = [params.kappa, params.gamma] + [params.gamma] * len(params.delta_targets)
        nbars = [params.n_a, params.n_b, *params.n_targets]
        damp_diag = np.zeros(d)
        self.jumps = []
        for m in range(n_modes):
            rate, nbar = rates[m], nbars[m]
            if rate == 0.0:
                continue
            damp_diag -= 0.5 * rate * (
                (nbar + 1.0) * ops.number_diag[m] + nbar * ops.lower_diag[m]
            )
            for (s, w), scale in ((lower[m], rate * (nbar + 1.0)), (upper[m], rate * nbar)):
                if scale == 0.0:
                    continue
                # block (p, q) reads block (1 - p, 1 - q) at rows and columns i + s
                src = source(s, w)
                gather, weight = [], []
                for p, q in self.blocks:
                    k = self.blocks.index((1 - p, 1 - q))
                    gather.append((self.spans[k].start + src[natural[p]][:, None]
                                   * self.shapes[k][1] + src[natural[q]]).reshape(-1))
                    weight.append((scale * np.outer(w[natural[p]], w[natural[q]])).reshape(-1))
                self.jumps.append((np.concatenate(gather), np.concatenate(weight)))
        self.damp_diag = damp_diag[order]
        self._y = np.empty(self.size, dtype=complex)
        self._tmp = np.empty(self.size, dtype=complex)

    def split(self, rho: np.ndarray) -> np.ndarray:
        """The carried blocks of a natural-order d x d ``rho``, as one flat buffer."""
        return rho.reshape(-1)[self.flat_index]

    def join(self, buf: np.ndarray) -> np.ndarray:
        """The natural-order d x d matrix of a flat buffer (uncarried blocks 0)."""
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho.reshape(-1)[self.flat_index] = buf
        return rho

    def bands(self, target: int | None, amplitude: float) -> list:
        """Row gathers of -i H_off for an exchange pulse of ``amplitude`` on
        ``target`` (no pulse when the amplitude is 0): per band, the
        ``(source rows, weight column)`` of each parity block."""
        bands = list(self.couple)
        if amplitude != 0.0:
            bands += [(src, amplitude * w) for src, w in self.exchange[target]]
        return [[(src[r], w[r, None]) for r in self.rows] for src, w in bands]

    def _views(self, buf):
        return [buf[s].reshape(shape) for s, shape in zip(self.spans, self.shapes)]

    def rhs(self, rho: np.ndarray, bands: list, delta_now: float,
            out: np.ndarray) -> np.ndarray:
        """drho/dt of the flat buffer ``rho`` at detuning ``delta_now``,
        written into ``out``."""
        y, tmp = self._y, self._tmp
        lvec = self.damp_diag - 1j * (self.diag_static - delta_now * self.na_diag)
        ys = self._views(y)
        # every gather index is in range, and mode="clip" spares the buffered
        # copy of ``out`` that np.take makes under its default mode="raise"
        for (p, _), r, yb in zip(self.blocks, self._views(rho), ys):
            np.multiply(lvec[self.rows[p], None], r, out=yb)
            t = tmp[: r.size].reshape(r.shape)
            for band in bands:
                src, w = band[p]
                np.take(r, src, axis=0, out=t, mode="clip")
                np.multiply(w, t, out=t)
                yb += t
        for k, ob in enumerate(self._views(out)):
            np.conjugate(ys[self.mirror[k]].T, out=ob)
            ob += ys[k]
        for gather, w in self.jumps:
            np.take(rho, gather, out=tmp, mode="clip")
            np.multiply(w, tmp, out=tmp)
            out += tmp
        return out


def _max_step(span: StrokeSpan, params: SystemParams, deltas=None) -> float:
    """The RK4 step bound 1/(50 f), for the ``span_fmax`` f of the stroke or,
    given ``deltas``, of its stretch between those two detunings."""
    return 1.0 / (50.0 * span_fmax(span, params, deltas))


def _check_dt(dt: float, params: SystemParams, spans) -> None:
    """Raise ValueError unless ``dt`` is finite, positive and within the
    stroke-wide step bound 1/(50 f_max) of every span."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got dt={dt}")
    for span in spans:
        dt_max = _max_step(span, params)
        if dt > dt_max * (1.0 + 1e-9):
            raise ValueError(
                f"dt={dt} too coarse for stroke {span.index}; need dt <= {dt_max:.3e}"
            )


def propagate_fock(
    state: FockState,
    params: SystemParams,
    schedule: CycleSchedule,
    t_end: float,
    dt: float | None = None,
    samples_per_stroke: int = 16,
    leakage_threshold: float = DEFAULT_LEAKAGE_THRESHOLD,
) -> Samples:
    """Integrate the master equation through the schedule up to ``t_end``.

    Each segment between two output samples takes fixed RK4 steps of at
    most 1/(50 f), where f is the largest frequency scale on that segment
    (``span_fmax`` with the detunings at the segment's ends).  ``dt`` caps
    the step further; it must not exceed the stroke-wide bound
    1/(50 f_max), and a coarser ``dt`` raises ValueError.  The samples lie
    on the ``schedule.stroke_walk`` grid; density matrices are not kept
    (d^2 complex entries each), only the final state and each sample's
    occupations, quadrature moments of every mode and leakage.  Top
    Fock-level population is checked after every step against
    ``leakage_threshold``; trace, hermiticity and positivity are checked at
    every output sample.
    """
    ops = ModeOperators(state.cutoffs)
    t0 = state.time
    walk = stroke_walk(schedule, t0, t_end, samples_per_stroke)
    if dt is not None:
        _check_dt(dt, params, [span for span, _, _ in walk])

    rho = np.array(state.rho, dtype=complex)
    rho = 0.5 * (rho + rho.conj().T)
    gen = _Generator(params, ops, rho)
    rho = gen.split(rho)
    # RK4 work buffers: the k1 + 2 k2 + 2 k3 + k4 sum, the current stage's
    # slope and the next stage's argument
    total, slope, stage = (np.empty_like(rho) for _ in range(3))
    # buffer positions of the diagonal entries of each mode's top retained
    # level, in natural order
    top_levels = [gen.diagonal[ops.number_diag[m] == c - 1]
                  for m, c in enumerate(state.cutoffs)]

    def leakage(r):
        """Population of the top retained Fock level, per mode."""
        return [float(np.sum(r.real[top])) for top in top_levels]

    times = [t0]
    records = []
    modes = tuple(range(len(state.cutoffs)))

    def record(r, t):
        st = FockState(rho=gen.join(r), cutoffs=state.cutoffs, time=t)
        records.append((mode_occupations(st, ops), *quadrature_moments(st, ops, modes),
                        st.validate(), leakage(r)))

    record(rho, t0)

    for span, seg_start, targets_local in walk:
        bands = gen.bands(span.target, span.amplitude)
        t_now = seg_start
        for t_target in targets_local:
            length = t_target - t_now
            # the segment's end detunings bound |delta| on it (ramps are monotone)
            ends = span.delta_values_local(np.array([t_now, t_target]) - span.t_start)
            dt_target = _max_step(span, params, ends)
            if dt is not None:
                dt_target = min(dt, dt_target)
            nsteps = max(1, int(np.ceil(length / dt_target - 1e-12)))
            h = length / nsteps
            t_loc = (t_now - span.t_start) + np.arange(nsteps) * h
            deltas = span.delta_values_local(np.stack([t_loc, t_loc + 0.5 * h, t_loc + h]))
            for k, (d0, dh, d1) in enumerate(deltas.T):
                gen.rhs(rho, bands, d0, total)  # k1
                np.multiply(total, 0.5 * h, out=stage)
                stage += rho
                # k2 and k3, both at the midpoint, enter the sum twice
                for coef in (0.5 * h, h):
                    gen.rhs(stage, bands, dh, slope)
                    np.multiply(slope, coef, out=stage)
                    stage += rho
                    slope *= 2.0
                    total += slope
                gen.rhs(stage, bands, d1, slope)  # k4
                total += slope
                total *= h / 6.0
                total += rho
                # the generator keeps a Hermitian rho exactly Hermitian
                rho, total = total, rho
                for m, leak in enumerate(leakage(rho)):
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

    occ, means, covs, min_eigs, leaks = (np.array(x) for x in zip(*records))
    return Samples(
        times=np.asarray(times), occupations=occ, means=means, covs=covs,
        physicality=min_eigs, leakage=leaks,
        final_state=FockState(rho=gen.join(rho), cutoffs=state.cutoffs, time=times[-1]),
    )
