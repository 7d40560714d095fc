"""Brute-force master-equation integration on a truncated Fock space.

This engine propagates the full density matrix

    drho/dt = -i [H(t), rho] + kappa L_a[rho] + gamma (L_b[rho] + L_c[rho] + ...)

with the standard thermal dissipator

    L[rho] = (n+1) (a rho a^dag - {a^dag a, rho}/2) + n (a^dag rho a - {a a^dag, rho}/2)

so that a lone mode relaxes as d<N>/dt = -rate (<N> - n).  It exists to
cross-validate the Gaussian engine at small scale, so it favors exactness
and transparency over reach: fixed step counts (reproducible baselines), the
density matrix held as dense complex blocks, and matrix-free superoperator
application.  Hold and exchange strokes have a constant generator L, so each
sample segment there advances by exp(h L) rho, a truncated Taylor series
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)) in steps of
h = TAYLOR_THETA / B for a bound B >= ||L|| from the generator's weights,
each series stopped by a trace-norm bound on its dropped tail.  Ramps take
RK4 steps of 1/(50 f) for the largest frequency scale f on the segment, with
the detuning taken at the segment's two ends (every ramp shape is monotone,
so these bound it).  A caller's ``dt`` caps every step and must not exceed
the stroke-wide 1/(50 f_max).

Every term of the master equation conserves the total excitation parity
P = (-1)^(n_a + n_b + ...): g (a + a^dag)(b + b^dag) changes the total
number by 0 or +-2, omega_0 (b^dag c + c^dag b) keeps it, the diagonal
terms are diagonal, and each jump a rho a^dag flips the parity of the row
and of the column together.  With the basis sorted by parity, rho is four
blocks rho_pq, and the cross blocks (p != q) are never fed from the
diagonal ones.  The step loop therefore carries rho as its two diagonal
blocks, plus the cross blocks only when the initial rho has a nonzero entry
there, in one flat buffer (``_Blocks``); a thermal start carries d^2/2
entries for an even d.  The generator (``_Generator``) acts on that buffer
by weighted row slices, row gathers and flat gathers, so no d x d operator
product (nor a multi-threaded BLAS call) runs in the step loop.  Every
output sample is read off the buffer too: occupations, quadrature moments
and leakage from precomputed positions of the entries they weigh, and the
checks from the blocks themselves.  No sample builds a d x d array unless
rho's cross blocks are nonzero, and the natural-order rho is assembled once,
for the final state.  The memory is O(d^2): three work buffers, the
generator's three scratch buffers, and an index and a complex weight per
gathered entry for each jump term (about 7 MB at cutoffs (6, 6, 8)).  The
positivity check's ``eigvalsh`` is the engine's only LAPACK call, run on
one BLAS thread, since OpenBLAS's idle workers would spin on a second core
after every call.  As an independent oracle the engine shares only the
schedule with the Gaussian engine (its stroke walk, sample grid and
step-size scale), never its code.

Truncation is monitored continuously: the population of the top retained
Fock level of each mode is tracked at every step and a TruncationError is
raised when it crosses the configured threshold.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .errors import IntegrationError, TruncationError
from .params import SystemParams
from .schedule import (CycleSchedule, Samples, StrokeKind, StrokeSpan, _is_integer, span_fmax,
                       stroke_walk)

TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
DEFAULT_LEAKAGE_THRESHOLD = 1e-3
# h B of one Taylor step of a constant stroke, and the bound on the trace norm
# of the series tail that each step drops; at h B = 6 no term of the series
# exceeds 6^6/6! ~ 65 times ||rho||, so cancellation among terms costs ~1e-14
TAYLOR_THETA = 6.0
TAYLOR_EPS = 1e-14
# (get, set) thread-count symbols of OpenBLAS: numpy 2.x wheels, other
# 64-bit-integer builds, then the plain library
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS mapped into this
    process, numpy's own copy first, or None where there is none (another
    BLAS, or no /proc/self/maps).  ``ctypes.CDLL`` of a mapped library
    returns the handle already loaded."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths, key=lambda p: ("numpy" not in p, p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                return getattr(lib, get), getattr(lib, set_)
    return None


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the previous count
    after it, also when it raises; do nothing where no OpenBLAS is found."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _cutoffs(cutoffs) -> tuple[int, ...]:
    """Per-mode cutoffs as ints, each an integer of at least 2."""
    cutoffs = tuple(cutoffs)
    if not all(_is_integer(c) and c >= 2 for c in cutoffs):
        raise ValueError(f"every cutoff must be an integer of at least 2, got {cutoffs}")
    return tuple(int(c) for c in cutoffs)


def _check_leakage_threshold(threshold: float) -> None:
    if not 0 < threshold < 1:  # NaN fails too
        raise ValueError(f"leakage_threshold must lie in (0, 1), got {threshold}")


@dataclass(frozen=True)
class FockState:
    """Density matrix on a product of truncated Fock spaces."""

    rho: np.ndarray
    cutoffs: tuple[int, ...]
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "cutoffs", _cutoffs(self.cutoffs))
        d = int(np.prod(self.cutoffs))
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (d, d):
            raise ValueError(f"rho must be {d} x {d} for cutoffs {self.cutoffs}")
        object.__setattr__(self, "rho", rho)

    def trace_error(self) -> float:
        return _Blocks.trace_error(*_split(self))

    def hermiticity_error(self) -> float:
        return _Blocks.hermiticity_error(*_split(self))

    def min_eigenvalue(self) -> float:
        return _Blocks.min_eigenvalue(*_split(self))

    def validate(self) -> float:
        """Check trace, hermiticity and positivity on parity blocks taken out
        once (``_Blocks.checks``); return the ``min_eigenvalue`` it computed."""
        return _Blocks.checks(*_split(self), self.time)[2]


class ModeOperators:
    """Annihilation/number operators for each mode, embedded in the product space."""

    def __init__(self, cutoffs):
        self.cutoffs = _cutoffs(cutoffs)
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


def thermal_state(cutoffs, occupations, time: float = 0.0,
                  leakage_threshold: float = DEFAULT_LEAKAGE_THRESHOLD) -> FockState:
    """Product of truncated, renormalized thermal (geometric) states.

    Rejects occupations whose geometric tail beyond the cutoff exceeds the
    leakage threshold, since the truncated state could not represent them.
    """
    cutoffs = _cutoffs(cutoffs)
    _check_leakage_threshold(leakage_threshold)
    occupations = [float(n) for n in occupations]
    if len(occupations) != len(cutoffs):
        raise ValueError("need one occupation per mode")
    if not all(0 <= n < np.inf for n in occupations):  # NaN fails too
        raise ValueError(f"occupations must be finite and non-negative, got {occupations}")
    diags = []
    for c, n in zip(cutoffs, occupations):
        q = n / (n + 1.0)  # n = 0 gives the vacuum, since 0^0 = 1
        tail = q**c
        if tail > leakage_threshold:
            raise TruncationError(
                f"thermal occupation {n} needs more than {c} levels "
                f"(tail mass {tail:.3e} > {leakage_threshold:.1e})",
                mode=len(diags), leakage=tail,
            )
        w = (1.0 - q) * q ** np.arange(c)
        diags.append(w / w.sum())
    rho = np.diag(reduce(np.kron, diags).astype(complex))
    return FockState(rho=rho, cutoffs=cutoffs, time=time)


def number_state(cutoffs, levels, time: float = 0.0) -> FockState:
    """Product Fock number state |n1, n2, ...><...|."""
    cutoffs = _cutoffs(cutoffs)
    levels = tuple(levels)
    if not all(_is_integer(n) for n in levels):
        raise ValueError(f"every level must be an integer, got {levels}")
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


def _split(state: FockState, ops: ModeOperators | None = None, modes=()) -> tuple:
    """The ``_Blocks`` of ``state.rho`` and its carried blocks, taken out once."""
    blocks = _Blocks(ModeOperators(state.cutoffs) if ops is None else ops, state.rho, modes)
    return blocks, blocks.split(state.rho)


def mode_occupations(state: FockState, ops: ModeOperators | None = None) -> np.ndarray:
    """Mean occupation <a^dag a> per mode."""
    return _Blocks.occupations(*_split(state, ops))


def quadrature_moments(state: FockState, ops: ModeOperators, modes=(0, 1)):
    """Mean vector and symmetric covariance of the quadratures of ``modes``.

    Uses x = (a + a^dag)/sqrt(2), p = -i (a - a^dag)/sqrt(2) and the
    symmetrized second moment, matching the Gaussian-engine convention, so
    polariton observables can be computed identically for both engines.
    Every moment is built from traces tr(O rho) of ladder products O, each a
    weighted sum of entries of rho's parity blocks, with <a_m> = (<x> + i <p>)/sqrt(2).
    """
    return _Blocks.moments(*_split(state, ops, modes))


class _Blocks:
    """rho as its total-parity blocks in one flat buffer (module docstring),
    and every observable and check read off that buffer.  Block (p, q) holds
    the rows of parity p and the columns of parity q, each in natural order
    and row-major; the cross blocks are carried only if ``rho`` has a
    nonzero entry there.  ``diagonal`` is the buffer position of each rho_ii,
    and ``traces`` the positions and weights of the carried entries
    rho[i + o, i] of each ladder product (o, w) whose trace the quadrature
    moments of ``modes`` read."""

    def __init__(self, ops: ModeOperators, rho: np.ndarray, modes=()):
        d = self.dim = ops.dim
        self.ops, self.modes = ops, tuple(modes)
        # the natural indices of each parity, and each index's place among them
        odd = np.add.reduce(ops.number_diag) % 2 == 1
        natural = self.natural = [np.flatnonzero(~odd), np.flatnonzero(odd)]
        self.order = np.concatenate(natural)  # parity-sorted: even states, then odd
        local = self.local = np.empty(d, dtype=np.intp)
        for nat in natural:
            local[nat] = np.arange(nat.size)
        sizes = [nat.size for nat in natural]
        self.rows = [slice(0, sizes[0]), slice(sizes[0], d)]  # of each parity in order
        cross = any(np.any(rho[np.ix_(a, b)]) for a, b in (natural, natural[::-1]))
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
        # buffer position of each natural flat index, -1 where not carried
        where = np.full(d * d, -1, dtype=np.intp)
        where[self.flat_index] = np.arange(self.size)
        self.diagonal = where[:: d + 1].copy()
        low, self.traces = ops.lowering, {}
        for k, m in enumerate(self.modes):  # <a_m>, <a_m a_n> and <a_m^dag a_n>
            products = {("a", m): low[m]}
            products.update({("aa", m, n): _compose(low[m], low[n]) for n in self.modes[k:]})
            products.update({("da", m, n): _compose(ops.raising[m], low[n])
                             for n in self.modes[k + 1:]})
            for key, (o, w) in products.items():
                i = np.flatnonzero(w)
                pos = where[(i + o) * d + i]
                self.traces[key] = pos[pos >= 0], w[i][pos >= 0]

    def split(self, rho: np.ndarray) -> np.ndarray:
        """The carried blocks of a natural-order d x d ``rho``, as one flat buffer."""
        return rho.reshape(-1)[self.flat_index]

    def join(self, buf: np.ndarray) -> np.ndarray:
        """The natural-order d x d matrix of a flat buffer (uncarried blocks 0)."""
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho.reshape(-1)[self.flat_index] = buf
        return rho

    def _views(self, buf):
        return [buf[s].reshape(shape) for s, shape in zip(self.spans, self.shapes)]

    def hermitian(self, buf: np.ndarray) -> np.ndarray:
        """The carried blocks of (rho + rho^H)/2, block pq from rho_pq and rho_qp^H."""
        views = self._views(buf)
        return np.concatenate([(0.5 * (v + views[k].conj().T)).reshape(-1)
                               for v, k in zip(views, self.mirror)])

    def occupations(self, buf: np.ndarray) -> np.ndarray:
        """Mean occupation <a^dag a> of every mode."""
        diag = buf[self.diagonal].real
        return np.array([float(np.dot(nv, diag)) for nv in self.ops.number_diag])

    def moments(self, buf: np.ndarray):
        """Mean vector and covariance of the quadratures of ``modes`` (``quadrature_moments``)."""
        ops, modes = self.ops, self.modes
        diag = buf[self.diagonal].real
        tr = {key: complex(np.dot(w, buf[pos])) for key, (pos, w) in self.traces.items()}
        mean = np.sqrt(2.0) * np.array([(tr["a", m].real, tr["a", m].imag)
                                        for m in modes]).reshape(-1)
        second = np.empty((2 * len(modes), 2 * len(modes)))
        for i, m in enumerate(modes):
            sq = tr["aa", m, m]
            # a^dag a + a a^dag, diagonal; a a^dag lacks the top level when truncated
            half = 0.5 * float(np.dot(ops.number_diag[m] + ops.lower_diag[m], diag))
            second[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[half + sq.real, sq.imag],
                                                        [sq.imag, half - sq.real]]
            for j, n in enumerate(modes[i + 1:], i + 1):
                aa, da = tr["aa", m, n], tr["da", m, n]  # <a_m a_n>, <a_m^dag a_n>
                block = np.array([[aa.real + da.real, aa.imag + da.imag],
                                  [aa.imag - da.imag, da.real - aa.real]])
                second[2 * i:2 * i + 2, 2 * j:2 * j + 2] = block
                second[2 * j:2 * j + 2, 2 * i:2 * i + 2] = block.T
        return mean, second - np.outer(mean, mean)

    def trace_error(self, buf: np.ndarray) -> float:
        tr = buf[self.diagonal].sum()
        return abs(float(tr.real) - 1.0) + abs(float(tr.imag))

    def hermiticity_error(self, buf: np.ndarray) -> float:
        """max |rho - rho^H|, taken block by block: rho_pq against rho_qp^H."""
        views = self._views(buf)
        # np.max keeps a NaN, where the builtin max() may drop it
        return float(np.max([np.abs(v - views[k].conj().T).max()
                             for v, k, (p, q) in zip(views, self.mirror, self.blocks) if p <= q]))

    def min_eigenvalue(self, buf: np.ndarray) -> float:
        """Smallest eigenvalue of the Hermitian part of rho: the smaller of
        its two parity blocks' minima when its cross-parity blocks are exactly
        0 (as for every thermal start, see the module docstring), else the
        natural-order matrix's.  The ``eigvalsh`` runs on one BLAS thread."""
        views = self._views(buf)
        if len(views) > 2 and np.any(0.5 * (views[2] + views[3].conj().T)):
            herm = [self.join(self.hermitian(buf))]
        else:
            herm = (0.5 * (v + v.conj().T) for v in views[:2])
        with _one_blas_thread():
            return float(min(np.linalg.eigvalsh(h).min() for h in herm))

    def checks(self, buf: np.ndarray, time: float) -> tuple[float, float, float]:
        """(trace error, hermiticity error, min eigenvalue) of ``buf``, or an
        IntegrationError at ``time`` when a check fails.  A NaN fails every
        check (each check passes only on a true comparison)."""
        terr = self.trace_error(buf)
        if not terr <= TRACE_TOL:
            raise IntegrationError(f"trace deviates by {terr:.3e} at t={time}", time=time)
        herr = self.hermiticity_error(buf)
        if not herr <= HERMITICITY_TOL:
            raise IntegrationError(f"hermiticity deviates by {herr:.3e} at t={time}", time=time)
        mineig = self.min_eigenvalue(buf)
        if not mineig >= -POSITIVITY_TOL:
            raise IntegrationError(
                f"negative eigenvalue {mineig:.3e} at t={time}; reduce the step size", time=time)
        return terr, herr, mineig

    def observe(self, buf: np.ndarray, time: float) -> tuple:
        """One output sample of ``buf`` at ``time``: (occupations, mean, cov, ``checks``)."""
        return (self.occupations(buf), *self.moments(buf), self.checks(buf, time))


class _Generator(_Blocks):
    """Pieces of the master-equation right-hand side, precomputed per run,
    on the parity blocks of ``_Blocks`` (the observables of every mode).
    The right-hand side is evaluated block by block as (Y + U) + (Y + U)^dag,
    with

        Y = -i H_off rho + L[:, None] * rho,
        L = damp_diag - i h_diag(t),

    which folds the diagonal Hamiltonian commutator and every dissipator
    anticommutator into a single broadcast multiply, and U the jump sum J
    (the sandwiches a rho a^dag) at the entries ``upper``: the upper
    triangle of each diagonal block, with its diagonal halved, and all of
    block (0, 1).  rho stays Hermitian through every RK4 stage and Taylor
    term, so J is Hermitian, J = U + U^dag, the mirror term of block pq is
    (Y + U)_qp^dag, and the slope is exactly Hermitian by construction.
    Nothing here is a d x d operator: H_off = g (a + a^dag)(b + b^dag)
    + omega_0 (b^dag c + c^dag b) is a few bands inside each block.  A band
    whose source rows are row + o for one o (as when the cutoffs after its
    modes multiply to an even number: all four g bands at (6, 6, 8)) reads
    a slice of rows, and any other band gathers them (``_row_band``).  Each
    jump sandwich reads the block of the flipped parities through a flat
    gather index at U's entries, weighted by the rate-scaled outer product
    of the ladder weights (stored complex, since a real-by-complex multiply
    runs through a cast buffer).  The jumps accumulate in one packed
    buffer, added into Y before the mirror sum.
    """

    def __init__(self, params: SystemParams, ops: ModeOperators, rho: np.ndarray):
        if len(ops.cutoffs) != params.n_modes:
            raise ValueError(
                f"cutoffs describe {len(ops.cutoffs)} modes, params {params.n_modes}"
            )
        super().__init__(ops, rho, range(params.n_modes))
        d, n_modes = self.dim, params.n_modes
        lower, upper = ops.lowering, ops.raising
        natural, order, local = self.natural, self.order, self.local

        def source(offset, weight):
            """Place, among its parity, of each natural index's source i + offset;
            0 where the weight vanishes (the term adds 0 there)."""
            return local[np.where(weight != 0, np.arange(d) + offset, 0)]

        def bands(scale, pairs):
            """The nonzero bands of ``scale`` times each product of two ladder
            shifts, each as one ``_row_band`` per parity block."""
            shifts = ((o, scale * w) for o, w in (_compose(x, y) for x, y in pairs))
            return [[_row_band(source(o, w)[order][r], w[order][r]) for r in self.rows]
                    for o, w in shifts if np.any(w != 0)]

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

        # U's entries (see the class docstring): their buffer positions, their
        # natural rows and columns, and the start and row width of the block
        # of the flipped parities, which the jumps read
        pos, rows, cols, starts, widths = [], [], [], [], []
        for (p, q), span, (a, b) in zip(self.blocks, self.spans, self.shapes):
            if p > q:
                continue
            i, j = np.triu_indices(a) if p == q else np.indices((a, b)).reshape(2, -1)
            k = self.blocks.index((1 - p, 1 - q))
            pos.append(span.start + i * b + j)
            rows.append(natural[p][i])
            cols.append(natural[q][j])
            starts.append(np.full(i.size, self.spans[k].start))
            widths.append(np.full(i.size, self.shapes[k][1]))
        self.upper = np.concatenate(pos)
        rows, cols, starts, widths = map(np.concatenate, (rows, cols, starts, widths))
        half = np.where(rows == cols, 0.5, 1.0)

        rates = [params.kappa, params.gamma] + [params.gamma] * len(params.delta_targets)
        nbars = [params.n_a, params.n_b, *params.n_targets]
        damp_diag = np.zeros(d)
        self.jumps = []
        jump_scales, jump_rows, jump_cols = [], [], []
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
                # entry (i, j) reads the flipped block at row and column i + s, j + s
                src = source(s, w)
                weight = scale * (w[rows] * w[cols]) * half
                self.jumps.append((starts + src[rows] * widths + src[cols],
                                   weight.astype(complex)))
                # for norm_bound: the unhalved weight of each row, and of each
                # column, the row i - s that reads it (w vanishes where i + s
                # leaves the space, so the roll wraps in zeros)
                jump_scales.append(scale)
                jump_rows.append(w[order])
                jump_cols.append(np.roll(w, s)[order])
        self.jump_scales = np.array(jump_scales)[:, None]
        self.jump_rows = np.array(jump_rows).reshape(-1, d)
        self.jump_cols = np.array(jump_cols).reshape(-1, d)
        self.damp_diag = damp_diag[order]
        self._y = np.empty(self.size, dtype=complex)
        self._tmp = np.empty(self.size, dtype=complex)
        self._acc = np.empty(self.upper.size, dtype=complex)

    def bands(self, target: int | None, amplitude: float) -> list:
        """The bands of -i H_off for an exchange pulse of ``amplitude`` on
        ``target`` (no pulse when the amplitude is 0): per band, the
        ``(rows, source, weight column)`` of each parity block (``_row_band``)."""
        bands = list(self.couple)
        if amplitude != 0.0:
            bands += [[(rows, src, amplitude * w) for rows, src, w in band]
                      for band in self.exchange[target]]
        return bands

    def _lvec(self, delta_now: float) -> np.ndarray:
        return self.damp_diag - 1j * (self.diag_static - delta_now * self.na_diag)

    def norm_bound(self, bands: list, delta_now: float) -> float:
        """A bound B on the Frobenius operator norm of ``rhs`` at
        ``delta_now``: Schur's B = sqrt(R_1 R_inf) >= ||L||_2, with R_inf and
        R_1 the largest absolute row and column sums of L as a d^2 x d^2
        matrix, taken over all d^2 index pairs so that B does not depend on
        the carried blocks.

        Row (i, j) of L holds L[i] + conj(L[j]) on its diagonal; the bands
        give -i [H_off, rho], whose row sum is at most r[i] + r[j], r the row
        sums of the band weights (H_off is Hermitian, so its column sums are
        its row sums); each jump s a rho a^dag reads rho[i + o, j + o] with
        weight s w[i] w[j], from the ladder weights before U's diagonal is
        halved.  Column (k, l) holds the same diagonal and band sums, and the
        jump weights of the row (k - o, l - o) that reads it.
        """
        lvec = self._lvec(delta_now)
        rows = np.zeros((self.dim, 1))
        for band in bands:
            for block, (r, _, w) in zip(self.rows, band):
                rows[block][r] += np.abs(w)
        # |L[i] + conj(L[j])| with no complex d x d temporary
        base = np.add.outer(lvec.real, lvec.real)
        np.hypot(base, np.subtract.outer(lvec.imag, lvec.imag), out=base)
        base += rows
        base += rows.T
        sums = np.empty_like(base)
        largest = []
        for weights in (self.jump_rows, self.jump_cols):
            # the sum over jumps of s w[i] w[j]; einsum, not a BLAS product,
            # which would wake BLAS threads and their buffers
            np.einsum("ji,jk->ik", self.jump_scales * weights, weights, out=sums)
            sums += base
            largest.append(sums.max())
        return float(np.sqrt(largest[0] * largest[1]))

    def rhs(self, rho: np.ndarray, bands: list, delta_now: float,
            out: np.ndarray) -> np.ndarray:
        """drho/dt of the flat buffer ``rho`` at detuning ``delta_now``,
        written into ``out``."""
        y, tmp = self._y, self._tmp
        lvec = self._lvec(delta_now)
        ys = self._views(y)
        # every gather index is in range, and mode="clip" spares the buffered
        # copy of ``out`` that np.take makes under its default mode="raise"
        for (p, _), r, yb in zip(self.blocks, self._views(rho), ys):
            np.multiply(lvec[self.rows[p], None], r, out=yb)
            t = tmp[: r.size].reshape(r.shape)
            for band in bands:
                rows, src, w = band[p]
                tb = t[rows]
                if isinstance(src, slice):  # a row shift reads its rows in place
                    np.multiply(w, r[src], out=tb)
                else:
                    np.take(r, src, axis=0, out=tb, mode="clip")
                    np.multiply(w, tb, out=tb)
                yb[rows] += tb
        # Y += U, so the mirror sum below adds J = U + U^dag as well
        acc, part = self._acc, tmp[: self._acc.size]
        np.take(y, self.upper, out=acc, mode="clip")
        for gather, w in self.jumps:
            np.take(rho, gather, out=part, mode="clip")
            np.multiply(w, part, out=part)
            acc += part
        y[self.upper] = acc
        for k, ob in enumerate(self._views(out)):
            np.conjugate(ys[self.mirror[k]].T, out=ob)
            ob += ys[k]
        return out


def _row_band(src: np.ndarray, weight: np.ndarray) -> tuple:
    """One parity block of a band, row i reading row src[i] with weight[i],
    as ``(rows, source, weight column)``: the slices lo:hi and lo + o:hi + o
    when every row of nonzero weight reads the row o away, else every row
    and the gather index ``src``."""
    nz = np.flatnonzero(weight)
    offsets = src[nz] - nz
    if not nz.size or np.any(offsets != offsets[0]):
        return slice(None), src, weight[:, None]
    lo, hi, o = int(nz[0]), int(nz[-1]) + 1, int(offsets[0])
    return slice(lo, hi), slice(lo + o, hi + o), weight[lo:hi, None]


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


def _rk4_step(gen: _Generator, rho, bands, deltas, h: float, total, slope, stage):
    """One RK4 step of length ``h`` from ``rho``, at the detunings ``deltas``
    (start, midpoint, end), into ``total``; ``slope`` and ``stage`` are scratch."""
    d0, dh, d1 = deltas
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


def _taylor_step(gen: _Generator, rho, bands, delta: float, h: float, hb: float,
                 total, term, spare):
    """exp(h L) rho into ``total``, for the constant generator L at ``delta``;
    ``term`` and ``spare`` are scratch.

    ``hb`` is h B for a bound B >= ||L|| (``_Generator.norm_bound``), so past
    the term t_k of order k every term shrinks by at least r = h B / (k + 1):
    once r < 1 the tail is at most ||t_k|| r / (1 - r) in the Frobenius norm,
    and sqrt(d) times that in the trace norm.  The series stops when that
    trace-norm bound is at most TAYLOR_EPS.  A Lindblad step does not
    amplify the trace norm, so these bounds, summed over the steps, bound
    the drift of every eigenvalue of rho (Weyl).
    """
    np.copyto(total, rho)
    np.copyto(term, rho)
    k = 0
    while True:
        k += 1
        gen.rhs(term, bands, delta, spare)
        spare *= h / k
        total += spare
        term, spare = spare, term
        r = hb / (k + 1)
        if r < 1.0:
            # d ||t_k||_F^2 by einsum's own loop, not a multi-threaded BLAS dot
            x = term.view(float)
            tail = np.sqrt(gen.dim * np.einsum("i,i->", x, x)) * r / (1.0 - r)
            if not tail > TAYLOR_EPS:  # a NaN tail ends the series too
                return


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

    Each segment between two output samples takes a fixed number of equal
    steps.  On a hold or exchange stroke, a segment of length l takes
    ceil(l B / TAYLOR_THETA) Taylor steps of exp(h L) (``_taylor_step``), B
    the generator's ``norm_bound``; on a ramp, RK4 steps of at most
    1/(50 f), where f is the largest frequency scale on that segment
    (``span_fmax`` with the detunings at the segment's ends).  ``dt`` caps
    every step further; it must not exceed the stroke-wide bound
    1/(50 f_max), and a coarser ``dt`` raises ValueError.  The samples lie
    on the ``schedule.stroke_walk`` grid.  Each sample's occupations,
    quadrature moments of every mode, leakage and checks are read off the
    carried parity blocks (``_Blocks.observe``); no density matrix is kept
    but the final state's, joined once after the work buffers are released.
    Top Fock-level population is checked after every step against
    ``leakage_threshold``; trace, hermiticity and positivity are checked at
    every output sample.
    """
    _check_leakage_threshold(leakage_threshold)
    ops = ModeOperators(state.cutoffs)
    t0 = state.time
    walk = stroke_walk(schedule, t0, t_end, samples_per_stroke)
    if dt is not None:
        _check_dt(dt, params, [span for span, _, _ in walk])

    gen = _Generator(params, ops, state.rho)
    rho = gen.hermitian(gen.split(state.rho))
    # work buffers: the step's result and two scratch buffers (the RK4 stages,
    # or the Taylor terms)
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

    def record(r, t):
        occupations, mean, cov, (_, _, min_eig) = gen.observe(r, t)
        records.append((occupations, mean, cov, min_eig, leakage(r)))

    record(rho, t0)

    for span, seg_start, targets_local in walk:
        bands = gen.bands(span.target, span.amplitude)
        # hold and exchange strokes keep one generator, bounded once
        bound = (None if span.kind is StrokeKind.RAMP_DETUNING
                 else gen.norm_bound(bands, span.delta0))
        t_now = seg_start
        for t_target in targets_local:
            length = t_target - t_now
            if bound is None:
                # the segment's end detunings bound |delta| on it (ramps are monotone)
                ends = span.delta_values_local(np.array([t_now, t_target]) - span.t_start)
                dt_target = _max_step(span, params, ends)
            else:
                dt_target = TAYLOR_THETA / bound
            if dt is not None:
                dt_target = min(dt, dt_target)
            nsteps = max(1, int(np.ceil(length / dt_target - 1e-12)))
            h = length / nsteps
            if bound is None:
                t_loc = (t_now - span.t_start) + np.arange(nsteps) * h
                deltas = span.delta_values_local(
                    np.stack([t_loc, t_loc + 0.5 * h, t_loc + h])).T
            for k in range(nsteps):
                if bound is None:
                    _rk4_step(gen, rho, bands, deltas[k], h, total, slope, stage)
                else:
                    _taylor_step(gen, rho, bands, span.delta0, h, h * bound,
                                 total, slope, stage)
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

    del total, slope, stage
    occ, means, covs, min_eigs, leaks = (np.array(x) for x in zip(*records))
    return Samples(
        times=np.asarray(times), occupations=occ, means=means, covs=covs,
        physicality=min_eigs, leakage=leaks,
        final_state=FockState(rho=gen.join(rho), cutoffs=state.cutoffs, time=times[-1]),
    )
