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
checks from the blocks themselves, their temporaries formed in the
generator's scratch buffer.  A diagonal start (``FockState`` given its
diagonal, as the runner's thermal start is) is split straight into its
blocks, buffer positions come from each index's place among its parity,
and no sample builds a d x d array unless rho's cross blocks are nonzero;
the norm bound takes its d x d sums one row at a time, and the
natural-order rho is assembled once, for the final state.  The memory is
O(d^2): the state and three work buffers, the generator's scratch
buffer, and a complex weight and a gather index per entry of each jump
term; a smalltest run peaks at 6.88 MB under ``tracemalloc`` (6.94 MB as
a process's first Fock run).  The positivity check's ``eigvalsh`` is the
engine's only LAPACK call, run on one BLAS thread, since OpenBLAS's idle
workers would spin on a second core after every call.  As an independent
oracle the engine shares only the schedule with the Gaussian engine (its
stroke walk, sample grid and step-size scale), never its code.  Its step
machinery (``_Generator``, the RK4 and Taylor steps and the run loop)
lives in ``_fock_engine``, which ``propagate_fock`` imports on its first
call, so a process that never runs the Fock engine does not compile it.

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
from .schedule import CycleSchedule, Samples, _is_integer, span_fmax

TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
DEFAULT_LEAKAGE_THRESHOLD = 1e-3
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
    """Density matrix on a product of truncated Fock spaces: ``rho`` is the
    d x d matrix or, for a diagonal state, its diagonal alone (the runner's
    thermal start), whose parity blocks the engine builds without a d x d
    array."""

    rho: np.ndarray
    cutoffs: tuple[int, ...]
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "cutoffs", _cutoffs(self.cutoffs))
        d = int(np.prod(self.cutoffs))
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape not in ((d, d), (d,)):
            raise ValueError(f"rho must be {d} x {d}, or its diagonal, for cutoffs {self.cutoffs}")
        object.__setattr__(self, "rho", rho)

    def validate(self) -> float:
        """Check trace, hermiticity and positivity on parity blocks taken out
        once (``_Blocks.checks``); return the ``min_eigenvalue`` it computed."""
        return _Blocks.checks(*_split(self), self.time)[2]


class ModeOperators:
    """Annihilation/number operators for each mode, embedded in the product space."""

    def __init__(self, cutoffs):
        self.cutoffs = _cutoffs(cutoffs)
        self.dim = int(np.prod(self.cutoffs))
        # number operators are diagonal; keep the diagonals, and those of
        # a a^dag on the truncated space (top level -> 0)
        levels = np.indices(self.cutoffs, dtype=float).reshape(len(self.cutoffs), -1)
        self.number_diag = list(levels)
        self.lower_diag = [np.where(n < c - 1, n + 1.0, 0.0) for n, c in zip(levels, self.cutoffs)]
        # ladder operators as (offset, weight) shifts of the flat index: for the
        # stride s of mode m, (a rho)[i] = sqrt(n_i + 1) rho[i + s] and
        # (a^dag rho)[i] = sqrt(n_i) rho[i - s], the weights vanishing wherever
        # the shift would leave the truncated space
        strides = [int(np.prod(self.cutoffs[m + 1:])) for m in range(len(self.cutoffs))]
        self.lowering = [(s, np.sqrt(w)) for s, w in zip(strides, self.lower_diag)]
        self.raising = [(-s, np.sqrt(n)) for s, n in zip(strides, self.number_diag)]


def _compose(x, y):
    """The shift of the product x y of two shifts (offset, weight):
    (x y rho)[i] = w_x[i] w_y[i + o_x] rho[i + o_x + o_y].  x is a ladder
    shift, whose weight vanishes wherever i + o_x leaves the space, so the
    roll's wrapped entries are multiplied by 0."""
    (ox, wx), (oy, wy) = x, y
    return ox + oy, wx * np.roll(wy, -ox)


def _thermal_diagonal(cutoffs, occupations, leakage_threshold: float) -> np.ndarray:
    """The diagonal of a product of truncated, renormalized thermal
    (geometric) states: the Kronecker product of the per-mode weights.

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
    return reduce(np.kron, diags)


def _split(state: FockState, ops: ModeOperators | None = None, modes=()) -> tuple:
    """The ``_Blocks`` of ``state`` and its carried blocks, taken out once."""
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
        cross = rho.ndim == 2 and any(np.any(rho[np.ix_(a, b)])
                                      for a, b in (natural, natural[::-1]))
        self.blocks = [(0, 0), (1, 1)] + ([(0, 1), (1, 0)] if cross else [])
        self.shapes = [(sizes[p], sizes[q]) for p, q in self.blocks]
        ends = np.cumsum([a * b for a, b in self.shapes])
        self.spans = [slice(int(e) - a * b, int(e)) for e, (a, b) in zip(ends, self.shapes)]
        self.size = int(ends[-1])
        self.mirror = [self.blocks.index((q, p)) for p, q in self.blocks]
        # one scratch buffer for the checks and, in ``_Generator``, for rhs
        self._tmp = np.empty(self.size + d, dtype=complex)
        # buffer position of each row's first entry in the block of each
        # column parity, -1 where that block is not carried
        self.row_start = np.full((d, 2), -1)
        for (p, q), span, (a, b) in zip(self.blocks, self.spans, self.shapes):
            self.row_start[natural[p], q] = span.start + b * np.arange(a)
        self.parity = odd * 1
        self.diagonal = self.position(np.arange(d), np.arange(d))
        low, self.traces = ops.lowering, {}
        for k, m in enumerate(self.modes):  # <a_m>, <a_m a_n> and <a_m^dag a_n>
            products = {("a", m): low[m]}
            products.update({("aa", m, n): _compose(low[m], low[n]) for n in self.modes[k:]})
            products.update({("da", m, n): _compose(ops.raising[m], low[n])
                             for n in self.modes[k + 1:]})
            for key, (o, w) in products.items():
                i = np.flatnonzero(w)
                pos = self.position(i + o, i)
                self.traces[key] = pos[pos >= 0], w[i][pos >= 0]

    def position(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Buffer position of each entry (i, j) of rho, -1 where not carried."""
        s = self.row_start[i, self.parity[j]]
        return np.where(s < 0, -1, s + self.local[j])

    def split(self, rho: np.ndarray) -> np.ndarray:
        """The carried blocks of a natural-order d x d ``rho``, or of the
        diagonal matrix of a length-d ``rho``, as one flat buffer."""
        if rho.ndim == 2:
            return np.concatenate([rho[np.ix_(self.natural[p], self.natural[q])].reshape(-1)
                                   for p, q in self.blocks])
        buf = np.zeros(self.size, dtype=complex)
        buf[self.diagonal] = rho
        return buf

    def join(self, buf: np.ndarray) -> np.ndarray:
        """The natural-order d x d matrix of a flat buffer (uncarried blocks 0)."""
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        for (p, q), v in zip(self.blocks, self._views(buf)):
            rho[np.ix_(self.natural[p], self.natural[q])] = v
        return rho

    def _views(self, buf):
        return [buf[s].reshape(shape) for s, shape in zip(self.spans, self.shapes)]

    def hermitian(self, buf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The carried blocks of (rho + rho^H)/2, block pq from rho_pq and
        rho_qp^H, into ``out`` (by default a new buffer)."""
        views, out = self._views(buf), np.empty_like(buf) if out is None else out
        for o, v, k in zip(self._views(out), views, self.mirror):
            np.add(v, np.conjugate(views[k].T, out=o), out=o)
            o *= 0.5
        return out

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
        """max |rho - rho^H|, taken block by block: rho_pq against rho_qp^H,
        each difference and its modulus formed in the scratch buffer."""
        views, errors = self._views(buf), []
        for v, k, (p, q) in zip(views, self.mirror, self.blocks):
            if p <= q:
                diff = np.conjugate(views[k].T, out=self._tmp[: v.size].reshape(v.shape))
                np.subtract(v, diff, out=diff)
                errors.append(np.abs(diff, out=diff).real.max())
        return float(np.max(errors))  # np.max keeps a NaN, where max() may drop it

    def min_eigenvalue(self, buf: np.ndarray) -> float:
        """Smallest eigenvalue of the Hermitian part of rho, formed in the
        scratch buffer: the smaller of its two parity blocks' minima when its
        cross-parity blocks are exactly 0 (as for every thermal start, see
        the module docstring), else the natural-order matrix's.  The
        ``eigvalsh`` runs on one BLAS thread."""
        herm = self.hermitian(buf, self._tmp[: self.size])
        blocks = self._views(herm)
        if len(blocks) > 2 and np.any(blocks[2]):
            blocks = [self.join(herm)]
        with _one_blas_thread():
            return float(min(np.linalg.eigvalsh(h).min() for h in blocks[:2]))

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


def _check_dt(dt: float, params: SystemParams, spans) -> None:
    """Raise ValueError unless ``dt`` is finite, positive and within the
    stroke-wide RK4 step bound 1/(50 f_max) of every span (``span_fmax``)."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got dt={dt}")
    for span in spans:
        dt_max = 1.0 / (50.0 * span_fmax(span, params))
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

    Each segment between two output samples takes a fixed number of equal
    steps.  On a hold or exchange stroke, a segment of length l takes
    ceil(l B / TAYLOR_THETA) Taylor steps of exp(h L) (``_taylor_step``), B
    the generator's ``norm_bound``; on a ramp, RK4 steps of at most
    1/(50 f), where f is the largest frequency scale on that segment
    (``span_fmax`` with the detunings at the segment's ends).  ``dt`` caps
    every step further; it must not exceed the stroke-wide bound
    1/(50 f_max), and a coarser ``dt`` raises ValueError.  The samples lie
    on the ``schedule.stroke_walk`` grid (whose walk checks the strokes).
    Each sample's occupations, moments, leakage and checks are read off the
    carried parity blocks (``_Blocks.observe``); no density matrix is kept
    but the final state's, joined once after the work buffers are released.
    Top Fock-level population is checked after every step against
    ``leakage_threshold``; trace, hermiticity and positivity are checked at
    every output sample.
    """
    from ._fock_engine import propagate  # compiled on the first Fock run only

    return propagate(state, params, schedule, t_end, dt, samples_per_stroke, leakage_threshold)
