"""The Fock engine's step machinery: the generator on the parity blocks
(``_Generator``), its RK4 and Taylor steps, and the run loop behind
``fock.propagate_fock``, which imports this module on its first call, so a
run that never uses the Fock engine does not compile it (see the ``fock``
module docstring for the method)."""

from __future__ import annotations

import numpy as np

from .errors import TruncationError
from .fock import (FockState, ModeOperators, _Blocks, _check_dt, _check_leakage_threshold,
                   _compose)
from .params import SystemParams
from .schedule import CycleSchedule, Samples, StrokeKind, span_fmax, stroke_walk

# h B of one Taylor step of a constant stroke, and the bound on the trace norm
# of the series tail that each step drops; at h B = 6 no term of the series
# exceeds 6^6/6! ~ 65 times ||rho||, so cancellation among terms costs ~1e-14
TAYLOR_THETA = 6.0
TAYLOR_EPS = 1e-14
_ROW_BLOCK = 40  # rows of the d x d sums that ``norm_bound`` forms at a time


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
    jump sandwich reads the block of the flipped parities at U's entries,
    weighted by the rate-scaled outer product of the ladder weights (stored
    complex, since a real-by-complex multiply runs through a cast buffer):
    through ``upper`` itself, at one offset per parity block, where the
    entries of nonzero weight allow it (U kept in its row-major order,
    which the gathers read fastest), else through a gather index of its own.  Y is built in the caller's output buffer;
    U accumulates in one half of the scratch buffer, each jump read into
    the other, and is added into Y before the mirror sum, done in place.
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

        def bands(scale, pairs):
            """The nonzero bands of ``scale`` times each product of two ladder
            shifts, each as one ``_row_band`` per parity block of the place,
            among its parity, of each row's source row i + o (0 where the
            weight vanishes, and the term adds 0)."""
            shifts = ((o, scale * w) for o, w in (_compose(x, y) for x, y in pairs))
            return [[_row_band(local[np.where(w != 0, np.arange(d) + o, 0)][order][r],
                               w[order][r]) for r in self.rows]
                    for o, w in shifts if np.any(w != 0)]

        # -i g (a + a^dag)(b + b^dag), and -i (b^dag c + c^dag b) per target
        self.couple = bands(-1j * params.g, [(x, y) for x in (lower[0], upper[0])
                                             for y in (lower[1], upper[1])])
        self.exchange = [bands(-1j, [(upper[1], lower[k]), (lower[1], upper[k])])
                         for k in range(2, n_modes)]
        diag_static = params.omega_b * ops.number_diag[1]
        for k, dt in enumerate(params.delta_targets):
            diag_static += dt * ops.number_diag[2 + k]
        self.diag_static = diag_static[order]
        self.na_diag = ops.number_diag[0][order]

        # U's entries (see the class docstring): their natural rows and
        # columns, and their buffer positions
        rows, cols = [], []
        for (p, q), (a, b) in zip(self.blocks, self.shapes):
            if p <= q:
                i, j = np.triu_indices(a) if p == q else np.indices((a, b)).reshape(2, -1)
                rows.append(natural[p][i])
                cols.append(natural[q][j])
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        self.upper = self.position(rows, cols)
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
                # entry (i, j) reads rho[i + s, j + s], and itself where its weight is 0
                weight = scale * (w[rows] * w[cols]) * half
                valid = weight != 0
                gather = self.position(*(np.where(valid, x + s, x) for x in (rows, cols)))
                # one read per block of U where its valid entries read rho at
                # I + o for one offset o of their positions I: rho[k:k + L] at
                # ``upper`` in np.take's wrap mode reads rho[k + I mod L], so
                # k = o when o >= 0, and k = o + L when o < 0, for I in [L, 2L)
                # (a block that starts at L >= -o and ends by 2L); otherwise
                # the jump reads through ``gather`` itself
                reads = []
                for span, (p, q) in zip(self.spans, self.blocks):
                    r = slice(*np.searchsorted(self.upper, (span.start, span.stop)))
                    i, g = self.upper[r][valid[r]], gather[r][valid[r]]
                    o = int(g[0] - i[0]) if i.size else 0
                    L = self.size - o if o >= 0 else max(-o, span.start)
                    k = o + L * (o < 0)
                    if k + L > self.size or np.any(k + i % L != g):
                        reads = [(slice(None), gather, slice(None))]
                        break
                    if p <= q:  # U has no entry in block (1, 0)
                        reads.append((slice(k, k + L), self.upper[r], r))
                self.jumps.append((reads, weight.astype(complex)))
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
        jump weights of the row (k - o, l - o) that reads it.  The sums are
        formed ``_ROW_BLOCK`` rows at a time (fewer if the scratch buffer holds
        fewer), each entry by the same operations.
        """
        lvec = self._lvec(delta_now)
        rows = np.zeros((self.dim, 1))
        for band in bands:
            for block, (r, _, w) in zip(self.rows, band):
                rows[block][r] += np.abs(w)
        # the row blocks fill the scratch buffer, which is idle between steps
        height = min(_ROW_BLOCK, self._tmp.size // self.dim)
        base, sums = self._tmp.view(float)[: 2 * height * self.dim].reshape(2, height, self.dim)
        largest = []
        for lo in range(0, self.dim, height):
            i, b, s = slice(lo, lo + height), base[: self.dim - lo], sums[: self.dim - lo]
            # |L[i] + conj(L[j])| with no complex temporary
            np.hypot(np.add.outer(lvec.real[i], lvec.real, out=b),
                     np.subtract.outer(lvec.imag[i], lvec.imag, out=s), out=b)
            b += rows[i]
            b += rows.T
            for weights in (self.jump_rows, self.jump_cols):
                # the sum over jumps of s w[i] w[j]; einsum, not a BLAS product,
                # which would wake BLAS threads and their buffers
                np.einsum("ji,jk->ik", self.jump_scales * weights[:, i], weights, out=s)
                s += b
                largest.append(s.max())
        return float(np.sqrt(np.max(largest[::2]) * np.max(largest[1::2])))

    def rhs(self, rho: np.ndarray, bands: list, delta_now: float,
            out: np.ndarray) -> np.ndarray:
        """drho/dt of the flat buffer ``rho`` at detuning ``delta_now``,
        written into ``out``, which must not be ``rho``: Y + U first, then
        the mirror sum in place."""
        tmp = self._tmp
        lvec = self._lvec(delta_now)
        ys = self._views(out)
        # every gather index is in range, and mode="clip" (or the jumps'
        # "wrap") spares the buffered copy of ``out`` that np.take makes
        # under its default mode="raise"
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
        # Y += U, so the mirror sum below adds J = U + U^dag as well; U
        # accumulates in the first half of the scratch, each jump in the second
        acc, part = tmp[: 2 * self.upper.size].reshape(2, -1)
        np.take(out, self.upper, out=acc, mode="clip")
        for reads, w in self.jumps:
            for src, index, r in reads:
                np.take(rho[src], index, out=part[r], mode="wrap")
            np.multiply(w, part, out=part)
            acc += part
        out[self.upper] = acc
        # block pq of the slope is Y_pq + Y_qp^dag; block 10 is then the
        # mirror of the finished block 01
        for k, (ob, m) in enumerate(zip(ys, self.mirror)):
            if m < k:
                np.conjugate(ys[m].T, out=ob)
            else:
                ob += np.conjugate(ys[m].T, out=tmp[: ob.size].reshape(ob.shape))
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


def propagate(state: FockState, params: SystemParams, schedule: CycleSchedule, t_end: float,
              dt: float | None, samples_per_stroke: int, leakage_threshold: float) -> Samples:
    """``fock.propagate_fock``, which documents it."""
    _check_leakage_threshold(leakage_threshold)
    ops = ModeOperators(state.cutoffs)
    t0 = state.time
    walk = stroke_walk(schedule, t0, t_end, samples_per_stroke)
    if dt is not None:
        _check_dt(dt, params, [span for span, _, _ in walk])

    gen = _Generator(params, ops, state.rho)
    start = gen.split(state.rho)
    rho = gen.hermitian(start)
    # a start that FockState.validate rejects fails here, at t0; one that is
    # its own Hermitian part gets the same checks at the first sample
    if not np.array_equal(rho, start):
        gen.checks(start, t0)
    del start
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
                # 1/(50 f) for f on the segment, whose end detunings bound
                # |delta| on it (ramps are monotone)
                ends = span.delta_values_local(np.array([t_now, t_target]) - span.t_start)
                dt_target = 1.0 / (50.0 * span_fmax(span, params, ends))
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
