"""Reference states, operators and checks on a truncated Fock space, for the tests.

No run calls these: the runner starts the Fock engine from a thermal
diagonal, and the engine reads every observable and check off rho's parity
blocks (``omcool.fock._Blocks``) without a d x d operator.  The states and
operators here are dense d x d matrices, the reference formulas that block
machinery is checked against; the checks take one whole state's blocks at
a time, as ``FockState.validate`` does, but each check alone.
"""

from functools import reduce

import numpy as np

from omcool.fock import (
    DEFAULT_LEAKAGE_THRESHOLD,
    FockState,
    ModeOperators,
    _Blocks,
    _cutoffs,
    _split,
    _thermal_diagonal,
)
from omcool.schedule import _is_integer


def thermal_state(cutoffs, occupations, time: float = 0.0,
                  leakage_threshold: float = DEFAULT_LEAKAGE_THRESHOLD) -> FockState:
    """Product of truncated, renormalized thermal (geometric) states, as a
    d x d ``rho`` (``_thermal_diagonal`` gives its diagonal alone)."""
    diagonal = _thermal_diagonal(cutoffs, occupations, leakage_threshold)
    return FockState(rho=np.diag(diagonal.astype(complex)), cutoffs=cutoffs, time=time)


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
    d = int(np.prod(cutoffs))
    rho = np.zeros((d, d), dtype=complex)
    rho[(np.ravel_multi_index(levels, cutoffs),) * 2] = 1.0
    return FockState(rho=rho, cutoffs=cutoffs, time=time)


def number(ops: ModeOperators, mode: int) -> np.ndarray:
    return np.diag(ops.number_diag[mode])


def annihilation(ops: ModeOperators, mode: int) -> np.ndarray:
    """Dense d x d annihilation operator of ``mode``, built on demand."""
    factors = [np.eye(c) for c in ops.cutoffs]
    factors[mode] = np.diag(np.sqrt(np.arange(1.0, ops.cutoffs[mode])), k=1)
    return reduce(np.kron, factors)


def trace_error(state: FockState) -> float:
    return _Blocks.trace_error(*_split(state))


def hermiticity_error(state: FockState) -> float:
    return _Blocks.hermiticity_error(*_split(state))


def min_eigenvalue(state: FockState) -> float:
    return _Blocks.min_eigenvalue(*_split(state))
