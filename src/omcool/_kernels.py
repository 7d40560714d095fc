"""Numeric kernels of the Gaussian engine: expm and Magnus-4.

``expm1`` is a numpy-only matrix exponential that works on stacks of
matrices and returns exp(X) - I: propagators of short substeps lie close to
the identity, and keeping them as I + Y holds their small part to full
precision through long products.  A stack is scaled by 2^-s (s >= 0) into
theta_12 = 0.3066, takes the Taylor polynomial of degree 12, evaluated with
matrix products alone (Paterson and Stockmeyer, SIAM J. Comput. 2, 60
(1973)), and is squared s times (Bader, Blanes, Casas, Mathematics 7, 1174
(2019)), so no step solves a linear system.
``magnus4`` gives the fourth-order Magnus propagators (Blanes, Casas, Oteo,
Ros, Phys. Rep. 470, 151 (2009)) of dZ/dt = (M0 + delta(t) E) Z over a batch
of substeps, from one call for the two moments of delta over all of them and
one matrix product; only a ramp's pair (a, b) takes them.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "magnus4"

# degree 12 serves ||X||_1 <= theta_12 = 0.3066, the largest norm whose dropped
# tail relative to ||X||, ||X||^12 / 13!, is at most 2^-53
_THETA = (math.factorial(13) * 2.0**-53) ** (1.0 / 12)
# Paterson-Stockmeyer table of sum_{k=1}^12 X^k / k! in blocks of s = 4: row j
# holds the coefficients of I, X, ..., X^4 in block j, the terms X^(4 j + i);
# the top block runs to X^4 itself, where Horner's rule in X^4 starts
_COEF = np.zeros((3, 5))
for _k in range(1, 13):
    _j = min(_k // 4, 2)
    _COEF[_j, _k - 4 * _j] = 1.0 / math.factorial(_k)


def _taylor(X):
    """sum_{k=1}^12 X^k / k! from matrix products alone: the powers X^1..X^4,
    each block as one weighted sum of them, and Horner's rule in X^4 over the
    blocks (5 matrix products)."""
    s = _COEF.shape[1] - 1
    P = np.empty((s,) + X.shape)  # X^1 .. X^s
    P[0] = X
    for k in range(2, s + 1):
        np.matmul(P[k // 2 - 1], P[k - k // 2 - 1], out=P[k - 1])
    ident = np.eye(X.shape[-1])

    def block(j):
        # the identity goes in place: with one more stack temporary, the heap a
        # chunk frees can pass malloc's trim threshold and refault every chunk
        B = (_COEF[j, 1:] @ P.reshape(s, -1)).reshape(X.shape)
        B += _COEF[j, 0] * ident
        return B

    Y = block(len(_COEF) - 1)
    for j in range(len(_COEF) - 2, -1, -1):
        Y = P[-1] @ Y
        Y += block(j)
    return Y


def expm1(X):
    """exp(X) - I for X, or for each matrix in a stack X[..., n, n].

    One scaling serves the whole stack, chosen from its largest 1-norm:
    s = 0 at or below theta_12, and otherwise the least s that scales the
    stack into theta_12.  A non-finite input gives an all-NaN result.
    """
    X = np.asarray(X, dtype=float)
    # column sums by einsum: faster than .sum(axis=-2) on these small stacks
    norm = float(np.einsum("...ij->...j", np.abs(X)).max()) if X.size else 0.0
    if not math.isfinite(norm):
        return np.full(X.shape, np.nan)
    s = math.ceil(math.log2(norm / _THETA)) if norm > _THETA else 0
    Y = _taylor(X / 2.0**s)
    for _ in range(s):
        Y = 2.0 * Y + Y @ Y  # (I + Y)^2 - I
    return Y


def magnus4(G, t, h, moments):
    """Fourth-order Magnus propagators of dZ/dt = (M0 + delta(t) E) Z.

    ``G`` is the stack (M0, E, C = [M0, E]).  Substep k runs from ``t[k]``
    over ``h[k]``; ``moments(t, h)`` gives, for every substep at once, mu0 =
    int_0^h delta(t + s) ds and mu1 = int_0^h (s - h/2) delta(t + s) ds.  For
    a generator linear in delta, the first two Magnus terms depend on delta
    through these alone: Omega_1 + Omega_2 = h M0 + mu0 E - mu1 C, one
    (K, 3) @ (3, n^2) product for the stack.  Returns the stack of
    propagators minus the identity.
    """
    h = np.asarray(h, dtype=float)
    mu0, mu1 = moments(t, h)
    w = np.stack((h, mu0, -mu1), axis=-1)
    return expm1((w @ G.reshape(3, -1)).reshape(h.shape + G.shape[1:]))
