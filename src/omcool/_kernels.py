"""Numeric kernels of the Gaussian engine: expm and Magnus-4.

``expm1`` is a numpy-only matrix exponential that works on stacks of
matrices and returns exp(X) - I: propagators of short substeps lie close to
the identity, and keeping them as I + Y holds their small part to full
precision through long products.  A stack whose largest 1-norm is at most
theta_12 = 0.3066 takes the Taylor polynomial of degree 7 (up to theta_7 =
0.0239) or 12, evaluated with matrix products alone (Paterson and
Stockmeyer, SIAM J. Comput. 2, 60 (1973)); a larger norm takes Higham's
Pade-13 scaling and squaring (SIAM J. Matrix Anal. Appl. 26, 1179 (2005)),
the only branch with a linear solve.  ``magnus4`` gives the fourth-order
Magnus propagators (Blanes, Casas, Oteo, Ros, Phys. Rep. 470, 151 (2009)) of
dZ/dt = (M0 + delta(t) E) Z over a batch of substeps, from one evaluation of
delta at both Gauss-Legendre nodes of all of them and one matrix product.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

BACKEND = "magnus4"

# Taylor degree m serves ||X||_1 <= theta_m, the largest norm whose dropped
# tail relative to ||X||, ||X||^m / (m + 1)!, is at most 2^-53: theta_7 =
# 0.0239 and theta_12 = 0.3066.  Degree 7 saves degree 12 one product on the
# small norms of most design-sweep substeps.
_TAYLOR = tuple((m, (math.factorial(m + 1) * 2.0**-53) ** (1.0 / m)) for m in (7, 12))
# Pade-13 is exact to double precision for ||X||_1 <= theta_13.
_THETA13 = 5.371920351148152e0
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)


@cache
def _blocks(m):
    """Paterson-Stockmeyer table of sum_{k=1}^m X^k / k! for s = ceil(sqrt(m)):
    row j holds the coefficients of I, X, ..., X^s in block j, the terms
    X^(s j + i); the top block runs to X^s itself, where Horner's rule in X^s
    starts."""
    s = math.isqrt(m - 1) + 1
    coef = np.zeros(((m - 1) // s + 1, s + 1))
    for k in range(1, m + 1):
        j = min(k // s, len(coef) - 1)
        coef[j, k - s * j] = 1.0 / math.factorial(k)
    return coef


def _taylor(X, m):
    """sum_{k=1}^m X^k / k! from matrix products alone: the powers X^1..X^s,
    each block as one weighted sum of them, and Horner's rule in X^s over the
    blocks (4 matrix products for m = 7, 5 for m = 12)."""
    coef = _blocks(m)
    s = coef.shape[1] - 1
    P = np.empty((s,) + X.shape)  # X^1 .. X^s
    P[0] = X
    for k in range(2, s + 1):
        np.matmul(P[k // 2 - 1], P[k - k // 2 - 1], out=P[k - 1])
    ident = np.eye(X.shape[-1])

    def block(j):
        # the identity goes in place: with one more stack temporary, the heap a
        # chunk frees can pass malloc's trim threshold and refault every chunk
        B = (coef[j, 1:] @ P.reshape(s, -1)).reshape(X.shape)
        B += coef[j, 0] * ident
        return B

    Y = block(len(coef) - 1)
    for j in range(len(coef) - 2, -1, -1):
        Y = P[-1] @ Y
        Y += block(j)
    return Y


def _pade13(X):
    b = _PADE13
    ident = np.eye(X.shape[-1])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * ident)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * ident)
    # r_13(X) = (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U
    return 2.0 * np.linalg.solve(V - U, U)


def expm1(X):
    """exp(X) - I for X, or for each matrix in a stack X[..., n, n].

    One degree (and scaling) serves the whole stack, chosen from its largest
    1-norm.  A non-finite input gives an all-NaN result.
    """
    X = np.asarray(X, dtype=float)
    # column sums by einsum: faster than .sum(axis=-2) on these small stacks
    norm = float(np.einsum("...ij->...j", np.abs(X)).max()) if X.size else 0.0
    if not math.isfinite(norm):
        return np.full(X.shape, np.nan)
    for m, theta in _TAYLOR:
        if norm <= theta:
            return _taylor(X, m)
    s = max(0, math.ceil(math.log2(norm / _THETA13)))
    Y = _pade13(X / 2.0**s)
    for _ in range(s):
        Y = 2.0 * Y + Y @ Y  # (I + Y)^2 - I
    return Y


_GL_SHIFT = math.sqrt(3.0) / 6.0  # Gauss-Legendre nodes at t + h (1/2 -+ sqrt(3)/6)


def magnus4(G, t, h, delta):
    """Fourth-order Magnus propagators of dZ/dt = (M0 + delta(t) E) Z.

    ``G`` is the stack (M0, E, C = [M0, E]).  Substep k runs from ``t[k]``
    over ``h[k]``; ``delta`` is a vectorized function of time, called once
    for both Gauss-Legendre nodes of every substep.  With M_k = M0 +
    delta(t_k) E at the two nodes, the Magnus exponent h/2 (M_lo + M_hi) +
    sqrt(3)/12 h^2 [M_hi, M_lo] is a weighted sum of G's three matrices,
    since [M_hi, M_lo] = (d_lo - d_hi) C: one (K, 3) @ (3, n^2) product for
    the stack.  Returns the stack of propagators minus the identity.
    """
    h = np.asarray(h, dtype=float)
    nodes = t + np.multiply.outer((0.5 - _GL_SHIFT, 0.5 + _GL_SHIFT), h)
    d_lo, d_hi = delta(nodes.ravel()).reshape(nodes.shape)
    w = np.stack((h, 0.5 * h * (d_lo + d_hi), 0.5 * _GL_SHIFT * h**2 * (d_lo - d_hi)), axis=-1)
    return expm1((w @ G.reshape(3, -1)).reshape(h.shape + G.shape[1:]))
