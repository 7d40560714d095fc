"""Numeric kernels of the Gaussian engine: expm and Magnus-4.

``expm1`` is a numpy-only matrix exponential (Higham's Pade scaling and
squaring, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)) that works on stacks
of matrices and returns exp(X) - I: propagators of short substeps lie close to
the identity, and keeping them as I + Y holds their small part to full
precision through long products.  ``magnus4`` gives the fourth-order Magnus
propagators (Blanes, Casas, Oteo, Ros, Phys. Rep. 470, 151 (2009)) of
dZ/dt = (M0 + delta(t) E) Z over a batch of substeps, from delta at the two
Gauss-Legendre nodes of each.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "magnus4"

# Pade degree m is exact to double precision for ||X||_1 <= theta_m.
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA13 = 5.371920351148152e0
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


def _pade(X, m):
    b = _PADE[m]
    ident = np.eye(X.shape[-1])
    X2 = X @ X
    if m == 13:
        X4 = X2 @ X2
        X6 = X4 @ X2
        U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
                 + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * ident)
        V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
             + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * ident)
    else:
        power = ident
        U = b[1] * ident
        V = b[0] * ident
        for k in range(1, (m + 1) // 2):
            power = power @ X2
            U = U + b[2 * k + 1] * power
            V = V + b[2 * k] * power
        U = X @ U
    # r_m(X) = (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U
    return 2.0 * np.linalg.solve(V - U, U)


def expm1(X):
    """exp(X) - I for X, or for each matrix in a stack X[..., n, n].

    One Pade degree and scaling serve the whole stack, chosen from its
    largest 1-norm.  A non-finite input gives an all-NaN result.
    """
    X = np.asarray(X, dtype=float)
    norm = float(np.abs(X).sum(axis=-2).max()) if X.size else 0.0
    if not math.isfinite(norm):
        return np.full(X.shape, np.nan)
    for m, theta in _THETA:
        if norm <= theta:
            return _pade(X, m)
    s = max(0, math.ceil(math.log2(norm / _THETA13)))
    Y = _pade(X / 2.0**s, 13)
    for _ in range(s):
        Y = 2.0 * Y + Y @ Y  # (I + Y)^2 - I
    return Y


_GL_SHIFT = math.sqrt(3.0) / 6.0  # Gauss-Legendre nodes at t + h (1/2 -+ sqrt(3)/6)


def magnus4(M0, E, C, t, h, delta):
    """Fourth-order Magnus propagators of dZ/dt = (M0 + delta(t) E) Z.

    Substep k runs from ``t[k]`` over ``h[k]``; ``delta`` is a vectorized
    function of time and ``C = [M0, E]``.  With M_k = M0 + delta(t_k) E at
    the lower and upper Gauss-Legendre nodes, the Magnus exponent
    h/2 (M_lo + M_hi) + sqrt(3)/12 h^2 [M_hi, M_lo] reduces to a sum of three
    fixed matrices, since [M_hi, M_lo] = (d_lo - d_hi) C.  Returns the stack
    of propagators minus the identity.
    """
    h = np.asarray(h, dtype=float)
    d_lo = delta(t + (0.5 - _GL_SHIFT) * h)[:, None, None]
    d_hi = delta(t + (0.5 + _GL_SHIFT) * h)[:, None, None]
    h = h[:, None, None]
    omega = (h * M0 + (0.5 * h * (d_lo + d_hi)) * E
             + (0.5 * _GL_SHIFT * h**2 * (d_lo - d_hi)) * C)
    return expm1(omega)
