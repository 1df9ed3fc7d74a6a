"""Reference oracle for the general solver: the stationarity recursions
assembled as one dense linear system over the defect hull.

The unknowns are the two-channel amplitudes at every hull site plus the
reflected and transmitted amplitudes; the rows are the recursions and
the scattering boundary data.  It costs O(hull**3), so it is meant for
hulls of up to about 40 sites, where it independently checks
:func:`qrtw.solve_general`.
"""

import cmath

import numpy as np

from qrtw import Injection


def dense_solve(coins, delta, injection, p, q):
    """Return ``(r, t, psi_l, psi_r)`` with the amplitudes on the hull."""
    x_lo = int(min(coins))
    x_hi = int(max(coins))
    n = x_hi - x_lo + 1
    qe = q + delta
    left = injection is Injection.LEFT

    def site(x):
        u = coins.get(x)
        if u is None:
            return (cmath.exp(1j * p), 0j, 0j, cmath.exp(1j * qe))
        return (u.a, u.b, u.c, u.d)

    size = 2 * n + 2
    col_r = 2 * n
    col_t = 2 * n + 1
    mat = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)

    # left mover leaving the hull: the reflected (left) or transmitted (right) wave
    a0, b0, _, _ = site(x_lo)
    mat[0, 0] = a0
    mat[0, n] = b0
    if left:
        mat[0, col_r] = -cmath.exp(-1j * p * (x_lo + 1))
    else:
        mat[0, col_t] = -1.0
    row = 1
    # psi_l(x) = a psi_l(x+1) + b psi_r(x+1), with the coin of site x+1
    for x in range(x_lo, x_hi):
        i = x - x_lo
        an, bn, _, _ = site(x + 1)
        mat[row, i] = 1.0
        mat[row, i + 1] = -an
        mat[row, n + i + 1] = -bn
        row += 1
    # left mover entering from the right
    mat[row, n - 1] = 1.0
    rhs[row] = 0.0 if left else 1.0
    row += 1
    # psi_r(x) = c psi_l(x-1) + d psi_r(x-1), with the coin of site x-1
    for x in range(x_lo + 1, x_hi + 1):
        i = x - x_lo
        _, _, cp, dp = site(x - 1)
        mat[row, n + i] = 1.0
        mat[row, i - 1] = -cp
        mat[row, n + i - 1] = -dp
        row += 1
    # right mover leaving the hull: the transmitted (left) or reflected (right) wave
    _, _, ch, dh = site(x_hi)
    mat[row, n - 1] = ch
    mat[row, 2 * n - 1] = dh
    if left:
        mat[row, col_t] = -cmath.exp(1j * qe * (x_hi + 1))
    else:
        mat[row, col_r] = -1.0
    row += 1
    # right mover entering from the left
    mat[row, n] = 1.0
    rhs[row] = cmath.exp(1j * qe * x_lo) if left else 0.0

    sol = np.linalg.solve(mat, rhs)
    return complex(sol[col_r]), complex(sol[col_t]), sol[:n], sol[n : 2 * n]
