"""Small dense linear algebra for controller and observer synthesis.

The dense exponential (scipy, imported only when it is called, so that
importing the package and every CLI command needs numpy alone), the Kalman
stack of a pair, and the stabilizing gain of the quarter-turn plant, the one
plant the finite loop runs, in closed form.
"""

from __future__ import annotations

import numpy as np

from .finite import Plant


def _square(m) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def expm(m, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{t M} (scaling-and-squaring Pade).

    Rejects |t| * ||M||_F > 1e4; nothing in this package is remotely close,
    and beyond that the result overflows for generic matrices anyway.
    """
    import scipy.linalg

    m = _square(m)
    if abs(t) * np.linalg.norm(m) > 1e4:
        raise OverflowError("expm: |t| * ||M|| too large")
    return scipy.linalg.expm(t * m)


def kalman_matrix(c, a) -> tuple[np.ndarray, int]:
    """Observability matrix [C; CA; ...; CA^{n-1}] of a pair, for a row
    vector C, plus its numerical rank.  The controllability matrix of (A, b)
    is the transpose of the observability matrix of (A', b')."""
    a = _square(a)
    n = a.shape[0]
    v = np.asarray(c, dtype=float).reshape(-1)
    if v.shape[0] != n:
        raise ValueError(f"kalman_matrix: vector length {v.shape[0]} != n={n}")
    rows = [v]
    for _ in range(n - 1):
        rows.append(rows[-1] @ a)
    m = np.vstack(rows)
    return m, int(np.linalg.matrix_rank(m, tol=1e-10))


def place_poles(a, b, poles) -> np.ndarray:
    """Gain K such that A + b K has the two real poles p1, p2, for the
    quarter-turn plant A = [[0, -1], [1, 0]], b = (0, 1); any other (A, b) is
    refused as Plant refuses it.  A + b K = [[0, -1], [1 + K0, K1]] has the
    characteristic polynomial s^2 - K1 s + 1 + K0, so K = (p1 p2 - 1, p1 + p2).
    """
    Plant(a, b)
    poles = np.asarray(poles)
    if poles.shape != (2,) or not np.isrealobj(poles):
        raise ValueError(f"place_poles: need two real poles, got {poles!r}")
    p1, p2 = poles.astype(float).tolist()
    return np.array([p1 * p2 - 1.0, p1 + p2])
