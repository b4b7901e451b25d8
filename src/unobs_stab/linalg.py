"""Small dense linear algebra for controller and observer synthesis.

Plants in this package have at most a handful of states, so everything here
favors directness over scale: Lyapunov equations are solved by Kronecker
vectorization, pole placement is Ackermann's formula (SISO only).  scipy is
imported only when the dense exponential is called, so that importing the
package (and every CLI command) needs numpy alone.
"""

from __future__ import annotations

import numpy as np

HURWITZ_TOL = -1e-12


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


def is_hurwitz(m) -> bool:
    """True iff every eigenvalue has real part < -1e-12."""
    m = _square(m)
    return bool(np.all(np.linalg.eigvals(m).real < HURWITZ_TOL))


def solve_lyapunov(f, qr) -> np.ndarray:
    """Solve F' P + P F = -Qr for symmetric positive definite P.

    F must be Hurwitz and Qr symmetric positive definite.  Solved by
    vectorizing the linear map (fine for the n <= 8 plants used here);
    the residual is checked before returning.
    """
    f = _square(f)
    qr = _square(qr)
    if f.shape != qr.shape:
        raise ValueError("solve_lyapunov: F and Qr must have the same shape")
    if not np.allclose(qr, qr.T, atol=1e-12):
        raise ValueError("solve_lyapunov: Qr must be symmetric")
    if np.min(np.linalg.eigvalsh(qr)) <= 0.0:
        raise ValueError("solve_lyapunov: Qr must be positive definite")
    if not is_hurwitz(f):
        raise ValueError("solve_lyapunov: F is not Hurwitz")
    n = f.shape[0]
    eye = np.eye(n)
    # vec(F'P) = (I (x) F') vec(P),  vec(PF) = (F' (x) I) vec(P)  (column-major vec)
    mat = np.kron(eye, f.T) + np.kron(f.T, eye)
    p = np.linalg.solve(mat, -qr.flatten(order="F")).reshape((n, n), order="F")
    p = 0.5 * (p + p.T)
    resid = np.linalg.norm(f.T @ p + p @ f + qr)
    if resid > 1e-10:
        raise ArithmeticError(f"solve_lyapunov: residual {resid:.2e} exceeds 1e-10")
    return p


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
    """Gain K (shape (n,)) such that eig(A + b K) equals the requested poles.

    Ackermann's formula; SISO only.  The pole multiset must be closed under
    conjugation and (A, b) must be controllable.  The achieved eigenvalues are
    verified to 1e-8 before returning.
    """
    a = _square(a)
    b = np.asarray(b, dtype=float).reshape(-1)
    n = a.shape[0]
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    if poles.shape[0] != n:
        raise ValueError(f"place_poles: need {n} poles, got {poles.shape[0]}")
    if not np.allclose(np.sort_complex(poles), np.sort_complex(np.conj(poles)), atol=1e-12):
        raise ValueError("place_poles: pole set must be closed under conjugation")
    ctrb_t, rank = kalman_matrix(b, a.T)  # the controllability matrix, transposed
    if rank < n:
        raise ValueError("place_poles: (A, b) is not controllable")
    chi = np.eye(n, dtype=complex)
    for p in poles:
        chi = chi @ (a - p * np.eye(n))
    chi = chi.real
    k_acker = np.linalg.solve(ctrb_t, np.eye(n)[:, -1]) @ chi
    k = -k_acker
    achieved = np.sort_complex(np.linalg.eigvals(a + np.outer(b, k)))
    if np.max(np.abs(achieved - np.sort_complex(poles))) > 1e-8:
        raise ArithmeticError("place_poles: achieved eigenvalues off by more than 1e-8")
    return k
