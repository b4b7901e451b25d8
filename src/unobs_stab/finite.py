"""Finite-dimensional strategy: embed the plant state as (x, |x|^2 / 2).

For a skew-symmetric plant  xdot = A x + b u  with output y = |x|^2 / 2, the
embedded state z = (x, y) obeys a bilinear system with linear output, which
admits a Luenberger observer whose error norm never increases.  Feedback is
the stabilizing gain plus a small multiple of the estimated output coordinate;
that perturbation is what restores observability of the closed loop at the
target.  closed_loop_rhs states the whole loop once, on packed rows
(x, zhat); sim.run_finite_batch steps those rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import solve_lyapunov


@dataclass(frozen=True)
class Plant:
    """Linear plant x' = A x + b u with skew-symmetric A."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"Plant: A must be square, got {a.shape}")
        if b.shape[0] != a.shape[0]:
            raise ValueError("Plant: b length must match A")
        if not np.allclose(a, -a.T, atol=1e-12):
            raise ValueError("Plant: A must be skew-symmetric")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def rotation_plant() -> Plant:
    """The 2-state benchmark: A the quarter-turn generator, b = (0, 1)."""
    return Plant(A=np.array([[0.0, -1.0], [1.0, 0.0]]), b=np.array([0.0, 1.0]))


@dataclass(frozen=True)
class FinParams:
    """Gains for the embedded-observer loop.

    K is the stabilizing state-feedback row, delta the feedback perturbation,
    alpha the observer output-injection gain.  Whether delta stays below
    delta_margin for the ball of starts is settled by the config parser.
    """

    K: np.ndarray
    delta: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "K", np.asarray(self.K, dtype=float).reshape(-1))
        if self.delta <= 0.0:
            raise ValueError("FinParams: delta must be positive")
        if self.alpha <= 0.0:
            raise ValueError("FinParams: alpha must be positive")


def _half_sq(x) -> np.ndarray:
    """|x|^2 / 2 per row, the loop's one summation of the lift."""
    return 0.5 * (x * x).sum(axis=-1)


def embed(x) -> np.ndarray:
    """Lift each row x, shape (..., n), to (x, |x|^2 / 2), shape (..., n+1)."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, _half_sq(x)[..., None]], axis=-1)


def perturbed_feedback(zhat, K, delta: float):
    """u = K zhat[:n] + delta * zhat[n] for each row of zhat; on embedded
    states this equals K x + (delta/2) |x|^2."""
    zhat = np.asarray(zhat, dtype=float)
    K = np.asarray(K, dtype=float)
    return (zhat[..., :-1] * K).sum(axis=-1) + delta * zhat[..., -1]


def closed_loop_rhs(s, params: FinParams, plant: Plant) -> np.ndarray:
    """Time derivative of the output-feedback loop, for each packed row
    s = (x, zhat) of length 2n+1.

    u = perturbed_feedback(zhat);  xdot = A x + b u;
    zhatdot = A_emb(u) zhat + B_emb u - L(u) (C zhat - y), with y = |x|^2/2,
    A_emb(u) = [[A, 0], [u b', 0]], B_emb = (b, 0), C = (0, ..., 0, 1) and
    L(u) = (b u, alpha).  The error matrix A_emb(u) - L(u) C has symmetric
    part -alpha C'C, which is what makes the estimation error dissipative.
    """
    s = np.asarray(s, dtype=float)
    n = plant.n
    x, zbar, zlast = s[..., :n], s[..., n:2 * n], s[..., 2 * n]
    u = perturbed_feedback(s[..., n:], params.K, params.delta)
    innov = zlast - _half_sq(x)
    # einsum, not matmul: it never hands the run axis to BLAS
    xdot = np.einsum("...j,kj->...k", x, plant.A) + u[..., None] * plant.b
    zbar_dot = np.einsum("...j,kj->...k", zbar, plant.A) \
        + (u * (1.0 - innov))[..., None] * plant.b
    zlast_dot = u * (zbar * plant.b).sum(axis=-1) - params.alpha * innov
    return np.concatenate([xdot, zbar_dot, zlast_dot[..., None]], axis=-1)


def delta_margin(K, rho: float, plant: Plant) -> float:
    """Largest feedback perturbation 1/(rho |P b|) that keeps every initial
    condition in the ball of radius rho inside the basin of the perturbed
    state feedback.  P solves (A+bK)'P + P(A+bK) = -2I.
    """
    if rho <= 0.0:
        raise ValueError("delta_margin: rho must be positive")
    K = np.asarray(K, dtype=float).reshape(-1)
    # solve_lyapunov raises when A + bK is not Hurwitz
    p = solve_lyapunov(plant.A + np.outer(plant.b, K), 2.0 * np.eye(plant.n))
    return 1.0 / (rho * float(np.linalg.norm(p @ plant.b)))


def observability_certificate(K, A, delta: float, alpha: float) -> np.ndarray:
    """The (n+2) x (n+2) matrix whose invertibility certifies closed-loop
    observability.

    Rows are (K, delta, 0) and (K A^k, 0, delta (-alpha)^k) for k = 1..n+1:
    they express that all derivatives of the control vanish at a point of the
    unobservable set.  The matrix is singular when delta = 0, and invertible
    for delta, alpha > 0 whenever (K, A) is observable and A invertible; its
    determinant equals -delta^2 alpha Delta P(-alpha), with Delta the
    observability determinant of (KA, A) and P the characteristic polynomial
    of A (positive on the real axis for skew-symmetric invertible A).
    """
    A = np.asarray(A, dtype=float)
    K = np.asarray(K, dtype=float).reshape(-1)
    n = A.shape[0]
    if A.shape != (n, n) or K.shape[0] != n:
        raise ValueError("observability_certificate: incompatible shapes")
    if not np.allclose(A, -A.T, atol=1e-12):
        raise ValueError("observability_certificate: A must be skew-symmetric")
    if abs(np.linalg.det(A)) < 1e-12:
        raise ValueError("observability_certificate: A must be invertible")
    return _certificate(K, A, delta, alpha)


def _certificate(K: np.ndarray, A: np.ndarray, delta: float, alpha: float) -> np.ndarray:
    """observability_certificate without its input checks, for a float row K
    and a skew-symmetric invertible A."""
    n = A.shape[0]
    q = np.zeros((n + 2, n + 2))
    row = K.copy()
    q[0, :n] = row
    q[0, n] = delta
    for k in range(1, n + 2):
        row = row @ A
        q[k, :n] = row
        q[k, n + 1] = delta * (-alpha) ** k
    return q
