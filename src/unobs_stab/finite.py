"""Finite-dimensional strategy: embed the plant state as (x, |x|^2 / 2).

For the quarter-turn plant xdot = A x + b u, A = [[0, -1], [1, 0]], b = (0, 1),
with output y = |x|^2 / 2, the embedded state z = (x, y) obeys a bilinear
system with linear output, which admits a Luenberger observer whose error norm
never increases.  Feedback is the stabilizing gain plus a small multiple of the
estimated output coordinate; that perturbation is what restores observability
of the closed loop at the target.  closed_loop_rhs states the whole loop once,
on packed rows (x, zhat); sim.run_finite_batch steps those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_A = np.array([[0.0, -1.0], [1.0, 0.0]])
_B = np.array([0.0, 1.0])
_A.setflags(write=False)
_B.setflags(write=False)


@dataclass(frozen=True)
class Plant:
    """The plant x' = A x + b u the loop runs: A the quarter-turn generator
    and b = (0, 1), the only plant closed_loop_rhs states.  Any other A or b
    is refused, here and by place_poles, which builds a Plant of its (A, b);
    the certificate reads A, and place_poles and delta_margin state their
    results for this plant in closed form."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if not (np.array_equal(self.A, _A) and np.array_equal(self.b, _B)):
            raise ValueError("Plant: the loop runs only A = [[0, -1], [1, 0]] with b = (0, 1)")
        object.__setattr__(self, "A", _A)
        object.__setattr__(self, "b", _B)


def rotation_plant() -> Plant:
    """The 2-state benchmark: A the quarter-turn generator, b = (0, 1)."""
    return Plant(A=_A, b=_B)


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
    return 0.5 * np.add.reduce(x * x, axis=-1)


def embed(x) -> np.ndarray:
    """Lift each row x, shape (..., n), to (x, |x|^2 / 2), shape (..., n+1)."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, _half_sq(x)[..., None]], axis=-1)


def perturbed_feedback(zhat, K, delta: float):
    """u = K zhat[:n] + delta * zhat[n] for each row of zhat; on embedded
    states this equals K x + (delta/2) |x|^2."""
    zhat = np.asarray(zhat, dtype=float)
    return np.add.reduce(zhat[..., :-1] * K, axis=-1) + delta * zhat[..., -1]


def _rotation_field(x, u, out):
    """The plant's field A x + b u = (-x1, x0 + u) for rows x of shape
    (..., 2) and one input per row, written into out."""
    np.negative(x[..., 1], out=out[..., 0])
    np.add(x[..., 0], u, out=out[..., 1])
    return out


def closed_loop_rhs(s, params: FinParams) -> np.ndarray:
    """Time derivative of the output-feedback loop on the quarter-turn plant,
    for each packed row s = (x, zhat) of length 5.

    u = perturbed_feedback(zhat);  xdot = A x + b u;
    zhatdot = A_emb(u) zhat + B_emb u - L(u) (C zhat - y), with y = |x|^2/2,
    A_emb(u) = [[A, 0], [u b', 0]], B_emb = (b, 0), C = (0, 0, 1) and
    L(u) = (b u, alpha).  The error matrix A_emb(u) - L(u) C has symmetric
    part -alpha C'C, which is what makes the estimation error dissipative.
    """
    x, zhat = s[..., :2], s[..., 2:]
    u = perturbed_feedback(zhat, params.K, params.delta)
    innov = zhat[..., 2] - _half_sq(x)
    out = np.empty_like(s)
    _rotation_field(x, u, out[..., :2])
    _rotation_field(zhat[..., :2], u * (1.0 - innov), out[..., 2:4])
    np.subtract(u * zhat[..., 1], params.alpha * innov, out=out[..., 4])
    return out


def delta_margin(K, rho: float, plant: Plant) -> float:
    """Largest feedback perturbation 1/(rho |P b|) that keeps every initial
    condition in the ball of radius rho inside the basin of the perturbed
    state feedback.  P solves F'P + P F = -2I for F = A + bK = [[0, -1], [a, c]],
    a = 1 + K0 and c = K1, which is Hurwitz exactly when a > 0 and c < 0;
    its column P b is (q, r) with q = -1/a and r = (q - 1)/c.  plant is not
    read (the loop runs only the quarter turn): it is kept for the calls of
    perfbench/child.py --micro.
    """
    if rho <= 0.0:
        raise ValueError("delta_margin: rho must be positive")
    k0, k1 = np.asarray(K, dtype=float).reshape(2).tolist()
    a, c = 1.0 + k0, k1
    if not (a > 0.0 and c < 0.0):
        raise ValueError("delta_margin: A + bK is not Hurwitz (it needs 1 + K0 > 0 and K1 < 0)")
    q = -1.0 / a
    r = (q - 1.0) / c
    return 1.0 / (rho * math.hypot(q, r))


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
