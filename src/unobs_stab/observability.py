"""Numerical observability checks for both strategies.

Contents: finite-horizon observability Gramians for the truncated spectral
system under constant inputs, the determinant identity for the finite
strategy's certificate matrix, the control-magnitude bound, and the
parameter-budget inequalities used to pick radii/perturbation/sample-period
triples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .bessel import J0_ZERO, bessel_j, bessel_j_prime
from .finite import _certificate
from .linalg import kalman_matrix
from .spectral import WEAK_NORM_BOUND, ObserverOperator, default_j, observer_propagate


@dataclass(frozen=True)
class GramianReport:
    """Extreme eigenvalues of a finite-horizon observability Gramian."""

    lambda_min: float
    lambda_max: float


# trapezoid intervals of observability_gramian's quadrature
GRAMIAN_STEPS = 400


def observability_gramian(u: float, T: float, zeta, mu: float) -> GramianReport:
    """Trapezoidal Gramian W = int_0^T U(t)* zeta zeta* U(t) dt for the
    truncated spectral system under the constant input u, on GRAMIAN_STEPS intervals.
    The truncation order N is zeta's: it has length 2N+1.

    Each quadrature sample is positive semidefinite, so W is PSD up to
    roundoff.  lambda_min > 0 certifies observability of the truncation;
    lambda_min ~ 0 flags a singular input (u = 0 decouples the measured
    mode from everything else).
    """
    if T <= 0.0:
        raise ValueError("observability_gramian: T must be positive")
    op = ObserverOperator(mu, 0.0, zeta)
    dt = T / GRAMIAN_STEPS
    # row i of the propagated identity is expm(dt G) e_i, so the rows form
    # expm(dt G)^T and their conjugate is the one-step adjoint expm(dt G)^*
    step_h = observer_propagate(op, np.eye(2 * op.n + 1), u, dt).conj()
    # samples[i] = step_h^i zeta, by doubling: rows [m, 2m) are rows [0, m)
    # advanced by step_h^m, and power_t holds (step_h^m)^T
    samples = np.empty((GRAMIAN_STEPS + 1, 2 * op.n + 1), dtype=complex)
    samples[0] = op.zeta
    power_t, m = step_h.T, 1
    while m <= GRAMIAN_STEPS:
        k = min(m, GRAMIAN_STEPS + 1 - m)
        samples[m:m + k] = samples[:k] @ power_t
        power_t = power_t @ power_t
        m *= 2
    weights = np.full(GRAMIAN_STEPS + 1, dt)
    weights[[0, -1]] = 0.5 * dt
    # one dot product per entry W_ij, not a matrix product BLAS splits by thread count
    rows = samples.T.copy()  # unit-stride dot products, twice as fast
    w = np.vecdot(rows[None], (rows * weights)[:, None])
    w = 0.5 * (w + w.conj().T)
    eig = np.linalg.eigvalsh(w)
    return GramianReport(lambda_min=float(eig[0]), lambda_max=float(eig[-1]))


@dataclass(frozen=True)
class DeterminantCheckReport:
    max_rel_err: float
    singular_when_unperturbed: bool


def determinant_identity_check(trials: int, rng_seed: int) -> DeterminantCheckReport:
    """Randomized check of det(certificate) = -delta^2 alpha Delta P(-alpha).

    Draws skew-symmetric invertible A (n in {2, 4}), an observable gain K and
    positive delta, alpha from random.Random(rng_seed) (so that analyze
    does not import numpy.random for a few numbers per trial); compares the
    LU determinant of the certificate matrix with the closed form (Delta =
    observability determinant of (KA, A), P = characteristic polynomial of
    A).  The sign is fixed by the
    row-permutation parity in the cofactor reduction; only |det| > 0 matters
    for invertibility.  Also verifies that delta = 0 makes the certificate
    rank deficient.
    """
    if trials < 1:
        raise ValueError("determinant_identity_check: trials must be >= 1")
    rng = random.Random(rng_seed)
    max_rel = 0.0
    singular_ok = True
    done = 0
    while done < trials:
        n = rng.choice((2, 4))
        s = np.array([[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)])
        a = 0.5 * (s - s.T)
        if abs(np.linalg.det(a)) < 1e-3:
            continue
        k = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
        _, rank = kalman_matrix(k, a)
        if rank < n:
            continue
        delta = rng.uniform(0.05, 1.0)
        alpha = rng.uniform(0.1, 3.0)
        # a is skew-symmetric and invertible by construction
        q = _certificate(k, a, delta, alpha)
        det_direct = np.linalg.det(q)
        obs_tilde, _ = kalman_matrix(k @ a, a)
        det_obs = np.linalg.det(obs_tilde)
        # P(-alpha) = det(-alpha I - A) for the monic characteristic polynomial
        p_minus_alpha = np.linalg.det(-alpha * np.eye(n) - a)
        det_formula = -delta ** 2 * alpha * det_obs * p_minus_alpha
        rel = abs(det_direct - det_formula) / max(abs(det_formula), 1e-300)
        max_rel = max(max_rel, rel)
        q0 = _certificate(k, a, 0.0, alpha)
        if np.linalg.matrix_rank(q0, tol=1e-10) >= n + 2:
            singular_ok = False
        done += 1
    return DeterminantCheckReport(max_rel_err=max_rel, singular_when_unperturbed=singular_ok)


def max_control_bound(kappa: float, j: float, mu: float,
                      delta: float) -> tuple[float, bool]:
    """u_max = kappa j / mu + 16 nu^2 delta, and whether mu u_max < j0
    (the condition under which every nonzero constant input of magnitude at
    most u_max keeps the spectral system observable)."""
    if kappa < 0.0 or j <= 0.0 or mu <= 0.0 or delta < 0.0:
        raise ValueError("max_control_bound: inputs must be positive")
    u_max = kappa * j / mu + 16.0 * WEAK_NORM_BOUND ** 2 * delta
    return u_max, bool(mu * u_max < J0_ZERO)


@dataclass(frozen=True)
class BoundParams:
    """Radii and constants entering the parameter-budget inequalities.

    M and ell_pi have no closed form (M is the input-to-state gain of the
    stabilized plant, ell_pi a Lipschitz constant of the inverse map); they
    are supplied as diagnostics, with ell_pi taken over the working disc the
    bound certifies.
    """

    R0: float
    R1: float
    R2: float
    mu: float
    delta: float
    Delta: float
    kappa: float
    nu: float
    M: float
    ell_pi: float
    ell_tau: float


def check_bound_inequalities(p: BoundParams) -> tuple[float, float]:
    """Left-minus-right residuals of the two parameter-budget inequalities;
    both negative means the budget closes.

    (1) R0 + M (2 kappa ell_pi sqrt(2(1-J0(mu R0))) + 16 nu^2 delta
        + kappa Delta (R1 + 3 kappa ell_pi + 16 nu^2 delta)) < R1
    (2) 2 sqrt(2(1-J0(mu R0))) + J1(mu R1) < J1(mu R2)
    """
    if not (0.0 < p.R0 <= p.R1 <= p.R2):
        raise ValueError("check_bound_inequalities: radii must satisfy 0 < R0 <= R1 <= R2")
    eps0 = math.sqrt(max(0.0, 2.0 * (1.0 - bessel_j(0, p.mu * p.R0))))
    pert = 16.0 * p.nu ** 2 * p.delta
    lhs1 = p.R0 + p.M * (2.0 * p.kappa * p.ell_pi * eps0 + pert
                         + p.kappa * p.Delta * (p.R1 + 3.0 * p.kappa * p.ell_pi + pert))
    res1 = lhs1 - p.R1
    res2 = 2.0 * eps0 + bessel_j(1, p.mu * p.R1) - bessel_j(1, p.mu * p.R2)
    return res1, res2


def working_disc_inverse_lipschitz(mu: float, r2: float) -> float:
    """Lipschitz constant of the inverse map over the disc the bounds certify
    (coefficient magnitudes up to J1(mu R2)); closed form from monotonicity:
    max(1/J1'(mu R2), mu R2 / J1(mu R2)) / mu."""
    s = mu * r2
    radial = 1.0 / bessel_j_prime(1, s)
    tangential = s / bessel_j(1, s)
    return max(radial, tangential) / mu


# choose_radii's input-to-state gain M and the halvings each of its two
# searches may take
_M = 1.0
_MAX_HALVINGS = 80


def choose_radii(r0: float, mu: float | None = None, kappa: float = 0.2,
                 j: float | None = None) -> BoundParams:
    """Pick (mu, delta, Delta) so the budget inequalities close for the radii
    R1 = 2 R0, R2 = (2 sqrt(2) + 3) R0.

    If mu is not given it is halved from j/(2 R2) until inequality (2) holds;
    delta and Delta are then halved (whichever currently contributes more)
    until inequality (1) holds.  Raises if the search exhausts its budget.

    Note: the leading term of inequality (1) tends to 2 sqrt(2) kappa M
    (mu ell_pi) R0 as mu, delta, Delta -> 0, so the search can only succeed
    when kappa * M is small (about <= 0.2 at M = 1); M itself has no closed
    form and is a fixed diagnostic.
    """
    if r0 <= 0.0:
        raise ValueError("choose_radii: R0 must be positive")
    if j is None:
        j = default_j()
    r1 = 2.0 * r0
    r2 = (2.0 * math.sqrt(2.0) + 3.0) * r0

    def params(mu_, d_, dd_):
        return BoundParams(R0=r0, R1=r1, R2=r2, mu=mu_, delta=d_, Delta=dd_,
                           kappa=kappa, nu=WEAK_NORM_BOUND, M=_M,
                           ell_pi=working_disc_inverse_lipschitz(mu_, r2),
                           ell_tau=mu_ / math.sqrt(2.0))

    if mu is None:
        mu = 0.5 * j / r2
        for _ in range(_MAX_HALVINGS):
            if check_bound_inequalities(params(mu, 0.0, 0.0))[1] < 0.0:
                break
            mu *= 0.5
        else:
            raise RuntimeError("choose_radii: could not satisfy inequality (2)")
    else:
        if mu * r2 >= j:
            raise ValueError("choose_radii: mu R2 must stay below j")
        if check_bound_inequalities(params(mu, 0.0, 0.0))[1] >= 0.0:
            raise RuntimeError("choose_radii: inequality (2) fails at the given mu")

    delta, cap = 0.1, 0.5
    for _ in range(_MAX_HALVINGS):
        p = params(mu, delta, cap)
        res1, res2 = check_bound_inequalities(p)
        if res1 < 0.0 and res2 < 0.0:
            return p
        pert = 16.0 * WEAK_NORM_BOUND ** 2 * delta
        delta_part = _M * pert * (1.0 + kappa * cap)
        cap_part = _M * kappa * cap * (r1 + 3.0 * kappa * p.ell_pi)
        if delta_part >= cap_part:
            delta *= 0.5
        else:
            cap *= 0.5
    raise RuntimeError("choose_radii: search failed to close inequality (1)")
