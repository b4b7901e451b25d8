"""Spectral strategy: embed the planar plant into a unitary flow on the circle.

A state x = (r cos t, r sin t) of the rotation plant is represented by the
function s -> exp(i mu (x1 cos s + x2 sin s)) on the circle, truncated to the
Fourier modes |k| <= N.  In that basis the dynamics become a skew-Hermitian
tridiagonal system, the nonlinear output a linear functional, and a
constant-gain Luenberger observer has the dissipative error operator
G(u) - alpha zeta zeta^*, stated once, per batch, by ObserverOperator.

Conventions used throughout:

* A "coefficient vector" is a complex ndarray of odd length 2N+1 holding the
  inner products with the Fourier modes e_k(s) = exp(i k s), ordered
  k = -N..N, so index i corresponds to order k = i - N.
* The inner product is (1/2pi) * integral of xi * conj(zeta); the modes are
  orthonormal, hence ||z||^2 = sum |z_k|^2.
* The embedded coefficient of order k is i^k J_k(mu r) exp(-i k theta).
* An output is a coefficient map c_k (OutputSpec): its transformed
  measurement sum_k c_k J_k(mu r) exp(-i k theta) is the functional
  <z, zeta> with zeta_k = i^k conj(c_k).  mu belongs to the loop
  (SpectralParams), not to the output.
* The kernels work on the last axis: a point may be an array of shape
  (..., 2) and a coefficient vector one of shape (..., 2N+1), one row per
  run.  Rows never mix (no matrix products across them), so a row's result
  does not depend on the other rows it is computed with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bessel import J1_ARGMAX, J1_MAX, bessel_j, bessel_j_all, bessel_j_prime, inv_j1

NORM_SQ = "norm_sq"
J0_RADIAL = "j0_radial"
J2_COS2THETA = "j2_cos2theta"
NORM = "norm"
BESSEL_SERIES = "bessel_series"

# Each output kind as its coefficient map k -> c_k: once linearized_output has
# transformed it, the measurement is sum_k c_k J_k(mu r) e^{-ik theta}.  A
# bessel_series brings its own map.
_COEFFS = {NORM_SQ: {0: 1.0}, J0_RADIAL: {0: 1.0}, J2_COS2THETA: {2: 0.5, -2: 0.5},
           NORM: {0: 1.0}, BESSEL_SERIES: None}
KINDS = tuple(_COEFFS)
# default inversion radius parameter j, as a fraction of j1
J_FRAC = 0.9
# nu with weak_norm <= nu ||.||: sqrt(sum_k 1/(k^2+1)) over all integers k,
# i.e. sqrt(pi coth(pi))
WEAK_NORM_BOUND = math.sqrt(math.pi / math.tanh(math.pi))


def truncation_order(z) -> int:
    """N for a coefficient array (a vector or rows of them) of length 2N+1."""
    m = z.shape[-1]
    if m % 2 == 0:
        raise ValueError("coefficient vectors have odd length 2N+1")
    return (m - 1) // 2


def embedded_target(n: int) -> np.ndarray:
    """Embedding of the origin: the constant function, i.e. the k = 0 mode."""
    return _order_tables(n)[4].copy()


def polar(x):
    """Radius and angle of points of shape (..., 2); the origin gets angle 0."""
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[..., 0], x[..., 1])
    theta = np.where(r > 0.0, np.arctan2(x[..., 1], x[..., 0]), 0.0)
    return r, theta


@lru_cache(maxsize=16)
def _order_tables(n: int):
    """Read-only tables over the orders k = -N..N: -ik, k^2 + 1, i^k, (-1)^k, e_0."""
    k = np.arange(-n, n + 1)
    tables = (-1j * k, k * k + 1.0, np.array([1.0, 1.0j, -1.0, -1.0j])[k % 4], (-1.0) ** k,
              (k == 0) + 0j)
    for table in tables:
        table.flags.writeable = False
    return tables


def embed(x, mu: float, n: int) -> np.ndarray:
    """Coefficient vector of the embedded state, z_k = i^k J_k(mu r) e^{-ik theta}.

    Exactly unit norm before truncation; the truncated norm falls short of 1
    by the (rapidly vanishing) Bessel tail.  x of shape (..., 2) gives
    coefficients of shape (..., 2N+1).
    """
    if n < 1:
        raise ValueError("embed: truncation order must be >= 1")
    r, theta = polar(x)
    phases, _, i_powers, signs, _ = _order_tables(n)
    z = np.empty(r.shape + (2 * n + 1,), dtype=complex)
    zpos = np.multiply(i_powers[n:] * bessel_j_all(n, mu * r),
                       np.exp(phases[n:] * theta[..., None]), out=z[..., n:])
    # z_{-k} = i^k J_k(mu r) e^{+ik theta} = (-1)^k conj(z_k)
    np.multiply(signs[n + 1:], np.conj(zpos[..., 1:]), out=z[..., n - 1::-1])
    return z


def generator_matrix(u: float, mu: float, n: int) -> np.ndarray:
    """Dense transport-plus-control generator G(u): skew-Hermitian and tridiagonal."""
    c = np.full(2 * n, 0.5 * u * mu)
    return np.diag(_order_tables(n)[0]) + np.diag(c, -1) - np.diag(c, 1)


def observer_matrix(u: float, mu: float, alpha: float, zeta) -> np.ndarray:
    """Dense error-system matrix G(u) - alpha * zeta zeta^* (ObserverOperator's oracle).

    The output functional is z -> <z, zeta>, so the rank-one correction is its
    adjoint composed with itself; the Hermitian part of the result is exactly
    -alpha * zeta zeta^*, which makes the error norm non-increasing.
    """
    zeta = np.asarray(zeta, dtype=complex)
    return generator_matrix(u, mu, truncation_order(zeta)) - alpha * np.outer(zeta, zeta.conj())


@dataclass(frozen=True, eq=False)
class ObserverOperator:
    """The observer's error operator G(u) - alpha zeta zeta^* with its batch
    constants worked out once: N and G's diagonal -ik (n, diag), the slice
    where alpha zeta is nonzero (span, empty at alpha = 0), conj(zeta) and
    alpha zeta on it (zeta_conj, azeta) and load = alpha ||zeta||^2, the
    rank-one share of taylor_plan's bound.  apply is the one statement of the
    observer dynamics, add_shift its off-diagonal part S in
    G(u) = G(0) + c S: expm_action's Taylor terms, the rk4_coupled
    stage and, at alpha = 0, the Gramian apply it, and sim.observer_maps
    reads the rk4_coupled loop's step maps, where it takes them, off one RK4
    step of apply at c = 0 plus add_shift, the step expanded in c."""

    mu: float
    alpha: float
    zeta: np.ndarray

    def __post_init__(self):
        zeta = np.asarray(self.zeta, dtype=complex)
        n = truncation_order(zeta)
        support = np.flatnonzero(self.alpha * zeta)
        span = slice(support[0], support[-1] + 1) if support.size else slice(0, 0)
        load = self.alpha * float(np.sum(zeta.real ** 2 + zeta.imag ** 2))
        vars(self).update(zeta=zeta, n=n, diag=_order_tables(n)[0], span=span, load=load,
                          zeta_conj=zeta[span].conj(), azeta=self.alpha * zeta[span])

    def offdiag(self, u):
        """The weight c = u mu / 2 of G(u)'s off-diagonals, one row per value of u."""
        return (0.5 * np.asarray(u, dtype=float) * self.mu)[..., None]

    def inner(self, z):
        """<z, zeta> for each row of z, summed over span."""
        return np.add.reduce(self.zeta_conj * z[..., self.span], axis=-1)

    @staticmethod
    def add_shift(out, w):
        """out + S w, written into out, for rows w: (S w)_k = w_{k-1} - w_{k+1},
        the off-diagonals of G(u) = G(0) + c S."""
        out[..., 1:] += w[..., :-1]
        out[..., :-1] -= w[..., 1:]
        return out

    def apply(self, z, c, y):
        """(G(u) - alpha zeta zeta^*) z + alpha y zeta = G z - alpha zeta (<z, zeta> - y)
        for rows z, c = offdiag(u) and y each row's measurement (0: the bare
        operator), where (G(u) z)_k = -ik z_k + c (z_{k-1} - z_{k+1})."""
        d = self.inner(z) - y
        out = self.add_shift(z * self.diag, c * z)
        out[..., self.span] -= self.azeta * d[..., None]
        return out


# expm_action's largest sub-step norm bound theta_max ~ 1.15, at which
# the first term the degree-18 Taylor polynomial leaves out, theta^19 / 19!, is
# 2^-53, and its tail guarantee relative to a sub-step's input
_THETA_MAX = (2.0 ** -53 * math.factorial(19)) ** (1.0 / 19)
_TAIL_TOL = math.exp(_THETA_MAX) * 2.0 ** -53


def taylor_plan(n: int, mu: float, load: float, h: float, u):
    """Sub-steps q and sub-step norm bound theta of expm_action's step
    h, per value of u, for an operator of truncation order n, frequency mu and
    rank-one load alpha ||zeta||^2: with ||h M|| <= h (n + |u| mu + load), q
    keeps theta = that bound / q at most _THETA_MAX ~ 1.15."""
    bound = h * (n + np.abs(u) * mu + load)
    subs = np.maximum(1.0, np.ceil(bound / _THETA_MAX))
    return subs, bound / subs


# the Taylor terms m = 1..18 expm_action may take, as a column
_ORDERS = np.arange(1, 19)[:, None]


def expm_plan(op: ObserverOperator, u, h: float):
    """expm_action's plan for a step h under one held u per row: the
    off-diagonal weight c, the sub-steps and norm bound theta per sub-step
    (taylor_plan), the sub-step count of the longest row, and per term m
    (row m - 1) and row the scale h_s / m and the stop bound on
    |term_m|^2 / |v|^2.  It depends on u and h alone, so a loop that steps
    several times under one u works it out once."""
    subs, theta = taylor_plan(op.n, op.mu, op.load, h, u)
    scales = ((h / subs) / _ORDERS)[..., None]
    stop = ((_ORDERS + 1) * _TAIL_TOL / np.expm1(theta)) ** 2
    return op.offdiag(u), subs, int(subs.max()), scales, stop


def expm_action(op: ObserverOperator, rows, plan) -> np.ndarray:
    """Action of expm(h * observer_matrix(u, ...)) on complex rows, each under
    its own u, by expm_plan(op, u, h).

    Truncated Taylor series whose terms are op.apply's structured products
    (diagonal, the two off-diagonals and the rank-one term on span), after
    Al-Mohy and Higham, "Computing the action of the matrix exponential"
    (SIAM J. Sci. Comput. 33(2), 2011).  Each row's u fixes its sub-steps and
    its norm bound theta per sub-step (taylor_plan).  The one stop rule is the
    measured tail: a row stops a sub-step after term m once
    |term_m| (e^theta - 1) / (m + 1) <= e^{theta_max} 2^-53 |v|, v the sub-step's
    input.  As term_{m+j} = (h_s M)^j term_m m! / (m+j)! and m! / (m+j)! <=
    1 / ((m+1) j!), the whole tail is then below e^{theta_max} 2^-53 |v| ~ 3.5e-16 |v|.
    The test holds by the a-priori degree m* <= 18, the least m with
    theta^{m+1} / (m+1)! <= 2^-53, as |term_m*| <= theta^m* / m*! |v| and
    e^theta - 1 <= theta e^{theta_max}, with a margin of at least theta_max /
    (1 - e^{-theta_max}) ~ 1.68 that roundoff cannot close: 18 terms bound the
    loop.  The loop's error vectors (N = 24, Delta = 1/32) stop after 8 terms (m* = 16).
    """
    c, subs, count, scales, stop = plan
    out = rows.copy()
    for sub in range(count):
        live = sub < subs
        keep = live[:, None]  # a view, so it follows live's updates
        limit = stop * _sq_norms(out)
        term = out
        total = out.copy()
        for i in range(_ORDERS.shape[0]):
            term = op.apply(term, c, 0.0)
            term *= scales[i]
            np.add(total, term, out=total, where=keep)
            live &= _sq_norms(term) > limit[i]
            if not live.any():
                break
        out = total
    return out


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """|row|^2 of each contiguous complex row, one dot product per row (so
    a row's value does not depend on its batch); read by the stop test only."""
    flat = rows.view(float)
    return np.vecdot(flat, flat)


@dataclass(frozen=True)
class OutputSpec:
    """Which nonlinear output the plant measures, as its coefficient map.

    kind is one of KINDS; coeffs maps order k to c_k.  A named kind takes its
    map from the kind table; a bessel_series brings its own, with a nonzero
    coefficient.  The frequency mu is the loop's, passed to the functions
    below.  Worked out once for output_value: per term the Bessel order |k|,
    the weight c_k (times (-1)^k for k < 0, as J_{-k} = (-1)^k J_k) and the
    phase -ik; top is the largest |k|.
    """

    kind: str
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _COEFFS:
            raise ValueError(f"OutputSpec: unknown kind {self.kind!r}")
        if self.kind != BESSEL_SERIES:
            if self.coeffs:
                raise ValueError(f"OutputSpec: {self.kind} takes no coefficients")
            object.__setattr__(self, "coeffs", dict(_COEFFS[self.kind]))
        elif not any(abs(c) > 0 for c in self.coeffs.values()):
            raise ValueError("OutputSpec: bessel_series needs a nonzero coefficient")
        k = np.array(list(self.coeffs), dtype=int)
        c = np.array(list(self.coeffs.values()), dtype=complex)
        vars(self).update(index=np.abs(k), phases=-1j * k, top=int(np.abs(k).max()),
                          weights=c * np.where((k < 0) & (k % 2 == 1), -1.0, 1.0))


def output_value(spec: OutputSpec, mu: float, r, theta):
    """The raw measurement y = h(x) of points x given in polar form (r, theta)
    (see polar), at the loop's frequency mu: the radial kinds in closed form,
    every other kind as its series sum_k c_k J_k(mu r) e^{-ik theta}."""
    if spec.kind == NORM_SQ:
        return 0.5 * r * r
    if spec.kind == NORM:
        return r
    if spec.kind == J0_RADIAL:
        return bessel_j_all(0, mu * r)[..., 0] - 1.0
    j = bessel_j_all(spec.top, mu * r)[..., spec.index]
    return (j * spec.weights * np.exp(spec.phases * theta[..., None])).sum(axis=-1)


def linearized_output(spec: OutputSpec, mu: float, y):
    """Transform the measurement into the value of the linear functional,
    i.e. the map sending h(x) to <embed(x, mu, N), output_vector>."""
    y = np.asarray(y)
    if spec.kind in (NORM_SQ, NORM) and np.any(y < 0.0):
        raise ValueError(f"linearized_output: {spec.kind} output cannot be negative")
    if spec.kind == NORM_SQ:
        value = bessel_j_all(0, mu * np.sqrt(2.0 * y))[..., 0]
    elif spec.kind == NORM:
        value = bessel_j_all(0, mu * y)[..., 0]
    elif spec.kind == J0_RADIAL:
        value = y + 1.0
    else:
        value = y
    return np.asarray(value, dtype=complex)[()]


def output_vector(spec: OutputSpec, n: int) -> np.ndarray:
    """Coefficient vector zeta with <embed(x), zeta> = linearized_output(h(x)):
    zeta_k = i^k conj(c_k) for the output's coefficient map."""
    if n < spec.top:
        raise ValueError(f"output_vector: N={n} < largest order {spec.top}")
    zeta = np.zeros(2 * n + 1, dtype=complex)
    for k, c in spec.coeffs.items():
        zeta[n + k] = (1j) ** k * np.conj(c)
    return zeta


def weak_norm(z):
    """sqrt(sum |z_k|^2 / (k^2 + 1)): metrizes weak convergence on bounded sets.
    One value per row of z."""
    z = np.asarray(z, dtype=complex)
    return np.sqrt(((z.real ** 2 + z.imag ** 2) / _order_tables(truncation_order(z))[1])
                   .sum(axis=-1))


@lru_cache(maxsize=8)
def _blend_coefficients(j: float):
    """Cubic-Hermite data of the radius on [J1(j), J1_MAX]: J1(j) and the
    left slope 1/J1'(j) of J1's inverse (the right slope is 0, so the radius
    levels off at the cap).  Fritsch-Carlson holds for every j in (0, j1), so
    the blend is monotone."""
    return bessel_j(1, j), 1.0 / bessel_j_prime(1, j)


def left_inverse(z, mu: float, j: float):
    """State estimates from coefficient vectors, and which rows are clamped.

    Each row's e_1 coefficient c = <embed(x), e_1> = i J_1(mu r) e^{-i theta}
    is read once.  With |c| <= J1(j), i.e. mu r <= j, inv_j1 recovers x
    exactly; a row past J1(j) is clamped: the inverse is skipped and its
    radius rises from j/mu to j1/mu through a C^1, globally Lipschitz blend,
    reaching j1/mu at |c| = J1_MAX = J1(j1).  Returns (xhat, clamped), xhat
    of shape z.shape[:-1] + (2,).
    """
    if not 0.0 < j < J1_ARGMAX:
        raise ValueError(f"left_inverse: need 0 < j < j1, got j={j}")
    z = np.asarray(z, dtype=complex)
    n = truncation_order(z)
    if n < 1:
        raise ValueError("left_inverse: truncation order must be >= 1")
    c = z[..., n + 1]
    a = np.abs(c)
    y0, s0 = _blend_coefficients(j)
    clamped = a > y0
    radius = inv_j1(np.where(clamped, 0.0, a)) / mu
    if clamped.any():
        w = J1_MAX - y0
        t = (a - y0) / w
        h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
        h10 = t * (1.0 - t) ** 2
        h01 = t * t * (3.0 - 2.0 * t)
        blend = (h00 * j + h10 * w * s0 + h01 * J1_ARGMAX) / mu
        radius = np.where(clamped, np.where(a >= J1_MAX, J1_ARGMAX / mu, blend), radius)
    # x = radius (Im c, Re c) / |c|, each part divided as a float: exact on the axes
    a = np.where(a > 0.0, a, 1.0)
    xhat = np.empty(c.shape + (2,))
    xhat[..., 0], xhat[..., 1] = c.imag / a * radius, c.real / a * radius
    return xhat, clamped


@dataclass(frozen=True)
class SpectralParams:
    """Tuning constants for the spectral observer loop.

    K: stabilizing gain row (length 2); delta: weak-norm feedback
    perturbation; alpha: observer gain; Delta: sample-and-hold period
    (must lie in (0, pi)); mu: representation frequency; j: inversion radius
    parameter in (0, j1); N: Fourier truncation order.
    """

    K: np.ndarray
    delta: float
    alpha: float
    Delta: float
    mu: float
    j: float
    N: int

    def __post_init__(self):
        object.__setattr__(self, "K", np.asarray(self.K, dtype=float).reshape(-1))
        if self.K.shape[0] != 2:
            raise ValueError("SpectralParams: K must have length 2")
        if self.delta < 0.0:
            raise ValueError("SpectralParams: delta cannot be negative")
        if self.alpha <= 0.0 or self.mu <= 0.0:
            raise ValueError("SpectralParams: alpha and mu must be positive")
        if not 0.0 < self.Delta < math.pi:
            raise ValueError("SpectralParams: Delta must lie in (0, pi)")
        if not 0.0 < self.j < J1_ARGMAX:
            raise ValueError("SpectralParams: j must lie in (0, j1)")
        if self.N < 1:
            raise ValueError("SpectralParams: N must be >= 1")


def default_j() -> float:
    """Default inversion radius parameter: J_FRAC * j1."""
    return J_FRAC * J1_ARGMAX


def sample_hold_feedback(zhat, params: SpectralParams):
    """Control applied over one hold interval,
    K * xhat + delta * weak_norm(zhat - embedded_target)^2, and the clamp
    flag, for (xhat, clamped) = left_inverse(zhat).  A float for one
    coefficient vector, one value per row otherwise."""
    zhat = np.asarray(zhat, dtype=complex)
    xhat, clamped = left_inverse(zhat, params.mu, params.j)
    dev = zhat - _order_tables(truncation_order(zhat))[4]
    u = np.sum(params.K * xhat, axis=-1) + params.delta * weak_norm(dev) ** 2
    return (float(u) if zhat.ndim == 1 else u), clamped


def truncation_tail_bound(s: float, n: int) -> float:
    """Upper bound 2 (s/2)^{2N+2} / ((N+1)!)^2 on sum_{|k|>N} J_k(s)^2."""
    if s <= 0.0:
        return 0.0
    return 2.0 * math.exp((2 * n + 2) * math.log(0.5 * s) - 2.0 * math.lgamma(n + 2))
