"""Time integration and closed-loop drivers.

Two loops are provided, each vectorized over runs.  The finite strategy
steps the packed rows (x, zhat) of the coupled plant/observer ODE
(finite.closed_loop_rhs, continuous feedback) with classical fixed-step RK4;
each stage of its field is one per-row product with the loop's 5 x 5 matrix
(FinParams.loop, built with the gains), two dot products and two bilinear
terms.
The spectral strategy is sampled: the control is held constant on each
interval, so the truncated error system is linear time-invariant there and
is propagated by its exponential exp(h M(u)) (exact up to roundoff), while
the plant state follows the closed-form rotation-with-constant-input
solution.  At N <= _MAP_MAX_N that exponential is one stacked map per batch,
its Chebyshev interpolant in u of degree _MAP_DEGREE (error_map, read off
spectral.expm_action at its nodes); a step of a row is then two per-row
matrix-vector products under the row's weights, worked out once per block
(error_steps).  A row held past the map's cap (map_cap), and every row past
_MAP_MAX_N, takes spectral.expm_action under one Taylor plan per block.  An
independent path, for cross-validation, integrates plant and observer with
the same RK4 step (rk4_step), the observer fed by the transformed
measurement.  Under the held control both RK4 steps are fixed maps, each
read off one rk4_step per batch.  The plant never reads the observer and
its step is affine in (x, u), so its path over a block of steps is affine
maps of the block's start (plant_maps): its stage points are measured and
its step ends embedded in one call each.  The observer's step is linear in
(zhat, y) and a polynomial of degree 4 in c = u mu / 2 (observer_maps).
Where that pays (steps_by_maps: small N, several steps per hold interval)
each row's step map and input weights are formed in its c once per block
(held_maps) and every step is one per-row matrix-vector product plus that
step's input (observer_steps); elsewhere the observer is stepped by
rk4_step.  Both methods apply the batch's one spectral.ObserverOperator.

The batch drivers are the only drivers: a single run is their one-row case,
run_*_batch(...)[0].  Each strategy supplies only its step and what it
records; one loop (_drive) does the rest for both, a block of steps per
iteration: the finite loop's blocks are _BLOCK_STEPS steps, the spectral
loop's a hold interval (in pieces of _BLOCK_STEPS beyond that many).  It
freezes a run at its last valid step when it leaves the region where it can
be evaluated (by one rule for both, _bounded: x or zhat not finite or past
DIVERGENCE_NORM; for the spectral loop also mu |x| >= VALID_MU_R) and ends
its records there, the other runs carrying on; it counts the per-step
dissipativity violations; and it builds the trajectories, each of these once
per block, vectorized over its steps.  run_*_batch and the config parser
share one time grid, hold_grid, which refuses a horizon off the grid instead
of rounding it, and one threshold, VALID_MU_R, inside which every run
starts.  Both loops step the configured step itself, so records fall at
k * record_every * step.

Everything is deterministic: fixed steps, no adaptivity, no hidden state.
The batched loops combine runs only elementwise (no matrix products across
runs), so a run's trajectory is bitwise the same whatever batch it is in,
and the same whatever the blocks it is stepped in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bessel import MAX_ARG
from .finite import (FinParams, Plant, _rotation_field, closed_loop_rhs, embed as embed_fin,
                     perturbed_feedback)
from .spectral import (
    ObserverOperator,
    OutputSpec,
    SpectralParams,
    embed,
    expm_action,
    expm_plan,
    linearized_output,
    output_value,
    output_vector,
    polar,
    sample_hold_feedback,
    weak_norm,
)

DIVERGENCE_NORM = 1e6
EPS_STEP_TOL = 1e-8
METHODS = ("rk4_coupled", "exact_linear")
# A spectral run stays in the numerically valid region while mu |x| is below
# the Bessel argument limit less a margin, which covers outputs that square
# the radius and take the root again.
VALID_MU_R = MAX_ARG * (1.0 - 1e-12)
# Steps a loop takes per iteration of _drive: the finite loop's block, and
# for the spectral loop the whole hold interval up to this many, in pieces of
# it beyond, so a block's memory does not grow with the step count.
_BLOCK_STEPS = 64
# rk4_coupled steps the observer by its dense step maps (observer_maps), which
# cost O(N^2) a row and step and are formed once per block, only where they
# were timed no slower than rk4_step on ObserverOperator.apply (O(N) a row
# and step, in some 50 numpy calls) at 1 to 1000 rows: at N = 24 and 8 steps
# a block 0.13x on 1 row, 0.31x on 10 and 0.92x on 100 and 1000.  At N = 32,
# or at 4 steps a block, they are slower on 100 rows, at one step a block
# 3x slower.  Their rows go in pieces of _MAP_ROWS (about 1.3 MB of maps at
# N = 24), so their memory does not grow with the batch.  exact_linear's
# error map (error_map) is built at N <= _MAP_MAX_N too: its step costs
# O(N^2) a row against expm_action's O(N) in some 120 numpy calls, timed at
# N = 24 and h = 1/32 at 0.15x on 1 row, 0.36x on 10, 0.92x on 100 and
# 0.85x on 1000.
_MAP_MAX_N, _MAP_MIN_STEPS, _MAP_ROWS = 24, 8, 32
# the degree D of error_map's Chebyshev interpolant in u
_MAP_DEGREE = 6


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    method: "rk4_coupled" or "exact_linear" (spectral loop only);
    step: integration step; horizon: final time; record_every: stride, in
    steps, between stored samples, dividing the step count so that the last
    record is at the horizon (per-step dissipativity accounting is done
    online regardless).
    """

    method: str = "rk4_coupled"
    step: float = 1e-3
    horizon: float = 10.0
    record_every: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"IntegratorConfig: unknown method {self.method!r}")
        if self.step <= 0.0 or self.horizon <= 0.0:
            raise ValueError("IntegratorConfig: step and horizon must be positive")
        if self.record_every < 1:
            raise ValueError("IntegratorConfig: record_every must be >= 1")


@dataclass
class Trajectory:
    """Recorded closed-loop run.

    times are strictly increasing; x, zhat, u, eps_norm, c_eps_abs (and
    weak_eps for spectral runs) are sampled at those instants.  The
    dissipativity counters come from the online per-step check of the
    estimation-error norm.
    """

    times: np.ndarray
    x: np.ndarray
    zhat: np.ndarray
    u: np.ndarray
    eps_norm: np.ndarray
    c_eps_abs: np.ndarray
    weak_eps: np.ndarray | None = None
    dissipativity_violations: int = 0
    max_eps_increase: float = 0.0
    clamp_count: int = 0
    diverged_at: float | None = None


def rk4_step(rhs, s, h: float):
    """One classical RK4 step of ds/dt = rhs(s) on a state array s.

    The loops hold their inputs fixed over a step, so rhs takes no time
    argument; a time-dependent field carries t as a state component."""
    k1 = rhs(s)
    k2 = rhs(s + 0.5 * h * k1)
    k3 = rhs(s + 0.5 * h * k2)
    k4 = rhs(s + h * k3)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _bounded(x, zhat) -> np.ndarray:
    """The stop rule of both loops, per run: |x| and |zhat| within
    DIVERGENCE_NORM, a NaN or inf failing the comparison."""
    limit = DIVERGENCE_NORM ** 2
    return (np.vecdot(x, x).real <= limit) & (np.vecdot(zhat, zhat).real <= limit)


# Trajectory fields a strategy's sample() returns, in this order (the finite
# loop stops before weak_eps)
_RECORDED = ("x", "zhat", "u", "eps_norm", "c_eps_abs", "weak_eps")


def _drive(state, eps0, advance, sample, steps: int, cfg: IntegratorConfig) -> list[Trajectory]:
    """The loop both strategies share: step, freeze, count, record, one block
    of steps per iteration.

    state is a sequence of per-run arrays (runs first) and eps0 the error
    norms of the runs, every run starting inside the valid region.
    advance(state, active, i) takes the next block of steps i, i+1, ... (at
    least one, none past the horizon) and returns their states, every array
    with a leading step axis, their error norms and their validity, both of
    shape (steps, runs), a row that is not active being valid on no step.  A
    row is frozen at its last valid state before its first invalid step: its
    diverged_at is set on that step, its records end there and the block's
    later values of the row are discarded (advance keeps their floating-point
    overflow quiet), the other runs carrying on.  sample(states, eps)
    returns the recorded fields in _RECORDED order for states and norms with
    a leading instant axis; it is called once per block, on the block's
    record instants.  The error norm is checked every step: a rise past
    EPS_STEP_TOL counts as a dissipativity violation, and the largest rise is
    kept; a frozen row's norm no longer moves.
    """
    stride, h = cfg.record_every, cfg.step
    if steps % stride:
        raise ValueError(f"record_every={stride} must divide the {steps} steps to the horizon")
    nb = eps0.shape[0]
    active = np.ones(nb, dtype=bool)
    diverged_at = np.full(nb, np.nan)
    # run-major records, so each run's trajectory is a view, written through
    # instant-major views of them
    n_rec = steps // stride + 1
    rec_t = np.arange(n_rec) * stride * h
    fields = sample([a[None] for a in state], eps0[None])
    rec = [np.empty((nb, n_rec) + f.shape[2:], dtype=f.dtype) for f in fields]
    by_instant = [r.swapaxes(0, 1) for r in rec]
    for r, f in zip(by_instant, fields):
        r[:1] = f
    lengths = np.ones(nb, dtype=int)
    violations = np.zeros(nb, dtype=int)
    max_inc = np.zeros(nb)
    eps = eps0

    i = 0
    while i < steps:
        new, cur, ok = advance(state, active, i)
        b = ok.shape[0]
        valid_steps = b  # per row: the block's steps before its first invalid one
        freezing = not ok.all()
        if freezing:
            ok = np.logical_and.accumulate(ok)
            valid_steps = np.add.reduce(ok)
            left = active & (valid_steps < b)
            diverged_at[left] = (i + 1 + valid_steps[left]) * h
            active = ok[-1]
            # a row's values after its last valid step are that step's (or,
            # with none, those before the block)
            pick = (np.minimum(np.arange(1, b + 1)[:, None], valid_steps), np.arange(nb))
            new = [np.concatenate([s[None], a])[pick] for s, a in zip(state, new)]
            cur = np.concatenate([eps[None], cur])[pick]
        inc = cur - eps
        np.subtract(cur[1:], cur[:-1], out=inc[1:])
        violations += np.add.reduce(inc > EPS_STEP_TOL)
        max_inc = np.maximum(max_inc, np.maximum.reduce(inc))
        state, eps = [a[-1] for a in new], cur[-1]
        first = (-i - 1) % stride  # the block's first step ending on a record instant
        if first < b:
            at, col = slice(first, b, stride), (i + first + 1) // stride
            for r, f in zip(by_instant, sample([a[at] for a in new], cur[at])):
                r[col:col + f.shape[0]] = f
            lengths += (i + valid_steps) // stride - i // stride
        i += b
        if freezing and not active.any():
            break

    return [Trajectory(
        times=rec_t[:m],
        **{name: r[run, :m] for name, r in zip(_RECORDED, rec)},
        dissipativity_violations=int(violations[run]),
        max_eps_increase=float(max_inc[run]),
        diverged_at=None if np.isnan(diverged_at[run]) else float(diverged_at[run]),
    ) for run, m in enumerate(lengths)]


def run_finite_batch(plant: Plant, params: FinParams, x0s, zhat0s,
                     cfg: IntegratorConfig) -> list[Trajectory]:
    """Integrate the embedded-observer loop on the quarter-turn plant for
    several initial conditions at once (vectorized over runs; each run bitwise
    equal to its one-row batch).  plant must be rotation_plant(), the only
    Plant there is; it stays a parameter only because perfbench's micro
    timings pass it.

    The state of a run is the packed row (x, zhat), stepped by RK4 on
    finite.closed_loop_rhs (params.loop s plus the two bilinear terms) in
    blocks of _BLOCK_STEPS steps, the error and the stop rule then taken over
    the block at once; the recorded u is the field's, the same dot product
    with (K, delta).  Its error is
    eps = zhat - finite.embed(x), as the spectral loop measures it: |eps| is
    checked every step and |C eps| = |eps_last| recorded.  A run whose x or
    zhat stops being finite or exceeds DIVERGENCE_NORM (_bounded) is frozen
    at its last valid step and reported as diverged, its records ending
    there; the other runs carry on unaffected.
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    zhat0s = np.atleast_2d(np.asarray(zhat0s, dtype=float))
    nb = x0s.shape[0]
    if x0s.shape != (nb, 2) or zhat0s.shape != (nb, 3):
        raise ValueError("run_finite_batch: x0s and zhat0s must have shape (runs, 2) and (runs, 3)")

    steps = hold_grid(cfg.step, cfg.step, cfg.horizon)[1]
    if steps < 1:
        raise ValueError("run_finite_batch: horizon must be a whole number of steps")

    rhs = partial(closed_loop_rhs, params=params)

    def error(s):
        eps = s[..., 2:] - embed_fin(s[..., :2])
        return eps, np.sqrt(np.add.reduce(eps * eps, axis=-1))

    def advance(state, active, i):
        # RK4 steps one after the other, then the block's errors and stop rule
        # at once; a row that leaves the bounded region is stepped on to the
        # block's end, where it may overflow, and those steps are discarded
        s = np.empty((min(_BLOCK_STEPS, steps - i),) + state[0].shape)
        prev = state[0]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(s.shape[0]):
                prev = s[k] = rk4_step(rhs, prev, cfg.step)
            eps, eps_norm = error(s)
            return (s, eps), eps_norm, active & _bounded(s[..., :2], s[..., 2:])

    def sample(state, eps_norm):
        s, eps = state
        return (s[..., :2], s[..., 2:], perturbed_feedback(s[..., 2:], params.K, params.delta),
                eps_norm, np.abs(eps[..., -1]))

    s = np.concatenate([x0s, zhat0s], axis=1)
    eps, eps_norm = error(s)
    return _drive((s, eps), eps_norm, advance, sample, steps, cfg)


def rotation_step(x, u, h: float) -> np.ndarray:
    """Exact step of xdot = A x + b u for the quarter-turn plant and constant
    input: x(h) = R(h) x + u (cos h - 1, sin h).  x has shape (..., 2) and u
    one value per point."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    ch, sh = math.cos(h), math.sin(h)
    out = np.empty(x.shape)
    out[..., 0] = ch * x[..., 0] - sh * x[..., 1] + u * (ch - 1.0)
    out[..., 1] = sh * x[..., 0] + ch * x[..., 1] + u * sh
    return out


def plant_maps(h: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The plant's RK4 path under a held input, as affine maps of a block's
    start (x, u), for a block of up to `steps` steps of size h.

    The RK4 step of the plant's field is affine in (x, u): its end is
    R x + r u and its four stage points (where rk4_step evaluates the field)
    are P_j x + p_j u.  One rk4_step on the basis rows (e1, 0), (e2, 0) and
    (0, 1) reads them off, and they compose into maps from the block's start:
    ends[k] takes it to the end of its k-th step (ends[0] is the identity, k
    up to steps) and stages[k, j] to the j-th stage point of step k (k below
    steps).  Apply a map with _affine; each is stored by coefficient, on
    axes (..., 3, 1, 2): the coefficient of x0, x1 and u in each coordinate.
    """
    rows = np.eye(3, 2)
    u = np.array([0.0, 0.0, 1.0])
    points = []

    def field(p):
        points.append(p)
        return _rotation_field(p, u, np.empty_like(p))

    end = rk4_step(field, rows, h)
    # the step and stage maps as 3x3 matrices acting on columns (x0, x1, u)
    lift = np.zeros((5, 3, 3))
    lift[:, 2, 2] = 1.0
    lift[:4, :2] = np.swapaxes(points, 1, 2)
    lift[4, :2] = end.T
    ends = np.empty((steps + 1, 3, 3))
    ends[0] = np.eye(3)
    for k in range(steps):
        ends[k + 1] = lift[4] @ ends[k]
    stages = lift[:4] @ ends[:steps, None]
    # (..., coefficient, 1, coordinate)
    return (np.swapaxes(ends[:, :2], -1, -2)[..., None, :],
            np.swapaxes(stages[..., :2, :], -1, -2)[..., None, :])


def _affine(maps, x, u) -> np.ndarray:
    """The points maps[...] x + maps[...] u of rows x, u, for maps of
    plant_maps: shape maps.shape[:-3] + (runs, 2), elementwise in the runs."""
    return maps[..., 0, :, :] * x[:, :1] + maps[..., 1, :, :] * x[:, 1:] \
        + maps[..., 2, :, :] * u[:, None]


def observer_maps(op: ObserverOperator, h: float) -> np.ndarray:
    """The observer's RK4 step of size h under a held input, as polynomials
    in the off-diagonal weight c = op.offdiag(u): a step from zhat with stage
    measurements y_1..y_4 is T(c) zhat + sum_j y_j W(c)[j], T(c) of shape
    (2N+1, 2N+1) and W(c) of shape (4, 2N+1), each entry
    sum_p c^p coef[., p].  Returned as the (K, 5) float matrix coef, Fortran
    ordered, whose rows are the real and imaginary parts of T's entries
    (row-major) and then of W's; held_maps forms the maps at a row's c.

    The observer's field G(u) z - alpha zeta (<z, zeta> - y) is linear in
    (z, y) and G(u) = G(0) + c S is affine in c, so the step is a polynomial
    of degree at most 4 in c, one degree per stage.  One rk4_step reads it
    off, on the basis rows z = e_i with no input and z = 0 with input 1 at
    stage j alone, each row a polynomial in c held by its coefficients: the
    field is op.apply at c = 0 on every coefficient plus op.add_shift of
    each coefficient into the next degree up."""
    m = 2 * op.n + 1
    rows = np.zeros((m + 4, 5, m), dtype=complex)
    rows[np.arange(m), 0, np.arange(m)] = 1.0
    y = np.zeros((m + 4, 5))
    stages = iter(range(m, m + 4))

    def field(p):
        y[m:] = 0.0
        y[next(stages), 0] = 1.0
        out = op.apply(p, 0.0, y)
        # a stage point's degree is below 4, so its top coefficient is 0
        op.add_shift(out[:, 1:], p[:, :-1])
        return out

    step = rk4_step(field, rows, h)
    # coefficient p of T[k, i] is step[i, p, k], of W[j, k] step[m + j, p, k]
    coef = np.concatenate([np.moveaxis(step[:m], 0, -1).reshape(5, -1),
                           np.swapaxes(step[m:], 0, 1).reshape(5, -1)], axis=1)
    return coef.view(float).T


def held_maps(coef, c, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The step maps of observer_maps' coef for each row's c = op.offdiag(u),
    m = 2N+1: T(c) of shape (rows, m, m) and W(c) of shape (rows, 4, m).
    Each row's maps are one matrix-vector product of coef
    with (1, c, c^2, c^3, c^4), so every row is computed on its own."""
    c = c.reshape(-1)
    powers = np.empty(c.shape + (5,))
    powers[:, 0] = 1.0
    powers[:, 1] = c
    np.multiply(c, c, out=powers[:, 2])
    np.multiply(powers[:, 2], c, out=powers[:, 3])
    np.multiply(powers[:, 3], c, out=powers[:, 4])
    maps = np.matvec(coef, powers)
    return (maps[:, :2 * m * m].view(complex).reshape(-1, m, m),
            maps[:, 2 * m * m:].view(complex).reshape(-1, 4, m))


def observer_steps(coef, c, fy, zhat) -> np.ndarray:
    """The observer's RK4 steps from the rows zhat under held c = op.offdiag(u)
    by the maps of observer_maps' coef, fy of shape (steps, 4, rows) the
    measurements at each step's stages: each step's input
    sum_j y_j W(c)[j] is formed elementwise, four products added in stage
    order, and each step is then T(c) zhat, one per-row matrix-vector
    product, plus its input.  Rows are taken in pieces of _MAP_ROWS, so a
    piece's maps stay small whatever the batch."""
    b, m = fy.shape[0], zhat.shape[-1]
    zhats = np.empty((b,) + zhat.shape, dtype=complex)
    for start in range(0, zhat.shape[0], _MAP_ROWS):
        rows = slice(start, start + _MAP_ROWS)
        t, w = held_maps(coef, c[rows], m)
        inputs = zhats[:, rows]
        np.multiply(w[:, 0], fy[:, 0, rows, None], out=inputs)
        inputs += w[:, 1] * fy[:, 1, rows, None]
        inputs += w[:, 2] * fy[:, 2, rows, None]
        inputs += w[:, 3] * fy[:, 3, rows, None]
        z = zhat[rows]
        for k in range(b):
            z = np.add(np.matvec(t, z), zhats[k, rows], out=zhats[k, rows])
    return zhats


def map_cap(mu: float, h: float) -> float:
    """The largest |u| error_map covers at frequency mu and step h: u_cap =
    2 c_cap / mu for the off-diagonal weight c = u mu / 2.

    Because e^{t M(0)} is a contraction and ||S|| <= 2 in M(u) = M(0) + c S,
    the Chebyshev coefficients of c -> exp(h M) on [-c_cap, c_cap] obey
    ||a_q|| <= 2 I_q(2 h c_cap) (expand in c: the c^k term is at most
    (2h)^k / k!).  c_cap sets the first one the degree D = _MAP_DEGREE
    interpolant drops, 2 I_{D+1}(2 h c_cap) ~ 2 (h c_cap)^(D+1) / (D+1)!, to
    2^-53: c_cap ~ 0.515 at h = 1/32, |u| <= 10.3 at mu = 0.1."""
    d = _MAP_DEGREE + 1
    return 2.0 * (math.factorial(d) * 2.0 ** -54) ** (1.0 / d) / h / mu


def error_map(op: ObserverOperator, h: float, u_cap: float) -> np.ndarray:
    """exact_linear's error step exp(h M(u)), M(u) = observer_matrix(u, ...),
    for |u| <= u_cap as its Chebyshev interpolant in x = u / u_cap of degree
    D = _MAP_DEGREE: sum_q T_q(x) C_q over q = 0..D.

    The interpolant is read off expm_action at the D + 1 Chebyshev points
    x_i = cos(pi (i + 1/2) / (D + 1)), one node at a time (the action on the
    identity's rows is the exponential's columns), and C_q is the discrete
    cosine transform (2 - [q = 0]) / (D + 1) sum_i T_q(x_i) exp(h M(u_cap x_i)).
    Returned as the C-contiguous ((D + 1) m, m) matrix, m = 2N+1, whose row
    k (D + 1) + q is row k of C_q: np.matvec of it with a row eps, reshaped to
    (m, D + 1), holds C_q eps in column q (error_steps)."""
    m, d = 2 * op.n + 1, _MAP_DEGREE + 1
    angles = np.pi * (np.arange(d) + 0.5) / d
    # cheb[i, q]: T_q at node i, times the transform's weight
    cheb = np.cos(np.outer(angles, np.arange(d))) * (2.0 / d)
    cheb[:, 0] *= 0.5
    eye = np.eye(m, dtype=complex)
    coef = np.zeros((m, d, m), dtype=complex)
    for i, x in enumerate(np.cos(angles)):
        cols = expm_action(op, eye, expm_plan(op, np.full(m, u_cap * x), h))
        coef += cheb[i][:, None] * cols.T[:, None, :]
    return coef.reshape(m * d, m)


def map_weights(x) -> np.ndarray:
    """T_0(x)..T_D(x), D = _MAP_DEGREE, of each row's x = u / u_cap by the
    three-term recurrence T_{p+1} = 2 x T_p - T_{p-1}, elementwise; complex,
    as error_steps takes them."""
    w = np.empty((_MAP_DEGREE + 1,) + x.shape)
    w[0] = 1.0
    w[1] = x
    for p in range(2, _MAP_DEGREE + 1):
        np.subtract(2.0 * x * w[p - 1], w[p - 2], out=w[p])
    return np.ascontiguousarray(w.T, dtype=complex)


def error_steps(coef, w, eps, steps: int) -> np.ndarray:
    """`steps` steps of exp(h M(u)) from the rows eps by error_map's coef,
    w = map_weights of each row's x: each step is one per-row np.matvec of
    coef with the row, giving C_q eps for every q, and one per-row np.matvec
    of those with the row's weights.  Nothing is formed per row, and each row
    is computed on its own.  Returns the steps' rows, shape (steps, rows, m)."""
    rows, m = eps.shape
    out = np.empty((steps, rows, m), dtype=complex)
    terms = np.empty((rows, coef.shape[0]), dtype=complex)
    by_degree = terms.reshape(rows, m, _MAP_DEGREE + 1)
    for k in range(steps):
        np.matvec(coef, eps, out=terms)
        eps = np.matvec(by_degree, w, out=out[k])
    return out


def steps_by_maps(n: int, n_sub: int) -> bool:
    """Whether rk4_coupled steps the observer by observer_maps (else by
    rk4_step on ObserverOperator.apply): at N <= _MAP_MAX_N with at least
    _MAP_MIN_STEPS steps per hold interval."""
    return n <= _MAP_MAX_N and n_sub >= _MAP_MIN_STEPS


def hold_grid(period: float, step: float, horizon: float) -> tuple[int, int]:
    """The time grid: steps per period and periods to the horizon, each 0
    unless it is a whole number (to 1e-9 relative).  The spectral period is
    the sample period Delta, the finite loop's is one step.  A ratio past
    2**53 (or not finite) counts as not whole: floats cannot tell there."""
    def whole(span, unit):
        ratio = span / unit
        if not ratio <= 2.0 ** 53:
            return 0
        n = round(ratio)
        return n if abs(n * unit - span) <= 1e-9 * max(1.0, span) else 0

    return whole(period, step), whole(horizon, period)


def _valid(r, mu: float) -> np.ndarray:
    """Per radius: inside the numerically valid region (NaN and inf are not)."""
    return mu * r < VALID_MU_R


def _row_norm(z) -> np.ndarray:
    return np.sqrt((z.real ** 2 + z.imag ** 2).sum(axis=-1))


def run_spectral_batch(spec: OutputSpec, params: SpectralParams, x0s, xhat0s,
                       cfg: IntegratorConfig) -> list[Trajectory]:
    """Sample-and-hold spectral observer loops, one per row of (x0s, xhat0s),
    each started from zhat(0) = embed(xhat0).

    method "exact_linear": plant state by the closed-form rotation solution,
    embedded state analytically, estimation error by the matrix exponential
    exp(h M(u)) of the (frozen-input) error system.  At N <= _MAP_MAX_N it
    is error_map's Chebyshev interpolant in u, built once per batch at its
    D + 1 nodes by expm_action: each row's weights T_q(u / u_cap) are worked
    out once per block (map_weights) and each step is two per-row np.matvec
    (error_steps), no plan or Taylor term per step.  A row with |u| > u_cap
    (map_cap), and every row past _MAP_MAX_N, takes expm_action on those
    rows alone under one Taylor plan per block.  The map is within 1e-14 of
    the dense exponential, entry by entry.  method
    "rk4_coupled": plant and observer by RK4, the observer fed by the
    transformed measurement.  Under the held control the plant's RK4 path
    over a block (the hold interval, in pieces of _BLOCK_STEPS steps) is
    plant_maps of the block's start, built once per batch: its stage points
    and step ends are two elementwise expressions in the start's x and u.
    All stage points are measured in one output_value call and all step ends
    embedded in one embed call, a step whose stages or end fall outside the
    valid region at radius 0.  The observer is then stepped alone on those
    measurements: where steps_by_maps holds, by observer_steps on the step
    maps T(c) zhat + sum_j y_j W(c)[j] of observer_maps, built once per
    batch, and elsewhere by rk4_step on ObserverOperator.apply.  The maps
    follow rk4_step on the plant's field and on ObserverOperator.apply to a
    few ulp a step.
    The control is refreshed at every sample instant from the left limit of
    the observer state and held in between.

    Every x0 and xhat0 must lie in the region mu |x| < VALID_MU_R where the
    embedding can be evaluated (a ValueError otherwise).  A run whose x or
    zhat stops being finite or exceeds DIVERGENCE_NORM (_bounded), or whose x
    leaves that region, is frozen at its last valid step and reported as
    diverged; the other runs carry on unaffected.  A hold value read from an
    estimate that spectral.left_inverse clamps counts in clamp_count.
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    xhat0s = np.atleast_2d(np.asarray(xhat0s, dtype=float))
    nb = x0s.shape[0]
    if x0s.shape != (nb, 2) or xhat0s.shape != (nb, 2):
        raise ValueError("run_spectral_batch: x0s and xhat0s must have shape (runs, 2)")
    if not _valid(np.hypot(*np.concatenate([x0s, xhat0s]).T), params.mu).all():
        raise ValueError(f"run_spectral_batch: every x0 and xhat0 needs mu |x| < {VALID_MU_R!r}")
    n_sub, n_int = hold_grid(params.Delta, cfg.step, cfg.horizon)
    if n_sub < 1:
        raise ValueError("run_spectral_batch: step must divide the sample period Delta")
    if n_int < 1:
        raise ValueError("run_spectral_batch: horizon must be a whole number of sample periods")
    n, mu = params.N, params.mu
    op = ObserverOperator(mu, params.alpha, output_vector(spec, n))
    h = cfg.step
    clamp_count = np.zeros(nb, dtype=int)

    def feedback(zhat, active):
        # left limit of the observer state fixes the next hold value
        u, clamped = sample_hold_feedback(zhat, params)
        clamp_count[active & clamped] += 1
        return u

    def exact_linear(x, eps, zhat, u, active, b):
        # the plant by its closed-form step and the error by exp(h M(u)): a
        # row with |u| <= u_cap by the batch's error map under its weights,
        # worked out once per block, the others by the action of the
        # exponential under the block's one Taylor plan for them; every step
        # end embedded in one call.  Under the held u neither grows past a
        # valid start by much, so a row stepped past its first invalid step
        # does not overflow
        xs = np.empty((b,) + x.shape)
        for k in range(b):
            x = xs[k] = rotation_step(x, u, h)
        near = np.abs(u) <= u_cap
        if near.all():
            epss = error_steps(coef, map_weights(u / u_cap), eps, b)
        else:
            epss = np.empty((b,) + eps.shape, dtype=complex)
            if near.any():
                epss[:, near] = error_steps(coef, map_weights(u[near] / u_cap), eps[near], b)
            far = ~near
            plan, e = expm_plan(op, u[far], h), eps[far]
            for k in range(b):
                e = epss[k, far] = expm_action(op, e, plan)
        ok = active & _valid(np.hypot(xs[..., 0], xs[..., 1]), mu)
        zhats = embed(np.where(ok[..., None], xs, 0.0), mu, n) + epss
        return xs, epss, zhats, ok & _bounded(xs, zhats), _row_norm(epss)

    def rk4_coupled(x, eps, zhat, u, active, b):
        # the plant never reads the observer, so under the held u its RK4
        # path over the block is two affine maps of the block's start: every
        # stage is measured in one output call, a point outside at radius 0,
        # and every step end whose stages and end are inside is embedded in
        # one call (the others at 0).  The observer is then stepped alone on
        # those measurements, by its step maps or by rk4_step
        ends, stages = maps
        xs = _affine(ends[1:b + 1], x, u)
        r, theta = polar(_affine(stages[:b], x, u))
        inside = _valid(r, mu)
        fy = linearized_output(spec, mu, output_value(spec, mu, np.where(inside, r, 0.0), theta))
        ok = active & inside.all(axis=1) & _valid(np.hypot(xs[..., 0], xs[..., 1]), mu)
        c = op.offdiag(u)
        # a row whose observer passes the norm bound is stepped on to the
        # block's end, where it may overflow, and those steps are discarded
        with np.errstate(over="ignore", invalid="ignore"):
            if coef is not None:
                zhats = observer_steps(coef, c, fy, zhat)
            else:
                zhats = np.empty((b,) + zhat.shape, dtype=complex)
                for k in range(b):
                    stage = iter(fy[k])
                    zhat = zhats[k] = rk4_step(lambda z: op.apply(z, c, next(stage)), zhat, h)
            epss = zhats - embed(np.where(ok[..., None], xs, 0.0), mu, n)
            return xs, epss, zhats, ok & _bounded(xs, zhats), _row_norm(epss)

    if cfg.method == "exact_linear":
        step = exact_linear
        # past _MAP_MAX_N no map is built and no row is near (u_cap < 0)
        u_cap = map_cap(mu, h) if n <= _MAP_MAX_N else -1.0
        coef = error_map(op, h, u_cap) if u_cap > 0.0 else None
    else:
        step, maps = rk4_coupled, plant_maps(h, min(_BLOCK_STEPS, n_sub))
        coef = observer_maps(op, h) if steps_by_maps(n, n_sub) else None

    def advance(state, active, i):
        x, eps, zhat, u = state
        b = min(_BLOCK_STEPS, n_sub - i % n_sub)
        xs, epss, zhats, ok, eps_norm = step(x, eps, zhat, u, active, b)
        us = np.empty(ok.shape)
        us[:] = u
        if (i + b) % n_sub == 0:
            # the interval's last step carries the next hold value (u is
            # right-continuous), read from the rows valid through the block;
            # the others get their zhat before it, a valid one
            alive = np.logical_and.reduce(ok)
            us[-1] = np.where(alive, feedback(np.where(alive[:, None], zhats[-1], zhat), alive), u)
        return (xs, epss, zhats, us), eps_norm, ok

    def sample(state, eps):
        x, eps_vec, zhat, u = state
        return x, zhat, u, eps, np.abs(op.inner(eps_vec)), weak_norm(eps_vec)

    z, zhat = embed(x0s, mu, n), embed(xhat0s, mu, n)
    eps = zhat - z
    if step is exact_linear:
        # this method carries eps and rebuilds zhat from it
        zhat = z + eps
    state = (x0s, eps, zhat, feedback(zhat, True))
    trajs = _drive(state, _row_norm(eps), advance, sample, n_int * n_sub, cfg)
    for traj, count in zip(trajs, clamp_count):
        traj.clamp_count = int(count)
    return trajs


def convergence_metrics(traj: Trajectory) -> dict:
    """A run's summary.txt entries in that file's order: trailing peak of |x|,
    final error norms, dissipativity counters, clamp count, diverged (0/1)."""
    if traj.times.shape[0] == 0:
        raise ValueError("convergence_metrics: empty trajectory")
    t_end = traj.times[-1]
    t_start = traj.times[0]
    window = traj.times >= t_end - 0.1 * (t_end - t_start)
    xnorm = np.sqrt(np.einsum("ij,ij->i", traj.x, traj.x))
    return {
        "trailing_max_x": float(np.max(xnorm[window])),
        "final_eps_norm": float(traj.eps_norm[-1]),
        "final_c_eps_abs": float(traj.c_eps_abs[-1]),
        "final_weak_eps": float(traj.weak_eps[-1]) if traj.weak_eps is not None else float("nan"),
        "dissipativity_violations": int(traj.dissipativity_violations),
        "max_eps_increase": float(traj.max_eps_increase),
        "clamp_count": int(traj.clamp_count),
        "diverged": int(traj.diverged_at is not None),
    }
