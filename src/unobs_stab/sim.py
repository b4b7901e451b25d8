"""Time integration and closed-loop drivers.

Two loops are provided, each vectorized over runs.  The finite strategy
steps the packed rows (x, zhat) of the coupled plant/observer ODE
(finite.closed_loop_rhs, continuous feedback) with classical fixed-step RK4.
The spectral strategy is sampled: the control is held constant on each
interval, so the truncated error system is linear time-invariant there and
is propagated by the action of its exponential (spectral.observer_propagate,
exact up to roundoff), while the plant state follows the closed-form
rotation-with-constant-input solution.  An independent path, for
cross-validation, integrates plant and observer with the same RK4 step
(rk4_step), the observer fed by the transformed measurement.  The plant
never reads the observer, so under the held control its path over a hold
interval is planned first: its stage points measured and its step ends
embedded in one call each, then the observer stepped alone on those
measurements.  Both apply the batch's one spectral.ObserverOperator.

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
    linearized_output,
    observer_propagate,
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
    finite.closed_loop_rhs in blocks of _BLOCK_STEPS steps, the error and the
    stop rule then taken over the block at once.  Its error is
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
    embedded state analytically, estimation error by the action of the
    matrix exponential of the (frozen-input) error system.  method
    "rk4_coupled": plant and observer stepped by rk4_step, the observer fed
    by the transformed measurement.  At the start of each hold interval (or
    every _BLOCK_STEPS steps of it) the plant alone is stepped ahead under the
    held control; all its stage points are measured in one output_value
    call and all its step ends embedded in one embed call, a step whose
    stages or end fall outside the valid region at radius 0.  Each step then
    steps zhat alone.  The runs are bitwise those of stepping the packed
    complex rows (x, zhat) together, as x's imaginary parts were +0.
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
        # the plant by its closed-form step and the error by the action of the
        # exponential, step by step; every step end embedded in one call.
        # Under the held u neither grows past a valid start by much, so a row
        # stepped past its first invalid step does not overflow
        xs, epss = np.empty((b,) + x.shape), np.empty((b,) + eps.shape, dtype=complex)
        for k in range(b):
            x = xs[k] = rotation_step(x, u, h)
            eps = epss[k] = observer_propagate(op, eps, u, h)
        ok = active & _valid(np.hypot(xs[..., 0], xs[..., 1]), mu)
        zhats = embed(np.where(ok[..., None], xs, 0.0), mu, n) + epss
        return xs, epss, zhats, ok & _bounded(xs, zhats), _row_norm(epss)

    def rk4_coupled(x, eps, zhat, u, active, b):
        # the plant never reads the observer, so under the held u its RK4
        # path over the block is known: every stage is measured in one output
        # call, a point outside at radius 0, and every step end whose stages
        # and end are inside is embedded in one call (the others at 0); the
        # observer is then stepped alone by rk4_step on those measurements
        stages, xs = [], np.empty((b,) + x.shape)

        def plant_rhs(p):
            stages.append(p)
            return _rotation_field(p, u, np.empty_like(p))

        for k in range(b):
            x = xs[k] = rk4_step(plant_rhs, x, h)
        r, theta = polar(np.array(stages))
        inside = _valid(r, mu)
        fy = linearized_output(spec, mu, output_value(spec, mu, np.where(inside, r, 0.0), theta))
        fy = fy.reshape(b, 4, nb)
        ok = active & inside.reshape(b, 4, nb).all(axis=1) \
            & _valid(np.hypot(xs[..., 0], xs[..., 1]), mu)
        c, zhats = op.offdiag(u), np.empty((b,) + zhat.shape, dtype=complex)
        # a row whose observer passes the norm bound is stepped on to the
        # block's end, where it may overflow, and those steps are discarded
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(b):
                stage = iter(fy[k])
                zhat = zhats[k] = rk4_step(lambda z: op.apply(z, c, next(stage)), zhat, h)
            epss = zhats - embed(np.where(ok[..., None], xs, 0.0), mu, n)
            return xs, epss, zhats, ok & _bounded(xs, zhats), _row_norm(epss)

    step = exact_linear if cfg.method == "exact_linear" else rk4_coupled

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
