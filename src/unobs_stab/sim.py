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
records; one loop (_drive) does the rest for both.  It freezes a run at its
last valid step when it leaves the region where it can be evaluated (by one
rule for both, _bounded: x or zhat not finite or past DIVERGENCE_NORM; for
the spectral loop also mu |x| >= VALID_MU_R) and ends its records there, the
other runs carrying on; it counts the per-step dissipativity violations; and
it builds the trajectories.  run_*_batch and the config parser share one time
grid, hold_grid, which refuses a horizon off the grid instead of rounding it,
and one threshold, VALID_MU_R, inside which every run starts.  Both loops step
the configured step itself, so records fall at k * record_every * step.

Everything is deterministic: fixed steps, no adaptivity, no hidden state.
The batched loops combine runs only elementwise (no matrix products across
runs), so a run's trajectory is bitwise the same whatever batch it is in.
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
# Steps of a hold interval the rk4_coupled loop plans at once: the whole
# interval up to this many, in pieces of it beyond, so a plan's memory does
# not grow with the substep count.
_PLAN_STEPS = 64


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
    """The loop both strategies share: step, freeze, count, record.

    state is a sequence of per-run arrays (runs first) and eps0 the error
    norms of the runs, every run starting inside the valid region.
    advance(state, active, i) takes step i and returns the new state, the new
    error norms and the active rows whose new state is valid; any other row
    is frozen at its last valid state, its diverged_at set on the step it
    leaves and its records ended there.  sample(state, eps) returns the
    recorded fields in _RECORDED order.  The error norm is checked every
    step: a rise past EPS_STEP_TOL counts as a dissipativity violation, and
    the largest rise is kept.
    """
    stride, h = cfg.record_every, cfg.step
    if steps % stride:
        raise ValueError(f"record_every={stride} must divide the {steps} steps to the horizon")
    nb = eps0.shape[0]
    active = np.ones(nb, dtype=bool)
    diverged_at = np.full(nb, np.nan)
    # run-major records, so each run's trajectory is a view
    n_rec = steps // stride + 1
    rec_t = np.arange(n_rec) * stride * h
    fields = sample(state, eps0)
    rec = [np.empty((nb, n_rec) + f.shape[1:], dtype=f.dtype) for f in fields]
    for r, f in zip(rec, fields):
        r[:, 0] = f
    lengths = np.ones(nb, dtype=int)
    violations = np.zeros(nb, dtype=int)
    max_inc = np.zeros(nb)
    eps = eps0

    for i in range(steps):
        new, cur, ok = advance(state, active, i)
        if ok.all():
            # no row leaves (ok is within active): nothing to freeze
            state = new
        else:
            diverged_at[active & ~ok] = (i + 1) * h
            active = ok
            keep = active[:, None]
            state = [np.where(keep if a.ndim > 1 else active, a, b)
                     for a, b in zip(new, state)]
            cur = np.where(active, cur, eps)
        inc = cur - eps
        violations += inc > EPS_STEP_TOL
        max_inc = np.maximum(max_inc, inc)
        eps = cur
        if (i + 1) % stride == 0:
            for r, f in zip(rec, sample(state, eps)):
                r[:, (i + 1) // stride] = f
            lengths[active] += 1
        if not active.any():
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
    finite.closed_loop_rhs.  Its error is eps = zhat - finite.embed(x), as
    the spectral loop measures it: |eps| is checked every step and
    |C eps| = |eps_last| recorded.  A run whose x or zhat stops being finite
    or exceeds DIVERGENCE_NORM (_bounded) is frozen at its last valid step
    and reported as diverged, its records ending there; the other runs carry
    on unaffected.
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
        eps = s[:, 2:] - embed_fin(s[:, :2])
        return eps, np.sqrt(np.add.reduce(eps * eps, axis=-1))

    def advance(state, active, i):
        s = rk4_step(rhs, state[0], cfg.step)
        eps, eps_norm = error(s)
        return (s, eps), eps_norm, active & _bounded(s[:, :2], s[:, 2:])

    def sample(state, eps_norm):
        s, eps = state
        return (s[:, :2], s[:, 2:], perturbed_feedback(s[:, 2:], params.K, params.delta),
                eps_norm, np.abs(eps[:, -1]))

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
    return np.stack([ch * x[..., 0] - sh * x[..., 1] + u * (ch - 1.0),
                     sh * x[..., 0] + ch * x[..., 1] + u * sh], axis=-1)


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
    every _PLAN_STEPS steps of it) the plant alone is stepped ahead under the
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

    def exact_linear(x, eps, zhat, u, active, i):
        x_new = rotation_step(x, u, h)
        ok = active & _valid(np.hypot(*x_new.T), mu)
        eps_new = observer_propagate(op, eps, u, h)
        return x_new, eps_new, embed(np.where(ok[:, None], x_new, 0.0), mu, n) + eps_new, ok

    plan = {}

    def plan_plant(x, u, steps):
        # the plant never reads the observer, so under the held u its RK4
        # path over the next steps is known: every stage is measured in one
        # output call, a point outside at radius 0, and every step end whose
        # stages and end are inside is embedded in one call (the others at 0)
        stages, ends = [], []

        def plant_rhs(xs):
            stages.append(xs)
            return _rotation_field(xs, u, np.empty_like(xs))

        for _ in range(steps):
            x = rk4_step(plant_rhs, x, h)
            ends.append(x)
        ends = np.array(ends)
        r, theta = polar(np.array(stages))
        inside = _valid(r, mu)
        fy = linearized_output(spec, mu, output_value(spec, mu, np.where(inside, r, 0.0), theta))
        ok = inside.reshape(steps, 4, nb).all(axis=1) \
            & _valid(np.hypot(ends[..., 0], ends[..., 1]), mu)
        plan.update(x=ends, fy=fy.reshape(steps, 4, nb), ok=ok, c=op.offdiag(u),
                    z=embed(np.where(ok[..., None], ends, 0.0), mu, n))

    def rk4_coupled(x, eps, zhat, u, active, i):
        # the observer alone by rk4_step, fed the planned measurements; a plan
        # covers at most _PLAN_STEPS steps of one hold interval
        k = i % n_sub % _PLAN_STEPS
        if k == 0:
            plan_plant(x, u, min(_PLAN_STEPS, n_sub - i % n_sub))
        fy, c = iter(plan["fy"][k]), plan["c"]
        zhat_new = rk4_step(lambda z: op.apply(z, c, next(fy)), zhat, h)
        return plan["x"][k], zhat_new - plan["z"][k], zhat_new, active & plan["ok"][k]

    step = exact_linear if cfg.method == "exact_linear" else rk4_coupled

    def advance(state, active, i):
        x, eps, zhat, u = state
        x_new, eps_new, zhat_new, ok = step(x, eps, zhat, u, active, i)
        ok &= _bounded(x_new, zhat_new)
        if (i + 1) % n_sub == 0:
            # before the boundary record: u is right-continuous, each sample
            # carries the value just applied
            zhat_new = np.where(ok[:, None], zhat_new, zhat)
            u = np.where(ok, feedback(zhat_new, ok), u)
        return (x_new, eps_new, zhat_new, u), _row_norm(eps_new), ok

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
