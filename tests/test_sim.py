import cProfile
import dataclasses
import math
import pstats
import tracemalloc

import numpy as np
import pytest
from oracles import drive_per_step, run_spectral_packed

from unobs_stab import sim, spectral
from unobs_stab.bessel import bessel_j
from unobs_stab.finite import (FinParams, _rotation_field, delta_margin, embed as embed_fin,
                               rotation_plant)
from unobs_stab.linalg import place_poles
from unobs_stab.sim import (
    DIVERGENCE_NORM,
    VALID_MU_R,
    IntegratorConfig,
    Trajectory,
    _affine,
    _drive,
    _valid,
    convergence_metrics,
    held_maps,
    observer_maps,
    observer_steps,
    plant_maps,
    rk4_step,
    rotation_step,
    run_finite_batch,
    run_spectral_batch,
)
from unobs_stab.spectral import (
    BESSEL_SERIES,
    J2_COS2THETA,
    KINDS,
    NORM_SQ,
    ObserverOperator,
    OutputSpec,
    SpectralParams,
    default_j,
    embed,
    embedded_target,
    expm_action,
    expm_plan,
    output_vector,
)

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.fixture
def plant():
    return rotation_plant()


@pytest.fixture
def fin_params(plant):
    gain = place_poles(plant.A, plant.b, [-1.0, -2.0])
    return FinParams(K=gain, delta=0.2, alpha=10.0)


def spectral_setup(delta=0.003, alpha=1.0, Delta=0.05, mu=0.1, n=16):
    spec = OutputSpec(kind=NORM_SQ)
    params = SpectralParams(K=np.array([1.0, -2.0]), delta=delta, alpha=alpha,
                            Delta=Delta, mu=mu, j=default_j(), N=n)
    return spec, params


def assert_same_run(single, traj):
    """Every Trajectory field of traj bitwise equal to the solo run's (the
    sign of a zero included)."""
    for f in dataclasses.fields(Trajectory):
        want, got = getattr(single, f.name), getattr(traj, f.name)
        if isinstance(want, np.ndarray):
            assert (want.dtype, want.shape, want.tobytes()) == \
                (got.dtype, got.shape, got.tobytes()), f.name
        else:
            assert want == got, f.name


def rk4_path(rhs, s0, h, steps):
    """States of `steps` RK4 steps of size h from s0, s0 included."""
    path = [np.asarray(s0, dtype=float)]
    for _ in range(steps):
        path.append(rk4_step(rhs, path[-1], h))
    return np.array(path)


class TestRk4:
    def test_constant_field(self):
        states = rk4_path(np.zeros_like, np.array([1.0, -2.0]), 0.1, 10)
        assert np.allclose(states, [1.0, -2.0])

    def test_rotation_returns_after_full_turn(self):
        steps = int(round(2.0 * math.pi / 1e-3))
        states = rk4_path(lambda s: ROT @ s, np.array([1.0, 0.0]),
                          2.0 * math.pi / steps, steps)
        assert np.linalg.norm(states[-1] - [1.0, 0.0]) < 1e-8

    def test_fourth_order_richardson(self):
        # time-dependent field: t rides along as the last state component
        def rhs(s):
            return np.array([math.sin(s[2]) * s[0] - s[1], s[0] * 0.5, 1.0])

        s0 = np.array([1.0, 0.3, 0.0])
        ref = rk4_path(rhs, s0, 2e-4, 10000)[-1]
        errs = []
        for h in (2e-2, 1e-2):
            states = rk4_path(rhs, s0, h, int(round(2.0 / h)))
            errs.append(np.linalg.norm(states[-1] - ref))
        ratio = errs[0] / errs[1]
        assert 8.0 < ratio < 32.0  # halving the step cuts the error ~16x


class TestFiniteLoop:
    def test_equilibrium_stays_put(self, plant, fin_params):
        cfg = IntegratorConfig(step=1e-3, horizon=1.0)
        traj = run_finite_batch(plant, fin_params, np.zeros(2), np.zeros(3), cfg)[0]
        assert np.allclose(traj.x, 0.0)
        assert np.allclose(traj.zhat, 0.0)
        assert np.allclose(traj.u, 0.0)
        assert traj.dissipativity_violations == 0

    def test_embedded_manifold_invariance(self, plant, fin_params):
        # starting the observer on the embedded state keeps the error at zero
        # and the plant follows the perturbed state-feedback flow
        cfg = IntegratorConfig(step=1e-3, horizon=10.0)
        x0 = np.array([1.2, -0.4])
        traj = run_finite_batch(plant, fin_params, x0, embed_fin(x0), cfg)[0]
        assert np.max(traj.eps_norm) <= 1e-8

        def state_feedback(x):
            u = fin_params.K @ x + 0.5 * fin_params.delta * np.dot(x, x)
            return plant.A @ x + plant.b * u

        states = rk4_path(state_feedback, x0, cfg.step, 10000)
        assert np.max(np.linalg.norm(states - traj.x, axis=1)) < 1e-7

        # a batch of perfect starts reads zero error exactly at t = 0: the
        # start lift and the loop's error use one summation
        x0s = np.random.default_rng(11).uniform(-3.0, 3.0, size=(200, 2))
        cfg = IntegratorConfig(step=1e-3, horizon=0.1)
        trajs = run_finite_batch(plant, fin_params, x0s, [embed_fin(x) for x in x0s], cfg)
        assert all(t.eps_norm[0] == 0.0 and t.c_eps_abs[0] == 0.0 for t in trajs)
        assert max(np.max(t.eps_norm) for t in trajs) <= 1e-8

    def test_error_norm_non_increasing(self, plant, fin_params):
        cfg = IntegratorConfig(step=1e-3, horizon=20.0)
        rng = np.random.default_rng(5)
        traj = run_finite_batch(plant, fin_params, rng.normal(size=2),
                                rng.normal(size=3), cfg)[0]
        assert traj.dissipativity_violations == 0
        assert np.all(np.diff(traj.eps_norm) <= 1e-8)

    def test_batch_matches_single(self, plant, fin_params):
        cfg = IntegratorConfig(step=1e-2, horizon=2.0)
        x0s = [np.array([1.0, 0.5]), np.array([-0.7, 0.2])]
        z0s = [np.array([0.1, 0.0, 1.0]), np.array([0.0, 0.3, 0.2])]
        batch = run_finite_batch(plant, fin_params, x0s, z0s, cfg)
        for x0, z0, traj in zip(x0s, z0s, batch):
            assert_same_run(run_finite_batch(plant, fin_params, x0, z0, cfg)[0], traj)
            assert traj.diverged_at is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_frozen_rows_match_single(self, plant):
        # under these params only the equilibrium start stays bounded; the
        # other two freeze at t=2.7 and t=1.69 while the batch carries on
        params = FinParams(K=np.array([0.0, 3.0]), delta=0.5, alpha=1.0)
        cfg = IntegratorConfig(step=1e-2, horizon=40.0)
        x0s = [[-1.62, -0.27], [0.0, 0.0], [1.0, 0.0]]
        z0s = [[1.51, -1.59, 1.4], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        batch = run_finite_batch(plant, params, x0s, z0s, cfg)
        for x0, z0, traj in zip(x0s, z0s, batch):
            assert_same_run(run_finite_batch(plant, params, x0, z0, cfg)[0], traj)
        assert [traj.diverged_at for traj in batch] == [2.7, None, 1.69]
        assert batch[1].times[-1] == 40.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_reported_not_raised(self, plant):
        # the second start leaves the valid region at t=2.7, after which RK4
        # increments from its state overflow: a frozen run must keep its last
        # valid state and end its records there, not turn into NaN
        params = FinParams(K=np.array([0.0, 3.0]), delta=0.5, alpha=1.0)
        cfg = IntegratorConfig(step=1e-2, horizon=40.0)
        for x0, z0 in (([1.0, 0.0], [0.0, 0.0, 0.0]),
                       ([-1.62, -0.27], [1.51, -1.59, 1.4])):
            traj = run_finite_batch(plant, params, x0, z0, cfg)[0]
            assert traj.diverged_at is not None
            assert traj.times[-1] < traj.diverged_at
            assert np.all(np.isfinite(traj.x)) and np.all(np.isfinite(traj.zhat))
            assert np.isfinite(traj.max_eps_increase)

    def test_stride_must_divide_steps(self, plant, fin_params):
        # 500 steps with a stride of 32 would end the records at t=0.96
        def last_time(stride):
            cfg = IntegratorConfig(step=0.002, horizon=1.0, record_every=stride)
            traj = run_finite_batch(plant, fin_params, [1.0, 0.5], [0.1, 0.0, 1.0], cfg)[0]
            return traj.times[-1]

        assert last_time(25) == 1.0
        with pytest.raises(ValueError, match="record_every=32 must divide the 500"):
            last_time(32)

    @pytest.mark.parametrize("step,horizon", [(0.003, 1.0), (1e-3, 5e-4), (1e-300, 1e300)],
                             ids=["not-whole", "below-step", "count-overflows"])
    def test_horizon_must_be_whole_steps(self, plant, fin_params, step, horizon):
        # 333.33 steps and half a step: neither is rounded to the grid; 1e600
        # steps overflow a float, and no float can tell whether they are whole
        cfg = IntegratorConfig(step=step, horizon=horizon)
        with pytest.raises(ValueError, match="^run_finite_batch: horizon"):
            run_finite_batch(plant, fin_params, [1.0, 0.5], [0.1, 0.0, 1.0], cfg)

    def test_records_fall_on_multiples_of_the_step(self, plant, fin_params):
        # 0.3 / 3 is 0.09999999999999999: the loop steps 0.1 itself, as the
        # spectral loop does, so the record times are k * 0.1
        cfg = IntegratorConfig(step=0.1, horizon=0.3)
        traj = run_finite_batch(plant, fin_params, [1.0, 0.5], [0.1, 0.0, 1.0], cfg)[0]
        assert np.array_equal(traj.times, np.arange(4) * 0.1)


class TestStepChecks:
    # the per-step dissipativity check and the domain test at their edges

    @staticmethod
    def rise_once(rise):
        """One run through _drive whose error norm rises from 0 by rise, in a
        block of one step."""
        def advance(state, active, i):
            return [a[None] for a in state], np.array([[rise]]), active[None]

        def sample(state, eps):
            k = eps.shape[0]
            return state[0], np.zeros((k, 1, 3)), np.zeros((k, 1)), eps, np.zeros((k, 1))

        cfg = IntegratorConfig(step=1.0, horizon=1.0)
        return _drive((np.zeros((1, 2)),), np.zeros(1), advance, sample, 1, cfg)[0]

    def test_rise_up_to_the_tolerance_is_no_violation(self):
        traj = self.rise_once(1e-8)
        assert traj.dissipativity_violations == 0
        assert traj.max_eps_increase == 1e-8

    def test_rise_past_the_tolerance_is_one_violation(self):
        traj = self.rise_once(2e-8)
        assert traj.dissipativity_violations == 1
        assert traj.max_eps_increase == 2e-8

    def test_valid_region_is_open(self):
        assert not _valid(np.array([VALID_MU_R]), 1.0)[0]
        assert _valid(np.array([np.nextafter(VALID_MU_R, 0.0)]), 1.0)[0]


class TestBlockLoop:
    # _drive steps in blocks; the per-step loop it replaced (oracles.py) runs
    # the same stub steps, and every run must come out bitwise the same.
    # Each row's first invalid step (never for row 0 unless all freeze): the
    # first, a middle and the last step of a 64-step block, the first step of
    # the horizon, a one-step block and the horizon's last step
    STEPS = 210
    BLOCKS = {0: 64, 64: 1, 65: 5, 70: 64, 134: 2, 136: 64, 200: 10}
    FIRST_INVALID = [math.inf, 70, 100, 133, 0, 64, 209]
    # error norms cycled per row: rises of exactly 1e-8 and 2e-8, falls and
    # larger rises
    NORMS = np.array([0.0, 1e-8, 0.0, 2e-8, 0.0, 0.25, 0.125, 0.5])

    def step(self, first_invalid, x, k):
        """Step k of every row from x: the new state, the norm and validity.
        A row is invalid on its first invalid step and the two after it, its
        state inf and its norm NaN, and valid again later (with an inf state
        after the first), which must not thaw it."""
        rows = np.arange(x.shape[0])
        valid = (k < first_invalid) | (k >= first_invalid + 3)
        x_new = np.where(valid[:, None], 0.75 * x + np.stack([np.full_like(rows, k), rows], -1),
                         np.inf)
        norm = np.where(valid, self.NORMS[(k + rows) % self.NORMS.size], np.nan)
        return x_new, norm, valid

    @staticmethod
    def sample(state, eps):
        x, u = state
        return x, 3.0 * x, u, eps, np.abs(u)

    @pytest.mark.parametrize("stride", [1, 3, 7])
    @pytest.mark.parametrize("all_freeze", [False, True])
    def test_matches_per_step_loop(self, stride, all_freeze):
        first_invalid = np.array([150.0 if all_freeze else math.inf] + self.FIRST_INVALID[1:])
        cfg = IntegratorConfig(step=0.1, horizon=21.0, record_every=stride)

        def per_step(state, active, i):
            x, norm, valid = self.step(first_invalid, state[0], i)
            return (x, x[:, 0] + x[:, 1]), norm, active & valid

        def block(state, active, i):
            x, steps = state[0], []
            for k in range(i, i + self.BLOCKS[i]):
                x, norm, valid = self.step(first_invalid, x, k)
                steps.append((x, norm, valid))
            xs, norms, valids = (np.array(a) for a in zip(*steps))
            return (xs, xs[..., 0] + xs[..., 1]), norms, active & valids

        x0 = np.array([[1.0, -0.5], [0.3, 0.2], [-2.0, 1.0], [0.0, 0.0], [5.0, 4.0],
                       [0.1, 0.7], [-1.5, -0.25]])
        state, eps0 = (x0, x0[:, 0] + x0[:, 1]), np.zeros(7)
        want = drive_per_step(state, eps0, per_step, self.sample, self.STEPS, cfg)
        got = _drive(state, eps0, block, self.sample, self.STEPS, cfg)
        for w, g in zip(want, got):
            assert_same_run(w, g)
        assert [t.diverged_at for t in got] == \
            [None if f == math.inf else (f + 1) * 0.1 for f in first_invalid]
        assert got[0].dissipativity_violations > 0 and got[0].max_eps_increase == 0.375


class TestRotationStep:
    def test_matches_rk4(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            x0 = rng.normal(size=2)
            u = float(rng.normal())
            states = rk4_path(lambda s: ROT @ s + np.array([0.0, 1.0]) * u,
                              x0, 1e-4, 3000)
            x_exact = x0.copy()
            for _ in range(3):
                x_exact = rotation_step(x_exact, u, 0.1)
            assert np.linalg.norm(states[-1] - x_exact) < 1e-12


class TestSpectralLoop:
    def test_equilibrium(self):
        spec, params = spectral_setup()
        cfg = IntegratorConfig(method="exact_linear", step=0.05, horizon=2.0)
        traj = run_spectral_batch(spec, params, np.zeros(2), np.zeros(2), cfg)[0]
        assert np.allclose(traj.u, 0.0)
        assert np.allclose(traj.eps_norm, 0.0)
        assert np.max(np.abs(traj.x)) == 0.0

    def test_perfect_estimate_keeps_error_at_truncation_level(self):
        spec, params = spectral_setup(n=20)
        cfg = IntegratorConfig(method="exact_linear", step=0.05, horizon=5.0)
        x0 = np.array([0.8, -0.3])
        traj = run_spectral_batch(spec, params, x0, x0, cfg)[0]
        assert np.max(traj.eps_norm) < 1e-12

    def test_cross_method_consistency_short(self):
        spec, params = spectral_setup(n=12)
        x0, xh0 = np.array([0.6, 0.2]), np.array([0.1, -0.4])
        exact, rk4 = (run_spectral_batch(spec, params, x0, xh0,
                                         IntegratorConfig(method=method, step=1e-3,
                                                          horizon=2.0))[0]
                      for method in ("exact_linear", "rk4_coupled"))
        assert np.max(np.linalg.norm(exact.x - rk4.x, axis=1)) < 1e-7
        assert np.max(np.abs(exact.zhat - rk4.zhat)) < 1e-7

    def test_control_held_between_samples(self):
        spec, params = spectral_setup(Delta=0.1, n=10)
        cfg = IntegratorConfig(method="exact_linear", step=0.02, horizon=1.0)
        traj = run_spectral_batch(spec, params, [0.5, 0.1], [0.2, 0.2], cfg)[0]
        per_interval = int(round(params.Delta / cfg.step))
        for k in range(traj.u.shape[0] - 1):
            if (k + 1) % per_interval != 0:
                assert traj.u[k + 1] == traj.u[k]

    def test_error_norm_non_increasing(self):
        spec, params = spectral_setup()
        cfg = IntegratorConfig(method="exact_linear", step=0.05, horizon=50.0)
        traj = run_spectral_batch(spec, params, [0.7, -0.2], [-0.3, 0.5], cfg)[0]
        assert traj.dissipativity_violations == 0
        assert np.all(np.diff(traj.eps_norm) <= 1e-8)

    def test_step_must_divide_sample_period(self):
        spec, params = spectral_setup(Delta=0.05)
        with pytest.raises(ValueError, match="^run_spectral_batch: step"):
            run_spectral_batch(spec, params, np.zeros(2), np.zeros(2),
                               IntegratorConfig(method="exact_linear",
                                                step=0.03, horizon=1.0))

    def test_horizon_must_be_whole_periods(self):
        # 0.26 is 8.32 sample periods of 1/32: not rounded to t = 0.25
        spec, params = spectral_setup(Delta=0.03125)
        with pytest.raises(ValueError, match="^run_spectral_batch: horizon"):
            run_spectral_batch(spec, params, np.zeros(2), np.zeros(2),
                               IntegratorConfig(method="exact_linear",
                                                step=0.03125, horizon=0.26))


class TestSpectralBatch:
    @pytest.mark.parametrize("method,kind", [("exact_linear", NORM_SQ),
                                             ("rk4_coupled", J2_COS2THETA)])
    def test_batch_matches_single(self, method, kind):
        _, params = spectral_setup(n=12)
        spec = OutputSpec(kind=kind)
        cfg = IntegratorConfig(method=method, step=0.01, horizon=1.0, record_every=5)
        # mu |x0| = 8.73 for the last row: the batch's Bessel calls take the
        # mixed series/recurrence path, the near rows alone the all-series one
        x0s = np.array([[0.6, 0.2], [-0.9, 0.4], [0.0, 0.0], [85.0, -20.0]])
        xh0s = np.array([[0.1, -0.4], [0.3, 0.3], [0.5, -0.2], [0.2, 0.1]])
        batch = run_spectral_batch(spec, params, x0s, xh0s, cfg)
        for x0, xh0, traj in zip(x0s, xh0s, batch):
            assert_same_run(run_spectral_batch(spec, params, x0, xh0, cfg)[0], traj)
            assert traj.diverged_at is None

    @pytest.mark.parametrize("x0s,xh0s", [
        ([[0.5, 0.0], [600.0, 0.0]], [[0.0, 0.2], [0.0, 0.0]]),
        ([[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.2], [0.0, 500.0]]),
        ([[0.5, 0.0], [math.nan, 0.0]], [[0.0, 0.2], [0.0, 0.0]]),
        ([[0.5, 0.0], [500.0 * (1.0 - 5e-13), 0.0]], [[0.0, 0.2], [0.0, 0.0]]),
    ], ids=["x0", "xhat0", "nan", "valid-limit"])
    def test_start_outside_domain_rejected(self, x0s, xh0s):
        # mu |x0| = 60 and mu |xhat0| = 50 are at or past the Bessel argument
        # limit, mu |x0| = 50 (1 - 5e-13) is past the valid-region limit the
        # loop tests at every step, and NaN is nowhere: the batch refuses to start
        spec, params = spectral_setup(mu=0.1, n=12)
        cfg = IntegratorConfig(method="exact_linear", step=0.05, horizon=1.0)
        with pytest.raises(ValueError, match="^run_spectral_batch: every x0 and xhat0"):
            run_spectral_batch(spec, params, x0s, xh0s, cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_leaving_domain_mid_run_freezes_the_run(self):
        # the held control swings x around a circle through mu |x| = 50; under
        # rk4_coupled the per-stage domain flags come back through rk4_step
        spec, params = spectral_setup(mu=0.1, n=12)
        for method in ("exact_linear", "rk4_coupled"):
            cfg = IntegratorConfig(method=method, step=0.05, horizon=8.0)
            traj = run_spectral_batch(spec, params, [499.0, 0.0], [0.0, 5.0], cfg)[0]
            assert traj.diverged_at is not None and 0.0 < traj.diverged_at < 8.0, method
            assert traj.times[-1] < traj.diverged_at, method
            assert np.all(0.1 * np.linalg.norm(traj.x, axis=1) < 50.0), method
            assert np.all(np.isfinite(traj.zhat)), method
        # traj is now the rk4_coupled run: every step it took kept all its
        # RK4 stages inside, and the step from its last record had one outside
        for rows, inside in ((slice(0, -1), True), (slice(-1, None), False)):
            x, u = traj.x[rows], traj.u[rows]
            stages = []

            def plant_rhs(s):
                stages.append(s)
                return np.stack([-s[:, 1], s[:, 0] + u], axis=-1)

            stages.append(rk4_step(plant_rhs, x, cfg.step))
            radii = 0.1 * np.linalg.norm(np.array(stages), axis=-1)
            assert np.all(radii < 50.0) if inside else np.any(radii >= 50.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_observer_past_the_norm_bound_freezes_the_run(self):
        # alpha = 300 makes the observer's RK4 step unstable at h = 1/32: |zhat|
        # passes DIVERGENCE_NORM on step 5, long before it stops being finite,
        # while x stays small; the run freezes there
        params = SpectralParams(K=np.array([1.0, -2.0]), delta=0.0, alpha=300.0,
                                Delta=1 / 32, mu=0.1, j=default_j(), N=24)
        cfg = IntegratorConfig(method="rk4_coupled", step=1 / 32, horizon=4.0)
        traj = run_spectral_batch(OutputSpec(kind=NORM_SQ), params, [0.5, 0.0], [0.2, 0.3],
                                  cfg)[0]
        assert traj.diverged_at == 5 / 32
        assert traj.times[-1] == 4 / 32
        assert np.all(np.linalg.norm(traj.zhat, axis=1) <= DIVERGENCE_NORM)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_observer_past_the_norm_bound_inside_a_block(self):
        # alpha = 1000 with 64 steps per hold interval: |zhat| passes
        # DIVERGENCE_NORM on step 3 (5 from the perfect start) of the first
        # block and overflows on its later steps; each run freezes there,
        # bitwise the per-step run, and the discarded steps raise no
        # RuntimeWarning
        params = SpectralParams(K=np.array([1.0, -2.0]), delta=0.0, alpha=1000.0,
                                Delta=1.0, mu=0.1, j=default_j(), N=24)
        cfg = IntegratorConfig(method="rk4_coupled", step=1 / 64, horizon=2.0)
        spec = OutputSpec(kind=NORM_SQ)
        x0s, xh0s = [[0.5, 0.0], [0.3, 0.1]], [[0.2, 0.3], [0.3, 0.1]]
        trajs = run_spectral_batch(spec, params, x0s, xh0s, cfg)
        for want, got in zip(run_spectral_packed(spec, params, x0s, xh0s, cfg), trajs):
            assert_same_run(want, got)
        assert [(t.diverged_at, t.times[-1]) for t in trajs] == [(3 / 64, 2 / 64),
                                                                 (5 / 64, 4 / 64)]

    @pytest.mark.parametrize("method", ["exact_linear", "rk4_coupled"])
    def test_clamp_count_counts_hold_values_past_the_inverse(self, method):
        # with step = Delta every record is a sample instant, so a run's
        # clamp_count is its records whose e_1 coefficient is past J1(j); the
        # first start's estimate begins at mu |xhat0| = 2 > j
        spec, params = spectral_setup(delta=0.003125, Delta=1 / 32, n=24)
        cfg = IntegratorConfig(method=method, step=1 / 32, horizon=2.0)
        trajs = run_spectral_batch(spec, params, [[0.5, 0.0], [0.3, 0.2]],
                                   [[20.0, 0.0], [0.2, 0.1]], cfg)
        level = bessel_j(1, params.j)
        past = [int(np.sum(np.abs(t.zhat[:, 25]) > level)) for t in trajs]
        assert [t.clamp_count for t in trajs] == past == [16, 0]


class TestPlannedPlant:
    # rk4_coupled takes the plant's path over each block of a hold interval
    # from the block maps of its start, then steps the observer alone on the
    # measured stages: every run is bitwise the per-step loop's on the same
    # maps, and within 1e-12 of stepping the packed (x, zhat) rows by RK4
    SPECS = [OutputSpec(kind=NORM_SQ), OutputSpec(kind=J2_COS2THETA),
             OutputSpec(kind=BESSEL_SERIES, coeffs={-1: 0.7, 2: 0.3})]

    @staticmethod
    def case(n_sub):
        # row 1 runs into mu |x| = 50; row 2 starts on -0.0 coordinates; row
        # 3's estimate starts past the clamp (mu |xhat| = 2 > j); an interval
        # of 80 steps is planned in two pieces
        params = SpectralParams(K=np.array([1.0, -2.0]), delta=0.003, alpha=1.0,
                                Delta=0.01 * n_sub, mu=0.1, j=default_j(), N=12)
        cfg = IntegratorConfig(method="rk4_coupled", step=0.01, horizon=2.4)
        x0s = np.array([[0.6, 0.2], [211.1, 452.7], [0.4, -0.0], [0.5, -0.3]])
        xh0s = np.array([[0.1, -0.4], [3.0, 0.0], [-0.0, 0.3], [20.0, 0.0]])
        return params, x0s, xh0s, cfg

    @pytest.mark.parametrize("n_sub", [1, 3, 8, 80])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    def test_matches_packed_stepper(self, spec, n_sub):
        params, x0s, xh0s, cfg = self.case(n_sub)
        planned = run_spectral_batch(spec, params, x0s, xh0s, cfg)
        for want, got in zip(run_spectral_packed(spec, params, x0s, xh0s, cfg), planned):
            assert_same_run(want, got)
        assert planned[0].diverged_at is None and planned[2].diverged_at is None
        assert planned[3].clamp_count > 0
        if n_sub == 8:
            # row 1 leaves mid-interval on a step whose second stage is
            # outside while its end is inside
            left = planned[1]
            i = round(left.diverged_at / cfg.step) - 1
            assert i % n_sub not in (0, n_sub - 1)
            stages = []

            def plant_rhs(s):
                stages.append(s)
                return np.array([-s[1], s[0] + left.u[-1]])

            stages.append(rk4_step(plant_rhs, left.x[-1], cfg.step))
            radii = 0.1 * np.linalg.norm(np.array(stages), axis=-1)
            assert list(radii < 50.0) == [True, False, True, True, True]

    @pytest.mark.parametrize("n_sub", [1, 3, 8, 80])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    def test_within_1e_12_of_packed_rk4(self, spec, n_sub):
        # the same runs against the plant stepped by rk4_step with the
        # observer: the same freezes, records and clamps, every value within
        # 1e-12 (relative past 1; the maps move x by at most 6.3e-12 at |x| = 500)
        params, x0s, xh0s, cfg = self.case(n_sub)
        planned = run_spectral_batch(spec, params, x0s, xh0s, cfg)
        for want, got in zip(run_spectral_packed(spec, params, x0s, xh0s, cfg, plant="rk4"),
                             planned):
            assert (got.diverged_at, got.clamp_count) == (want.diverged_at, want.clamp_count)
            assert got.times.tobytes() == want.times.tobytes()
            for name in ("x", "zhat", "u", "eps_norm", "c_eps_abs", "weak_eps"):
                np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                           rtol=1e-12, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("h", [1 / 256, 0.01, 1 / 32, 1.0])
    def test_maps_match_rk4_step_by_step(self, h):
        # from each map's step end, one rk4_step on the plant's field gives the
        # next step end and that step's four stage points within 8 ulp of
        # max|x0| + |u|
        ends, stages = plant_maps(h, 64)
        rng = np.random.default_rng(3)
        x0, u = rng.uniform(-3.0, 3.0, (50, 2)), rng.uniform(-2.0, 2.0, 50)
        ulp = np.spacing(np.abs(x0).max(axis=1, keepdims=True) + np.abs(u)[:, None])
        assert np.array_equal(_affine(ends[0], x0, u), x0)
        for k in range(64):
            points = []

            def field(p):
                points.append(p)
                return _rotation_field(p, u, np.empty_like(p))

            end = rk4_step(field, _affine(ends[k], x0, u), h)
            assert np.all(np.abs(_affine(ends[k + 1], x0, u) - end) <= 8 * ulp)
            assert np.all(np.abs(_affine(stages[k], x0, u) - np.array(points)) <= 8 * ulp)

    def test_plant_path_makes_no_per_step_rk4_step_call(self, monkeypatch):
        # 240 steps: one rk4_step per batch reads the plant maps off and one
        # the observer maps, whose four stages are the only op.apply calls
        # (the observer took one rk4_step and four op.apply calls per step
        # before, and the plant one more rk4_step per step before that)
        calls = []
        step, apply = sim.rk4_step, ObserverOperator.apply
        monkeypatch.setattr(sim, "rk4_step", lambda *args: calls.append("rk4_step") or step(*args))
        monkeypatch.setattr(ObserverOperator, "apply",
                            lambda *args: calls.append("apply") or apply(*args))
        params, x0s, xh0s, cfg = self.case(8)
        run_spectral_batch(OutputSpec(kind=J2_COS2THETA), params, x0s[[0, 2]], xh0s[[0, 2]], cfg)
        assert (calls.count("rk4_step"), calls.count("apply")) == (2, 4)

    def test_plan_memory_is_bounded(self):
        # one hold interval of 4096 steps on 16 rows: planned whole, its step
        # ends' embeddings alone would take 16 * 4096 * 49 * 16 B = 51 MB
        spec = OutputSpec(kind=J2_COS2THETA)
        params = SpectralParams(K=np.array([1.0, -2.0]), delta=0.003125, alpha=1.0,
                                Delta=1.0, mu=0.1, j=default_j(), N=24)
        cfg = IntegratorConfig(method="rk4_coupled", step=1 / 4096, horizon=1.0,
                               record_every=4096)
        x0s, xh0s = np.random.default_rng(2).uniform(-0.7, 0.7, (2, 16, 2))
        tracemalloc.start()
        try:
            traj = run_spectral_batch(spec, params, x0s, xh0s, cfg)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.times[-1] == 1.0
        assert peak < 8 * 2 ** 20


class TestObserverMaps:
    # under a held u the observer's RK4 step is T(c) zhat + sum_j y_j W(c)[j],
    # T and W polynomials in c = u mu / 2 read off one rk4_step per batch
    SPECS = [OutputSpec(kind=kind) for kind in KINDS if kind != BESSEL_SERIES] \
        + [OutputSpec(kind=BESSEL_SERIES, coeffs={-1: 0.7, 2: 0.3})]

    @pytest.mark.parametrize("alpha", [1.0, 3.0])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("h", [1 / 256, 1 / 32, 0.05])
    def test_step_matches_rk4_step_on_apply(self, h, spec, alpha):
        # from random zhat and stage inputs, one map step is within 4 ulp of
        # max|zhat| + max|y| of rk4_step on op.apply, for c across [-5, 5]
        op = ObserverOperator(0.1, alpha, output_vector(spec, 24))
        coef = observer_maps(op, h)
        rng = np.random.default_rng(6)
        u = np.concatenate([[-100.0, 0.0, 100.0], rng.uniform(-100.0, 100.0, 37)])
        c = op.offdiag(u)
        z = rng.standard_normal((40, 49)) + 1j * rng.standard_normal((40, 49))
        y = rng.standard_normal((4, 40)) + 1j * rng.standard_normal((4, 40))
        stage = iter(y)
        want = rk4_step(lambda v: op.apply(v, c, next(stage)), z, h)
        got = observer_steps(coef, c, y[None], z)[0]
        ulp = np.spacing(np.abs(z).max(axis=1) + np.abs(y).max(axis=0))
        assert np.abs(c).max() == 5.0
        assert np.all(np.abs(got - want) <= 4 * ulp[:, None])

    def test_row_alone_and_in_a_batch_of_six(self, monkeypatch):
        # a row's held maps and its whole run are bitwise the same alone and
        # as one of six rows with other held inputs, the six mapped in
        # pieces of four rows and two
        monkeypatch.setattr(sim, "_MAP_ROWS", 4)
        spec = OutputSpec(kind=J2_COS2THETA)
        params = SpectralParams(K=np.array([1.0, -2.0]), delta=0.003125, alpha=3.0,
                                Delta=1 / 32, mu=0.1, j=default_j(), N=24)
        op = ObserverOperator(params.mu, params.alpha, output_vector(spec, params.N))
        coef = observer_maps(op, 1 / 256)
        c = op.offdiag(np.linspace(-100.0, 100.0, 6))
        batch = held_maps(coef, c, 49)
        for i in range(6):
            for alone, maps in zip(held_maps(coef, c[i:i + 1], 49), batch):
                assert alone[0].tobytes() == maps[i].tobytes()
        cfg = IntegratorConfig(method="rk4_coupled", step=1 / 256, horizon=1.0, record_every=2)
        x0s, xh0s = np.random.default_rng(7).uniform(-3.0, 3.0, (2, 6, 2))
        batch = run_spectral_batch(spec, params, x0s, xh0s, cfg)
        assert len({t.u[1] for t in batch}) == 6
        for x0, xh0, traj in zip(x0s, xh0s, batch):
            assert_same_run(run_spectral_batch(spec, params, x0, xh0, cfg)[0], traj)

    @pytest.mark.parametrize("n,n_sub", [(24, 4), (24, 1), (25, 8), (400, 8)])
    def test_apply_steps_where_the_maps_do_not_pay(self, monkeypatch, n, n_sub):
        # below 8 steps per hold interval, or past N = 24, the observer is
        # stepped by rk4_step on op.apply: no step maps are built (at
        # N = 400 they would take 41 MB a row), and the run is bitwise the
        # per-step loop's
        monkeypatch.setattr(sim, "observer_maps", None)
        spec = OutputSpec(kind=J2_COS2THETA)
        params = SpectralParams(K=np.array([1.0, -2.0]), delta=0.003125, alpha=1.0,
                                Delta=n_sub / 256, mu=0.1, j=default_j(), N=n)
        cfg = IntegratorConfig(method="rk4_coupled", step=1 / 256, horizon=n_sub / 16)
        x0s, xh0s = [[0.6, 0.2], [-0.5, 0.3]], [[0.1, -0.4], [0.2, 0.2]]
        planned = run_spectral_batch(spec, params, x0s, xh0s, cfg)
        for want, got in zip(run_spectral_packed(spec, params, x0s, xh0s, cfg), planned):
            assert_same_run(want, got)


class TestCallBudget:
    def test_finite_calls_per_step(self, plant):
        # criterion 4's loop: 156 calls per step through the general-A rhs
        # (einsums, a concatenate and .sum reductions at every stage), 56 on
        # the quarter-turn field with the error, stop rule and records taken
        # every step, 38 with them taken once per block of 64 steps
        gain = place_poles(plant.A, plant.b, [-1.0, -2.0])
        params = FinParams(K=gain, delta=0.5 * delta_margin(gain, 3.0, plant), alpha=10.0)
        rng = np.random.default_rng(4)
        x0s, xh0s = rng.uniform(-2.0, 2.0, size=(2, 20, 2))
        cfg = IntegratorConfig(step=2e-3, horizon=0.5)
        run_finite_batch(plant, params, x0s, embed_fin(xh0s), cfg)  # fill the caches first
        prof = cProfile.Profile()
        prof.runcall(run_finite_batch, plant, params, x0s, embed_fin(xh0s), cfg)
        calls = sum(calls for (_, calls, _, _, _) in pstats.Stats(prof).stats.values())
        assert calls / 250 <= 42

    def test_rk4_coupled_calls_per_step(self):
        # cProfile's counts of Python functions and C methods do not move with
        # host load; 472 calls and 5.47 bessel_j_all calls per step before the
        # Bessel kernel and the stage were trimmed, 264 and 5.47 after, 239
        # with the observer operator built once per batch and one radius per
        # stage, 102 and 0.30 with the plant planned per hold interval (one
        # output and one embed call per interval) and inv_j1 on the series,
        # 94 with inv_j1 on the reversion of J1's series for small y, 70 with
        # the loop's bookkeeping done once per planned block of steps, 53 with
        # the plant's path read off the block maps instead of stepped by RK4,
        # 25 with the observer's step a per-row map instead of four op.apply
        # stages
        spec = OutputSpec(kind=J2_COS2THETA)
        params = SpectralParams(K=np.array([1.0, -2.0]), delta=0.003125, alpha=1.0,
                                Delta=0.03125, mu=0.1, j=default_j(), N=24)
        cfg = IntegratorConfig(method="rk4_coupled", step=1 / 256, horizon=0.25)
        x0s = np.array([[0.6, 0.2], [-0.9, 0.4], [0.3, -0.7], [-0.2, -0.5]])
        xh0s = np.array([[0.1, -0.4], [0.3, 0.3], [0.5, -0.2], [-0.6, 0.1]])
        run_spectral_batch(spec, params, x0s, xh0s, cfg)  # fill the caches first
        prof = cProfile.Profile()
        prof.runcall(run_spectral_batch, spec, params, x0s, xh0s, cfg)
        counts = [(name, calls) for (_, _, name), (_, calls, _, _, _) in
                  pstats.Stats(prof).stats.items()]
        steps = 64
        assert sum(calls for name, calls in counts if name == "bessel_j_all") / steps <= 1.0
        assert sum(calls for _, calls in counts) / steps <= 30

    def test_exact_linear_terms_per_interval(self):
        # the loop's error vectors stop their Taylor series on its measured
        # tail: 8 terms per interval, where the a-priori degree m* is 16 (16
        # terms when the series ran to m*); 376 calls per interval when each
        # interval worked out the batch's constants again, 352 with the
        # observer operator built once, 310 with inv_j1 iterating Newton on
        # every entry, 256 with small entries on the reversion of J1's series,
        # 249 with the hold instant's left inverse in one pass, 246 with the
        # loop's fixed numbers read as module constants and 219 with the
        # plant step and the left inverse writing one output array each
        # instead of np.stack and observer_propagate broadcasting u only when
        # it is one value for every row (a one-step block's bookkeeping costs
        # what a step's did), 203 with the Taylor plan worked out apart from
        # its action (expm_plan, expm_action) and <z, zeta> summed by one
        # np.add.reduce
        params = SpectralParams(K=np.array([1.0, -2.0]), delta=0.003125, alpha=1.0,
                                Delta=0.03125, mu=0.1, j=default_j(), N=24)
        cfg = IntegratorConfig(method="exact_linear", step=0.03125, horizon=1.0)
        x0s = np.array([[0.6, 0.2], [-0.9, 0.4], [0.3, -0.7], [-0.2, -0.5]])
        xh0s = np.array([[0.1, -0.4], [0.3, 0.3], [0.5, -0.2], [-0.6, 0.1]])
        spec = OutputSpec(kind=NORM_SQ)
        run_spectral_batch(spec, params, x0s, xh0s, cfg)  # fill the caches first
        prof = cProfile.Profile()
        prof.runcall(run_spectral_batch, spec, params, x0s, xh0s, cfg)
        counts = [(name, calls) for (_, _, name), (_, calls, _, _, _) in
                  pstats.Stats(prof).stats.items()]
        calls = dict(counts)
        assert calls["expm_plan"] == calls["expm_action"] == 32
        assert calls["apply"] <= 9 * calls["expm_action"]
        assert sum(calls for _, calls in counts) / 32 <= 205

    def test_exact_linear_plans_once_per_block(self, monkeypatch):
        # at step = Delta / 8 an interval's 8 steps share one held u, so its
        # Taylor plan is worked out once per block, not once per step, and
        # every bit stays that of planning each step anew
        plans = []
        plan = spectral.taylor_plan
        monkeypatch.setattr(spectral, "taylor_plan",
                            lambda *args: plans.append(0) or plan(*args))
        spec, params = spectral_setup(Delta=1 / 32, n=24)
        cfg = IntegratorConfig(method="exact_linear", step=1 / 256, horizon=0.5)
        x0s = np.array([[0.6, 0.2], [-0.9, 0.4], [0.3, -0.7]])
        xh0s = np.array([[0.1, -0.4], [0.3, 0.3], [20.0, 0.0]])
        trajs = run_spectral_batch(spec, params, x0s, xh0s, cfg)
        assert len(plans) == 16
        op = ObserverOperator(params.mu, params.alpha, output_vector(spec, params.N))
        eps = embed(xh0s, params.mu, params.N) - embed(x0s, params.mu, params.N)
        u = np.array([traj.u[0] for traj in trajs])
        for k in range(1, 9):
            eps = expm_action(op, eps, expm_plan(op, u, cfg.step))
            x = np.array([traj.x[k] for traj in trajs])
            got = np.array([traj.zhat[k] for traj in trajs])
            assert got.tobytes() == (embed(x, params.mu, params.N) + eps).tobytes()


class TestPropagator:
    def test_norm_conserved(self):
        # alpha = 0 leaves the constant-input generator alone, a unitary flow
        z = embed([1.0, 0.5], mu=0.5, n=16)
        op = ObserverOperator(0.5, 0.0, embedded_target(16))
        plan = expm_plan(op, np.array([0.4]), 0.01)
        norms = [np.linalg.norm(z)]
        for _ in range(2000):
            z = expm_action(op, z[None], plan)[0]
            norms.append(np.linalg.norm(z))
        assert np.max(np.abs(np.array(norms) - norms[0])) < 1e-12


class TestMetrics:
    def test_zero_trajectory(self):
        m = 11
        traj = Trajectory(times=np.linspace(0, 1, m), x=np.zeros((m, 2)),
                          zhat=np.zeros((m, 3)), u=np.zeros(m),
                          eps_norm=np.zeros(m), c_eps_abs=np.zeros(m))
        metrics = convergence_metrics(traj)
        assert metrics["trailing_max_x"] == 0.0
        assert metrics["final_eps_norm"] == 0.0
        assert metrics["dissipativity_violations"] == 0

    def test_dissipative_run_fields(self, plant, fin_params):
        cfg = IntegratorConfig(step=1e-3, horizon=5.0)
        traj = run_finite_batch(plant, fin_params, [1.0, 1.0], [0.0, 0.0, 1.0], cfg)[0]
        metrics = convergence_metrics(traj)
        assert metrics["dissipativity_violations"] == 0
        assert metrics["final_eps_norm"] <= traj.eps_norm[0]
        assert not metrics["diverged"]
