"""The block-formatted CSV and SVG writers, their time axis formatted once per
scenario, produce the bytes of the per-value reference writers in
tests/oracles.py, and the axis ticks stay bounded on any span."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from oracles import write_csv_per_value, write_svg_per_point

import unobs_stab
from unobs_stab.artifacts import (_BLOCK, _MAX_POINTS, _MAX_TICKS, svg_time_axis, time_text,
                                  write_csv, write_svg, write_trajectory_svg)
from unobs_stab.cli import _run_batch, draw_initial_conditions, run_scenario
from unobs_stab.config import parse_config
from unobs_stab.finite import FinParams, embed as embed_fin, rotation_plant
from unobs_stab.sim import IntegratorConfig, Trajectory, run_finite_batch, run_spectral_batch
from unobs_stab.spectral import OutputSpec, SpectralParams

# values whose %.17g or .2f text is easy to get wrong: signed zero, the
# smallest subnormal, a huge value, and integral floats (t = 0 prints 0)
SPECIAL = [0.0, -0.0, 5e-324, 1e300, -1.5, 3.0, -2.0]


def synthetic(rows: int, n: int = 2, spectral: bool = False, seed: int = 0) -> Trajectory:
    rng = np.random.default_rng(seed)

    def column(*shape):
        shape = (rows,) + shape
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        flat = values.reshape(-1)
        flat[:len(SPECIAL)] = SPECIAL[:flat.shape[0]]
        return values

    return Trajectory(times=np.arange(rows) * 0.002, x=column(n),
                      zhat=np.zeros((rows, n + 1)), u=column(), eps_norm=np.abs(column()),
                      c_eps_abs=np.abs(column()), weak_eps=column() if spectral else None)


def assert_same_csv(tmp_path, traj):
    write_csv(tmp_path / "block.csv", traj, time_text(traj.times))
    write_csv_per_value(tmp_path / "ref.csv", traj)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def assert_same_svg(tmp_path, times, curves):
    write_svg(tmp_path / "block.svg", svg_time_axis(times), curves, "run_000")
    write_svg_per_point(tmp_path / "ref.svg", times, curves, "run_000")
    assert (tmp_path / "block.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


@pytest.mark.parametrize("rows", [1, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 1])
@pytest.mark.parametrize("spectral", [False, True], ids=["finite", "spectral"])
def test_csv_matches_per_value_writer(tmp_path, rows, spectral):
    traj = synthetic(rows, spectral=spectral)
    assert_same_csv(tmp_path, traj)
    lines = (tmp_path / "block.csv").read_text().splitlines()
    assert len(lines) == rows + 1
    assert lines[1].startswith("0,")


def test_special_values_print_as_per_value(tmp_path):
    traj = synthetic(len(SPECIAL), n=3, spectral=True)
    traj.times = np.array(SPECIAL)
    assert_same_csv(tmp_path, traj)
    times = (tmp_path / "block.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in times] == \
        ["0", "-0", "4.9406564584124654e-324", "1.0000000000000001e+300", "-1.5", "3", "-2"]


def test_simulated_trajectories_match(tmp_path):
    plant = rotation_plant()
    params = FinParams(K=np.array([1.0, -3.0]), delta=0.2, alpha=10.0)
    finite = run_finite_batch(plant, params, [[1.0, 0.5]], [embed_fin(np.array([0.2, 0.0]))],
                              IntegratorConfig(step=0.01, horizon=1.0))[0]
    sp = SpectralParams(K=[1.0, -2.0], delta=0.003, alpha=1.0, Delta=0.05, mu=0.1, j=1.6, N=8)
    spectral = run_spectral_batch(OutputSpec(kind="norm_sq"), sp, [[0.5, 0.0]],
                                  [[0.0, 0.2]], IntegratorConfig(method="exact_linear",
                                                                 step=0.05, horizon=1.0))[0]
    for traj in (finite, spectral):
        assert_same_csv(tmp_path, traj)
        write_trajectory_svg(tmp_path / "traj.svg", traj, "run_000", svg_time_axis(traj.times))
        xnorm = np.sqrt(np.einsum("ij,ij->i", traj.x, traj.x))
        write_svg_per_point(tmp_path / "ref.svg", traj.times,
                            [("|x(t)|", xnorm), ("|eps(t)|", traj.eps_norm)], "run_000")
        assert (tmp_path / "traj.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def test_thinned_svg_matches(tmp_path):
    traj = synthetic(3 * _MAX_POINTS + 7)
    assert_same_svg(tmp_path, traj.times, [("a", np.abs(traj.u)), ("b", traj.eps_norm)])
    points = (tmp_path / "block.svg").read_text().split('points="')[1].split('"')[0]
    assert len(points.split(" ")) <= _MAX_POINTS + 1


def test_constant_series_svg_matches(tmp_path):
    times = np.linspace(0.0, 2.0, 11)
    assert_same_svg(tmp_path, times, [("c", np.full(11, 0.25))])
    assert_same_svg(tmp_path, times[:1], [("c", np.zeros(1))])


def test_csv_takes_the_prefix_of_longer_time_text(tmp_path):
    # a run that ended early takes the first rows of the scenario's t text
    traj = synthetic(_BLOCK + 3)
    longer = time_text(np.arange(_BLOCK + 40) * 0.002)
    write_csv(tmp_path / "block.csv", traj, longer)
    write_csv_per_value(tmp_path / "ref.csv", traj)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# the second run of each diverges early: a finite run leaves the bounded
# region at t = 1.69, a spectral one the valid region mu |x| < 50
SCENARIOS = {
    "finite": ("strategy = finite\nseed = 1\ninit.x0 = 0.0, 0.0, 1.0, 0.0, 0.5, 0.5\n"
               "init.xhat0 = 0.0, 0.0, 0.0, 0.0, 0.1, 0.0\nparams.K = 0.0, 3.0\n"
               "params.delta = 0.5\nparams.alpha = 1.0\nintegrator.step = 1e-2\n"
               "integrator.horizon = 4.0\n"),
    "spectral": ("strategy = spectral\nseed = 7\ninit.x0 = 0.5, 0.0, 499.0, 0.0, 0.0, 0.4\n"
                 "init.xhat0 = 0.0, 0.2, 0.0, 5.0, 0.1, 0.0\nparams.K = 1.0, -2.0\n"
                 "params.alpha = 1.0\nparams.delta = 0.003\nparams.Delta = 0.05\n"
                 "params.mu = 0.1\nparams.N = 12\noutput.kind = norm_sq\n"
                 "integrator.method = exact_linear\nintegrator.step = 0.05\n"
                 "integrator.horizon = 8.0\n"),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("strategy", sorted(SCENARIOS))
def test_scenario_files_match_per_value_writers(tmp_path, strategy, jobs):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIOS[strategy])
    cfg = parse_config(str(path))
    x0s, xhat0s = draw_initial_conditions(cfg)
    trajs = _run_batch(cfg, x0s, xhat0s)
    # every run, of the whole batch or of either shard, is recorded on a
    # prefix of the longest run's times, and one run ended early
    longest = max((t.times for t in trajs), key=len)
    shards = [t for part in zip(np.array_split(x0s, 2), np.array_split(xhat0s, 2))
              for t in _run_batch(cfg, *part)]
    for traj in trajs + shards:
        assert traj.times.tobytes() == longest[:len(traj.times)].tobytes()
    assert len(trajs[1].times) < len(longest) and trajs[1].diverged_at is not None

    out = tmp_path / "out"
    run_scenario(cfg, str(out), jobs=jobs, svg=True)
    for index, traj in enumerate(trajs):
        name = f"run_{index:03d}"
        write_csv_per_value(tmp_path / "ref.csv", traj)
        xnorm = np.sqrt(np.einsum("ij,ij->i", traj.x, traj.x))
        write_svg_per_point(tmp_path / "ref.svg", traj.times,
                            [("|x(t)|", xnorm), ("|eps(t)|", traj.eps_norm)], name)
        assert (out / f"{name}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (out / f"{name}.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


# spans whose ticks once never ended (a step below half an ulp of the value)
# or raised (NaN, inf, a quarter below the smallest normal float, a span
# lost to rounding), each in a child process with a deadline and an address
# space cap, so a tick list that grows without end fails the test
TICK_PROBE = """
import json, math, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
from unobs_stab.artifacts import _ticks, svg_time_axis, write_svg
spans = [(1.0, math.nextafter(1.0, 2.0)), (math.nan, 1.0), (0.0, math.inf),
         (-1e308, 1e308), (0.0, 5e-324), (0.0, 1e-310), (1e300, 1e300)]
write_svg(sys.argv[1], svg_time_axis([0.0, 1.0]), [("a", [1.0, math.nextafter(1.0, 2.0)])], "t")
print(json.dumps([_ticks(lo, hi) for lo, hi in spans]))
"""


def test_ticks_bounded_on_degenerate_spans(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(unobs_stab.__file__)))
    done = subprocess.run([sys.executable, "-c", TICK_PROBE, str(tmp_path / "t.svg")],
                          env={**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    near, *rest = json.loads(done.stdout)
    assert 1 <= len(near) <= _MAX_TICKS and all(abs(t - 1.0) <= 2.3e-16 for t in near)
    assert rest == [[]] * 6
    assert (tmp_path / "t.svg").read_text().endswith("</svg>\n")
