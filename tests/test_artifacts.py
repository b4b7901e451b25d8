"""The block-formatted CSV and SVG writers produce the bytes of the per-value
reference writers in tests/oracles.py."""

import numpy as np
import pytest
from oracles import write_csv_per_value, write_svg_per_point

from unobs_stab.artifacts import _BLOCK, _MAX_POINTS, write_csv, write_svg, write_trajectory_svg
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
    write_csv(tmp_path / "block.csv", traj)
    write_csv_per_value(tmp_path / "ref.csv", traj)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def assert_same_svg(tmp_path, times, curves):
    write_svg(tmp_path / "block.svg", times, curves, "run_000")
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
        write_trajectory_svg(tmp_path / "traj.svg", traj, "run_000")
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
