import concurrent.futures
import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import unobs_stab
from unobs_stab.bessel import J1_ARGMAX
from unobs_stab.cli import (
    analyze,
    build_finite,
    build_spectral,
    draw_initial_conditions,
    main,
    run_scenario,
)
from unobs_stab.config import _KEYS, ConfigError, ScenarioConfig, parse_config
from unobs_stab.observability import choose_radii, max_control_bound

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

FINITE_CFG = """
# embedded-observer benchmark
strategy = finite
seed = 42
init.rho = 3.0
init.count = 3
params.poles = -1.0, -2.0
params.alpha = 10.0
params.delta_frac = 0.5
integrator.step = 1e-3
integrator.horizon = 2.0
integrator.record_every = 10
"""

SPECTRAL_CFG = """
strategy = spectral
seed = 7
init.rho = 1.0
init.count = 2
params.K = 1.0, -2.0
params.alpha = 1.0
params.delta = 0.003
params.Delta = 0.05
params.mu = 0.1
params.N = 12
output.kind = norm_sq
integrator.method = exact_linear
integrator.step = 0.05
integrator.horizon = 5.0
"""


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(path):
    return dict(line.split("=", 1) for line in open(path).read().strip().splitlines())


def bessel_series(orders, coeffs_re):
    return SPECTRAL_CFG.replace("output.kind = norm_sq", "output.kind = bessel_series\n"
                                f"output.orders = {orders}\noutput.coeffs_re = {coeffs_re}")


# finite configs whose delta reaches delta_margin, and the key the warning names
OVERSIZED_DELTA = [
    (FINITE_CFG.replace("params.delta_frac = 0.5", "params.delta = 5.0"), "params.delta"),
    (FINITE_CFG.replace("params.delta_frac = 0.5", "params.delta_frac = 1.5"),
     "params.delta_frac"),
]

# one bad value each, and the key its problem must start with
# Extreme inputs that once hung or ended with a traceback.  exact_linear at
# the largest held |u| (|K| j1/mu + 16 nu^2 delta, ~5e301 here) takes ~1e299
# Taylor sub-steps a step; a plant ball of 1e300 lifts to an infinite |zhat|
# (eps(0) NaN), and one of 1e-320 settles delta = delta_frac * inf; an
# explicit start's |x| or lift |(p, |p|^2 / 2)| above 1e6 is outside the
# bounded region the finite loop stops at (1415^2 / 2 > 1e6)
FINITE_EXPLICIT = FINITE_CFG.replace("params.delta_frac = 0.5", "params.delta = 0.1")
EXTREME = [
    ("spectral-delta-held-over-cap",
     SPECTRAL_CFG.replace("params.delta = 0.003", "params.delta = 1e300"), "params.K/params.delta"),
    ("spectral-K-held-over-cap",
     SPECTRAL_CFG.replace("params.K = 1.0, -2.0", "params.K = 1e300, -2.0"),
     "params.K/params.delta"),
    ("finite-rho-lift-overflows", FINITE_CFG.replace("init.rho = 3.0", "init.rho = 1e300"),
     "init.rho"),
    ("finite-rho-delta-inf", FINITE_CFG.replace("init.rho = 3.0", "init.rho = 1e-320"),
     "params.delta_frac"),
    ("finite-radius_xhat-lift-past-bound", FINITE_CFG + "init.radius_xhat = 1415.0\n",
     "init.radius_xhat"),
    ("finite-x0-past-bound", FINITE_EXPLICIT.replace("init.rho = 3.0", "init.x0 = 0.0, 0.0, 2e6, 0.0\n"
     "init.xhat0 = 0.0, 0.0, 0.0, 0.0"), "init.x0"),
    ("finite-xhat0-lift-past-bound", FINITE_EXPLICIT.replace("init.rho = 3.0", "init.x0 = 1.0, 0.0\n"
     "init.xhat0 = 0.0, 1415.0"), "init.xhat0"),
]

BAD_VALUES = [pytest.param(text, key, id=name) for name, text, key in [
    ("spectral-K-scalar", SPECTRAL_CFG.replace("params.K = 1.0, -2.0", "params.K = 1.0"),
     "params.K"),
    ("finite-K-scalar", FINITE_CFG.replace("params.poles = -1.0, -2.0", "params.K = 1.0"),
     "params.K"),
    ("K-word", FINITE_CFG.replace("params.poles = -1.0, -2.0", "params.K = abc"), "params.K"),
    ("poles-word", FINITE_CFG.replace("params.poles = -1.0, -2.0", "params.poles = zz"),
     "params.poles"),
    ("poles-scalar", FINITE_CFG.replace("params.poles = -1.0, -2.0", "params.poles = -1"),
     "params.poles"),
    ("u_grid-word", SPECTRAL_CFG + "analyze.u_grid = foo\n", "analyze.u_grid"),
    ("orders-fraction", bessel_series("1.5", "1.0"), "output.orders"),
    ("j2-N1", SPECTRAL_CFG.replace("output.kind = norm_sq", "output.kind = j2_cos2theta")
     .replace("params.N = 12", "params.N = 1"), "params.N"),
    ("order-above-N", bessel_series("0, 13", "1.0, 0.5"), "output.orders"),
    ("step-not-dividing-Delta",
     SPECTRAL_CFG.replace("integrator.step = 0.05", "integrator.step = 0.03"), "integrator.step"),
    ("horizon-below-Delta",
     SPECTRAL_CFG.replace("integrator.horizon = 5.0", "integrator.horizon = 0.01"),
     "integrator.horizon"),
    ("delta_frac-without-radius",
     FINITE_CFG.replace("init.rho = 3.0", "init.x0 = 1.0, 0.0\ninit.xhat0 = 0.5, 0.0"),
     "params.delta_frac"),
    # A + bK is not Hurwitz, so delta_margin has no value: K1 > 0, and 1 + K0 = 0
    ("K-not-Hurwitz", FINITE_CFG.replace("params.poles = -1.0, -2.0", "params.K = 1.0, 1.0"),
     "params.K"),
    ("K-not-Hurwitz-a-zero",
     FINITE_CFG.replace("params.poles = -1.0, -2.0", "params.K = -1.0, -2.0"), "params.K"),
    # mu |p| = 0.1 * 600 = 60 and 0.1 * 500 = 50: at or past the Bessel argument limit
    ("spectral-x0-outside", SPECTRAL_CFG + "init.x0 = 0.5, 0.0, 600.0, 0.0\n"
     "init.xhat0 = 0.0, 0.2, 0.0, 0.0\n", "init.x0"),
    ("spectral-xhat0-outside", SPECTRAL_CFG + "init.x0 = 0.5, 0.0\ninit.xhat0 = 0.0, 500.0\n",
     "init.xhat0"),
    # mu |x0| = 50 (1 - 5e-13): below the Bessel argument limit, past the
    # valid-region limit the loop tests at every step
    ("spectral-x0-at-valid-limit", SPECTRAL_CFG + f"init.x0 = {500.0 * (1.0 - 5e-13)!r}, 0.0\n"
     "init.xhat0 = 0.0, 0.2\n", "init.x0"),
    ("zero-coefficients", bessel_series("0, 1", "0.0, 0.0"), "output.coeffs_re"),
    ("horizon-inf", FINITE_CFG.replace("integrator.horizon = 2.0", "integrator.horizon = inf"),
     "integrator.horizon"),
    ("alpha-inf", SPECTRAL_CFG.replace("params.alpha = 1.0", "params.alpha = inf"),
     "params.alpha"),
    ("points-nan", FINITE_CFG + "init.x0 = 1.0, nan\ninit.xhat0 = 0.5, 0.0\n", "init.x0"),
    # 2000 steps, and 100 spectral steps (10 substeps x 10 periods): a stride
    # of 3 would end the records before the horizon
    ("finite-stride-not-dividing",
     FINITE_CFG.replace("integrator.record_every = 10", "integrator.record_every = 3"),
     "integrator.record_every"),
    # 0.26 is 8.32 sample periods of 1/32, 1.0 is 333.33 steps of 0.003 and
    # 5e-4 half a step: none is rounded to the grid
    ("spectral-horizon-not-whole",
     SPECTRAL_CFG.replace("params.Delta = 0.05", "params.Delta = 0.03125")
     .replace("integrator.step = 0.05", "integrator.step = 0.03125")
     .replace("integrator.horizon = 5.0", "integrator.horizon = 0.26"), "integrator.horizon"),
    ("finite-horizon-not-whole",
     FINITE_CFG.replace("integrator.step = 1e-3", "integrator.step = 0.003")
     .replace("integrator.horizon = 2.0", "integrator.horizon = 1.0"), "integrator.horizon"),
    ("finite-horizon-below-step",
     FINITE_CFG.replace("integrator.horizon = 2.0", "integrator.horizon = 5e-4"),
     "integrator.horizon"),
    ("seed-negative", FINITE_CFG.replace("seed = 42", "seed = -1"), "seed"),
    # 1e600 steps: the count overflows a float and cannot be checked whole
    ("finite-step-count-overflows",
     FINITE_CFG.replace("integrator.step = 1e-3", "integrator.step = 1e-300")
     .replace("integrator.horizon = 2.0", "integrator.horizon = 1e300"), "integrator.horizon"),
    ("spectral-stride-not-dividing",
     SPECTRAL_CFG.replace("integrator.step = 0.05", "integrator.step = 0.005")
     .replace("integrator.horizon = 5.0", "integrator.horizon = 0.5")
     + "integrator.record_every = 3\n", "integrator.record_every"),
    # a key the other strategy reads
    ("finite-output-kind", FINITE_CFG + "output.kind = bogus\n", "output.kind"),
    ("finite-Delta", FINITE_CFG + "params.Delta = 0.05\n", "params.Delta"),
    ("spectral-delta_frac", SPECTRAL_CFG + "params.delta_frac = 0.5\n", "params.delta_frac"),
    # work caps: ~4e298 Taylor sub-steps per exact_linear step and per Gramian
    # step, 3e12 integrator steps (7 TiB of records), 1e7 records of 56 floats
    ("spectral-alpha-over-cap", SPECTRAL_CFG.replace("params.alpha = 1.0", "params.alpha = 1e300"),
     "params.alpha"),
    ("u_grid-over-cap", SPECTRAL_CFG + "analyze.u_grid = 0.0, 1e300\n", "analyze.u_grid"),
    ("finite-steps-over-cap",
     FINITE_CFG.replace("integrator.step = 1e-3", "integrator.step = 1e-9")
     .replace("integrator.horizon = 2.0", "integrator.horizon = 1000.0"), "integrator.horizon"),
    ("spectral-records-over-cap", SPECTRAL_CFG.replace("init.count = 2", "init.count = 100000"),
     "integrator.horizon"),
    *EXTREME,
]]

# a valid text of each kind a strategy-scoped key has
VALID_TEXT = {"positive": "0.5", "real": "0.5", "count": "3", "word": "norm_sq",
              "ints": "0, 2", "reals": "1.0, 0.5"}


class TestParseConfig:
    def test_valid_finite(self, tmp_path):
        cfg = parse_config(write(tmp_path, FINITE_CFG))
        assert cfg.strategy == "finite"
        assert cfg.seed == 42
        assert cfg.poles == [-1.0, -2.0]
        assert cfg.delta_frac == 0.5
        assert cfg.warnings == []
        # the gain placed at the poles and delta = delta_frac * delta_margin
        assert np.allclose(cfg.K, [1.0, -3.0])
        assert cfg.delta == pytest.approx(0.5 * 2.0 ** 0.5 / 3.0)

    def test_valid_spectral(self, tmp_path):
        cfg = parse_config(write(tmp_path, SPECTRAL_CFG))
        assert cfg.strategy == "spectral"
        assert cfg.output_kind == "norm_sq"
        assert cfg.Delta == 0.05
        assert cfg.warnings == []
        assert np.array_equal(cfg.K, [1.0, -2.0])

    @pytest.mark.parametrize("text,key", BAD_VALUES)
    def test_bad_value_fails_at_parse_time(self, tmp_path, text, key):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert any(p.startswith(f"{key}:") for p in err.value.problems), err.value.problems

    def test_start_just_inside_the_bound_parses(self, tmp_path):
        # 1414^2 / 2 < 1e6 < 1415^2 / 2
        for text in (FINITE_CFG + "init.radius_xhat = 1414.0\n",
                     FINITE_EXPLICIT.replace("init.rho = 3.0",
                                             "init.x0 = 1.0, 0.0\ninit.xhat0 = 0.0, 1414.0")):
            assert parse_config(write(tmp_path, text)).warnings == []

    def test_large_N_refused_without_building_it(self, tmp_path):
        # the sub-step and record caps are checked from N alone: an output
        # vector and observer operator of N = 2e5 held 44.8 MB at their peak
        path = write(tmp_path, SPECTRAL_CFG.replace("params.N = 12", "params.N = 200000"))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as err:
                parse_config(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.problems == [
            "analyze.u_grid: 2.74e+03 Taylor sub-steps per step of 0.015708, above the cap 1000",
            "params.alpha: 8.72e+03 Taylor sub-steps per step of 0.05, above the cap 1000",
            "integrator.horizon: 200 steps and 161601616 recorded floats, "
            "caps 100000000 and 134217728"]
        assert peak < 5 * 2 ** 20

    def test_key_table_matches_fields_and_readme(self):
        fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        table = [attr for attr, _, _ in _KEYS.values()]
        assert len(set(table)) == len(table) and set(table) <= fields
        assert fields - set(table) == {"warnings", "output"}
        assert {reader for _, _, reader in _KEYS.values()} == {None, "finite", "spectral"}
        # README's key table: each key's row states its kind, its field's default
        # ('-' for None; the u grid by its first, second and last values) and
        # the strategy that reads it
        rows = {}
        for line in README.read_text(encoding="utf-8").splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if line.startswith("| `") and len(cells) > 5:
                rows.update((key, tuple(cells[2:5])) for key in re.findall(r"`([^`]+)`",
                                                                           cells[1]))
        defaults = ScenarioConfig()
        grid, shown = defaults.analyze_u_grid, rows["analyze.u_grid"][1]
        assert [float(shown.split(", ")[i]) for i in (0, 1, -1)] == [grid[i] for i in (0, 1, -1)]

        def default(value):
            return "-" if value is None else shown if value is grid else str(value)

        assert {key: rows.get(key) for key in _KEYS} == \
            {key: (kind, default(getattr(defaults, attr)), reader or "both")
             for key, (attr, kind, reader) in _KEYS.items()}

    @pytest.mark.parametrize("key", [key for key, (_, _, reader) in _KEYS.items() if reader])
    def test_key_of_the_other_strategy_rejected(self, tmp_path, key):
        _, kind, reader = _KEYS[key]
        other = FINITE_CFG if reader == "spectral" else SPECTRAL_CFG
        assert f"{key} =" not in other
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, other + f"{key} = {VALID_TEXT[kind]}\n"))
        assert [p for p in err.value.problems if p.startswith(f"{key}:")], err.value.problems

    @pytest.mark.parametrize("balls,key", [
        ("init.rho = 600.0", "init.rho"),
        ("init.rho = 1.0\ninit.radius_xhat = 600.0", "init.radius_xhat"),
    ])
    def test_ball_outside_bessel_domain(self, tmp_path, balls, key):
        # mu R = 0.1 * 600 = 60 is past the Bessel argument limit 50
        text = SPECTRAL_CFG.replace("init.rho = 1.0", balls)
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert any(p.startswith(f"params.mu/{key}:") for p in err.value.problems)

    def test_truncation_tail_warns(self, tmp_path):
        # mu R = 4 at N = 12: tail bound 2 * 2^26 / (13!)^2 = 3.5e-12
        text = SPECTRAL_CFG.replace("init.rho = 1.0", "init.rho = 40.0")
        cfg = parse_config(write(tmp_path, text))
        assert len(cfg.warnings) == 1 and cfg.warnings[0].startswith("params.N:")

    def test_sample_period_constraint(self, tmp_path):
        text = SPECTRAL_CFG.replace("params.Delta = 0.05", "params.Delta = 4.0")
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert any("params.Delta" in p and "(0, pi)" in p for p in err.value.problems)

    def test_oversized_delta_warns(self, tmp_path):
        for text, key in OVERSIZED_DELTA:
            cfg = parse_config(write(tmp_path, text))
            assert len(cfg.warnings) == 1 and cfg.warnings[0].startswith(f"{key}: delta=")
            assert "delta_margin" in cfg.warnings[0]

    @pytest.mark.parametrize("text,key", [
        (bessel_series("1.5, 2", "1.0, 0.5"), "output.orders"),
        (bessel_series("0, 2", "x"), "output.coeffs_re"),
        (FINITE_CFG.replace("init.rho = 3.0", "init.rho = -2.0"), "init.rho"),
        (SPECTRAL_CFG.replace("params.mu = 0.1", "params.mu = -0.1"), "params.mu"),
        (FINITE_CFG + "init.x0 = 1.0, nan\ninit.xhat0 = 0.5, 0.0\n", "init.x0"),
    ], ids=["orders", "coeffs_re", "rho", "mu", "x0"])
    def test_rejected_output_key_reported_once(self, tmp_path, text, key):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert len(err.value.problems) == 1, err.value.problems
        assert err.value.problems[0].startswith(f"{key}:")

    def test_all_errors_reported_at_once(self, tmp_path):
        text = "strategy = nope\nbogus.key = 1\ninit.rho = -2.0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        joined = "\n".join(err.value.problems)
        assert "strategy" in joined
        assert "bogus.key" in joined
        assert "init.rho" in joined

    @pytest.mark.parametrize("value", ["abc", "1.0, abc"])
    def test_list_read_by_one_rule(self, tmp_path, value):
        # a word alone and a word in a list are one problem, stated once
        text = FINITE_CFG.replace("params.poles = -1.0, -2.0", f"params.K = {value}")
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert err.value.problems == [f"params.K: expected a list of numbers, got {value!r}"]

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "strategy = finite\nstrategy = finite\n"))

    def test_explicit_pair_requires_both(self, tmp_path):
        text = FINITE_CFG + "init.x0 = 1.0, 0.0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert any("init.x0" in p for p in err.value.problems)

    def test_explicit_point_lists(self, tmp_path):
        text = (FINITE_CFG
                + "init.x0 = 1.0, 0.0, -0.5, 0.25\n"
                + "init.xhat0 = 0.0, 0.0, 0.1, -0.1\n")
        cfg = parse_config(write(tmp_path, text))
        assert cfg.x0.shape == (2, 2)
        from unobs_stab.cli import draw_initial_conditions
        x0s, xhat0s = draw_initial_conditions(cfg)
        assert len(x0s) == len(xhat0s) == 2
        assert np.allclose(x0s[1], [-0.5, 0.25])
        assert np.allclose(xhat0s[1], [0.1, -0.1])

    def test_odd_length_point_list_rejected(self, tmp_path):
        text = (FINITE_CFG + "init.x0 = 1.0, 0.0, 2.0\n"
                + "init.xhat0 = 0.0, 0.0, 1.0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert any("multiple of 2" in p for p in err.value.problems)


class TestDraws:
    def test_seeded_draws_are_reproducible(self, tmp_path):
        cfg = parse_config(write(tmp_path, FINITE_CFG))
        xa, ha = draw_initial_conditions(cfg)
        xb, hb = draw_initial_conditions(cfg)
        assert np.array_equal(xa, xb) and np.array_equal(ha, hb)
        assert all(np.linalg.norm(x) <= 3.0 for x in xa)

    def test_parser_applies_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UNOBS_STAB_SEED", "99")
        assert parse_config(write(tmp_path, FINITE_CFG)).seed == 99

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UNOBS_STAB_SEED", "99")
        cfg = parse_config(write(tmp_path, FINITE_CFG))
        out = tmp_path / "out"
        run_scenario(cfg, str(out))
        text = (out / "summary.txt").read_text()
        assert "seed=99" in text


class TestRunScenario:
    def test_equilibrium_produces_zero_csv(self, tmp_path):
        text = FINITE_CFG + "init.x0 = 0.0, 0.0\ninit.xhat0 = 0.0, 0.0\n"
        cfg = parse_config(write(tmp_path, text))
        out = tmp_path / "out"
        code = run_scenario(cfg, str(out))
        assert code == 0
        lines = (out / "run_000.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,u,eps_norm,c_eps_abs"
        for line in lines[1:]:
            values = [float(v) for v in line.split(",")[1:]]
            assert all(v == 0.0 for v in values)

    def test_csv_has_full_precision(self, tmp_path):
        cfg = parse_config(write(tmp_path, SPECTRAL_CFG))
        out = tmp_path / "out"
        run_scenario(cfg, str(out))
        lines = (out / "run_000.csv").read_text().strip().splitlines()
        assert lines[0].endswith("weak_eps")
        row = lines[2].split(",")
        # 17 significant digits survive a round trip
        assert float(row[1]) == float("%.17g" % float(row[1]))
        assert any(len(v.replace("-", "").replace(".", "").lstrip("0")) > 12
                   for v in row[1:])

    def test_jobs_match_serial(self, tmp_path):
        cfg = parse_config(write(tmp_path, FINITE_CFG))
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        run_scenario(cfg, str(out1), jobs=1)
        run_scenario(cfg, str(out2), jobs=2)
        for name in sorted(os.listdir(out1)):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_spectral_jobs_match_serial(self, tmp_path):
        cfg = parse_config(write(tmp_path, SPECTRAL_CFG.replace("init.count = 2",
                                                                "init.count = 3")))
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        run_scenario(cfg, str(out1), jobs=1)
        run_scenario(cfg, str(out2), jobs=2)
        assert sorted(os.listdir(out1)) == sorted(os.listdir(out2))
        for name in sorted(os.listdir(out1)):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_shards_capped_at_usable_cpus(self, tmp_path, monkeypatch):
        # a stand-in pool records its size and runs the shards in this process
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        cfg = parse_config(write(tmp_path, FINITE_CFG.replace("init.count = 3",
                                                              "init.count = 5")))
        run_scenario(cfg, str(tmp_path / "serial"), jobs=1)
        run_scenario(cfg, str(tmp_path / "wide"), jobs=64)
        run_scenario(cfg, str(tmp_path / "two"), jobs=2)
        assert sizes == [3, 2]
        for name in sorted(os.listdir(tmp_path / "serial")):
            assert (tmp_path / "wide" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes()

    def test_run_outside_domain_does_not_end_batch(self, tmp_path):
        # the second run starts at mu |x0| = 49.9 and leaves mu |x| < 50
        # mid-run: it is reported as diverged there, and the first run's
        # artifacts are those of its solo run
        pair = "init.x0 = 0.5, 0.0, 499.0, 0.0\ninit.xhat0 = 0.0, 0.2, 0.0, 5.0\n"
        solo = "init.x0 = 0.5, 0.0\ninit.xhat0 = 0.0, 0.2\n"
        base = SPECTRAL_CFG.replace("integrator.horizon = 5.0", "integrator.horizon = 8.0")
        out_pair, out_solo = tmp_path / "pair", tmp_path / "solo"
        code = run_scenario(parse_config(write(tmp_path, base + pair, "pair.cfg")),
                            str(out_pair))
        run_scenario(parse_config(write(tmp_path, base + solo, "solo.cfg")), str(out_solo))
        assert code == 1
        assert (out_pair / "run_000.csv").read_bytes() == (out_solo / "run_000.csv").read_bytes()
        summary = read_report(out_pair / "summary.txt")
        assert summary["run_000.diverged"] == "0" and "run_000.diverged_at" not in summary
        assert summary["run_001.diverged"] == "1"
        assert 0.0 < float(summary["run_001.diverged_at"]) < 8.0
        assert summary["run_001.pass"] == "0"

    def test_svg_written(self, tmp_path):
        text = FINITE_CFG + "init.x0 = 1.0, 0.0\ninit.xhat0 = 0.5, 0.0\n"
        cfg = parse_config(write(tmp_path, text))
        out = tmp_path / "out"
        run_scenario(cfg, str(out), svg=True)
        svg = (out / "run_000.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_threshold_failure_sets_exit_code(self, tmp_path):
        text = FINITE_CFG + "thresholds.trailing_x_max = 1e-12\n"
        cfg = parse_config(write(tmp_path, text))
        assert run_scenario(cfg, str(tmp_path / "out")) == 1


class TestAnalyze:
    def test_report_contents(self, tmp_path):
        text = SPECTRAL_CFG + "analyze.trials = 20\nanalyze.u_grid = 0.0, 0.3\n"
        cfg = parse_config(write(tmp_path, text))
        report = read_report(analyze(cfg, str(tmp_path / "out")))
        assert float(report["det_check.max_rel_err"]) < 1e-9
        assert report["det_check.singular_when_unperturbed"] == "1"
        assert float(report["gramian.u_0.lambda_min"]) < 1e-14
        assert "umax.applicable" in report
        assert report["bounds.satisfied"] == "1"

    def test_unperturbed_finite_reports_singular_certificate(self, tmp_path):
        text = FINITE_CFG.replace("params.delta_frac = 0.5", "params.delta_frac = 1e-9")
        cfg = parse_config(write(tmp_path, text))
        cfg.delta = 0.0
        cfg.delta_frac = None
        path = analyze(cfg, str(tmp_path / "out"))
        report = open(path).read()
        assert "certificate.singular=1" in report
        assert "certificate.full_rank=0" in report

    def test_bound_uses_the_placed_gain(self, tmp_path):
        # params.poles -1, -2 place K = (1, -3), the gain simulate runs
        text = (SPECTRAL_CFG.replace("params.K = 1.0, -2.0", "params.poles = -1.0, -2.0")
                + "analyze.trials = 5\nanalyze.u_grid = 0.0\n")
        cfg = parse_config(write(tmp_path, text))
        _, params = build_spectral(cfg)
        assert np.allclose(params.K, [1.0, -3.0])
        report = read_report(analyze(cfg, str(tmp_path / "out")))
        umax, _ = max_control_bound(float(np.linalg.norm(params.K)), params.j, params.mu,
                                    params.delta)
        assert float(report["umax.value"]) == umax == pytest.approx(52.56, abs=0.01)

    def test_sweep_covers_high_bessel_series_orders(self, tmp_path):
        # an order above 12 must stay in the truncated Gramian sweep
        text = (bessel_series("0, 14", "1.0, 0.5").replace("params.N = 12", "params.N = 16")
                + "analyze.trials = 5\nanalyze.u_grid = 0.0\n")
        report = read_report(analyze(parse_config(write(tmp_path, text)), str(tmp_path / "out")))
        assert float(report["gramian.u_0.lambda_max"]) > 0.0

    def test_certificate_uses_the_simulated_delta(self, tmp_path):
        text = FINITE_CFG + "analyze.trials = 5\n"
        cfg = parse_config(write(tmp_path, text))
        _, params = build_finite(cfg)
        report = read_report(analyze(cfg, str(tmp_path / "out")))
        assert float(report["certificate.delta"]) == params.delta == pytest.approx(0.2357, abs=1e-4)
        assert report["certificate.full_rank"] == "1"
        assert "certificate.singular" not in report

    def test_report_sections_per_strategy(self, tmp_path):
        # each strategy's report covers the loop it runs and nothing else
        sections = {}
        for name, text in (("finite", FINITE_CFG), ("spectral", SPECTRAL_CFG)):
            cfg = parse_config(write(tmp_path, text + "analyze.trials = 5\n", name + ".cfg"))
            report = read_report(analyze(cfg, str(tmp_path / name)))
            sections[name] = {key.split(".")[0] for key in report}
        assert sections == {"finite": {"seed", "det_check", "certificate"},
                            "spectral": {"seed", "det_check", "gramian", "umax", "bounds"}}

    def test_budget_uses_the_loop_j(self, tmp_path):
        # params.j_frac sets the j of the control bound and of the budget alike
        text = SPECTRAL_CFG + "params.j_frac = 0.5\nanalyze.trials = 5\nanalyze.u_grid = 0.0\n"
        cfg = parse_config(write(tmp_path, text))
        report = read_report(analyze(cfg, str(tmp_path / "out")))
        bounds = choose_radii(cfg.analyze_R0, kappa=0.2, j=0.5 * J1_ARGMAX)
        assert float(report["bounds.mu"]) == bounds.mu == pytest.approx(0.07897, abs=1e-5)


class TestMain:
    def test_zeros_subcommand(self, capsys):
        assert main(["zeros"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("j0=2.40482555769577")
        assert "j1=1.8411837813406593" in out
        assert "nu=1.775766" in out

    def test_module_entry(self):
        # python -m unobs_stab runs the package's __main__
        src = os.path.dirname(os.path.dirname(os.path.abspath(unobs_stab.__file__)))
        done = subprocess.run([sys.executable, "-m", "unobs_stab", "zeros"],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("j0=2.40482555769577")

    def test_analyze_and_explicit_starts_leave_numpy_random_unimported(self, tmp_path):
        # analyze draws its determinant trials from random.Random and a run
        # from explicit starts draws nothing: importing numpy.random would cost
        # a process about 6 MB and 10 ms
        path = write(tmp_path, SPECTRAL_CFG + "init.x0 = 0.5, 0.0\ninit.xhat0 = 0.0, 0.2\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(unobs_stab.__file__)))
        script = ("import sys\nfrom unobs_stab.cli import main\n"
                  f"main(['analyze', '--config', {path!r}, '--out', {str(tmp_path / 'a')!r}])\n"
                  f"main(['simulate', '--config', {path!r}, '--out', {str(tmp_path / 's')!r}])\n"
                  "print('numpy.random' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "a" / "analysis.txt").exists()
        assert (tmp_path / "s" / "summary.txt").exists()
        assert done.stdout.splitlines()[-1] == "False"

    def test_diverging_finite_run_writes_no_stderr(self, tmp_path):
        # the second run leaves the bounded region at t = 1.69, inside a block
        # of steps, and the rest of that block overflows: the run is reported
        # as diverged, and the discarded values print no RuntimeWarning
        text = ("strategy = finite\nseed = 1\ninit.x0 = 0.0, 0.0, 1.0, 0.0\n"
                "init.xhat0 = 0.0, 0.0, 0.0, 0.0\nparams.K = 0.0, 3.0\nparams.delta = 0.5\n"
                "params.alpha = 1.0\nintegrator.step = 1e-2\nintegrator.horizon = 40.0\n"
                "integrator.record_every = 10\n")
        out = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(os.path.abspath(unobs_stab.__file__)))
        done = subprocess.run([sys.executable, "-m", "unobs_stab", "simulate", "--config",
                               write(tmp_path, text), "--out", str(out)],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (1, "")
        summary = read_report(out / "summary.txt")
        assert (summary["run_000.diverged"], summary["run_001.diverged"]) == ("0", "1")
        assert float(summary["run_001.diverged_at"]) == 1.69

    def test_simulate_subcommand(self, tmp_path):
        path = write(tmp_path, FINITE_CFG)
        out = tmp_path / "cli_out"
        code = main(["simulate", "--config", path, "--out", str(out)])
        assert code == 0
        assert (out / "summary.txt").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_code(self, tmp_path, capsys, jobs):
        path = write(tmp_path, FINITE_CFG)
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--out", str(out), "--jobs", jobs]) == 2
        assert f"--jobs: expected a whole number >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path):
        path = write(tmp_path, "strategy = nope\n")
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_bad_list_value_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, BAD_VALUES[0].values[0])
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "params.K: expected 2 numbers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_env_seed_exit_code(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("UNOBS_STAB_SEED", value)
        path = write(tmp_path, FINITE_CFG)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "UNOBS_STAB_SEED: expected a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text,key", [case[1:] for case in EXTREME],
                             ids=[case[0] for case in EXTREME])
    def test_extreme_input_exit_code(self, tmp_path, capsys, text, key):
        path = write(tmp_path, text)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o"), "--svg"]) == 2
        assert f"  - {key}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text,key", OVERSIZED_DELTA, ids=["delta", "delta_frac"])
    def test_oversized_delta_warns_then_runs(self, tmp_path, capsys, text, key):
        # the delta budget is settled at parse time: the runs go ahead
        path = write(tmp_path, text)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) in (0, 1)
        assert f"warning: {key}: delta=" in capsys.readouterr().err
        assert (tmp_path / "o" / "summary.txt").exists()


class TestImports:
    def test_cli_commands_do_not_import_scipy(self, tmp_path):
        # a fresh interpreter, so that no other test's imports count
        spectral_cfg = write(tmp_path, SPECTRAL_CFG + "analyze.trials = 5\n"
                             "analyze.u_grid = 0.0, 0.3\n", "spectral.cfg")
        finite_cfg = write(tmp_path, FINITE_CFG, "finite.cfg")
        calls = [["analyze", "--config", spectral_cfg, "--out", str(tmp_path / "analyze")],
                 ["simulate", "--config", spectral_cfg, "--out", str(tmp_path / "spectral")],
                 ["simulate", "--config", finite_cfg, "--out", str(tmp_path / "finite")]]
        script = ("import json, sys\n"
                  "from unobs_stab.cli import main\n"
                  f"codes = [main(argv) for argv in {calls!r}]\n"
                  "print(json.dumps({'codes': codes, 'scipy': sorted("
                  "m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(unobs_stab.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["codes"][0] == 0
        assert result["scipy"] == []
