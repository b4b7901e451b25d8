"""The scripts outside the package that call its public API run: each demo
exits 0, and perfbench's micro timings run and report every key.  Each runs
in a fresh process on the package under src/, writing only under tmp_path.
The mutation script's list still applies to the tree (no pytest is run)."""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest
from mutants import MUTANTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MICRO_KEYS = {"micro.expm49_us", "micro.embed_us", "micro.bessel_j_all_series_us",
              "micro.bessel_j_all_miller_us", "micro.sample_hold_feedback_us",
              "micro.finite_step20_us"}


def run_script(path, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(path), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # a copy, so what a demo writes next to itself lands in tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    done = run_script(script, cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def test_perfbench_micro_runs(tmp_path):
    out = tmp_path / "micro.json"
    done = run_script(ROOT / "perfbench" / "child.py", "--micro", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result) == MICRO_KEYS
    assert all(math.isfinite(v) and v > 0.0 for v in result.values()), result


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{pathlib.Path(m[0]).stem}:{m[1]}")
def test_mutant_applies_once(mutant):
    path, old, new = mutant
    assert old != new
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
