"""Mutation check: every listed mutant of the package fails the tests.

Each mutant is one (file, old text, new text) substitution, its old text
occurring exactly once in its file.  For each, the script copies the
checkout into a temporary directory (leaving out .git, caches and output
directories), applies the substitution and runs `python -m pytest -q -x`
there on every test file but test_acceptance.py, one process at a time,
leaving out test_mutant_applies_once (which checks the unmutated tree).  It
first runs the unmutated copy, which must pass, so that a kill means the
mutant and nothing else.  It prints `killed` or `survived` per mutant and
exits 1 if any mutant survived (2 if the unmutated copy fails).  A SIGTERM
(from `timeout`, say) ends it as SystemExit does, so the running pytest is
killed and the copy removed.

    python tests/mutants.py
"""

from __future__ import annotations

import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

# (file under the checkout, old text, new text)
MUTANTS = [
    ("src/unobs_stab/sim.py", "EPS_STEP_TOL = 1e-8", "EPS_STEP_TOL = 1e-6"),
    ("src/unobs_stab/sim.py", "inc > EPS_STEP_TOL", "inc >= EPS_STEP_TOL"),
    ("src/unobs_stab/sim.py", "active & (valid_steps < b)", "active & (valid_steps <= b)"),
    ("src/unobs_stab/sim.py", "ok = np.logical_and.accumulate(ok)", "ok = ok"),
    ("src/unobs_stab/sim.py", "first = (-i - 1) % stride", "first = -i % stride"),
    ("src/unobs_stab/sim.py", "mu * r < VALID_MU_R", "mu * r <= VALID_MU_R"),
    ("src/unobs_stab/bessel.py", "_SERIES_TOL = 1e-20", "_SERIES_TOL = 1e-17"),
    ("src/unobs_stab/spectral.py", "clamped = a > y0", "clamped = a >= y0"),
    ("src/unobs_stab/spectral.py", "np.where(a > 0.0, a, 1.0)", "np.where(a >= 0.0, a, 1.0)"),
    ("src/unobs_stab/bessel.py", "high = s > 0.5 * _S_TOP", "high = s > 0.55 * _S_TOP"),
    ("src/unobs_stab/bessel.py", "target > _Y_REV", "target >= _Y_REV"),
    ("src/unobs_stab/bessel.py", "-245.80198528866373", "-245.8019852886637"),
    ("src/unobs_stab/bessel.py", "target <= J1_MAX + 1e-12", "target <= J1_MAX"),
    ("src/unobs_stab/bessel.py", "np.searchsorted(_SERIES_Q_ARRAY, q)",
     "np.searchsorted(_SERIES_Q_ARRAY, 0.5 * q)"),
    ("src/unobs_stab/bessel.py", "_TERM_INDEX[:size] <= last",
     "_TERM_INDEX[:size] <= last.max(initial=0)"),
    ("src/unobs_stab/bessel.py", "_series_coefficients(max(kmax, 1))",
     "_series_coefficients(kmax)"),
    ("src/unobs_stab/sim.py", "_affine(ends[1:b + 1], x, u)", "_affine(ends[:b], x, u)"),
    ("src/unobs_stab/sim.py", "np.multiply(powers[:, 2], c, out=powers[:, 3])",
     "np.multiply(powers[:, 1], c, out=powers[:, 3])"),
    ("src/unobs_stab/sim.py", "inputs += w[:, 2] * fy[:, 2, rows, None]",
     "inputs += w[:, 1] * fy[:, 2, rows, None]"),
    ("src/unobs_stab/sim.py", "np.matvec(t, z), zhats[k, rows]",
     "np.matvec(t, z), zhats[k - 1, rows]"),
    ("src/unobs_stab/sim.py", "_MAP_DEGREE = 6", "_MAP_DEGREE = 5"),
    ("src/unobs_stab/sim.py", "2.0 * x * w[p - 1]", "x * w[p - 1]"),
    ("src/unobs_stab/sim.py", "np.arange(d) + 0.5", "np.arange(d) + 1.0"),
    ("src/unobs_stab/sim.py", "near = np.abs(u) <= u_cap", "near = np.abs(u) < 2.0 * u_cap"),
    ("src/unobs_stab/linalg.py", "p1 * p2 - 1.0", "p1 * p2 + 1.0"),
    ("src/unobs_stab/finite.py", "(q - 1.0)", "(q + 1.0)"),
    ("src/unobs_stab/finite.py", "a > 0.0", "a >= 0.0"),
    ("src/unobs_stab/finite.py", "c < 0.0", "c <= 0.0"),
    ("src/unobs_stab/finite.py", "[0.0, 0.0, 1.0 + k0, k1, d]", "[0.0, 0.0, k0, k1, d]"),
    ("src/unobs_stab/finite.py", "0.0, -alpha]]", "0.0, alpha]]"),
    ("src/unobs_stab/finite.py", "out[..., 3] -= u", "out[..., 3] += u"),
    ("src/unobs_stab/artifacts.py", "t_text = t_text[:rows]", "t_text = t_text[:rows + 1]"),
    ("src/unobs_stab/cli.py", "len(traj.times) == len(times)", "len(times) == len(times)"),
    ("src/unobs_stab/artifacts.py", "value > ticks[-1]", "value >= ticks[-1]"),
    ("src/unobs_stab/sim.py", "ch - 1.0", "1.0 - ch"),
    ("src/unobs_stab/sim.py", "[ch, -sh,", "[ch, sh,"),
    ("src/unobs_stab/config.py", "(arg := cfg.mu * r) >= VALID_MU_R",
     "(arg := cfg.mu * r) > VALID_MU_R"),
    ("src/unobs_stab/config.py", "norm > DIVERGENCE_NORM", "norm >= DIVERGENCE_NORM"),
    ("src/unobs_stab/config.py", "0.0 < cfg.delta < math.inf", "0.0 <= cfg.delta < math.inf"),
]
# what the copy leaves out: version control, caches, build and run outputs
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench_out", "build", "*.egg-info", "*.svg")


def suite_files() -> list[str]:
    return [f"tests/{p.name}" for p in sorted(HERE.glob("test_*.py"))
            if p.name != "test_acceptance.py"]


def passes(copy: pathlib.Path) -> bool:
    """Whether the test files pass in `copy`, run on the package under its src/."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    # test_mutant_applies_once reads the copy, where a mutant's old text is
    # gone, so it would count every mutant killed
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "-k", "not test_mutant_applies_once", *suite_files()], cwd=copy, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def run(mutant, work: pathlib.Path) -> tuple[bool, float]:
    """(passed, seconds) of the test files on a fresh copy with `mutant`
    applied (None: the unmutated copy)."""
    copy = work / "checkout"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=SKIPPED)
    if mutant is not None:
        path, old, new = mutant
        target = copy / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"mutants: {old!r} occurs {text.count(old)} times in {path}")
        target.write_text(text.replace(old, new), encoding="utf-8")
    t0 = time.perf_counter()
    return passes(copy), time.perf_counter() - t0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    with tempfile.TemporaryDirectory(prefix="unobs-stab-mutants-") as tmp:
        work = pathlib.Path(tmp)
        ok, seconds = run(None, work)
        print(f"unmutated: {'pass' if ok else 'FAIL'} ({seconds:.1f} s)", flush=True)
        if not ok:
            return 2
        survived = 0
        for mutant in MUTANTS:
            passed, seconds = run(mutant, work)
            survived += passed
            path, old, new = mutant
            print(f"{'survived' if passed else 'killed'}: {path}: {old!r} -> {new!r} "
                  f"({seconds:.1f} s)", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
