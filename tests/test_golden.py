"""`simulate --out` and `analyze` stay byte-identical to the digests in
golden.json (rewritten by `python tests/golden.py` when a change means to
move bytes; such a change says which files and why).  The outputs are
rebuilt in a fresh process, where golden.py pins the BLAS threads.  The values
that a rewrite moves are gated apart from the digests: the benchmark's
reference outcomes, which no rewrite touches, bound the summary values of
every pool run."""

import json
import math
import os
import pathlib
import subprocess
import sys

from test_acceptance import SPECTRAL_SCENARIO

from unobs_stab.cli import _run_batch, draw_initial_conditions
from unobs_stab.config import parse_config
from unobs_stab.sim import convergence_metrics

HERE = pathlib.Path(__file__).resolve().parent


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    done = subprocess.run([sys.executable, str(HERE / "golden.py"), "--print", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    changed = sorted(name for name in golden["files"].keys() & got["files"].keys()
                     if golden["files"][name] != got["files"][name])
    assert (sorted(got["files"]), changed) == (sorted(golden["files"]), []), \
        f"digests taken on {golden['machine']}, compared on {got['machine']}"


def test_analyze_bytes_do_not_depend_on_blas_threads(tmp_path):
    # analyze's Gramian sums in an order the program fixes, so analysis.txt
    # reads the same with one BLAS thread and with two
    config = tmp_path / "spectral.cfg"
    config.write_text(SPECTRAL_SCENARIO, encoding="utf-8")
    texts = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src"),
               "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads}
        env.pop("UNOBS_STAB_SEED", None)
        out = tmp_path / f"threads{threads}"
        done = subprocess.run([sys.executable, "-m", "unobs_stab", "analyze", "--config",
                               str(config), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        texts.append((out / "analysis.txt").read_bytes())
    assert texts[0] == texts[1]


def test_benchmark_pool_matches_reference_values(tmp_path, monkeypatch):
    # every pool entry of perfbench/reference.json, one batch per workload,
    # its scenario built by perfbench/workloads.py: the checked summary values
    # stay within 1e-12 * max(1, |ref|) of the file, which holds the outcomes
    # of the program as the benchmark was defined and is only read here
    monkeypatch.syspath_prepend(str(HERE.parent / "perfbench"))
    from workloads import CHECKED_KEYS, WORKLOADS, load_reference

    reference = load_reference()
    moved = []
    for name, workload in WORKLOADS.items():
        pool = reference[name]["pool"]
        config = tmp_path / f"{name}.cfg"
        config.write_text(workload.scenario([(e["x0"], e["xhat0"]) for e in pool]),
                          encoding="utf-8")
        cfg = parse_config(str(config))
        trajs = _run_batch(cfg, *draw_initial_conditions(cfg))
        assert len(trajs) == len(pool) == workload.pool
        for index, (entry, traj) in enumerate(zip(pool, trajs)):
            got = convergence_metrics(traj)
            for key in CHECKED_KEYS:
                ref, value = entry["expect"][key], got[key]
                same = (math.isnan(ref) and math.isnan(value)) \
                    or abs(value - ref) <= 1e-12 * max(1.0, abs(ref))
                if not same:
                    moved.append(f"{name}[{index}].{key}: {value!r} vs {ref!r}")
    assert moved == []


def test_compare_reports_each_moved_file(tmp_path):
    # golden.py --compare on two small work trees: one row per file whose
    # bytes differ, with its largest absolute, relative and scaled change
    for tree, value, note in (("old", "0.5", "a"), ("new", "0.50000000000000011", "b")):
        out = tmp_path / tree / "finite-dense" / "seed1" / "out"
        out.mkdir(parents=True)
        (out / "run_000.csv").write_text(f"t,u\n0,{value}\n2,-4\n", encoding="utf-8")
        (out / "summary.txt").write_text("run_000.pass=1\n", encoding="utf-8")
        (out / "notes.txt").write_text(f"{note}=1\n", encoding="utf-8")
    (tmp_path / "new" / "finite-dense" / "seed1" / "out" / "run_001.csv").write_text("t\n")
    done = subprocess.run([sys.executable, str(HERE / "golden.py"), "--compare",
                           str(tmp_path / "old"), str(tmp_path / "new")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = [row.split() for row in done.stdout.splitlines()]
    assert rows[1:] == [["finite-dense/seed1/notes.txt", "text", "differs"],
                        ["finite-dense/seed1/run_000.csv", "1.11e-16", "2.22e-16", "1.11e-16"],
                        ["finite-dense/seed1/run_001.csv", "only", "in", "NEW_DIR"],
                        ["3", "of", "4", "files", "moved"]]
