"""`simulate --out` and `analyze` stay byte-identical to the digests in
golden.json (rewritten by `python tests/golden.py` when a change means to
move bytes; such a change says which files and why).  The outputs are
rebuilt in a fresh process, where golden.py pins the BLAS threads."""

import json
import os
import pathlib
import subprocess
import sys

from test_acceptance import SPECTRAL_SCENARIO

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
