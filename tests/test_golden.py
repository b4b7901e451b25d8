"""`simulate --out` and `analyze` stay byte-identical to the digests in
golden.json (rewritten by `python tests/golden.py` when a change means to
move bytes; such a change says which files and why).  The outputs are
rebuilt in a fresh process, where golden.py pins the BLAS threads."""

import json
import pathlib
import subprocess
import sys

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
