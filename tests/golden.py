"""Digests of the reference outputs, and the script that rewrites them.

The outputs are `simulate --out` (with `--svg` where the workload uses it)
and `analyze` on the benchmark's three workloads at seeds 1-3, with each
scenario text built from `perfbench/workloads.py` and `perfbench/reference.json`
exactly as `perfbench/run.py` builds it, plus both commands on the two
criterion-10 scenarios of `test_acceptance.py`.  `golden.json` holds one
sha256 per output file and the machine the digests were taken on (numpy
version and CPU model among it): the bytes depend on the numpy build and on
the CPU's SIMD paths.  This script pins the BLAS threads to 1, as the
benchmark does, and runs with UNOBS_STAB_SEED unset: the Gramian's own sum has
a fixed order, but its doubling products and eigenvalues go through BLAS and
LAPACK, which promise none across thread counts.

    python tests/golden.py              # rewrites tests/golden.json from this tree
    python tests/golden.py --print DIR  # prints the digests, working under DIR
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
SEEDS = (1, 2, 3)

os.environ.pop("UNOBS_STAB_SEED", None)
for path in (ROOT / "src", ROOT / "perfbench", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

# the benchmark's runner pins the BLAS threads to 1 as it is imported, before
# numpy loads, and describes the machine for its reports
from run import machine  # noqa: E402
from workloads import WORKLOADS, load_reference, select_inputs  # noqa: E402

from unobs_stab import cli  # noqa: E402


def scenarios():
    """(name, scenario text, CLI calls) of every covered output directory;
    a call is (command, extra arguments)."""
    from test_acceptance import FINITE_SCENARIO, SPECTRAL_SCENARIO

    reference = load_reference()
    for wl in WORKLOADS.values():
        simulate = ["--jobs", "1"] + (["--svg"] if wl.svg else [])
        calls = [(command, simulate if command == "simulate" else [])
                 for command in wl.commands]
        for seed in SEEDS:
            points = select_inputs(wl, reference, seed)[1]
            yield f"{wl.name}/seed{seed}", wl.scenario(points), calls
    for label, text in (("finite", FINITE_SCENARIO), ("spectral", SPECTRAL_SCENARIO)):
        yield f"criterion10/{label}", text, [("simulate", []), ("analyze", [])]


def digests(work: pathlib.Path) -> dict:
    """Run every scenario under `work` and return {name/file: sha256}."""
    out = {}
    for name, text, calls in scenarios():
        run_dir = work / name
        run_dir.mkdir(parents=True)
        config = run_dir / "scenario.cfg"
        config.write_text(text, encoding="utf-8")
        out_dir = run_dir / "out"
        for command, extra in calls:
            argv = [command, "--config", str(config), "--out", str(out_dir)] + extra
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code not in (0, 1):
                raise RuntimeError(f"golden: {name}: {command} failed")
        for path in sorted(out_dir.iterdir()):
            out[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def main(argv: list) -> int:
    if argv[:1] == ["--print"] and len(argv) == 2:
        print(json.dumps({"machine": machine(), "files": digests(pathlib.Path(argv[1]))}))
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = digests(pathlib.Path(tmp))
    GOLDEN_PATH.write_text(json.dumps({"machine": machine(), "files": files}, indent=1,
                                      sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(files)} digests written to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
