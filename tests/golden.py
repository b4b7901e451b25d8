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
    python tests/golden.py --compare OLD_DIR NEW_DIR

`--compare` reads two `--print` work trees (say, of a change's parent and of
the change) and prints one row per output file whose bytes differ: the
largest absolute difference of its numbers, the largest relative one (over
numbers that are not 0 in OLD_DIR) and the largest difference scaled by
max(1, |old|), the measure the benchmark's reference check uses; a file whose
text around the numbers differs, or that only one tree has, is named as such.
A rewrite of golden.json is accepted only with this table in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
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


# a number as the writers print it (%.17g, %.4g, %.2f, nan, inf), signed
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:nan|inf)\b")


def _numbers(text: str) -> tuple[str, list[float]]:
    """The text with each number replaced by `#`, and the numbers."""
    return _NUMBER.sub("#", text), [float(m) for m in _NUMBER.findall(text)]


def _moved_by(x: float, y: float) -> float:
    """|y - x|, and inf where that is nan (a number that turned nan, or inf
    where it was finite)."""
    d = abs(y - x)
    return math.inf if math.isnan(d) else d


def compare(old: pathlib.Path, new: pathlib.Path) -> list[str]:
    """The --compare table of two --print work trees, one row per moved file."""
    def outputs(work):
        return {p.relative_to(work).as_posix().replace("/out/", "/"): p
                for p in sorted(work.glob("**/out/*"))}

    before, after = outputs(old), outputs(new)
    rows = [f"{'file':<40} {'max abs':>9} {'max rel':>9} {'scaled':>9}"]
    for name in sorted(before.keys() | after.keys()):
        if name not in before or name not in after:
            rows.append(f"{name:<40} only in {'NEW_DIR' if name in after else 'OLD_DIR'}")
            continue
        a, b = before[name].read_bytes(), after[name].read_bytes()
        if a == b:
            continue
        (shape_a, xs), (shape_b, ys) = (_numbers(t.decode("utf-8")) for t in (a, b))
        if shape_a != shape_b:
            rows.append(f"{name:<40} text differs")
            continue
        moved = [(x, _moved_by(x, y)) for x, y in zip(xs, ys)
                 if x != y and not (math.isnan(x) and math.isnan(y))]
        big = max((d for _, d in moved), default=0.0)
        rel = max((d / abs(x) for x, d in moved if x != 0.0), default=0.0)
        scaled = max((d / max(1.0, abs(x)) for x, d in moved), default=0.0)
        rows.append(f"{name:<40} {big:9.2e} {rel:9.2e} {scaled:9.2e}")
    rows.append(f"{len(rows) - 1} of {len(before.keys() | after.keys())} files moved")
    return rows


def main(argv: list) -> int:
    if argv[:1] == ["--compare"] and len(argv) == 3:
        print("\n".join(compare(pathlib.Path(argv[1]), pathlib.Path(argv[2]))))
        return 0
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
