"""Regenerate reference.json: each workload's initial-condition pool and the
outcome the CLI computes for every pool entry.

  python3 perfbench/make_reference.py

Run it from the root of a checkout only when a workload's settings change;
the reference stands for the program as it was when the file was made, so
regenerating it on a later commit would hide a change in results.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import sys

from workloads import CHECKED_KEYS, REFERENCE_PATH, WORKLOADS, read_summary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL_SEED = 2011_12395


def ball_point(rng: random.Random, radius: float) -> list:
    r = radius * math.sqrt(rng.random())
    th = 2.0 * math.pi * rng.random()
    return [r * math.cos(th), r * math.sin(th)]


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from unobs_stab import cli

    work = os.path.join(ROOT, ".perfbench_out", "reference")
    os.makedirs(work, exist_ok=True)
    reference = {}
    for k, wl in enumerate(WORKLOADS.values()):
        rng = random.Random(POOL_SEED + k)
        points = [(ball_point(rng, wl.radius), ball_point(rng, wl.radius))
                  for _ in range(wl.pool)]
        cfg = os.path.join(work, wl.name + ".cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(wl.scenario(points))
        out = os.path.join(work, wl.name)
        shutil.rmtree(out, ignore_errors=True)
        code = cli.main(["simulate", "--config", cfg, "--out", out])
        summary = read_summary(os.path.join(out, "summary.txt"))
        if code != 0 or summary["overall.pass"] != 1:
            raise SystemExit(f"{wl.name}: a pool run fails; choose other settings")
        pool = []
        for i, (x0, xh0) in enumerate(points):
            expect = {key: summary[f"run_{i:03d}.{key}"] for key in CHECKED_KEYS}
            pool.append({"x0": x0, "xhat0": xh0, "expect": expect})
        reference[wl.name] = {"settings": wl.settings, "pool": pool}
        print(f"{wl.name}: {wl.pool} pool runs recorded", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
