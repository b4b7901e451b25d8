"""Benchmark of the unobs-stab CLI on three workloads.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  A run writes the seed's scenario file, then
starts fresh single-threaded processes (`child.py`), one after the other,
each making the workload's `unobs_stab.cli.main` calls with `--jobs 1`, for
S seconds; the first process is a warm-up and is not timed.
Every run of every process is checked: CLI exit code 0, `pass=1` in
summary.txt, the four final metrics within 1e-8 * max(1, |ref|) of
reference.json, and an output directory byte-identical to the first
process's.  A failed check fails all of that process's runs when it is the
exit code or the digest, otherwise that run alone.

With `--trace 0` the result carries the end-to-end metrics; with `--trace 1`
the processes alternate between traced and untraced, and the result carries
the per-layer metrics, the tracing overhead and the micro timings.  The last
line of standard output is the JSON result; a report with every sample and
the machine it ran on is written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# pinned before numpy loads, here and in every child process
os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import (CHECKED_KEYS, REL_TOL, WORKLOADS, load_reference,  # noqa: E402
                       read_summary, select_inputs)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
# a run ends within three minutes even if a process hangs
RUN_DEADLINE_S = 170.0
# The host's speed drifts by up to 1.5x over minutes (other tenants), far
# more than a useful bound.  So every process is bracketed by a fixed loop of
# small numpy calls, the kind of work the program's loops do, and its times are
# scaled by REFERENCE_PROBE_S / (mean of the two loop times).  The end-to-end
# times therefore read as seconds at the host speed at which the loop takes
# REFERENCE_PROBE_S, about its median on the 2-vCPU Xeon host the benchmark was
# defined on.  The report keeps the unscaled values too.
REFERENCE_PROBE_S = 0.2
_PROBE_V = np.exp(1j * 0.1 * np.arange(49))
_PROBE_M = np.outer(_PROBE_V, _PROBE_V.conj())


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "unobs_stab", "cli.py")):
        raise SetupError(f"no unobs_stab package under {SRC}: run from a full checkout")
    manifest = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(manifest):
        with open(manifest, encoding="utf-8") as fh:
            bench = json.load(fh)
        same = (
            sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
            and {(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]}
            == {m[:3] for m in END_TO_END}
            and {(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]}
            == {m[:3] for m in PER_LAYER})
        if not same:
            raise SetupError("BENCHMARK.json and perfbench/metrics.py or workloads.py disagree")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("UNOBS_STAB_SEED", None)
    env["PYTHONPATH"] = SRC
    return env


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(), **versions,
            "threads": {var: "1" for var in THREAD_VARS}}


def digest_dir(path: str) -> tuple[str, int]:
    """sha256 over every file's relative name and bytes; also the CSV bytes."""
    h = hashlib.sha256()
    csv_bytes = 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        if name.endswith(".csv"):
            csv_bytes += len(data)
    return h.hexdigest(), csv_bytes


def speed_probe() -> float:
    """Seconds taken by the fixed calibration loop; runs no program code."""
    start = time.perf_counter()
    for _ in range(25000):
        w = _PROBE_M @ _PROBE_V
        float(np.sqrt(np.sum(np.abs(w) ** 2)))
    return time.perf_counter() - start


def close_enough(got, ref) -> bool:
    if isinstance(ref, float) and math.isnan(ref):
        return isinstance(got, float) and math.isnan(got)
    return abs(got - ref) <= REL_TOL * max(1.0, abs(ref))


def spawn(argv: list, log_path: str, env: dict, deadline: float) -> tuple[int, float]:
    """Run one process to the end, killing it at the deadline; returns
    (exit code, spawn time)."""
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(argv, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -9
    return code, t_spawn


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, trace: bool):
        self.wl = workload
        self.trace = trace
        reference = load_reference()
        self.indices, points = select_inputs(workload, reference, seed)
        self.expect = [reference[workload.name]["pool"][i]["expect"] for i in self.indices]
        self.dir = os.path.join(OUT_ROOT, f"{workload.name}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config = os.path.join(self.dir, "scenario.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(workload.scenario(points))
        self.env = child_env()
        self.digest = None
        self.samples: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spans_written = False
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def argv(self, out: str) -> list:
        calls = []
        for command in self.wl.commands:
            argv = [command, "--config", self.config, "--out", out]
            if command == "simulate":
                argv += ["--jobs", "1"] + (["--svg"] if self.wl.svg else [])
            calls.append(argv)
        return calls

    def check_runs(self, summary: dict) -> int:
        """Number of failing runs in one simulate summary."""
        bad = 0
        if summary.get("runs") != self.wl.runs:
            self.problems.append(f"summary has {summary.get('runs')} runs")
            return self.wl.runs
        for i, expect in enumerate(self.expect):
            prefix = f"run_{i:03d}."
            why = []
            if summary.get(prefix + "pass") != 1:
                why.append("pass != 1")
            for key in CHECKED_KEYS:
                if not close_enough(summary[prefix + key], expect[key]):
                    why.append(f"{key}={summary[prefix + key]!r} vs reference {expect[key]!r}")
            if why:
                bad += 1
                self.problems.append(f"run {i} (pool {self.indices[i]}): " + "; ".join(why))
        return bad

    def process(self, k: int, traced: bool, timed: bool) -> None:
        """Start process k, wait for it, check its outputs, keep its sample."""
        out = os.path.join(self.dir, f"out{k}")
        spec_path = os.path.join(self.dir, f"proc{k}.spec.json")
        result_path = os.path.join(self.dir, f"proc{k}.result.json")
        spans = None
        if traced and not self.spans_written:
            spans, self.spans_written = os.path.join(self.dir, "spans.csv"), True
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"src": SRC, "argv": self.argv(out), "trace": traced,
                       "spans": spans, "result": result_path}, fh)
        code, t_spawn = spawn([sys.executable, "child.py", spec_path],
                              os.path.join(self.dir, f"proc{k}.log"), self.env, self.deadline)
        before, self.probe = self.probe, speed_probe()
        scale = REFERENCE_PROBE_S / (0.5 * (before + self.probe))
        self.attempted += self.wl.runs
        result = None
        if code == 0 and os.path.isfile(result_path):
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        if result is None or any(c != 0 for c in result["codes"]):
            self.failed += self.wl.runs
            self.problems.append(f"process {k}: exit {code}, CLI codes "
                                 f"{result and result['codes']} (see proc{k}.log)")
            return
        digest, csv_bytes = digest_dir(out)
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            self.failed += self.wl.runs
            self.problems.append(f"process {k}: output digest differs from process 0")
            return
        summary = read_summary(os.path.join(out, "summary.txt"))
        self.failed += self.check_runs(summary)
        if k > 0:
            shutil.rmtree(out)
        if not timed:
            return
        calls = result["calls"]
        first = calls[0][1]
        sim_s = sum(end - start for name, start, end in calls if name == "run_scenario")
        raw = {
            "setup_s": result["first_call_mono"] - t_spawn,
            "wall_s": result["end"] - first,
            "steps_per_s": self.wl.run_steps / sim_s,
        }
        sample = {
            "traced": traced,
            "scale": scale,
            "raw": raw,
            "setup_s": raw["setup_s"] * scale,
            "wall_s": raw["wall_s"] * scale,
            "steps_per_s": raw["steps_per_s"] / scale,
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        }
        if traced:
            sample["layers"] = layer_metrics(self.wl, result["trace"], summary, csv_bytes,
                                             first, raw["wall_s"])
        self.samples.append(sample)

    def execute(self, seconds: float) -> None:
        """Warm up, then start processes while the next one is expected to
        end within `seconds` of the start (at least one of each kind needed)."""
        start = time.monotonic()
        self.probe = speed_probe()
        self.process(0, traced=False, timed=False)
        needed = {True, False} if self.trace else {False}
        last = time.monotonic() - start
        k = 1
        while time.monotonic() < self.deadline:
            elapsed = time.monotonic() - start
            have = {s["traced"] for s in self.samples} >= needed
            if (have and elapsed + last > seconds) or elapsed >= 2 * seconds:
                break
            began = time.monotonic()
            self.process(k, traced=self.trace and k % 2 == 1, timed=True)
            last = time.monotonic() - began
            if self.failed and not self.samples:
                break
            k += 1

    def micro(self) -> dict:
        path = os.path.join(self.dir, "micro.json")
        code, _ = spawn([sys.executable, "child.py", "--micro", path],
                        os.path.join(self.dir, "micro.log"), self.env, self.deadline)
        if code != 0:
            self.problems.append("micro timings failed (see micro.log)")
            return {}
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def layer_metrics(wl, trace: dict, summary: dict, csv_bytes: int, first: float,
                  wall: float) -> dict:
    """Per-layer metrics of one traced process."""
    stats = trace["stats"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    spectral = wl.period is not None
    intervals = wl.runs * int(round(wl.horizon / wl.period)) if spectral else 0
    parts = trace["interval"]
    loop = total("sim.run_spectral_loop")
    m = {}
    for name in ("sim.run_spectral_loop", "sim.rotation_step", "sim.run_finite_batch",
                 "linalg.expm", "spectral.embed", "spectral.observer_matrix",
                 "spectral.weak_norm", "spectral.apply_generator", "bessel.bessel_j_all",
                 "bessel.bessel_j"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
    for name in ("spectral.embed", "spectral.sample_hold_feedback", "spectral.observer_matrix",
                 "spectral.weak_norm", "spectral.apply_generator", "spectral.output_value",
                 "bessel.inv_j1", "bessel.find_zeros", "finite.delta_margin",
                 "observability.observability_gramian",
                 "observability.determinant_identity_check", "observability.choose_radii",
                 "artifacts.write_csv", "artifacts.write_trajectory_svg",
                 "artifacts.write_summary", "config.parse_config", "cli.run_scenario",
                 "cli.analyze"):
        m[name + ".total_s"] = total(name)
    for name in ("spectral.sample_hold_feedback", "spectral.output_value", "bessel.inv_j1",
                 "finite.delta_margin", "finite.embed", "observability.observability_gramian",
                 "artifacts.write_csv", "cli.build_spectral", "cli.build_finite"):
        m[name + ".calls"] = calls(name)
    finite_rows = 0 if spectral else wl.runs
    m["sim.run_finite_batch.rows_per_call"] = ratio(finite_rows, calls("sim.run_finite_batch"))
    m["sim.us_per_run_step"] = ratio(loop + total("sim.run_finite_batch"), wl.run_steps) * 1e6
    m["linalg.expm.us_per_call"] = ratio(total("linalg.expm"), calls("linalg.expm")) * 1e6
    for part in ("propagate", "embed", "feedback"):
        m[f"spectral.interval_us.{part}"] = ratio(parts[part], intervals) * 1e6
    m["spectral.interval_us.rest"] = ratio(loop - sum(parts.values()), intervals) * 1e6
    m["bessel.bessel_j_all.calls_per_step"] = ratio(calls("bessel.bessel_j_all"), wl.run_steps)
    m["bessel.inv_j1.bessel_calls_per_call"] = ratio(trace["inv_j1_bessel_evals"],
                                                     calls("bessel.inv_j1"))
    m["artifacts.write_csv.bytes"] = csv_bytes
    m["artifacts.write_csv.mb_per_s"] = ratio(csv_bytes, total("artifacts.write_csv")) / 1e6
    m["spectral.clamp_count"] = sum(summary[f"run_{i:03d}.clamp_count"] for i in range(wl.runs))
    m["sim.dissipativity_violations"] = sum(summary[f"run_{i:03d}.dissipativity_violations"]
                                            for i in range(wl.runs))
    top = sum(end - start for name, start, end in trace["top_level"] if start >= first)
    m["trace.span_coverage"] = top / wall
    m["trace.spans"] = trace["spans"]
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    run = Run(wl, seed, trace)
    load_before = os.getloadavg()
    run.execute(seconds)
    metrics, spread = {}, {}
    untraced = [s for s in run.samples if not s["traced"]]
    traced = [s for s in run.samples if s["traced"]]
    if not trace and untraced:
        for key, unit, _better, _what in END_TO_END:
            spread[key] = [s[key] for s in untraced]
            metrics[key] = {"value": statistics.median(spread[key]), "unit": unit}
    if trace and traced and untraced:
        layers = [s["layers"] for s in traced]
        per_layer = {key: statistics.median(layer[key] for layer in layers)
                     for key in layers[0]}
        per_layer.update(run.micro())
        wall_traced = statistics.median(s["wall_s"] for s in traced)
        wall_plain = statistics.median(s["wall_s"] for s in untraced)
        per_layer["trace.overhead_s"] = wall_traced - wall_plain
        per_layer["trace.overhead_ratio"] = wall_traced / wall_plain - 1.0
        for key, unit, _b, _w in PER_LAYER:
            if key in per_layer:
                metrics[key] = {"value": per_layer[key], "unit": unit}
        missing = [key for key, *_ in PER_LAYER if key not in per_layer]
        if missing:
            run.problems.append(f"per-layer metrics not measured: {missing}")
    raw = {key: statistics.median(s["raw"][key] for s in untraced)
           for key in ("setup_s", "wall_s", "steps_per_s")} if untraced else {}
    correct = run.failed == 0 and not run.problems and bool(metrics)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "pool_indices": run.indices, "machine": machine(),
        "load_before": load_before, "load_after": os.getloadavg(),
        "digest": run.digest, "samples": run.samples, "spread": spread, "raw": raw,
        "scale": statistics.median(s["scale"] for s in run.samples) if run.samples else None,
        "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
        "metrics": metrics,
    }
    with open(os.path.join(run.dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for problem in run.problems:
        print(f"[{name}] {problem}", file=sys.stderr)
    print_table(report)
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def print_table(report: dict) -> None:
    mach = report["machine"]
    print(f"== {report['workload']} seed={report['seed']} trace={int(report['trace'])} "
          f"processes={len(report['samples'])} (+1 warm-up) | {mach['cpu_model']}, "
          f"nproc={mach['nproc']}, python {mach['python']}, numpy {mach['numpy']}, "
          f"scipy {mach['scipy']}, threads pinned to 1 | load "
          f"{report['load_before'][0]:.2f} -> {report['load_after'][0]:.2f}")
    if report["scale"] is not None:
        print(f"  times scaled to the reference speed; median scale {report['scale']:.4g}")
    for key, entry in report["metrics"].items():
        values = report["spread"].get(key)
        extra = f"  (median of {len(values)}; min {min(values):.6g}, max {max(values):.6g}" \
            + (f"; unscaled {report['raw'][key]:.6g})" if key in report["raw"] else ")") \
            if values else ""
        print(f"  {key:<48} {entry['value']:>14.6g} {entry['unit']}{extra}")
    ratio = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"  {'fail_ratio':<48} {ratio:>14.6g} ratio  "
          f"({report['failed']} failed of {report['attempted']} runs)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{key}": entry for name, r in results.items()
                             for key, entry in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
