"""One benchmark process, started fresh by run.py for every repetition.

  python3 child.py SPEC.json      run the CLI calls listed in the spec
  python3 child.py --micro OUT.json   fixed-input micro timings

SPEC.json holds `src` (the package's source directory), `argv` (one argument
list per `unobs_stab.cli.main` call), `trace` (wrap every public function of
the package), `spans` (where to write the spans, or null) and `result` (where
to write this process's JSON result).  The process records when the first
`run_scenario`/`analyze` call starts, the duration of each, when the last CLI
call ends and its own peak resident memory.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time


def _probe(calls: list, first: list, name: str, fn):
    """Time each call of fn; stamp the first call on the cross-process clock."""

    def probed(*args, **kwargs):
        if not first:
            first.append(time.clock_gettime(time.CLOCK_MONOTONIC))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            calls.append((name, start, time.perf_counter()))

    return probed


def run_cli(spec: dict) -> dict:
    import unobs_stab
    from unobs_stab import cli

    where = os.path.realpath(unobs_stab.__file__)
    if not where.startswith(os.path.realpath(spec["src"]) + os.sep):
        raise RuntimeError(f"imported unobs_stab from {where}, not from {spec['src']}")
    main = cli.main
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name.startswith("unobs_stab.") and mod is not None]
        tracer = Tracer()
        tracer.install(modules, skip=(main,))
    calls: list = []
    first: list = []
    cli.run_scenario = _probe(calls, first, "run_scenario", cli.run_scenario)
    cli.analyze = _probe(calls, first, "analyze", cli.analyze)

    codes = [main(list(argv)) for argv in spec["argv"]]
    end = time.perf_counter()
    result = {
        "codes": codes,
        "first_call_mono": first[0] if first else None,
        "calls": calls,
        "end": end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        from tracer import summarize, write_spans

        result["trace"] = summarize(tracer.spans)
        if spec.get("spans"):
            write_spans(spec["spans"], tracer.spans)
    return result


def _per_call_us(fn, units: int, batches: int = 15, batch_s: float = 0.02) -> float:
    """Median over batches of the time per call, in microseconds per unit."""
    fn()
    count = 1
    while True:
        start = time.perf_counter()
        for _ in range(count):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= batch_s:
            break
        count *= 2
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(count):
            fn()
        samples.append((time.perf_counter() - start) / count)
    return statistics.median(samples) * 1e6 / units


def micro() -> dict:
    """Per-call timings of single layers on fixed inputs."""
    from unobs_stab import bessel, finite, linalg, sim, spectral

    mu, n = 0.1, 24
    zeta = spectral.embedded_target(n)
    observer = spectral.observer_matrix(0.3, mu, 1.0, zeta)
    params = spectral.SpectralParams(K=[1.0, -2.0], delta=0.003125, alpha=1.0,
                                     Delta=0.03125, mu=mu, j=spectral.default_j(), N=n)
    x = [0.6, -0.3]
    zhat = spectral.embed(x, mu, n)
    plant = finite.rotation_plant()
    gain = linalg.place_poles(plant.A, plant.b, [-1.0, -2.0])
    fin = finite.FinParams(K=gain, delta=0.5 * finite.delta_margin(gain, 3.0, plant),
                           alpha=10.0)
    pts = [(0.1 * k - 1.0, 0.5 - 0.05 * k) for k in range(20)]
    x0s = [[a, b] for a, b in pts]
    zhat0s = [finite.embed([b, a]) for a, b in pts]
    steps = 250
    icfg = sim.IntegratorConfig(step=0.002, horizon=0.002 * steps)
    cases = {
        "micro.expm49_us": (lambda: linalg.expm(observer, 0.03125), 1),
        "micro.embed_us": (lambda: spectral.embed(x, mu, n), 1),
        "micro.bessel_j_all_series_us": (lambda: bessel.bessel_j_all(n, 0.06), 1),
        "micro.bessel_j_all_miller_us": (lambda: bessel.bessel_j_all(n, 20.0), 1),
        "micro.sample_hold_feedback_us": (lambda: spectral.sample_hold_feedback(zhat, params), 1),
        "micro.finite_step20_us": (lambda: sim.run_finite_batch(plant, fin, x0s, zhat0s, icfg),
                                   steps),
    }
    return {name: _per_call_us(fn, units) for name, (fn, units) in cases.items()}


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "--micro":
        out, result = argv[1], micro()
    elif len(argv) == 1:
        with open(argv[0], encoding="utf-8") as fh:
            spec = json.load(fh)
        out, result = spec["result"], run_cli(spec)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
