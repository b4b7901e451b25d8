"""The benchmark's workloads, their seeded inputs and the reference outcomes.

Each workload is a fixed scenario file (the body below) plus initial
conditions that the benchmark draws from the workload's pool in
`reference.json`: a seed picks `runs` distinct pool entries, in order, and
writes them as explicit `init.x0`/`init.xhat0` lists.  The pool entries were
drawn uniformly from the workload's ball, and `reference.json` also holds each
entry's outcome as the CLI computed it when the benchmark was defined, so a
run can be checked against it (`make_reference.py` regenerates the file).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# compared against the reference within REL_TOL * max(1, |ref|)
CHECKED_KEYS = ("trailing_max_x", "final_eps_norm", "final_c_eps_abs", "final_weak_eps")
REL_TOL = 1e-8

_SPECTRAL_BODY = """\
strategy = spectral
params.K = 1.0, -2.0
params.alpha = 1.0
params.delta = 0.003125
params.Delta = 0.03125
params.mu = 0.1
params.N = 24
"""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario run through the CLI.

    commands: CLI subcommands run, in order, in one process;
    runs: closed-loop runs per `simulate`; pool: size of the initial-condition
    pool; radius: radius of the ball the pool was drawn from (x0 and xhat0);
    period: the spectral sample-and-hold period (None for finite).
    """

    name: str
    why: str
    body: str
    commands: tuple
    svg: bool
    runs: int
    pool: int
    radius: float
    horizon: float
    step: float
    period: float | None

    @property
    def run_steps(self) -> int:
        """Integrator steps of one `simulate`, summed over its runs."""
        return self.runs * int(round(self.horizon / self.step))

    @property
    def settings(self) -> str:
        """The scenario file without its initial conditions."""
        return self.body + f"integrator.horizon = {self.horizon!r}\n"

    def scenario(self, points) -> str:
        """Scenario file with the given (x0, xhat0) pairs as explicit lists."""
        x0 = ", ".join(repr(v) for p in points for v in p[0])
        xh = ", ".join(repr(v) for p in points for v in p[1])
        return self.settings + f"init.x0 = {x0}\ninit.xhat0 = {xh}\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="spectral-hold",
        why=("sample-and-hold spectral loop with exact per-interval expm, Bessel-heavy "
             "embed and inv_j1 feedback, plus analyze: where structured or batched "
             "spectral propagation shows"),
        body=_SPECTRAL_BODY + """\
output.kind = norm_sq
integrator.method = exact_linear
integrator.step = 0.03125
integrator.record_every = 32
""",
        commands=("analyze", "simulate"), svg=False,
        runs=10, pool=40, radius=1.0, horizon=6.0, step=0.03125, period=0.03125),
    Workload(
        name="spectral-rk4",
        why=("RK4-coupled spectral loop with the non-radial j2_cos2theta output: no expm, "
             "embed every substep and scalar bessel_j at every stage, recorded every step"),
        body=_SPECTRAL_BODY + """\
output.kind = j2_cos2theta
integrator.method = rk4_coupled
integrator.step = 0.00390625
integrator.record_every = 1
""",
        commands=("simulate",), svg=True,
        runs=4, pool=24, radius=1.0, horizon=4.0, step=0.00390625, period=0.03125),
    Workload(
        name="finite-dense",
        why=("finite-embedding RK4 loop, 20 single-run batches recorded every step with "
             "SVGs: numpy call overhead and the CSV write path, no Bessel/expm/spectral work"),
        body="""\
strategy = finite
init.rho = 3.0
params.poles = -1.0, -2.0
params.alpha = 10.0
params.delta_frac = 0.5
integrator.step = 0.002
integrator.record_every = 1
""",
        commands=("simulate",), svg=True,
        runs=20, pool=60, radius=3.0, horizon=1.0, step=0.002, period=None),
)}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def read_summary(path: str) -> dict:
    """summary.txt as a key -> number mapping."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("=")
            try:
                out[key] = int(value)
            except ValueError:
                try:
                    out[key] = float(value)
                except ValueError:
                    out[key] = value
    return out


def select_inputs(workload: Workload, reference: dict, seed: int):
    """The seed's inputs: pool indices and their (x0, xhat0) pairs."""
    ref = reference[workload.name]
    if ref["settings"] != workload.settings or len(ref["pool"]) != workload.pool:
        raise ValueError(f"{workload.name}: reference.json was made for other settings; "
                         "run make_reference.py")
    entries = ref["pool"]
    indices = random.Random(seed).sample(range(workload.pool), workload.runs)
    return indices, [(entries[i]["x0"], entries[i]["xhat0"]) for i in indices]
