"""Output-feedback stabilization at unobservable targets.

Two strategies for plants with rotational drift and outputs that cannot
distinguish states near the target:

* a finite-dimensional loop that lifts the state to (x, |x|^2/2), runs a
  Luenberger observer with dissipative error dynamics, and perturbs the
  stabilizing feedback so the closed loop stays observable away from the
  origin (``finite``, ``sim.run_finite_batch``);
* a spectral loop that represents the state as a function on the circle,
  truncates to finitely many Fourier modes, and drives the plant with a
  sample-and-hold feedback built from an explicit left inverse of the
  representation plus a weak-norm perturbation (``spectral``,
  ``sim.run_spectral_batch``).

Both loops are vectorized over runs, and their batch drivers are the only
drivers: a single run is the one-row case.  Both step with the one
``sim.rk4_step`` where they integrate by RK4, and one loop in ``sim`` does
their shared bookkeeping: it freezes a run that leaves the valid region at
its last valid step, reporting it as diverged, counts the per-step
dissipativity violations and keeps the records.  What a scenario means (the
gain, the finite perturbation, the admissible starts) is settled once, by
``config.parse_config``.

Supporting modules: ``bessel`` (series/recurrence Bessel evaluation, its
fixed zeros as constants, the inverse of J1 on [0, j1]), ``linalg`` (matrix
exponential, Kalman stack, the quarter-turn plant's gain in closed form),
``observability`` (Gramians, determinant identity, parameter budgets),
``artifacts``/``config``/``cli`` (batch harness).
"""

from . import artifacts, bessel, config, finite, linalg, observability, sim, spectral

__all__ = [
    "artifacts",
    "bessel",
    "config",
    "finite",
    "linalg",
    "observability",
    "sim",
    "spectral",
]

__version__ = "0.1.0"
