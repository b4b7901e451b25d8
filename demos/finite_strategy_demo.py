"""Embedded-observer loop on the quarter-turn plant with quadratic output.

The plant x' = A x + b u rotates and only |x|^2 / 2 is measured, so the
target is indistinguishable from nearby circles when the input is zero.
The loop lifts the state to (x, |x|^2/2), runs a Luenberger observer whose
error norm can only decrease, and perturbs the stabilizing feedback by a
small multiple of the estimated output coordinate.  This script runs one
generic initial condition, prints the convergence report, and writes an SVG
of |x(t)| and the estimation-error norm next to this file.
"""

import os

import numpy as np

from unobs_stab.artifacts import svg_time_axis, write_trajectory_svg
from unobs_stab.finite import FinParams, delta_margin, embed, rotation_plant
from unobs_stab.linalg import place_poles
from unobs_stab.sim import IntegratorConfig, convergence_metrics, run_finite_batch

plant = rotation_plant()
gain = place_poles(plant.A, plant.b, [-1.0, -2.0])
rho = 3.0
delta = 0.5 * delta_margin(gain, rho, plant)
print(f"gain K = {gain}, perturbation delta = {delta:.4f} (half the rho={rho} budget)")

params = FinParams(K=gain, delta=delta, alpha=10.0)
x0 = np.array([2.0, -1.0])
xhat0 = np.array([-1.5, 0.5])

traj = run_finite_batch(plant, params, x0, embed(xhat0),
                        IntegratorConfig(step=1e-3, horizon=100.0, record_every=20))[0]

for key, value in convergence_metrics(traj).items():
    print(f"{key} = {value}")

out = os.path.join(os.path.dirname(__file__), "finite_strategy_demo.svg")
write_trajectory_svg(out, traj, "embedded-observer loop", svg_time_axis(traj.times))
print(f"plot written to {out}")
print("note: |x| keeps shrinking only through quadratic coupling terms, so the"
      " tail decay is slow (no exponential margin at the unobservable target).")
