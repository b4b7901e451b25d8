"""The benchmark's metrics and what each per-layer metric should move.

End-to-end metrics come from untraced runs (`--trace 0`), per-layer metrics
from traced runs (`--trace 1`).  `BENCHMARK.json` lists the same names, units
and directions; run.py refuses to run if the two disagree.  Each per-layer
entry ends with the interaction it is there for: which end-to-end metric it
should move, on which workload.  Nothing waits in a queue (one process, no
pool), so there are no wait metrics.
"""

HOLD, RK4, FIN = "spectral-hold", "spectral-rk4", "finite-dense"
SPECTRAL = f"{HOLD}, {RK4}"
ALL = f"{HOLD}, {RK4}, {FIN}"

# (name, unit, better, definition)
END_TO_END = [
    ("setup_s", "s", "lower",
     "process spawn to the first run_scenario/analyze call: interpreter start, "
     "numpy/scipy/package imports, parse_config (median over the run's processes)"),
    ("wall_s", "s", "lower",
     "first run_scenario/analyze call to the end of the last CLI call, artifact "
     "writing included (median over the run's processes)"),
    ("steps_per_s", "1/s", "higher",
     "run-steps (runs x integrator steps) of one simulate per second of run_scenario "
     "(median over the run's processes)"),
    ("peak_rss_mb", "MB", "lower",
     "peak resident set size of the workload process (median over the run's processes)"),
]

# (name, unit, better, moves: end-to-end metric and workloads it should move)
PER_LAYER = [
    ("sim.run_spectral_loop.calls", "count", "lower", f"steps_per_s on {SPECTRAL}"),
    ("sim.run_spectral_loop.self_s", "s", "lower", f"steps_per_s on {SPECTRAL}"),
    ("sim.rotation_step.calls", "count", "lower", f"steps_per_s on {SPECTRAL}"),
    ("sim.rotation_step.self_s", "s", "lower", f"steps_per_s on {SPECTRAL}"),
    ("sim.run_finite_batch.calls", "count", "lower", f"steps_per_s on {FIN}"),
    ("sim.run_finite_batch.self_s", "s", "lower", f"steps_per_s on {FIN}"),
    ("sim.run_finite_batch.rows_per_call", "count", "higher", f"steps_per_s on {FIN}"),
    ("sim.us_per_run_step", "us", "lower", f"steps_per_s on {ALL}"),
    ("linalg.expm.calls", "count", "lower", f"steps_per_s on {HOLD}; 0 on {RK4}, {FIN}"),
    ("linalg.expm.self_s", "s", "lower", f"steps_per_s on {HOLD}; no change elsewhere"),
    ("linalg.expm.us_per_call", "us", "lower", f"steps_per_s on {HOLD}; no change elsewhere"),
    ("spectral.embed.calls", "count", "lower", f"steps_per_s on {SPECTRAL}"),
    ("spectral.embed.self_s", "s", "lower", f"steps_per_s on {SPECTRAL}"),
    ("spectral.embed.total_s", "s", "lower", f"steps_per_s on {SPECTRAL}"),
    ("spectral.sample_hold_feedback.calls", "count", "lower", f"steps_per_s on {SPECTRAL}"),
    ("spectral.sample_hold_feedback.total_s", "s", "lower", f"steps_per_s on {SPECTRAL}"),
    ("spectral.observer_matrix.calls", "count", "lower", f"steps_per_s on {SPECTRAL}"),
    ("spectral.observer_matrix.self_s", "s", "lower", f"steps_per_s on {SPECTRAL}"),
    ("spectral.observer_matrix.total_s", "s", "lower", f"steps_per_s on {SPECTRAL}"),
    ("spectral.weak_norm.calls", "count", "lower", f"steps_per_s on {SPECTRAL}"),
    ("spectral.weak_norm.self_s", "s", "lower", f"steps_per_s on {SPECTRAL}"),
    ("spectral.weak_norm.total_s", "s", "lower", f"steps_per_s on {SPECTRAL}"),
    ("spectral.apply_generator.calls", "count", "lower", f"steps_per_s on {RK4} only"),
    ("spectral.apply_generator.self_s", "s", "lower", f"steps_per_s on {RK4} only"),
    ("spectral.apply_generator.total_s", "s", "lower", f"steps_per_s on {RK4} only"),
    ("spectral.output_value.calls", "count", "lower", f"steps_per_s on {RK4} only"),
    ("spectral.output_value.total_s", "s", "lower", f"steps_per_s on {RK4} only"),
    ("spectral.interval_us.propagate", "us", "lower", f"steps_per_s on {HOLD}"),
    ("spectral.interval_us.embed", "us", "lower", f"steps_per_s on {HOLD}"),
    ("spectral.interval_us.feedback", "us", "lower", f"steps_per_s on {HOLD}"),
    ("spectral.interval_us.rest", "us", "lower", f"steps_per_s on {HOLD}"),
    ("bessel.bessel_j_all.calls", "count", "lower", f"steps_per_s on {RK4}, then {HOLD}; 0 on {FIN}"),
    ("bessel.bessel_j_all.self_s", "s", "lower", f"steps_per_s on {RK4}, then {HOLD}"),
    ("bessel.bessel_j_all.calls_per_step", "calls/step", "lower", f"steps_per_s on {RK4}, then {HOLD}"),
    ("bessel.bessel_j.calls", "count", "lower", f"steps_per_s on {RK4}, then {HOLD}"),
    ("bessel.bessel_j.self_s", "s", "lower", f"steps_per_s on {RK4}, then {HOLD}"),
    ("bessel.inv_j1.calls", "count", "lower", f"steps_per_s on {RK4}, then {HOLD}"),
    ("bessel.inv_j1.total_s", "s", "lower", f"steps_per_s on {RK4}, then {HOLD}"),
    ("bessel.inv_j1.bessel_calls_per_call", "calls/call", "lower",
     f"steps_per_s on {RK4}, then {HOLD} (Bessel evaluations per inversion)"),
    ("bessel.find_zeros.total_s", "s", "lower", f"setup_s on {ALL}"),
    ("finite.delta_margin.calls", "count", "lower", f"setup_s and wall_s on {FIN}"),
    ("finite.delta_margin.total_s", "s", "lower", f"setup_s and wall_s on {FIN}"),
    ("finite.embed.calls", "count", "lower", f"wall_s on {FIN}"),
    ("observability.observability_gramian.calls", "count", "lower", f"wall_s on {HOLD} (analyze)"),
    ("observability.observability_gramian.total_s", "s", "lower", f"wall_s on {HOLD} (analyze)"),
    ("observability.determinant_identity_check.total_s", "s", "lower", f"wall_s on {HOLD} (analyze)"),
    ("observability.choose_radii.total_s", "s", "lower", f"wall_s on {HOLD} (analyze)"),
    ("artifacts.write_csv.calls", "count", "lower", f"wall_s on {FIN}, then {RK4}"),
    ("artifacts.write_csv.total_s", "s", "lower", f"wall_s on {FIN}, then {RK4}"),
    ("artifacts.write_csv.bytes", "B", "lower", f"wall_s on {FIN}, then {RK4}"),
    ("artifacts.write_csv.mb_per_s", "MB/s", "higher", f"wall_s on {FIN}, then {RK4}"),
    ("artifacts.write_trajectory_svg.total_s", "s", "lower", f"wall_s on {FIN}, then {RK4}"),
    ("artifacts.write_summary.total_s", "s", "lower", f"wall_s on {FIN}, then {RK4}"),
    ("config.parse_config.total_s", "s", "lower", f"setup_s on {ALL}"),
    ("cli.build_spectral.calls", "count", "lower", f"wall_s on {SPECTRAL}"),
    ("cli.build_finite.calls", "count", "lower", f"wall_s on {FIN}"),
    ("cli.run_scenario.total_s", "s", "lower", f"wall_s and steps_per_s on {ALL}"),
    ("cli.analyze.total_s", "s", "lower", f"wall_s on {HOLD}"),
    ("spectral.clamp_count", "count", "lower", "nothing: deterministic outcome, read from summary.txt"),
    ("sim.dissipativity_violations", "count", "lower",
     "nothing: deterministic outcome, read from summary.txt; must stay 0"),
    ("micro.expm49_us", "us", "lower", f"steps_per_s on {HOLD}"),
    ("micro.embed_us", "us", "lower", f"steps_per_s on {SPECTRAL}"),
    ("micro.bessel_j_all_series_us", "us", "lower", f"steps_per_s on {SPECTRAL}"),
    ("micro.bessel_j_all_miller_us", "us", "lower", "nothing at these workloads' radii (mu r < 8)"),
    ("micro.sample_hold_feedback_us", "us", "lower", f"steps_per_s on {HOLD}"),
    ("micro.finite_step20_us", "us", "lower", f"steps_per_s on {FIN} once the CLI batches runs"),
    ("trace.overhead_s", "s", "lower", "nothing: traced minus untraced wall_s in the same run"),
    ("trace.overhead_ratio", "ratio", "lower", "nothing: trace.overhead_s over untraced wall_s"),
    ("trace.span_coverage", "ratio", "higher", "nothing: top-level span time over wall_s"),
    ("trace.spans", "count", "lower", "nothing: spans recorded by one traced process"),
]
