"""Command-line front end: batch simulation, analysis reports, constants.

Subcommands:
  simulate --config <path> --out <dir> [--jobs N] [--svg]
  analyze  --config <path> --out <dir>
  zeros

Every scenario input arrives settled by config.parse_config, the
UNOBS_STAB_SEED override of the seed included.  Exit code 0 from simulate
means every run met its thresholds with no dissipativity violations.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .artifacts import svg_time_axis, time_text, write_csv, write_summary, write_trajectory_svg
from .bessel import J0_ZERO, J1_ARGMAX
from .config import ConfigError, ScenarioConfig, parse_config
from .finite import FinParams, embed as embed_fin, observability_certificate, rotation_plant
from .observability import (
    check_bound_inequalities,
    choose_radii,
    determinant_identity_check,
    max_control_bound,
    observability_gramian,
)
from .sim import IntegratorConfig, convergence_metrics, run_finite_batch, run_spectral_batch
from .spectral import WEAK_NORM_BOUND, SpectralParams, output_vector

def _ball_points(rng, count: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(size=count))
    th = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def draw_initial_conditions(cfg: ScenarioConfig):
    """The starts (x0s, xhat0s), two (runs, 2) arrays: the explicit lists if
    given, otherwise uniform draws in the configured balls (the plant's is
    init.rho), seeded by cfg.seed."""
    if cfg.x0 is not None:
        return cfg.x0, cfg.xhat0
    rng = np.random.default_rng(cfg.seed)
    radius_xh = cfg.init_radius_xhat if cfg.init_radius_xhat is not None else cfg.rho
    return (_ball_points(rng, cfg.init_count, cfg.rho),
            _ball_points(rng, cfg.init_count, radius_xh))


def build_finite(cfg: ScenarioConfig):
    return rotation_plant(), FinParams(K=cfg.K, delta=cfg.delta, alpha=cfg.alpha)


def build_spectral(cfg: ScenarioConfig):
    j = cfg.j_frac * J1_ARGMAX
    params = SpectralParams(K=cfg.K, delta=cfg.delta, alpha=cfg.alpha,
                            Delta=cfg.Delta, mu=cfg.mu, j=j, N=cfg.N)
    return cfg.output, params


def _run_batch(cfg: ScenarioConfig, x0s, xhat0s) -> list:
    """Run the starts (x0s[i], xhat0s[i]) of a scenario as one batch."""
    icfg = IntegratorConfig(method=cfg.method, step=cfg.step, horizon=cfg.horizon,
                            record_every=cfg.record_every)
    if cfg.strategy == "finite":
        plant, params = build_finite(cfg)
        return run_finite_batch(plant, params, x0s, embed_fin(xhat0s), icfg)
    spec, params = build_spectral(cfg)
    return run_spectral_batch(spec, params, x0s, xhat0s, icfg)


def run_scenario(cfg: ScenarioConfig, out_dir: str, jobs: int = 1,
                 svg: bool = False) -> int:
    """Execute all runs of a scenario, write artifacts, return the exit code
    (0 iff every run passed its thresholds with no dissipativity violations)."""
    os.makedirs(out_dir, exist_ok=True)
    x0s, xhat0s = draw_initial_conditions(cfg)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    shards = min(jobs, len(x0s), cpus or 1)
    if shards > 1:
        # contiguous shards, one batch each, at most one per usable CPU; rows
        # never mix inside a batch, so the artifacts do not depend on the count
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=shards) as pool:
            results = [traj for part in pool.map(_run_batch, [cfg] * shards,
                                                 np.array_split(x0s, shards),
                                                 np.array_split(xhat0s, shards))
                       for traj in part]
    else:
        results = _run_batch(cfg, x0s, xhat0s)

    summary: dict = {"strategy": cfg.strategy, "seed": cfg.seed, "runs": len(results)}
    all_pass = True
    # every run is recorded on a prefix of the longest run's times (one grid,
    # the same in every shard): its text is formatted once, its plot axis once
    # for the runs of its length and once for each run that ended early
    times = max((traj.times for traj in results), key=len)
    t_text = time_text(times)
    axis = svg_time_axis(times) if svg else None
    for index, traj in enumerate(results):
        name = f"run_{index:03d}"
        write_csv(os.path.join(out_dir, name + ".csv"), traj, t_text)
        if svg:
            own = axis if len(traj.times) == len(times) else svg_time_axis(traj.times)
            write_trajectory_svg(os.path.join(out_dir, name + ".svg"), traj, name, own)
        metrics = convergence_metrics(traj)
        passed = (not metrics["diverged"]
                  and metrics["dissipativity_violations"] == 0
                  and metrics["trailing_max_x"] <= cfg.trailing_x_max
                  and metrics["final_c_eps_abs"] <= cfg.final_c_eps_max)
        all_pass = all_pass and passed
        summary.update((f"{name}.{key}", value) for key, value in metrics.items())
        if traj.diverged_at is not None:
            summary[f"{name}.diverged_at"] = traj.diverged_at
        summary[f"{name}.pass"] = int(passed)
    summary["overall.pass"] = int(all_pass)
    write_summary(os.path.join(out_dir, "summary.txt"), summary)
    return 0 if all_pass else 1


def analyze(cfg: ScenarioConfig, out_dir: str) -> str:
    """Observability analysis report of the loop `simulate` runs: the
    determinant identity check, then for the finite strategy the certificate,
    for the spectral one the Gramian sweep, control bound applicability and
    parameter-budget inequalities."""
    os.makedirs(out_dir, exist_ok=True)
    report: dict = {"seed": cfg.seed}

    det = determinant_identity_check(cfg.analyze_trials, cfg.seed)
    report["det_check.trials"] = cfg.analyze_trials
    report["det_check.max_rel_err"] = det.max_rel_err
    report["det_check.singular_when_unperturbed"] = int(det.singular_when_unperturbed)

    if cfg.strategy == "finite":
        plant = rotation_plant()
        q = observability_certificate(cfg.K, plant.A, cfg.delta, cfg.alpha)
        rank = int(np.linalg.matrix_rank(q, tol=1e-10))
        report["certificate.delta"] = cfg.delta
        report["certificate.rank"] = rank
        report["certificate.full_rank"] = int(rank == q.shape[0])
        if cfg.delta == 0.0:
            report["certificate.singular"] = 1
    else:
        spec, params = build_spectral(cfg)
        # the sweep keeps every order of the output
        n_tr = min(params.N, max(12, spec.top))
        zeta = output_vector(spec, n_tr)
        for u in cfg.analyze_u_grid:
            rep = observability_gramian(float(u), 2.0 * math.pi, zeta, params.mu)
            report[f"gramian.u_{u:g}.lambda_min"] = rep.lambda_min
            report[f"gramian.u_{u:g}.lambda_max"] = rep.lambda_max

        kappa = float(np.linalg.norm(params.K))
        umax, applicable = max_control_bound(kappa, params.j, params.mu, params.delta)
        report["umax.value"] = umax
        report["umax.mu_umax"] = params.mu * umax
        report["umax.j0"] = J0_ZERO
        report["umax.applicable"] = int(applicable)

        # the budget's leading term scales with kappa and is (mu, delta, Delta)-
        # independent, so the search only closes for small gains; cap it here
        bounds = choose_radii(cfg.analyze_R0, kappa=min(kappa, 0.2), j=params.j)
        res1, res2 = check_bound_inequalities(bounds)
        report.update((f"bounds.{key}", value) for key, value in vars(bounds).items())
        report["bounds.ineq1_residual"] = res1
        report["bounds.ineq2_residual"] = res2
        report["bounds.satisfied"] = int(res1 < 0.0 and res2 < 0.0)

    path = os.path.join(out_dir, "analysis.txt")
    write_summary(path, report)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="unobs-stab",
                                     description="Output-feedback stabilization toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario batch")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.add_argument("--svg", action="store_true")

    p_an = sub.add_parser("analyze", help="observability analysis report")
    p_an.add_argument("--config", required=True)
    p_an.add_argument("--out", required=True)

    sub.add_parser("zeros", help="print j0, j1 and the weak-norm constant")

    args = parser.parse_args(argv)
    if args.command == "simulate" and args.jobs < 1:
        print(f"--jobs: expected a whole number >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.command == "zeros":
        print("j0=%.17g" % J0_ZERO)
        print("j1=%.17g" % J1_ARGMAX)
        print("nu=%.17g" % WEAK_NORM_BOUND)
        return 0

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for warning in cfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.command == "simulate":
        code = run_scenario(cfg, args.out, jobs=args.jobs, svg=args.svg)
        print(f"summary written to {os.path.join(args.out, 'summary.txt')}")
        return code
    path = analyze(cfg, args.out)
    print(f"analysis written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
