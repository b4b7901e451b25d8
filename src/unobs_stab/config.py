"""Flat key=value scenario configuration.

One `key = value` pair per line, `#` starts a comment, sections are expressed
by key prefixes (params., init., integrator., ...).  Each `ScenarioConfig`
field a key sets names that key, the kind its text is read as and the strategy
that reads it, and its default is the key's default; `_KEYS` is read off the
fields.  Parsing validates everything it can and reports every violation at
once, each named by the offending key; a key the scenario's strategy does not
read is one.  It also settles what every command then reads as given: the
seed, with the UNOBS_STAB_SEED override applied; the gain K; for the finite
strategy the perturbation delta; and for the spectral strategy the output as
a spectral.OutputSpec.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .bessel import J1_ARGMAX
from .finite import delta_margin, rotation_plant
from .linalg import place_poles
from .observability import GRAMIAN_STEPS
from .sim import DIVERGENCE_NORM, METHODS, VALID_MU_R, hold_grid
from .spectral import (BESSEL_SERIES, J_FRAC, KINDS, WEAK_NORM_BOUND, OutputSpec, taylor_plan,
                       truncation_tail_bound)

STRATEGIES = ("finite", "spectral")
SEED_ENV = "UNOBS_STAB_SEED"  # a non-negative integer here overrides the seed
# work caps: steps of all runs, floats their records hold (1 GiB), Taylor sub-steps
MAX_RUN_STEPS, MAX_RECORDED, MAX_SUBSTEPS = 10 ** 8, 2 ** 27, 1000


class ConfigError(ValueError):
    """Carries the full list of validation problems for a config file."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid configuration:\n" + "\n".join("  - " + p for p in problems))
        self.problems = problems


def read_key_values(path: str) -> dict:
    """Raw key -> value text mapping; duplicate keys are an error."""
    problems = []
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                problems.append(f"line {lineno}: expected 'key = value', got {line!r}")
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                problems.append(f"{key}: duplicated key (line {lineno})")
                continue
            out[key] = value.strip()
    if problems:
        raise ConfigError(problems)
    return out


def _key(key: str, kind: str, reader: str | None = None, default=None):
    """The ScenarioConfig field `key` sets, naming the kind `_typed` reads its text
    as and the one strategy that reads it (None: both; the other rejects it)."""
    meta = {"key": key, "kind": kind, "reader": reader}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ScenarioConfig:
    """Validated scenario description for the CLI drivers, one field per key.
    After parsing, seed, K, delta (finite) and output (spectral) are what every
    command uses."""

    strategy: str | None = _key("strategy", "word")
    seed: int = _key("seed", "natural", default=0)
    # initial conditions: explicit (k, 2) point lists, or seeded draws in balls
    x0: np.ndarray | None = _key("init.x0", "points")
    xhat0: np.ndarray | None = _key("init.xhat0", "points")
    init_count: int = _key("init.count", "count", default=1)
    init_radius_xhat: float | None = _key("init.radius_xhat", "positive")
    rho: float | None = _key("init.rho", "positive")
    # gains: K as given, placed at the poles, or the strategy's default
    K: np.ndarray | None = _key("params.K", "pair")
    poles: list | None = _key("params.poles", "pair")
    alpha: float = _key("params.alpha", "positive", default=10.0)
    delta: float | None = _key("params.delta", "positive")
    delta_frac: float | None = _key("params.delta_frac", "positive", "finite")
    Delta: float | None = _key("params.Delta", "real", "spectral")
    mu: float | None = _key("params.mu", "positive", "spectral")
    j_frac: float = _key("params.j_frac", "positive", "spectral", default=J_FRAC)
    N: int = _key("params.N", "count", "spectral", default=24)
    # output map (spectral); output is set by parsing from the output keys
    output_kind: str | None = _key("output.kind", "word", "spectral")
    output_orders: list | None = _key("output.orders", "ints", "spectral")
    output_coeffs_re: list | None = _key("output.coeffs_re", "reals", "spectral")
    output_coeffs_im: list | None = _key("output.coeffs_im", "reals", "spectral")
    output: OutputSpec | None = None
    # integrator
    method: str = _key("integrator.method", "word", default="rk4_coupled")
    step: float = _key("integrator.step", "positive", default=1e-3)
    horizon: float = _key("integrator.horizon", "positive", default=10.0)
    record_every: int = _key("integrator.record_every", "count", default=1)
    # pass/fail thresholds for the batch driver
    trailing_x_max: float = _key("thresholds.trailing_x_max", "positive", default=math.inf)
    final_c_eps_max: float = _key("thresholds.final_c_eps_max", "positive", default=math.inf)
    # analysis settings
    analyze_trials: int = _key("analyze.trials", "count", default=100)
    analyze_u_grid: list = _key("analyze.u_grid", "reals", "spectral",
                                default=[0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    analyze_R0: float = _key("analyze.R0", "positive", "spectral", default=1.0)
    warnings: list = field(default_factory=list)


_KEYS = {f.metadata["key"]: (f.name, f.metadata["kind"], f.metadata["reader"])
         for f in fields(ScenarioConfig) if f.metadata}


def _typed(key: str, kind: str, text: str):
    """The value of `key` read from its text as `kind`, or a ValueError naming the key.

    word: the text; natural: a non-negative int; count: a positive int; real;
    positive: a positive real; reals, ints: comma-separated lists, a single number
    being a one-element list; pair: two reals; points: a flat list of planar points,
    returned as a (k, 2) array.  Every number must be finite.
    """
    if kind == "word":
        return text
    integer = kind in ("natural", "count")
    scalar = integer or kind in ("real", "positive")
    try:
        items = ([int(text) if integer else float(text)] if scalar
                 else [float(p) for p in text.split(",") if p.strip()])
    except ValueError:
        what = "an integer" if integer else "a number" if scalar else "a list of numbers"
        raise ValueError(f"{key}: expected {what}, got {text!r}") from None
    if not all(map(math.isfinite, items)):
        raise ValueError(f"{key}: must be finite, got {text!r}")
    if scalar:
        value = items[0]
        if kind in ("count", "positive") and not value > 0:
            raise ValueError(f"{key}: must be positive, got {value}")
        if kind == "natural" and value < 0:
            raise ValueError(f"{key}: must be non-negative, got {value}")
        return value
    if kind == "points" and (len(items) % 2 != 0 or not items):
        raise ValueError(f"{key}: expected a flat list of planar points "
                         f"(length a positive multiple of 2), got {len(items)} values")
    if not items:
        raise ValueError(f"{key}: expected a list of numbers, got {text!r}")
    if kind == "ints" and not all(v.is_integer() for v in items):
        raise ValueError(f"{key}: expected a list of integers, got {text!r}")
    if kind == "pair" and len(items) != 2:
        raise ValueError(f"{key}: expected 2 numbers, got {len(items)}")
    if kind == "points":
        return np.asarray(items).reshape(-1, 2)
    return [int(v) for v in items] if kind == "ints" else items


def parse_config(path: str) -> ScenarioConfig:
    """Load and fully validate a scenario file; raises ConfigError with every
    problem found, or returns the config (possibly with non-fatal warnings
    attached) with seed, K, delta (finite) and output (spectral) settled."""
    raw = read_key_values(path)
    strategy = raw.get("strategy")
    problems = [f"{key}: unknown key" for key in raw if key not in _KEYS]
    warnings: list[str] = []
    cfg = ScenarioConfig()
    for key, (attr, kind, reader) in _KEYS.items():
        if key not in raw:
            continue
        if strategy in STRATEGIES and reader not in (None, strategy):
            problems.append(f"{key}: read only by the {reader} strategy, not by {strategy}")
            continue
        try:
            setattr(cfg, attr, _typed(key, kind, raw[key]))
        except ValueError as exc:
            problems.append(str(exc))
    if env := os.environ.get(SEED_ENV):
        if env.strip().isdecimal():
            cfg.seed = int(env)
        else:
            problems.append(f"{SEED_ENV}: expected a non-negative integer, got {env!r}")

    if strategy not in STRATEGIES:
        problems.append(f"strategy: must be 'finite' or 'spectral', got {strategy!r}")
    # a key given but rejected has its own problem already: a follow-on
    # problem names a key only when the file does not give it
    if ("init.x0" in raw) != ("init.xhat0" in raw):
        problems.append("init.x0/init.xhat0: give both or neither")
    elif cfg.x0 is not None and cfg.xhat0 is not None and cfg.x0.shape != cfg.xhat0.shape:
        problems.append("init.x0/init.xhat0: point counts differ")
    if "init.x0" not in raw and "init.rho" not in raw:
        problems.append("init.rho: required when init.x0 is not given")
    if cfg.poles is not None and any(p >= 0 for p in cfg.poles):
        problems.append("params.poles: all poles must have negative real part")
    if not cfg.j_frac < 1.0:
        problems.append(f"params.j_frac: must lie in (0, 1), got {cfg.j_frac}")

    grid = None  # the time grid's period and its key, once both are known valid
    held_load = None  # exact_linear's rank-one load, checked once K is settled
    if strategy == "spectral":
        orders, re_part, im_part = cfg.output_orders, cfg.output_coeffs_re, cfg.output_coeffs_im
        coeffs = None
        if cfg.output_kind not in KINDS:
            problems.append(f"output.kind: must be one of {KINDS}, got {cfg.output_kind!r}")
        elif cfg.output_kind != BESSEL_SERIES:
            coeffs = {}
        elif orders is None or re_part is None:
            if "output.orders" not in raw or "output.coeffs_re" not in raw:
                problems.append("output.orders/output.coeffs_re: required for bessel_series")
        elif not len(orders) == len(re_part) == len(im_part or re_part):
            problems.append("output.orders: lengths of orders/coeffs_re/coeffs_im differ")
        else:
            coeffs = {k: complex(a, b) for k, a, b in
                      zip(orders, re_part, im_part or [0.0] * len(re_part))}
        if coeffs is not None:
            try:
                cfg.output = OutputSpec(cfg.output_kind, coeffs)
            except ValueError as exc:  # a bessel_series with no nonzero coefficient
                problems.append(f"output.coeffs_re: {exc}")
        if cfg.output is not None and cfg.output.top > cfg.N:
            problems.append(f"{'output.orders' if coeffs else 'params.N'}: {cfg.output_kind} "
                            f"has largest order {cfg.output.top}, above params.N = {cfg.N}")
        if "params.mu" not in raw:
            problems.append("params.mu: required for the spectral strategy")
        if "params.Delta" not in raw:
            problems.append("params.Delta: required for the spectral strategy")
        elif cfg.Delta is not None and not 0.0 < cfg.Delta < math.pi:
            problems.append(f"params.Delta: Delta must lie in (0, pi), got {cfg.Delta}")
        elif cfg.Delta is not None:
            grid = (cfg.Delta, "params.Delta")
        if "params.delta" not in raw:
            problems.append("params.delta: required for the spectral strategy")
        # every start must stay inside the region where the embedding can be
        # evaluated: explicit points one by one, drawn ones by their balls
        for key, points in (("init.x0", cfg.x0), ("init.xhat0", cfg.xhat0)):
            if points is not None and cfg.mu is not None \
                    and (arg := cfg.mu * np.hypot(*points.T).max()) >= VALID_MU_R:
                problems.append(f"{key}: mu |p| = {arg!r} at its farthest point must stay "
                                f"below the valid-region limit {VALID_MU_R!r}")
        balls = [(r, key) for key, r in (("init.rho", cfg.rho),
                                         ("init.radius_xhat", cfg.init_radius_xhat))
                 if r is not None]
        if cfg.x0 is None and cfg.mu is not None and balls:
            radius, key = max(balls)
            arg = cfg.mu * radius
            if arg >= VALID_MU_R:
                problems.append(f"params.mu/{key}: mu * {key} = {arg!r} must stay below "
                                f"the valid-region limit {VALID_MU_R!r}")
            elif (tail := truncation_tail_bound(arg, cfg.N)) > 1e-12:
                warnings.append(f"params.N: truncation tail bound {tail:.3g} > 1e-12 at "
                                f"mu * {key} = {arg:g}; the drawn starts embed inexactly")
        if cfg.mu is not None and cfg.output is not None and cfg.output.top <= cfg.N:
            # the propagator's sub-steps in analyze's Gramian steps (one period 2 pi)
            # at the sweep's largest |u|, and in exact_linear's steps at u = 0 and up;
            # ||zeta||^2 = sum |c_k|^2, as |zeta_k| = |c_k|, so nothing of size N is built
            sq_norm = sum(c.real ** 2 + c.imag ** 2 for c in cfg.output.coeffs.values())
            loads = [("analyze.u_grid", 2.0 * math.pi / GRAMIAN_STEPS,
                      max(map(abs, cfg.analyze_u_grid)), 0.0)]
            if cfg.method == "exact_linear":
                loads.append(("params.alpha", cfg.step, 0.0, cfg.alpha))
                held_load = cfg.alpha * sq_norm
            for key, h, u, alpha in loads:
                if (subs := taylor_plan(cfg.N, cfg.mu, alpha * sq_norm, h, u)[0]) > MAX_SUBSTEPS:
                    problems.append(f"{key}: {subs:.3g} Taylor sub-steps per step of {h:g}, "
                                    f"above the cap {MAX_SUBSTEPS}")

    if cfg.method not in METHODS:
        problems.append(f"integrator.method: unknown method {cfg.method!r}")
    if strategy == "finite":
        if cfg.method == "exact_linear":
            problems.append("integrator.method: exact_linear applies to the spectral strategy only")
        if "params.delta" not in raw and "params.delta_frac" not in raw:
            problems.append("params.delta: give params.delta or params.delta_frac")
        elif "params.delta" not in raw and "init.rho" not in raw:
            problems.append("params.delta_frac: needs init.rho, the ball delta_margin certifies")
        grid = (cfg.step, "integrator.step")
        # every start must enter the loop inside its bounded region: |x| and
        # |zhat| = |(xhat, |xhat|^2 / 2)| within DIVERGENCE_NORM, explicit points
        # at their farthest, drawn ones at their balls' radii (one ball for
        # both: its lift is the larger norm)
        if cfg.x0 is not None:
            starts = [("init.x0", cfg.x0, False), ("init.xhat0", cfg.xhat0, True)]
        elif cfg.init_radius_xhat is not None:
            starts = [("init.rho", cfg.rho, False), ("init.radius_xhat", cfg.init_radius_xhat, True)]
        else:
            starts = [("init.rho", cfg.rho, True)]
        for key, start, lifted in starts:
            if start is None:
                continue
            r = float(np.hypot(*start.T).max()) if isinstance(start, np.ndarray) else start
            if (norm := math.hypot(r, r * r / 2.0) if lifted else r) > DIVERGENCE_NORM:
                problems.append(f"{key}: {'|(p, |p|^2 / 2)|' if lifted else '|p|'} = {norm!r} "
                                f"at its farthest point must stay within the divergence "
                                f"bound {DIVERGENCE_NORM!r}")
    if grid is not None:
        period, unit = grid
        n_sub, n_per = hold_grid(period, cfg.step, cfg.horizon)
        if n_sub < 1:
            problems.append(f"integrator.step: {cfg.step:g} must divide {unit} = {period:g}")
        if n_per < 1:
            problems.append(f"integrator.horizon: {cfg.horizon:g} must be a whole multiple "
                            f"of {unit} = {period:g}")
        elif n_sub * n_per % cfg.record_every:
            # the records would end short of the horizon
            problems.append(f"integrator.record_every: {cfg.record_every} must divide the "
                            f"{n_sub * n_per} integrator steps to the horizon")
        else:  # a record holds x, zhat (2N+1 complex or n+1 real) and the scalars
            runs = len(cfg.x0) if cfg.x0 is not None else cfg.init_count
            width = 4 * cfg.N + 8 if strategy == "spectral" else 8
            steps, records = runs * n_sub * n_per, runs * (n_sub * n_per // cfg.record_every + 1)
            if steps > MAX_RUN_STEPS or records * width > MAX_RECORDED:
                problems.append(f"integrator.horizon: {steps} steps and {records * width} "
                                f"recorded floats, caps {MAX_RUN_STEPS} and {MAX_RECORDED}")

    if problems:
        raise ConfigError(problems)

    if cfg.K is None and cfg.poles is None:  # the strategy's default gain
        if strategy == "finite":
            cfg.poles = [-1.0, -2.0]
        else:
            cfg.K = [1.0, -2.0]
    plant = rotation_plant()
    cfg.K = np.asarray(cfg.K if cfg.K is not None else place_poles(plant.A, plant.b, cfg.poles),
                       dtype=float)
    if strategy == "finite" and cfg.rho is not None:
        try:
            margin = delta_margin(cfg.K, cfg.rho, plant)
        except ValueError as exc:
            raise ConfigError([f"params.K: {exc}"]) from None
        key = "params.delta" if cfg.delta is not None else "params.delta_frac"
        if cfg.delta is None:
            cfg.delta = cfg.delta_frac * margin
        if not math.isfinite(cfg.delta):
            raise ConfigError([f"{key}: delta = {cfg.delta!r} is not finite (delta_margin "
                               f"{margin!r} for init.rho = {cfg.rho!r})"])
        if cfg.delta >= margin:
            warnings.append(
                f"{key}: delta={cfg.delta:.6g} >= delta_margin={margin:.6g} for radius "
                f"{cfg.rho:g}; the perturbed feedback's basin is no longer guaranteed")
    if held_load is not None:
        # exact_linear's sub-steps at the loop's largest held |u|: |K xhat| is
        # at most |K| j1/mu, the left inverse clamping |xhat| at j1/mu, and the
        # weak-norm term delta weak_norm(zhat - target)^2 is taken at 16 nu^2
        # delta, the bound weak_norm <= nu max_k |z_k| at coefficients of 4
        u_top = (math.hypot(*cfg.K) * J1_ARGMAX / cfg.mu
                 + 16.0 * WEAK_NORM_BOUND ** 2 * cfg.delta)
        subs = (taylor_plan(cfg.N, cfg.mu, held_load, cfg.step, u_top)[0]
                if math.isfinite(u_top) else math.inf)
        if subs > MAX_SUBSTEPS:
            raise ConfigError([f"params.K/params.delta: {subs:.3g} Taylor sub-steps per step "
                               f"of {cfg.step:g} at the largest held |u| = {u_top:.3g} "
                               f"(|K| j1/mu + 16 nu^2 delta), above the cap {MAX_SUBSTEPS}"])
    cfg.warnings = warnings
    return cfg
