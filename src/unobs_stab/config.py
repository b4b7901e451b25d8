"""Flat key=value scenario configuration.

One `key = value` pair per line, `#` starts a comment, sections are expressed
by key prefixes (params., init., integrator., ...).  `_KEYS` names every key
with the `ScenarioConfig` field it sets and its kind; a key's default is its
field's default.  Parsing validates everything it can and reports every
violation at once, each named by the offending key.  It also settles what
every command then reads as given: the seed, with the UNOBS_STAB_SEED
override applied; the gain K; for the finite strategy the perturbation
delta; and for the spectral strategy the output as a spectral.OutputSpec.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .finite import delta_margin, rotation_plant
from .linalg import place_poles
from .sim import METHODS, VALID_MU_R, hold_grid
from .spectral import BESSEL_SERIES, KINDS, OutputSpec, truncation_tail_bound

_INT_RE = re.compile(r"^[+-]?\d+$")
SEED_ENV = "UNOBS_STAB_SEED"  # a non-negative integer here overrides the seed


class ConfigError(ValueError):
    """Carries the full list of validation problems for a config file."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid configuration:\n" + "\n".join("  - " + p for p in problems))
        self.problems = problems


def _parse_value(text: str):
    text = text.strip()
    if "," in text:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def read_key_values(path: str) -> dict:
    """Raw key -> typed value mapping; duplicate keys are an error."""
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
            try:
                out[key] = _parse_value(value)
            except ValueError:
                problems.append(f"{key}: cannot parse value {value.strip()!r}")
    if problems:
        raise ConfigError(problems)
    return out


@dataclass
class ScenarioConfig:
    """Validated scenario description for the CLI drivers.  After parsing,
    seed, K, delta (finite) and output (spectral) are what every command uses."""

    strategy: str | None = None
    seed: int = 0
    # initial conditions: explicit (k, 2) point lists, or seeded draws in balls
    x0: np.ndarray | None = None
    xhat0: np.ndarray | None = None
    init_count: int = 1
    init_radius_x: float | None = None
    init_radius_xhat: float | None = None
    rho: float | None = None
    # gains: K as given, placed at the poles, or the strategy's default
    K: np.ndarray | None = None
    poles: list | None = None
    alpha: float = 10.0
    delta: float | None = None
    delta_frac: float | None = None
    Delta: float | None = None
    mu: float | None = None
    j_frac: float = 0.9
    N: int = 24
    # output map (spectral); output is set by parsing from the output keys
    output_kind: str | None = None
    output_orders: list | None = None
    output_coeffs_re: list | None = None
    output_coeffs_im: list | None = None
    output: OutputSpec | None = None
    # integrator
    method: str = "rk4_coupled"
    step: float = 1e-3
    horizon: float = 10.0
    record_every: int = 1
    # pass/fail thresholds for the batch driver
    trailing_x_max: float = math.inf
    final_c_eps_max: float = math.inf
    # analysis settings
    analyze_trials: int = 100
    analyze_u_grid: list = field(default_factory=lambda: [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    analyze_R0: float = 1.0
    warnings: list = field(default_factory=list)


# every key: the ScenarioConfig field it sets and the kind `_typed` reads it as
_KEYS = {
    "strategy": ("strategy", "word"),
    "seed": ("seed", "natural"),
    "init.x0": ("x0", "points"),
    "init.xhat0": ("xhat0", "points"),
    "init.count": ("init_count", "count"),
    "init.radius_x": ("init_radius_x", "positive"),
    "init.radius_xhat": ("init_radius_xhat", "positive"),
    "init.rho": ("rho", "positive"),
    "params.K": ("K", "pair"),
    "params.poles": ("poles", "pair"),
    "params.alpha": ("alpha", "positive"),
    "params.delta": ("delta", "positive"),
    "params.delta_frac": ("delta_frac", "positive"),
    "params.Delta": ("Delta", "real"),
    "params.mu": ("mu", "positive"),
    "params.j_frac": ("j_frac", "positive"),
    "params.N": ("N", "count"),
    "output.kind": ("output_kind", "word"),
    "output.orders": ("output_orders", "ints"),
    "output.coeffs_re": ("output_coeffs_re", "reals"),
    "output.coeffs_im": ("output_coeffs_im", "reals"),
    "integrator.method": ("method", "word"),
    "integrator.step": ("step", "positive"),
    "integrator.horizon": ("horizon", "positive"),
    "integrator.record_every": ("record_every", "count"),
    "thresholds.trailing_x_max": ("trailing_x_max", "positive"),
    "thresholds.final_c_eps_max": ("final_c_eps_max", "positive"),
    "analyze.trials": ("analyze_trials", "count"),
    "analyze.u_grid": ("analyze_u_grid", "reals"),
    "analyze.R0": ("analyze_R0", "positive"),
}


def _typed(key: str, kind: str, value):
    """The value of `key` read as `kind`, or a ValueError naming the key.

    word: as written; natural: a non-negative int; count: a positive int; real;
    positive: a positive real; reals, ints: lists; pair: two reals; points: a flat list of
    planar points, returned as a (k, 2) array.  Every number must be finite.
    """
    if kind == "word":
        return value
    items = value if isinstance(value, list) else [value]
    if any(isinstance(v, float) and not math.isfinite(v) for v in items):
        raise ValueError(f"{key}: must be finite, got {value!r}")
    if kind in ("reals", "ints", "pair", "points"):
        if kind == "points" and (len(items) % 2 != 0 or not items):
            raise ValueError(f"{key}: expected a flat list of planar points "
                             f"(length a positive multiple of 2), got {len(items)} values")
        if not items or any(isinstance(v, str) for v in items):
            raise ValueError(f"{key}: expected a list of numbers, got {value!r}")
        if kind == "ints" and not all(float(v).is_integer() for v in items):
            raise ValueError(f"{key}: expected a list of integers, got {value!r}")
        if kind == "pair" and len(items) != 2:
            raise ValueError(f"{key}: expected 2 numbers, got {len(items)}")
        if kind == "points":
            return np.asarray(items, dtype=float).reshape(-1, 2)
        return [int(v) if kind == "ints" else float(v) for v in items]
    if isinstance(value, (list, str)):
        raise ValueError(f"{key}: expected a number, got {value!r}")
    integer = kind in ("natural", "count")
    if integer and not isinstance(value, int):
        raise ValueError(f"{key}: expected an integer, got {value!r}")
    value = value if integer else float(value)
    if kind in ("count", "positive") and not value > 0:
        raise ValueError(f"{key}: must be positive, got {value}")
    if kind == "natural" and value < 0:
        raise ValueError(f"{key}: must be non-negative, got {value}")
    return value


def parse_config(path: str) -> ScenarioConfig:
    """Load and fully validate a scenario file; raises ConfigError with every
    problem found, or returns the config (possibly with non-fatal warnings
    attached) with seed, K, delta (finite) and output (spectral) settled."""
    raw = read_key_values(path)
    problems = [f"{key}: unknown key" for key in raw if key not in _KEYS]
    warnings: list[str] = []
    cfg = ScenarioConfig()
    for key, (attr, kind) in _KEYS.items():
        if key in raw:
            try:
                setattr(cfg, attr, _typed(key, kind, raw[key]))
            except ValueError as exc:
                problems.append(str(exc))
    if env := os.environ.get(SEED_ENV):
        if env.strip().isdecimal():
            cfg.seed = int(env)
        else:
            problems.append(f"{SEED_ENV}: expected a non-negative integer, got {env!r}")

    strategy = cfg.strategy
    if strategy not in ("finite", "spectral"):
        problems.append(f"strategy: must be 'finite' or 'spectral', got {strategy!r}")
    if (cfg.x0 is None) != (cfg.xhat0 is None):
        problems.append("init.x0/init.xhat0: give both or neither")
    elif cfg.x0 is not None and cfg.x0.shape != cfg.xhat0.shape:
        problems.append("init.x0/init.xhat0: point counts differ")
    if cfg.x0 is None and cfg.init_radius_x is None and cfg.rho is None:
        problems.append("init.radius_x: required when init.x0 is not given")
    if cfg.poles is not None and any(p >= 0 for p in cfg.poles):
        problems.append("params.poles: all poles must have negative real part")
    if cfg.Delta is not None and not 0.0 < cfg.Delta < math.pi:
        problems.append(f"params.Delta: Delta must lie in (0, pi), got {cfg.Delta}")
    if not cfg.j_frac < 1.0:
        problems.append(f"params.j_frac: must lie in (0, 1), got {cfg.j_frac}")

    grid = None  # the time grid's period and its key, once both are known valid
    if strategy == "spectral":
        orders, re_part, im_part = cfg.output_orders, cfg.output_coeffs_re, cfg.output_coeffs_im
        coeffs = None
        if cfg.output_kind not in KINDS:
            problems.append(f"output.kind: must be one of {KINDS}, got {cfg.output_kind!r}")
        elif cfg.output_kind != BESSEL_SERIES:
            coeffs = {}
        elif orders is None or re_part is None:
            # a key given but rejected has its own problem already
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
        if cfg.mu is None:
            problems.append("params.mu: required for the spectral strategy")
        if cfg.Delta is None:
            problems.append("params.Delta: required for the spectral strategy")
        elif 0.0 < cfg.Delta < math.pi:
            grid = (cfg.Delta, "params.Delta")
        if cfg.delta is None:
            problems.append("params.delta: required for the spectral strategy")
        # every start must stay inside the region where the embedding can be
        # evaluated: explicit points one by one, drawn ones by their balls
        for key, points in (("init.x0", cfg.x0), ("init.xhat0", cfg.xhat0)):
            if points is not None and cfg.mu is not None \
                    and (arg := cfg.mu * np.hypot(*points.T).max()) >= VALID_MU_R:
                problems.append(f"{key}: mu |p| = {arg!r} at its farthest point must stay "
                                f"below the valid-region limit {VALID_MU_R!r}")
        key_x = "init.radius_x" if cfg.init_radius_x is not None else "init.rho"
        balls = [(r, key) for key, r in ((key_x, cfg.init_radius_x or cfg.rho),
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

    if cfg.method not in METHODS:
        problems.append(f"integrator.method: unknown method {cfg.method!r}")
    # the ball delta_margin certifies
    radius = cfg.rho if cfg.rho is not None else cfg.init_radius_x
    if strategy == "finite":
        if cfg.method == "exact_linear":
            problems.append("integrator.method: exact_linear applies to the spectral strategy only")
        if cfg.delta is None and cfg.delta_frac is None:
            problems.append("params.delta: give params.delta or params.delta_frac")
        elif cfg.delta is None and radius is None:
            problems.append("params.delta_frac: needs init.rho or init.radius_x, the radius "
                            "delta_margin certifies")
        if cfg.Delta is not None:
            warnings.append("params.Delta: ignored by the finite strategy (continuous feedback)")
        grid = (cfg.step, "integrator.step")
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
    if strategy == "finite" and radius is not None:
        try:
            margin = delta_margin(cfg.K, radius, plant)
        except ValueError as exc:
            raise ConfigError([f"params.K: {exc}"]) from None
        key = "params.delta" if cfg.delta is not None else "params.delta_frac"
        if cfg.delta is None:
            cfg.delta = cfg.delta_frac * margin
        if cfg.delta >= margin:
            warnings.append(
                f"{key}: delta={cfg.delta:.6g} >= delta_margin={margin:.6g} for radius "
                f"{radius:g}; the perturbed feedback's basin is no longer guaranteed")
    cfg.warnings = warnings
    return cfg
