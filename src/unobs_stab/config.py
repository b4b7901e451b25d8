"""Flat key=value scenario configuration.

One `key = value` pair per line, `#` starts a comment, sections are expressed
by key prefixes (params., init., integrator., ...).  Values are typed by
shape: integer, real, comma-separated list of reals, or bare string.  Parsing
validates everything it can and reports every violation at once, each named
by the offending key.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

_INT_RE = re.compile(r"^[+-]?\d+$")


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
    """Validated scenario description for the CLI drivers."""

    strategy: str
    seed: int = 0
    # initial conditions: explicit (k, 2) point lists, or seeded draws in balls
    x0: np.ndarray | None = None
    xhat0: np.ndarray | None = None
    init_count: int = 1
    init_radius_x: float | None = None
    init_radius_xhat: float | None = None
    rho: float | None = None
    # gains
    K: np.ndarray | None = None
    poles: list | None = None
    alpha: float = 10.0
    delta: float | None = None
    delta_frac: float | None = None
    Delta: float | None = None
    mu: float | None = None
    j_frac: float = 0.9
    N: int = 24
    # output map (spectral)
    output_kind: str | None = None
    output_coeffs: dict = field(default_factory=dict)
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
    raw: dict = field(default_factory=dict)


_KNOWN_KEYS = {
    "strategy", "seed",
    "init.x0", "init.xhat0", "init.count", "init.radius_x", "init.radius_xhat", "init.rho",
    "params.K", "params.poles", "params.alpha", "params.delta", "params.delta_frac",
    "params.Delta", "params.mu", "params.j_frac", "params.N",
    "output.kind", "output.orders", "output.coeffs_re", "output.coeffs_im",
    "integrator.method", "integrator.step", "integrator.horizon", "integrator.record_every",
    "thresholds.trailing_x_max", "thresholds.final_c_eps_max",
    "analyze.trials", "analyze.u_grid", "analyze.R0",
}


def _as_list(value) -> list:
    return value if isinstance(value, list) else [float(value)]


def parse_config(path: str) -> ScenarioConfig:
    """Load and fully validate a scenario file; raises ConfigError with every
    problem found, or returns the config (possibly with non-fatal warnings
    attached)."""
    raw = read_key_values(path)
    problems: list[str] = []
    warnings: list[str] = []

    for key in raw:
        if key not in _KNOWN_KEYS:
            problems.append(f"{key}: unknown key")

    def take(key, default=None):
        return raw.get(key, default)

    def take_num(key, default=None, positive=False, integer=False):
        value = raw.get(key, default)
        if value is None or value is default and key not in raw:
            return default
        if isinstance(value, list) or isinstance(value, str):
            problems.append(f"{key}: expected a number, got {value!r}")
            return default
        if integer and not isinstance(value, int):
            problems.append(f"{key}: expected an integer, got {value!r}")
            return default
        value = int(value) if integer else float(value)
        if positive and not value > 0:
            problems.append(f"{key}: must be positive, got {value}")
            return default
        return value

    strategy = take("strategy")
    if strategy not in ("finite", "spectral"):
        problems.append(f"strategy: must be 'finite' or 'spectral', got {strategy!r}")

    cfg = ScenarioConfig(strategy=strategy if isinstance(strategy, str) else "finite")
    cfg.raw = raw
    cfg.seed = take_num("seed", 0, integer=True)
    for key, attr in (("init.x0", "x0"), ("init.xhat0", "xhat0")):
        if key in raw:
            flat = _as_list(raw[key])
            if len(flat) % 2 != 0 or not flat:
                problems.append(f"{key}: expected a flat list of planar points "
                                f"(length a positive multiple of 2), got {len(flat)} values")
            else:
                setattr(cfg, attr, np.asarray(flat, dtype=float).reshape(-1, 2))
    if (cfg.x0 is None) != (cfg.xhat0 is None):
        problems.append("init.x0/init.xhat0: give both or neither")
    elif cfg.x0 is not None and cfg.x0.shape != cfg.xhat0.shape:
        problems.append("init.x0/init.xhat0: point counts differ")
    cfg.init_count = take_num("init.count", 1, positive=True, integer=True)
    cfg.init_radius_x = take_num("init.radius_x", None, positive=True)
    cfg.init_radius_xhat = take_num("init.radius_xhat", None, positive=True)
    cfg.rho = take_num("init.rho", None, positive=True)
    if cfg.x0 is None and cfg.init_radius_x is None and cfg.rho is None:
        problems.append("init.radius_x: required when init.x0 is not given")

    if "params.K" in raw:
        cfg.K = np.asarray(_as_list(raw["params.K"]), dtype=float)
    if "params.poles" in raw:
        cfg.poles = _as_list(raw["params.poles"])
        if any(p >= 0 for p in cfg.poles):
            problems.append("params.poles: all poles must have negative real part")
    cfg.alpha = take_num("params.alpha", 10.0, positive=True)
    cfg.delta = take_num("params.delta", None)
    if cfg.delta is not None and cfg.delta <= 0:
        problems.append(f"params.delta: must be positive, got {cfg.delta}")
    cfg.delta_frac = take_num("params.delta_frac", None, positive=True)
    cfg.Delta = take_num("params.Delta", None)
    if cfg.Delta is not None and not 0.0 < cfg.Delta < math.pi:
        problems.append(f"params.Delta: Delta must lie in (0, pi), got {cfg.Delta}")
    cfg.mu = take_num("params.mu", None, positive=True)
    cfg.j_frac = take_num("params.j_frac", 0.9, positive=True)
    if not cfg.j_frac < 1.0:
        problems.append(f"params.j_frac: must lie in (0, 1), got {cfg.j_frac}")
    cfg.N = take_num("params.N", 24, positive=True, integer=True)

    cfg.output_kind = take("output.kind")
    if strategy == "spectral":
        from .spectral import BESSEL_SERIES, J0_RADIAL, J2_COS2THETA, NORM, NORM_SQ
        kinds = (NORM_SQ, J0_RADIAL, J2_COS2THETA, NORM, BESSEL_SERIES)
        if cfg.output_kind not in kinds:
            problems.append(f"output.kind: must be one of {kinds}, got {cfg.output_kind!r}")
        if cfg.output_kind == BESSEL_SERIES:
            orders = raw.get("output.orders")
            re_part = raw.get("output.coeffs_re")
            im_part = raw.get("output.coeffs_im")
            if orders is None or re_part is None:
                problems.append("output.orders/output.coeffs_re: required for bessel_series")
            else:
                orders = [int(o) for o in _as_list(orders)]
                re_part = _as_list(re_part)
                im_part = _as_list(im_part) if im_part is not None else [0.0] * len(re_part)
                if not len(orders) == len(re_part) == len(im_part):
                    problems.append("output.orders: lengths of orders/coeffs_re/coeffs_im differ")
                else:
                    cfg.output_coeffs = {k: complex(a, b)
                                         for k, a, b in zip(orders, re_part, im_part)}
        if cfg.mu is None:
            problems.append("params.mu: required for the spectral strategy")
        if cfg.Delta is None:
            problems.append("params.Delta: required for the spectral strategy")
        if cfg.delta is None:
            problems.append("params.delta: required for the spectral strategy")
        # the drawn starts must stay inside the region where the embedding
        # can be evaluated (explicit init.x0 lists are checked per run)
        key_x = "init.radius_x" if cfg.init_radius_x is not None else "init.rho"
        balls = [(r, key) for key, r in ((key_x, cfg.init_radius_x or cfg.rho),
                                         ("init.radius_xhat", cfg.init_radius_xhat))
                 if r is not None]
        if cfg.x0 is None and cfg.mu is not None and balls:
            from .bessel import MAX_ARG
            from .spectral import truncation_tail_bound
            radius, key = max(balls)
            arg = cfg.mu * radius
            if arg >= MAX_ARG:
                problems.append(f"params.mu/{key}: mu * {key} = {arg:g} must stay below "
                                f"the Bessel argument limit {MAX_ARG:g}")
            elif (tail := truncation_tail_bound(arg, cfg.N)) > 1e-12:
                warnings.append(f"params.N: truncation tail bound {tail:.3g} > 1e-12 at "
                                f"mu * {key} = {arg:g}; the drawn starts embed inexactly")

    cfg.method = take("integrator.method", "rk4_coupled")
    if cfg.method not in ("rk4_coupled", "exact_linear"):
        problems.append(f"integrator.method: unknown method {cfg.method!r}")
    if strategy == "finite" and cfg.method == "exact_linear":
        problems.append("integrator.method: exact_linear applies to the spectral strategy only")
    cfg.step = take_num("integrator.step", 1e-3, positive=True)
    cfg.horizon = take_num("integrator.horizon", 10.0, positive=True)
    cfg.record_every = take_num("integrator.record_every", 1, positive=True, integer=True)
    cfg.trailing_x_max = take_num("thresholds.trailing_x_max", math.inf, positive=True)
    cfg.final_c_eps_max = take_num("thresholds.final_c_eps_max", math.inf, positive=True)
    cfg.analyze_trials = take_num("analyze.trials", 100, positive=True, integer=True)
    if "analyze.u_grid" in raw:
        cfg.analyze_u_grid = _as_list(raw["analyze.u_grid"])
    cfg.analyze_R0 = take_num("analyze.R0", 1.0, positive=True)

    if strategy == "finite":
        if cfg.K is None and cfg.poles is None:
            cfg.poles = [-1.0, -2.0]
        if cfg.delta is None and cfg.delta_frac is None:
            problems.append("params.delta: give params.delta or params.delta_frac")
        if cfg.Delta is not None:
            warnings.append("params.Delta: ignored by the finite strategy (continuous feedback)")
    if strategy == "spectral" and cfg.K is None and cfg.poles is None:
        cfg.K = np.array([1.0, -2.0])

    if problems:
        raise ConfigError(problems)

    # non-fatal checks that need the synthesized gain happen in the driver;
    # here we only warn about obviously delicate settings
    if strategy == "finite" and cfg.delta is not None and cfg.rho is not None:
        from .finite import delta_margin, rotation_plant
        from .linalg import place_poles
        plant = rotation_plant()
        gain = cfg.K if cfg.K is not None else place_poles(plant.A, plant.b, cfg.poles)
        margin = delta_margin(gain, cfg.rho, plant)
        if cfg.delta >= margin:
            warnings.append(
                f"params.delta: delta={cfg.delta} >= delta_margin={margin:.6g} for "
                f"rho={cfg.rho}; the perturbed feedback's basin is no longer guaranteed")
    cfg.warnings = warnings
    return cfg
