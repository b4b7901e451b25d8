"""Deterministic result files: CSV trajectories, key=value summaries, SVG plots.

Every float is printed with 17 significant digits in CSVs so re-running a
scenario with the same seed reproduces artifacts byte for byte.  CSV rows and
polyline points are formatted a block at a time, by the same `%.17g` and `.2f`
conversions as one value at a time, so the bytes are unchanged.  Every run of
a scenario is recorded on a prefix of one time grid, so its time axis is
formatted once: time_text is the `t` column of every run's CSV, each run
taking the prefix of its own length, and svg_time_axis the pixel x text and
t-axis ticks of every plot over one record length.  The SVG writer is
self-contained (axes, ticks, polylines) so plotting needs no third-party
dependency.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .sim import Trajectory

_FMT = "%.17g"
# CSV rows formatted per `%`, so a long run never holds its whole text
_BLOCK = 4096
# SVG canvas and plot margins in pixels, and the most points a polyline keeps
_WIDTH, _HEIGHT = 720, 420
_LEFT, _RIGHT, _TOP, _BOTTOM = 64.0, 16.0, 28.0, 42.0
_PLOT_W, _PLOT_H = _WIDTH - _LEFT - _RIGHT, _HEIGHT - _TOP - _BOTTOM
_MAX_POINTS = 1500


def time_text(times) -> list[str]:
    """The `%.17g` text of each of `times`: the t column of write_csv for
    every run recorded on a prefix of them."""
    times = np.asarray(times, dtype=float)
    return ((_FMT + "\n") * times.shape[0] % tuple(times.tolist())).split("\n")[:-1]


def write_csv(path: str, traj: Trajectory, t_text: list[str]) -> None:
    """Trajectory table: t, x1..xn, u, eps_norm, c_eps_abs[, weak_eps], the t
    column the first len(traj.times) entries of t_text (time_text of times
    that traj.times is a prefix of)."""
    n = traj.x.shape[1]
    cols = ["t"] + [f"x{i + 1}" for i in range(n)] + ["u", "eps_norm", "c_eps_abs"]
    spectral = traj.weak_eps is not None
    if spectral:
        cols.append("weak_eps")
    table = np.column_stack([traj.x, traj.u, traj.eps_norm, traj.c_eps_abs]
                            + ([traj.weak_eps] if spectral else []))
    rows = table.shape[0]
    t_text = t_text[:rows]
    # the rest of a row after its t text; joined by it, the t texts of a block
    # are the block's row template
    rest = "," + ",".join([_FMT] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for start in range(0, rows, _BLOCK):
            block = table[start:start + _BLOCK]
            fh.write((rest.join(t_text[start:start + _BLOCK]) + rest)
                     % tuple(block.ravel().tolist()))


def write_summary(path: str, entries: dict) -> None:
    """Newline-delimited key=value report (floats at full precision)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in entries.items():
            if isinstance(value, float):
                fh.write(f"{key}={_FMT % value}\n")
            else:
                fh.write(f"{key}={value}\n")


def _ticks(lo: float, hi: float) -> list[float]:
    """About five round values from lo to hi, strictly increasing: they end
    where adding the step no longer moves the value (a span of a few ulps);
    none for a span that is not finite or whose quarter is below the
    smallest normal float."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / 4  # about five ticks
    if not (math.isfinite(span) and raw >= sys.float_info.min):
        return []
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    ticks = []
    value = math.ceil(lo / step) * step
    while value <= hi + 1e-12 * span and (not ticks or value > ticks[-1]):
        ticks.append(value)
        value += step
    return ticks


def _thin(values: np.ndarray) -> np.ndarray:
    if values.shape[0] <= _MAX_POINTS:
        return values
    stride = int(math.ceil(values.shape[0] / _MAX_POINTS))
    idx = np.arange(0, values.shape[0], stride)
    if idx[-1] != values.shape[0] - 1:
        idx = np.append(idx, values.shape[0] - 1)
    return values[idx]


_PALETTE = ("#1f6fb2", "#c0392b", "#2e8b57", "#8e44ad")


def svg_time_axis(times) -> tuple[str, list[str]]:
    """The t half of write_svg's plot over `times`, the same for every plot
    over them: the polyline points template (each kept instant's `.2f` pixel
    x and a `%.2f` slot for its y) and the t-axis tick elements."""
    times = _thin(np.asarray(times, dtype=float))
    t_lo, t_hi = float(times[0]), float(times[-1])

    def sx(t):
        return _LEFT + (t - t_lo) / (t_hi - t_lo or 1.0) * _PLOT_W

    x_text = ("%.2f\n" * times.shape[0] % tuple(sx(times).tolist())).split("\n")[:-1]
    points = ",%.2f ".join(x_text) + ",%.2f"
    ticks = []
    for t in _ticks(t_lo, t_hi):
        x = sx(t)
        ticks.append(f'<line x1="{x:.2f}" y1="{_TOP + _PLOT_H:.2f}" x2="{x:.2f}" '
                     f'y2="{_TOP + _PLOT_H + 5:.2f}" stroke="black"/>')
        ticks.append(f'<text x="{x:.2f}" y="{_TOP + _PLOT_H + 18:.2f}" font-family="monospace" '
                     f'font-size="11" text-anchor="middle">{t:.4g}</text>')
    return points, ticks


def write_svg(path: str, axis: tuple[str, list[str]], curves: list, title: str) -> None:
    """Line plot of (label, series) pairs against time as a standalone SVG,
    axis being svg_time_axis of the series' times."""
    points, t_ticks = axis
    series = [(label, _thin(np.asarray(vals, dtype=float))) for label, vals in curves]
    y_lo = min(float(np.min(v)) for _, v in series)
    y_hi = max(float(np.max(v)) for _, v in series)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sy(y):
        return _TOP + (y_hi - y) / (y_hi - y_lo) * _PLOT_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_LEFT}" y="18" font-family="monospace" font-size="13">{title}</text>',
        f'<rect x="{_LEFT:.2f}" y="{_TOP:.2f}" width="{_PLOT_W:.2f}" height="{_PLOT_H:.2f}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
        *t_ticks,
    ]
    for y in _ticks(y_lo, y_hi):
        yy = sy(y)
        parts.append(f'<line x1="{_LEFT - 5:.2f}" y1="{yy:.2f}" x2="{_LEFT:.2f}" '
                     f'y2="{yy:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_LEFT - 8:.2f}" y="{yy + 4:.2f}" font-family="monospace" '
                     f'font-size="11" text-anchor="end">{y:.4g}</text>')
    for idx, (label, vals) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = points % tuple(sy(vals).tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        parts.append(f'<text x="{_LEFT + 10 + 130 * idx:.2f}" y="{_TOP + 14:.2f}" '
                     f'font-family="monospace" font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def write_trajectory_svg(path: str, traj: Trajectory, title: str,
                         axis: tuple[str, list[str]]) -> None:
    """|x(t)| and |eps(t)| of a run, axis being svg_time_axis(traj.times)."""
    xnorm = np.sqrt(np.einsum("ij,ij->i", traj.x, traj.x))
    write_svg(path, axis, [("|x(t)|", xnorm), ("|eps(t)|", traj.eps_norm)], title)
