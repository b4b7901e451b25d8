"""Deterministic result files: CSV trajectories, key=value summaries, SVG plots.

Every float is printed with 17 significant digits in CSVs so re-running a
scenario with the same seed reproduces artifacts byte for byte.  CSV rows and
polyline points are formatted a block at a time, by the same `%.17g` and `.2f`
conversions as one value at a time, so the bytes are unchanged.  The SVG
writer is self-contained (axes, ticks, polylines) so plotting needs no
third-party dependency.
"""

from __future__ import annotations

import math

import numpy as np

from .sim import Trajectory

_FMT = "%.17g"
# CSV rows formatted per `%`, so a long run never holds its whole text
_BLOCK = 4096
# SVG canvas in pixels, and the most points a polyline keeps
_WIDTH, _HEIGHT = 720, 420
_MAX_POINTS = 1500


def write_csv(path: str, traj: Trajectory) -> None:
    """Trajectory table: t, x1..xn, u, eps_norm, c_eps_abs[, weak_eps]."""
    n = traj.x.shape[1]
    cols = ["t"] + [f"x{i + 1}" for i in range(n)] + ["u", "eps_norm", "c_eps_abs"]
    spectral = traj.weak_eps is not None
    if spectral:
        cols.append("weak_eps")
    table = np.column_stack([traj.times, traj.x, traj.u, traj.eps_norm, traj.c_eps_abs]
                            + ([traj.weak_eps] if spectral else []))
    row = ",".join([_FMT] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for block in np.split(table, range(_BLOCK, table.shape[0], _BLOCK)):
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


def write_summary(path: str, entries: dict) -> None:
    """Newline-delimited key=value report (floats at full precision)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in entries.items():
            if isinstance(value, float):
                fh.write(f"{key}={_FMT % value}\n")
            else:
                fh.write(f"{key}={value}\n")


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / 4  # about five ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    ticks = []
    value = start
    while value <= hi + 1e-12 * span:
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


def write_svg(path: str, times: np.ndarray, curves: list, title: str) -> None:
    """Line plot of (label, series) pairs against time as a standalone SVG."""
    left, right, top, bottom = 64.0, 16.0, 28.0, 42.0
    plot_w = _WIDTH - left - right
    plot_h = _HEIGHT - top - bottom
    times = _thin(np.asarray(times, dtype=float))
    series = [(label, _thin(np.asarray(vals, dtype=float))) for label, vals in curves]
    t_lo, t_hi = float(times[0]), float(times[-1])
    y_lo = min(float(np.min(v)) for _, v in series)
    y_hi = max(float(np.max(v)) for _, v in series)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(t):
        return left + (t - t_lo) / (t_hi - t_lo or 1.0) * plot_w

    def sy(y):
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{left}" y="18" font-family="monospace" font-size="13">{title}</text>',
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for t in _ticks(t_lo, t_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{top + plot_h:.2f}" x2="{x:.2f}" '
                     f'y2="{top + plot_h + 5:.2f}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + plot_h + 18:.2f}" font-family="monospace" '
                     f'font-size="11" text-anchor="middle">{t:.4g}</text>')
    for y in _ticks(y_lo, y_hi):
        yy = sy(y)
        parts.append(f'<line x1="{left - 5:.2f}" y1="{yy:.2f}" x2="{left:.2f}" '
                     f'y2="{yy:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8:.2f}" y="{yy + 4:.2f}" font-family="monospace" '
                     f'font-size="11" text-anchor="end">{y:.4g}</text>')
    for idx, (label, vals) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        xy = np.column_stack([sx(times), sy(vals)])
        pts = " ".join(["%.2f,%.2f"] * xy.shape[0]) % tuple(xy.ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        parts.append(f'<text x="{left + 10 + 130 * idx:.2f}" y="{top + 14:.2f}" '
                     f'font-family="monospace" font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def write_trajectory_svg(path: str, traj: Trajectory, title: str) -> None:
    xnorm = np.sqrt(np.einsum("ij,ij->i", traj.x, traj.x))
    write_svg(path, traj.times, [("|x(t)|", xnorm), ("|eps(t)|", traj.eps_norm)], title)
