"""Independent reference computations used to pin expected values.

These deliberately avoid the package's own evaluation paths: Bessel values
come from the ascending power series summed in high-precision arithmetic with
an explicit tail cut, zeros from bisection on those series, Gramian spectra from
the truncated generator built and propagated in high-precision arithmetic.
The artifact writers are the per-value loops the package's CSV and SVG
writers replaced, kept to pin their bytes, and the Bessel-series measurement
is the per-order loop that spectral.output_value's series arm replaced.  The
reference Bessel kernel evaluates each series row alone in Python floats, its
term count from thresholds derived in mpmath and its polynomial from exact
fractions, to pin the bytes of the array kernel.  The reference inv_j1
derives the reversion of J_1's series in exact fractions for small y and,
above, the polynomials in sqrt(J_1(j1) - y) by interpolation in mpmath, and
evaluates each entry in Python floats, to pin inv_j1's bytes.  The per-step
loop is
sim._drive as it stood before it took a block of steps per iteration, and
the packed spectral driver, which runs on it, is run_spectral_batch's
rk4_coupled loop one step at a time, either on the plant's block maps and,
where the loop takes them, the observer's step maps (pinning the block
loop's bits) or with plant and observer stepped by RK4 together, as the
loop did before the maps.  exact_linear's error step is scipy's dense
expm of the dense observer_matrix, and its loop is rebuilt one step at a
time from each run's recorded hold values.  The finite loop's field is
spelled out in its matrix form from the paper's blocks, one row at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
import scipy.linalg

from unobs_stab import sim, spectral
from unobs_stab.artifacts import _FMT, _HEIGHT, _PALETTE, _WIDTH, _thin, _ticks
from unobs_stab.bessel import _SERIES_MAX_R, MAX_ARG, _miller_orders, bessel_j, bessel_j_all


def bessel_j_series(k: int, r: float, dps: int = 30) -> float:
    """J_k(r) from the ascending series sum_m (-1)^m (r/2)^{2m+k} / (m!(m+k)!),
    summed in dps-digit arithmetic until the terms drop below the target."""
    k = int(k)
    # the alternating series cancels down from terms of size ~e^r, so the
    # working precision has to grow with the argument
    dps = dps + int(0.45 * abs(r)) + 5
    with mp.workdps(dps):
        x = mp.mpf(r)
        sign = 1
        if k < 0:
            k = -k
            if k % 2:
                sign = -sign
        if x < 0:
            x = -x
            if k % 2:
                sign = -sign
        half = x / 2
        term = half ** k / mp.factorial(k)
        total = term
        cut = mp.mpf(10) ** (-(dps - 2))
        m = 1
        while abs(term) > cut or m < 4:
            term *= -(half * half) / (m * (m + k))
            total += term
            m += 1
        return float(sign * total)


def bessel_j_prime_series(k: int, r: float, dps: int = 30) -> float:
    return 0.5 * (bessel_j_series(k - 1, r, dps) - bessel_j_series(k + 1, r, dps))


def bisect_series(f, lo: float, hi: float, iters: int = 60) -> float:
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = fm
    return 0.5 * (lo + hi)


def j1_zero_of_derivative() -> float:
    return bisect_series(lambda r: bessel_j_prime_series(1, r), 1.5, 2.0)


def j0_first_zero() -> float:
    return bisect_series(lambda r: bessel_j_series(0, r), 2.0, 3.0)


def bessel_tail_energy(s: float, n: int, kmax: int = 200, dps: int = 60) -> float:
    """sum_{|k| > n} J_k(s)^2 in high precision (symmetric: twice the k > n sum)."""
    with mp.workdps(dps):
        total = mp.mpf(0)
        for k in range(n + 1, kmax + 1):
            term = mp.besselj(k, mp.mpf(s)) ** 2
            total += term
        return float(2 * total)


def gramian_eigenvalues(u: float, T: float, zeta, mu: float, N: int,
                        steps: int = 400, dps: int = 60) -> list[float]:
    """Ascending eigenvalues of the trapezoidal observability Gramian
    W = sum_i w_i U_i^* zeta zeta^* U_i of the truncated spectral system under
    the constant input u, with U_i = exp(i dt G(u)) and dt = T / steps.

    G(u) is built here from its definition (diagonal -i k for k = -N..N,
    sub-diagonal u mu / 2, super-diagonal -u mu / 2) and everything runs in
    dps-digit arithmetic, so eigenvalues far below float64 resolution
    relative to lambda_max (e.g. 2 pi J_N(mu u)^2 at N = 12) come out right.
    """
    dim = 2 * N + 1
    if len(zeta) != dim:
        raise ValueError("gramian_eigenvalues: zeta length does not match N")
    with mp.workdps(dps):
        c = mp.mpf(u) * mp.mpf(mu) / 2
        g = mp.zeros(dim, dim)
        for i in range(dim):
            g[i, i] = mp.mpc(0, -(i - N))
        for i in range(dim - 1):
            g[i + 1, i] = c
            g[i, i + 1] = -c
        dt = mp.mpf(T) / steps
        step_h = mp.expm(g * dt).transpose_conj()
        v = mp.matrix([mp.mpc(complex(z)) for z in zeta])
        w = mp.zeros(dim, dim)
        for i in range(steps + 1):
            wt = dt if 0 < i < steps else dt / 2
            w += wt * (v * v.transpose_conj())
            if i < steps:
                v = step_h * v
        w = (w + w.transpose_conj()) / 2
        eig = mp.eigh(w, eigvals_only=True)
        return sorted(float(e) for e in eig)


def write_csv_per_value(path: str, traj) -> None:
    """artifacts.write_csv, one `%.17g` per value and one join per row."""
    n = traj.x.shape[1]
    cols = ["t"] + [f"x{i + 1}" for i in range(n)] + ["u", "eps_norm", "c_eps_abs"]
    spectral = traj.weak_eps is not None
    if spectral:
        cols.append("weak_eps")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(traj.times.shape[0]):
            row = [traj.times[i], *traj.x[i], traj.u[i], traj.eps_norm[i], traj.c_eps_abs[i]]
            if spectral:
                row.append(traj.weak_eps[i])
            fh.write(",".join(_FMT % v for v in row) + "\n")


def write_svg_per_point(path: str, times: np.ndarray, curves: list, title: str) -> None:
    """artifacts.write_svg, the polyline pixel coordinates computed and
    formatted one point at a time."""
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
        pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(times, vals))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        parts.append(f'<text x="{left + 10 + 130 * idx:.2f}" y="{top + 14:.2f}" '
                     f'font-family="monospace" font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def bessel_series_per_order(coeffs: dict, mu: float, x) -> np.ndarray:
    """sum_k c_k J_k(mu r) e^{-ik theta} at points x of shape (..., 2), one
    order at a time, with J_{-k} = (-1)^k J_k."""
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[..., 0], x[..., 1])
    theta = np.where(r > 0.0, np.arctan2(x[..., 1], x[..., 0]), 0.0)
    j = bessel_j_all(max(abs(k) for k in coeffs), mu * r)
    total = 0.0 + 0.0j
    for k, c in coeffs.items():
        jk = j[..., abs(k)] * (-1.0) ** (k % 2) if k < 0 else j[..., k]
        total = total + c * jk * np.exp(-1j * k * theta)
    return total


# a series row's terms are cut where the bound e^{r/2} q^m / (m!)^2 on the
# m-th one, q = (r/2)^2, falls below SERIES_TOL
SERIES_TOL = mp.mpf("1e-20")


def series_term_bound(m: int, q) -> mp.mpf:
    """e^{sqrt q} q^m / (m!)^2, at least |a[m, k] q^m| in every order k."""
    with mp.workdps(40):
        q = mp.mpf(q)
        return mp.exp(mp.sqrt(q)) * q ** m / mp.factorial(m) ** 2


@lru_cache(maxsize=1)
def series_thresholds() -> tuple:
    """Q_1, Q_2, ...: Q_n is the largest float q at which term n's bound is
    below SERIES_TOL, so a row with Q_{n-1} < q <= Q_n sums terms 0..n-1;
    up to the first Q_n >= 16, which covers r <= 8.  Each is the root of
    sqrt(q) + n log q = log(SERIES_TOL (n!)^2) in 40-digit mpmath, rounded
    down to a float."""
    out = []
    with mp.workdps(40):
        while not out or out[-1] < 16.0:
            n = len(out) + 1
            log_q = mp.findroot(lambda t: mp.exp(t / 2) + n * t
                                - mp.log(SERIES_TOL * mp.factorial(n) ** 2), mp.mpf(-20))
            q = float(mp.exp(log_q))
            while series_term_bound(n, q) >= SERIES_TOL:
                q = math.nextafter(q, 0.0)
            out.append(q)
    return tuple(out)


def series_coefficients(terms: int, kmax: int) -> list:
    """a[m][k] = prod_{i=1..m} -1 / (i (i + k)) as exact fractions, m < terms."""
    rows = [[Fraction(1)] * (kmax + 1)]
    for m in range(1, terms):
        rows.append([a * Fraction(-1, m * (m + k)) for k, a in enumerate(rows[-1])])
    return rows


def _reference_series_rows(r: np.ndarray, kmax: int) -> np.ndarray:
    """Rows [J_0(r_i)..J_kmax(r_i)] by the ascending series, 0 <= r_i <= 8, in
    Python floats one row and one order at a time: (r/2)^k / k! (a running
    product of (r/2) / k) times sum_m c_m q^m, q = (r/2)^2, over the terms
    series_thresholds gives q, added in order of m, each power of q the last
    one times q and each c_m the correctly rounded exact coefficient."""
    thresholds = series_thresholds()
    table = [[float(a) for a in row] for row in series_coefficients(len(thresholds), kmax)]
    out = np.empty((r.shape[0], kmax + 1))
    for i, x in enumerate(r.tolist()):
        half = 0.5 * x
        q = half * half
        terms = 1 + sum(t < q for t in thresholds)
        lead = 1.0
        for k in range(kmax + 1):
            if k:
                lead = lead * (half / k)
            total, power = table[0][k], 1.0
            for m in range(1, terms):
                power = power * q
                total = total + table[m][k] * power
            out[i, k] = total * lead
    return out


def bessel_j_all_reference(kmax: int, r) -> np.ndarray:
    """[J_0(r), ..., J_kmax(r)] for 0 <= r < 50, shaped like bessel_j_all's result."""
    radii = np.asarray(r, dtype=float)
    rows = radii.reshape(-1)
    if not (rows.min(initial=0.0) >= 0.0 and rows.max(initial=0.0) < MAX_ARG):
        raise ValueError("bessel_j_all_reference: need 0 <= r < 50")
    far = rows > _SERIES_MAX_R
    out = np.empty((rows.shape[0], kmax + 1))
    if not far.all():
        out[~far] = _reference_series_rows(rows[~far], kmax)
    for i in np.flatnonzero(far):
        out[i] = _miller_orders(float(rows[i]), kmax)
    return out.reshape(radii.shape + (kmax + 1,))


def j1_reversion_coefficients(count: int) -> list:
    """b_0..b_{count-1}, exact fractions, of s = sum_k b_k y^{2k+1}, the inverse
    of y = J_1(2s) = sum_m (-1)^m s^{2m+1} / (m!(m+1)!) near 0: the fixed point
    s = y - (J_1(2s) - s) iterated on power series in y cut after y^{2count-1},
    each pass settling one more coefficient."""
    size = 2 * count

    def mul(p, q):
        out = [Fraction(0)] * size
        for i, a in enumerate(p):
            if a:
                for j in range(size - i):
                    out[i + j] += a * q[j]
        return out

    y = [Fraction(0)] * size
    y[1] = Fraction(1)
    s = list(y)
    for _ in range(count):
        s2 = mul(s, s)
        power, rest = mul(s, s2), [Fraction(0)] * size
        for m in range(1, count):
            coef = Fraction((-1) ** m, math.factorial(m) * math.factorial(m + 1))
            rest = [g + coef * p for g, p in zip(rest, power)]
            power = mul(power, s2)
        s = [a - g for a, g in zip(y, rest)]
    return s[1::2]


# inv_j1_reference answers y <= REVERSION_MAX_Y from the reversion's first
# ten coefficients, rounded to float, and y above it from two polynomials of
# degree TOP_DEGREE in s = sqrt(J_1(j1) - y)
REVERSION_MAX_Y = 0.11
TOP_DEGREE = 17


@lru_cache(maxsize=1)
def j1_peak() -> tuple:
    """(j1, J_1(j1)): the first zero of J_1' and J_1's peak, in 50-digit mpmath."""
    with mp.workdps(50):
        j1 = mp.besseljzero(1, 1, derivative=1)
        return j1, mp.besselj(1, j1)


@lru_cache(maxsize=1)
def j1_top_pieces() -> tuple:
    """(s_top, low, high) for the root r in [0, j1] of J_1(r) = J_1(j1) - s^2,
    s in [0, s_top], s_top = sqrt(float(J_1(j1)) - REVERSION_MAX_Y) in floats.

    low holds, rounded to float, the coefficients of r's interpolant at the
    TOP_DEGREE + 1 Chebyshev nodes of [0, s_top / 2] in powers of s, high
    those on [s_top / 2, s_top] in powers of s - s_top.  The nodes' radii
    are roots in 50-digit arithmetic, and each interpolant's monomial
    coefficients solve its Vandermonde system there."""
    j1, peak = j1_peak()
    s_top = math.sqrt(float(peak) - REVERSION_MAX_Y)
    n = TOP_DEGREE + 1
    pieces = []
    with mp.workdps(50):
        for lo, hi, base in ((0.0, 0.5 * s_top, 0.0), (0.5 * s_top, s_top, s_top)):
            mid, half = (mp.mpf(lo) + hi) / 2, (mp.mpf(hi) - lo) / 2
            nodes = [mid + half * mp.cos(mp.pi * (2 * i + 1) / (2 * n)) for i in range(n)]
            radii = [mp.findroot(lambda r, y=peak - s * s: mp.besselj(1, r) - y,
                                 (mp.mpf(0.05), j1), solver="anderson") for s in nodes]
            vandermonde = mp.matrix([[(s - base) ** k for k in range(n)] for s in nodes])
            coef = mp.lu_solve(vandermonde, mp.matrix(radii))
            pieces.append(tuple(float(c) for c in coef))
    return (s_top, *pieces)


def _horner(coeffs, u: float) -> float:
    poly = coeffs[-1]
    for b in coeffs[-2::-1]:
        poly = poly * u + b
    return poly


def inv_j1_reference(y):
    """The r in [0, j1] with J_1(r) = y; each entry of y alone, in Python floats.

    An entry y <= REVERSION_MAX_Y is 2y P(y^2), P the reversion polynomial of
    j1_reversion_coefficients(10) by Horner; an entry above it is, with
    s = sqrt(J_1(j1) - y), the low polynomial of j1_top_pieces at s for
    s <= s_top / 2 and the high one at s - s_top above."""
    ymax = float(j1_peak()[1])
    s_top, low, high = j1_top_pieces()
    reversion = [float(b) for b in j1_reversion_coefficients(10)]
    ys = np.asarray(y, dtype=float)
    out = []
    for t in ys.reshape(-1).tolist():
        t = min(t, ymax)
        if t <= REVERSION_MAX_Y:
            out.append(2.0 * t * _horner(reversion, t * t))
            continue
        s = math.sqrt(ymax - t)
        out.append(_horner(low, s) if s <= 0.5 * s_top else _horner(high, s - s_top))
    return out[0] if ys.ndim == 0 else np.array(out).reshape(ys.shape)


def drive_per_step(state, eps0, advance, sample, steps: int, cfg):
    """sim._drive one step per iteration: advance(state, active, i) returns
    step i's state (runs first), error norms and valid rows (within active),
    and sample(state, eps) the recorded fields of one instant."""
    stride, h = cfg.record_every, cfg.step
    if steps % stride:
        raise ValueError(f"record_every={stride} must divide the {steps} steps to the horizon")
    nb = eps0.shape[0]
    active = np.ones(nb, dtype=bool)
    diverged_at = np.full(nb, np.nan)
    n_rec = steps // stride + 1
    rec_t = np.arange(n_rec) * stride * h
    fields = sample(state, eps0)
    rec = [np.empty((nb, n_rec) + f.shape[1:], dtype=f.dtype) for f in fields]
    for r, f in zip(rec, fields):
        r[:, 0] = f
    lengths = np.ones(nb, dtype=int)
    violations = np.zeros(nb, dtype=int)
    max_inc = np.zeros(nb)
    eps = eps0

    for i in range(steps):
        new, cur, ok = advance(state, active, i)
        if ok.all():
            state = new
        else:
            diverged_at[active & ~ok] = (i + 1) * h
            active = ok
            keep = active[:, None]
            state = [np.where(keep if a.ndim > 1 else active, a, b)
                     for a, b in zip(new, state)]
            cur = np.where(active, cur, eps)
        inc = cur - eps
        violations += inc > sim.EPS_STEP_TOL
        max_inc = np.maximum(max_inc, inc)
        eps = cur
        if (i + 1) % stride == 0:
            for r, f in zip(rec, sample(state, eps)):
                r[:, (i + 1) // stride] = f
            lengths[active] += 1
        if not active.any():
            break

    return [sim.Trajectory(
        times=rec_t[:m],
        **{name: r[run, :m] for name, r in zip(sim._RECORDED, rec)},
        dissipativity_violations=int(violations[run]),
        max_eps_increase=float(max_inc[run]),
        diverged_at=None if np.isnan(diverged_at[run]) else float(diverged_at[run]),
    ) for run, m in enumerate(lengths)]


def run_spectral_packed(spec, params, x0s, xhat0s, cfg, plant="maps"):
    """run_spectral_batch with cfg.method "rk4_coupled" on the per-step loop:
    every stage measures its own point, every step embeds its own end.

    plant "maps" takes the plant from sim.plant_maps one step at a time, from
    the start of its block (the hold interval in pieces of sim._BLOCK_STEPS
    steps), and steps zhat alone, where sim.steps_by_maps holds by the step
    maps of sim.observer_maps summed in c per step and elsewhere through one
    rk4_step on op.apply; plant "rk4" steps the packed complex rows
    (x, zhat) of plant and observer together through one rk4_step per step
    on op.apply, as the loop did before either side was a map."""
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    xhat0s = np.atleast_2d(np.asarray(xhat0s, dtype=float))
    nb = x0s.shape[0]
    n_sub, n_int = sim.hold_grid(params.Delta, cfg.step, cfg.horizon)
    n, mu, h = params.N, params.mu, cfg.step
    op = spectral.ObserverOperator(mu, params.alpha, spectral.output_vector(spec, n))
    clamp_level = bessel_j(1, params.j)
    clamp_count = np.zeros(nb, dtype=int)
    ends, stages = sim.plant_maps(h, min(sim._BLOCK_STEPS, n_sub))
    coef = sim.observer_maps(op, h) if sim.steps_by_maps(n, n_sub) else None
    block_start = {}

    def feedback(zhat, active):
        clamp_count[active & (np.abs(zhat[:, n + 1]) > clamp_level)] += 1
        return spectral.sample_hold_feedback(zhat, params)[0]

    def measure(xs, stages_inside):
        r, theta = spectral.polar(xs)
        inside = sim._valid(r, mu)
        stages_inside.append(inside)
        fy = spectral.output_value(spec, mu, np.where(inside, r, 0.0), theta)
        if spec.kind in (spectral.NORM_SQ, spectral.NORM, spectral.J0_RADIAL):
            fy = spectral.linearized_output(spec, mu, fy)
        return fy

    def advance(state, active, i):
        x, _, zhat, u = state
        stages_inside = []
        c = op.offdiag(u)
        if plant == "maps":
            k = i % n_sub % sim._BLOCK_STEPS
            if k == 0:
                block_start["x"] = x
            x0 = block_start["x"]
            fy = [measure(p, stages_inside) for p in sim._affine(stages[k], x0, u)]
            if coef is None:
                stage = iter(fy)
                zhat_new = sim.rk4_step(lambda z: op.apply(z, c, next(stage)), zhat, h)
            else:
                t, w = sim.held_maps(coef, c, 2 * n + 1)
                inputs = w[:, 0] * fy[0][:, None] + w[:, 1] * fy[1][:, None] \
                    + w[:, 2] * fy[2][:, None] + w[:, 3] * fy[3][:, None]
                zhat_new = np.matvec(t, zhat) + inputs
            x_new = sim._affine(ends[k + 1], x0, u)
        else:
            def rhs(s):
                xs = s[:, :2].real
                return np.concatenate([-xs[:, 1:], (xs[:, 0] + u)[:, None],
                                       op.apply(s[:, 2:], c, measure(xs, stages_inside))],
                                      axis=-1)

            s_new = sim.rk4_step(rhs, np.concatenate([x, zhat], axis=-1), h)
            x_new, zhat_new = s_new[:, :2].real, s_new[:, 2:]
        ok = active & np.logical_and.reduce(stages_inside) & sim._valid(np.hypot(*x_new.T), mu)
        eps_new = zhat_new - spectral.embed(np.where(ok[:, None], x_new, 0.0), mu, n)
        ok &= (np.linalg.norm(x_new, axis=-1) <= sim.DIVERGENCE_NORM) \
            & (np.linalg.norm(zhat_new, axis=-1) <= sim.DIVERGENCE_NORM)
        if (i + 1) % n_sub == 0:
            zhat_new = np.where(ok[:, None], zhat_new, zhat)
            u = np.where(ok, feedback(zhat_new, ok), u)
        return (x_new, eps_new, zhat_new, u), sim._row_norm(eps_new), ok

    def sample(state, eps):
        x, eps_vec, zhat, u = state
        return x, zhat, u, eps, np.abs(op.inner(eps_vec)), spectral.weak_norm(eps_vec)

    zhat = spectral.embed(xhat0s, mu, n)
    eps = zhat - spectral.embed(x0s, mu, n)
    state = (x0s, eps, zhat, feedback(zhat, True))
    trajs = drive_per_step(state, sim._row_norm(eps), advance, sample, n_int * n_sub, cfg)
    for traj, count in zip(trajs, clamp_count):
        traj.clamp_count = int(count)
    return trajs


def dense_error_step(u: float, h: float, mu: float, alpha: float, zeta) -> np.ndarray:
    """exp(h observer_matrix(u, mu, alpha, zeta)) by scipy's dense expm: the
    error system's step under the held u."""
    return scipy.linalg.expm(h * spectral.observer_matrix(u, mu, alpha, zeta))


def exact_linear_per_step(spec, params, cfg, x0s, xhat0s, trajs) -> np.ndarray:
    """Each run's zhat at every step of run_spectral_batch's exact_linear
    trajs (recorded every step, none frozen), rebuilt one step at a time
    under the runs' recorded hold values: zhat = embed(x) + eps, eps stepped
    where the loop builds sim.error_map (N <= sim._MAP_MAX_N) and
    |u| <= sim.map_cap by one step of the map under the row's weights, two
    np.matvec on the row alone, and otherwise by expm_action on the row alone
    under a plan of its own.  Shape (steps + 1, runs, 2N+1)."""
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    xhat0s = np.atleast_2d(np.asarray(xhat0s, dtype=float))
    n, mu, h = params.N, params.mu, cfg.step
    n_sub = sim.hold_grid(params.Delta, h, cfg.horizon)[0]
    op = spectral.ObserverOperator(mu, params.alpha, spectral.output_vector(spec, n))
    u_cap = sim.map_cap(mu, h)
    coef = sim.error_map(op, h, u_cap) if n <= sim._MAP_MAX_N else None
    zhats = []
    for run, traj in enumerate(trajs):
        eps = spectral.embed(xhat0s[run], mu, n) - spectral.embed(x0s[run], mu, n)
        row = [spectral.embed(x0s[run], mu, n) + eps]
        for k in range(len(traj.times) - 1):
            u = traj.u[k - k % n_sub]
            if coef is not None and abs(u) <= u_cap:
                w = sim.map_weights(np.array([u / u_cap]))
                terms = np.matvec(coef, eps[None]).reshape(1, 2 * n + 1, -1)
                eps = np.matvec(terms, w)[0]
            else:
                eps = spectral.expm_action(op, eps[None], spectral.expm_plan(op, np.array([u]), h))[0]
            row.append(spectral.embed(traj.x[k + 1], mu, n) + eps)
        zhats.append(row)
    return np.swapaxes(np.array(zhats), 0, 1)


def finite_rhs_matrix_form(rows, K, delta: float, alpha: float) -> np.ndarray:
    """The finite loop's field sdot = L s + q(s) on packed rows s = (x, zhat),
    one row at a time.  L is built from the blocks of the embedded loop,
    with k = (K, delta) the feedback row (u = k zhat):

        L = [[A, b k], [0, A_emb(0) + B_emb k - alpha e3 e3']],

    A the quarter turn, b = (0, 1), A_emb(0) = [[A, 0], [0, 0]] and
    B_emb = (b, 0); q(s) = (0, 0, 0, -u innov, u zhat1 + alpha |x|^2 / 2) with
    innov = zhat2 - |x|^2 / 2 holds the two bilinear terms.  u and |x|^2 are
    dot products, and L s a matrix-vector product."""
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    b = np.array([0.0, 1.0])
    k = np.append(np.asarray(K, dtype=float), delta)
    a_emb, b_emb, e3 = np.zeros((3, 3)), np.append(b, 0.0), np.eye(3)[2]
    a_emb[:2, :2] = a
    lin = np.zeros((5, 5))
    lin[:2, :2] = a
    lin[:2, 2:] = np.outer(b, k)
    lin[2:, 2:] = a_emb + np.outer(b_emb, k) - alpha * np.outer(e3, e3)
    out = np.empty((len(rows), 5))
    for i, s in enumerate(np.asarray(rows, dtype=float)):
        x, zhat = s[:2], s[2:]
        u = np.vecdot(zhat, k)
        half_sq = 0.5 * np.vecdot(x, x)
        out[i] = np.matvec(lin, s)
        out[i, 3] -= u * (zhat[2] - half_sq)
        out[i, 4] += u * zhat[1] + alpha * half_sq
    return out
