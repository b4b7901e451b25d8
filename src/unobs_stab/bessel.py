"""Bessel functions of the first kind at integer order.

Only what the rest of the package needs: J_k(r) and its derivative for
integer k (possibly negative), three fixed numbers stated once as module
constants (J0_ZERO, the first positive zero j0 of J_0; J1_ARGMAX, the first
positive zero j1 of J_1', where J_1 peaks; and J1_MAX = J_1(j1)), and the
inverse of J_1 on its increasing branch [0, j1]: the reversion of J_1's
series for y <= 0.11 (within 2 ulp) and two polynomials in sqrt(J1_MAX - y)
above, with no loop and no Bessel series.

Evaluation is done by the ascending power series for small arguments, as a
polynomial in (r/2)^2 whose term count each radius reads from a fixed table,
and by Miller's backward recurrence with the standard normalization
J_0 + 2*sum_m J_{2m} = 1 for moderate ones.  Arguments are restricted to
|r| < 50, far beyond anything the simulations produce.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

# The alternating series suffers from cancellation once the peak term gets
# large: at r = 8 the peak is ~1e2, keeping the absolute error near 1e-14.
# Beyond that, Miller's recurrence is the accurate route.
_SERIES_MAX_R = 8.0
MAX_ARG = 50.0
# With q = (r/2)^2, J_k(r) = (r/2)^k / k! sum_m a[m, k] q^m, whose m-th term
# is at most e^{r/2} q^m / (m!)^2 in every order.  A row sums the terms
# before the first one whose bound is below _SERIES_TOL: n terms when
# _SERIES_Q[n-2] < q <= _SERIES_Q[n-1], _SERIES_Q[n-1] being the largest
# float q at which the bound on term n is below it (tests/oracles.py derives
# them in mpmath).  The last one passes q = 16, r = 8.
_SERIES_TOL = 1e-20
_SERIES_Q = (
    9.999999999e-21, 1.9999858579643753e-10, 7.111787171103947e-07, 4.890422136987925e-05,
    0.0006751737478456073, 0.004115921714829218, 0.015593620893129824, 0.04365535444390033,
    0.09955320562035656, 0.19620740769395878, 0.34720228387414, 0.5660151756142641,
    0.8655081039772002, 1.2576380761997024, 1.7533249259468466, 2.362422463159691,
    3.0937520808649515, 3.955170650904091, 4.953654420912475, 6.0953876298062415,
    7.38584925456125, 8.829894326279648, 10.431828138100705, 12.195472801070242,
    14.124226256195128, 16.221114201355043)
_SERIES_Q_ARRAY = np.array(_SERIES_Q)
# the term index m on a table's term axis
_TERM_INDEX = np.arange(len(_SERIES_Q))[:, None, None]


def _series_rows(r: np.ndarray, kmax: int, largest: float) -> np.ndarray:
    """Rows [J_0(r_i)..J_kmax(r_i)] by the ascending series, 0 <= r_i <= largest <= 8.

    Row i is (r_i/2)^k / k! times sum_m a[m, k] q_i^m, q_i = (r_i/2)^2, over
    the terms _SERIES_Q gives q_i: the powers of q_i by a running product,
    those past the row's own last term zeroed, and the terms added in order
    of m, so a row's value does not depend on the other rows it is evaluated
    with.
    """
    half = 0.5 * r
    q = half * half
    last = np.searchsorted(_SERIES_Q_ARRAY, q)
    # the terms up to the largest radius's last, on axes (term, order, row);
    # np.add.reduce adds the term planes in order of m unless the term axis
    # is the fastest in memory (one row and one order), which numpy sums
    # pairwise, so J_1 is always evaluated
    half_top = 0.5 * largest
    size = bisect_left(_SERIES_Q, half_top * half_top) + 1
    table, orders = _series_coefficients(max(kmax, 1))
    powers = np.empty((size, 1, r.shape[0]))
    powers[0] = 1.0
    powers[1:] = q
    np.multiply.accumulate(powers, axis=0, out=powers)
    powers *= _TERM_INDEX[:size] <= last
    rows = np.add.reduce(table[:size] * powers, axis=0)
    # times (r/2)^k / k!, a running product of (r/2) / k from k = 1
    lead = np.divide(half, orders)
    np.multiply.accumulate(lead, axis=0, out=lead)
    rows[1:] *= lead
    return rows[:kmax + 1].T.copy()


@lru_cache(maxsize=16)
def _series_coefficients(kmax: int):
    """The coefficients a[m, k] = prod_{i=1..m} -1 / (i (i + k)) for k <= kmax
    and m below the largest term count, each the exact ratio correctly
    rounded, on axes (m, k, 1); and the orders 1..kmax on axes (k, 1).  Both
    are read-only."""
    table = np.empty((len(_SERIES_Q), kmax + 1, 1))
    table[0] = 1.0
    den = [1] * (kmax + 1)
    for m in range(1, len(_SERIES_Q)):
        den = [-d * m * (m + k) for k, d in enumerate(den)]
        table[m, :, 0] = [1 / d for d in den]
    tables = (table, np.arange(1.0, kmax + 1)[:, None])
    for t in tables:
        t.flags.writeable = False
    return tables


def _miller_orders(r: float, kmax: int) -> np.ndarray:
    """J_0(r)..J_kmax(r) by backward recurrence, for _SERIES_MAX_R < r < 50."""
    m_start = int(max(kmax, r) + 30 + 2.5 * math.sqrt(max(kmax, r)))
    if m_start % 2 == 1:
        m_start += 1
    out = np.zeros(kmax + 1)
    f_next = 0.0
    f_cur = 1e-30
    even_sum = 0.0
    for m in range(m_start, 0, -1):
        f_prev = (2.0 * m / r) * f_cur - f_next
        f_next = f_cur
        f_cur = f_prev
        idx = m - 1
        if idx <= kmax:
            out[idx] = f_cur
        if idx > 0 and idx % 2 == 0:
            even_sum += f_cur
        if abs(f_cur) > 1e250:
            f_cur *= 1e-250
            f_next *= 1e-250
            out *= 1e-250
            even_sum *= 1e-250
    norm = f_cur + 2.0 * even_sum
    return out / norm


def bessel_j_all(kmax: int, r):
    """[J_0(r), ..., J_kmax(r)] for 0 <= r < 50.

    r may be a scalar (result shape (kmax+1,)) or an array of radii (result
    shape r.shape + (kmax+1,)); each radius is evaluated independently, by the
    series up to _SERIES_MAX_R and by Miller's recurrence beyond.
    """
    if kmax < 0:
        raise ValueError("bessel_j_all: kmax must be >= 0")
    radii = np.asarray(r, dtype=float)
    rows = radii.reshape(-1)
    largest = rows.max(initial=0.0)
    if not (rows.min(initial=0.0) >= 0.0 and largest < MAX_ARG):  # NaN fails too
        bad = rows[~((rows >= 0.0) & (rows < MAX_ARG))][0]
        raise ValueError(f"bessel_j_all: need 0 <= r < {MAX_ARG}, got r={bad}")
    if largest <= _SERIES_MAX_R:
        return _series_rows(rows, kmax, float(largest)).reshape(radii.shape + (kmax + 1,))
    far = rows > _SERIES_MAX_R
    out = np.empty((rows.shape[0], kmax + 1))
    out[~far] = _series_rows(rows[~far], kmax, _SERIES_MAX_R)
    for i in np.flatnonzero(far):
        out[i] = _miller_orders(float(rows[i]), kmax)
    return out.reshape(radii.shape + (kmax + 1,))


def bessel_j(k: int, r: float) -> float:
    """J_k(r) for integer k (any sign) and |r| < 50.

    Uses J_{-k}(r) = (-1)^k J_k(r) and J_k(-r) = (-1)^k J_k(r) to reduce to
    k >= 0, r >= 0.
    """
    if not math.isfinite(r) or abs(r) >= MAX_ARG:
        raise ValueError(f"bessel_j: argument out of range |r| < {MAX_ARG}: r={r}")
    k = int(k)
    sign = -1.0 if k % 2 and (k < 0) != (r < 0.0) else 1.0
    k, r = abs(k), -r if r < 0.0 else r
    return sign * float(bessel_j_all(k, r)[k])


def bessel_j_prime(k: int, r: float) -> float:
    """d/dr J_k(r), via the recurrence J_k' = (J_{k-1} - J_{k+1}) / 2."""
    return 0.5 * (bessel_j(k - 1, r) - bessel_j(k + 1, r))


# j0, j1 and J_1(j1), correctly rounded
J0_ZERO = float.fromhex("0x1.33d152e971b40p+1")
J1_ARGMAX = 1.8411837813406593
J1_MAX = 0.5818652242815964


# With s = r/2, J_1(r) = sum_m (-1)^m s^{2m+1} / (m!(m+1)!) inverts to
# s = sum_k b_k y^{2k+1}; these are b_0..b_9.  The first omitted one is
# b_10 = 62288343754211/143700480000 = 433.46, and b_{k+1}/b_k rises toward
# 1/J_1(j1)^2 = 2.954 (the reversion's radius is J_1(j1)), so the omitted
# tail is below b_10 y^21 / (1 - 2.954 y^2).  That stays below 2^-54 y, half
# an ulp of s >= y, up to y = 0.1134; at _Y_REV it is 0.54 * 2^-54 y.
_REVERSION = (1 / 1, 1 / 2, 2 / 3, 169 / 144, 6799 / 2880, 443821 / 86400,
              14239171 / 1209600, 1137478541 / 40642560,
              1000663219979 / 14631321600, 224809697103661 / 1316818944000)
_Y_REV = 0.11
# Above _Y_REV, J_1(r) = J1_MAX - s^2 near J_1's peak makes r analytic in
# s = sqrt(J1_MAX - y), with r = j1 at s = 0.  s in [0, _S_TOP] is split at
# its midpoint: r is a degree-17 polynomial in s below it and in s - _S_TOP
# above it (exact there, by Sterbenz).  Row 0 and row 1 hold their
# coefficients, lowest power first, interpolated at Chebyshev nodes in mpmath
# (tests/oracles.py); both are within 1.3e-15 relative of r up to r = 1.83.
_S_TOP = math.sqrt(J1_MAX - _Y_REV)
_S_PIECES = np.array([
    [1.8411837813406593, -2.2080343672753324, 0.07200962807917054, -0.3680589358820383,
     0.049910556205226254, -0.16468606637176741, 0.03970868482529793, -0.09823338306860648,
     0.03360260876472159, -0.0677192806889842, 0.03012630753494528, -0.05446833544559247,
     0.041265623869766864, -0.08531099984274801, 0.12159259364722287, -0.17891743666222726,
     0.1539167965687956, -0.07773635199024907],
    [0.22135294230847793, -2.7989508378651795, -1.3793843879069279, -2.0867690421232044,
     -3.260953883230438, -5.907676056666783, -11.327598049343797, -22.77392911974581,
     -47.210586855314844, -99.63667808569144, -209.62055355754026, -424.2933841410764,
     -784.7194744614472, -1245.064454944885, -1577.5880172225227, -1462.7032622681536,
     -868.9185486414641, -245.80198528866373]])


def inv_j1(y):
    """The unique r in [0, j1] with J_1(r) = y, for 0 <= y <= J1_MAX.

    J_1 is strictly increasing on [0, j1] (j1 = J1_ARGMAX), so the inverse is
    well defined there.  An entry with y <= 0.11 is the reversion of J_1's
    series, r = 2y P(y^2), within 2 ulp of the true r; an entry above it is
    one of two polynomials in s = sqrt(J1_MAX - y), within 1.3e-15 relative up
    to r = 1.83 and exactly j1 at y = J1_MAX.  Neither runs a Bessel series.
    y may be a scalar or an array: each entry is answered on its own, so it
    takes the same value as it would alone.
    """
    ys = np.asarray(y, dtype=float)
    target = ys.reshape(-1)
    bad = ~((target >= 0.0) & (target <= J1_MAX + 1e-12))
    if bad.any():
        raise ValueError(f"inv_j1: y={target[bad][0]} outside [0, J1(j1)] = [0, {J1_MAX}]")
    target = np.minimum(target, J1_MAX)
    x = 2.0 * target * _horner(_REVERSION, target * target)
    far = np.flatnonzero(target > _Y_REV)
    if far.size:
        s = np.sqrt(J1_MAX - target[far])
        high = s > 0.5 * _S_TOP
        x[far] = _horner(_S_PIECES[high.astype(np.intp)].T, np.where(high, s - _S_TOP, s))
    return float(x[0]) if ys.ndim == 0 else x.reshape(ys.shape)


def _horner(coefs, t):
    """sum_k coefs[k] t^k by Horner, coefs lowest power first (rows of
    coefficients, one per entry of t, for a 2-D coefs)."""
    poly = coefs[-1]
    for b in coefs[-2::-1]:
        poly = poly * t + b
    return poly
