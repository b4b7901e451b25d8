import math
import pathlib

import numpy as np
import pytest

from unobs_stab import bessel, cli, spectral
from unobs_stab.bessel import (
    J0_ZERO,
    J1_ARGMAX,
    J1_MAX,
    bessel_j,
    bessel_j_all,
    bessel_j_prime,
    inv_j1,
)

from oracles import (
    REVERSION_MAX_Y,
    SERIES_TOL,
    bessel_j_all_reference,
    bessel_j_series,
    inv_j1_reference,
    j0_first_zero,
    j1_reversion_coefficients,
    j1_top_pieces,
    j1_zero_of_derivative,
    series_coefficients,
    series_term_bound,
    series_thresholds,
)

# radii at the series ends (0, the smallest normal scale, the largest near
# radius 8 and just below it), a typical one, mixed near/far batches, J0's
# first zero and a radius near its second (where a series row that stops
# early shows in J0's last bits), and seeded batches at each scale a run meets
KERNEL_RADII = [0.0, 1e-300, 0.06, 7.999, 8.0, np.array([0.0, 1e-300, 0.06, 7.999, 8.0]),
                np.array([0.1, 20.0]), np.array([[0.1, 20.0], [8.0, 0.06]]), np.array([20.0, 30.0]),
                2.404825557695773, 5.52, np.array([2.404825557695773, 5.52, 0.3])]
KERNEL_RADII += [np.random.default_rng(5).uniform(0.0, top, 7)
                 for top in (1e-12, 1e-6, 1e-3, 0.1, 1.0, 4.0, 8.0, 20.0, 49.0)]


def test_values_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(-4, 0.0) == 0.0


def test_j1_at_one_matches_series_oracle():
    assert bessel_j(1, 1.0) == pytest.approx(bessel_j_series(1, 1.0), abs=1e-14)
    # frozen from the oracle at 30 digits
    assert bessel_j(1, 1.0) == pytest.approx(0.4400505857449335, abs=1e-13)


def test_series_and_recurrence_ranges_agree_with_oracle():
    for r in np.linspace(0.05, 49.0, 25):
        for k in (0, 1, 2, 5, 11, 23):
            assert bessel_j(k, float(r)) == pytest.approx(
                bessel_j_series(k, float(r)), abs=5e-14), (k, r)


def test_array_form_agrees_with_oracle_and_scalar_calls():
    # radii on both sides of the series/recurrence switch at 8
    radii = np.concatenate([np.linspace(0.0, 49.9, 21), [7.999, 8.0, 8.001]])
    table = bessel_j_all(24, radii)
    assert table.shape == (radii.shape[0], 25)
    for r, row in zip(radii, table):
        assert np.array_equal(row, bessel_j_all(24, float(r)))
        for k in (0, 1, 2, 5, 11, 24):
            assert row[k] == pytest.approx(bessel_j_series(k, float(r)), abs=5e-14), (k, r)
    with pytest.raises(ValueError):
        bessel_j_all(3, np.array([1.0, 50.0]))


def test_negative_order_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(1, 15))
        r = float(rng.uniform(0.0, 30.0))
        assert bessel_j(-k, r) == pytest.approx((-1.0) ** k * bessel_j(k, r), abs=1e-14)


def test_negative_argument_symmetry():
    for k in range(-5, 6):
        assert bessel_j(k, -2.3) == pytest.approx((-1.0) ** k * bessel_j(k, 2.3), abs=1e-14)


def test_domain_error():
    with pytest.raises(ValueError):
        bessel_j(0, 50.0)
    with pytest.raises(ValueError):
        bessel_j(2, -51.0)
    with pytest.raises(ValueError):
        bessel_j(0, float("nan"))


def test_prime_values():
    assert bessel_j_prime(1, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert bessel_j_prime(0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert abs(bessel_j_prime(1, J1_ARGMAX)) < 1e-12


def test_prime_consistent_with_central_difference():
    h = 1e-6
    for k in (0, 1, 3, 8):
        for r in (0.3, 1.7, 4.2, 11.0):
            fd = (bessel_j(k, r + h) - bessel_j(k, r - h)) / (2.0 * h)
            assert bessel_j_prime(k, r) == pytest.approx(fd, abs=1e-8)


def test_zeros_against_series_oracle():
    assert J1_ARGMAX == pytest.approx(j1_zero_of_derivative(), abs=1e-12)
    assert J0_ZERO == pytest.approx(j0_first_zero(), abs=1e-12)
    assert J1_ARGMAX == pytest.approx(1.84118378, abs=1e-8)
    assert J0_ZERO == pytest.approx(2.40482556, abs=1e-8)
    assert 0.0 < J1_ARGMAX < J0_ZERO
    assert abs(bessel_j(0, J0_ZERO)) < 1e-12


def test_zeros_against_mpmath():
    # j0, j1 and J1(j1) are correctly rounded
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        j1 = mpmath.besseljzero(1, 1, derivative=1)
        assert J0_ZERO == float(mpmath.besseljzero(0, 1))
        assert J1_ARGMAX == float(j1)
        assert J1_MAX == float(mpmath.besselj(1, j1))


def test_normalization_identity():
    # sum over |k| <= 20 of J_k(r)^2 is 1 up to a vanishing tail for r <= 2
    for r in (0.5, 1.0, 2.0):
        total = sum(bessel_j(k, r) ** 2 for k in range(-20, 21))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_magnitude_bound():
    # |J_k(r)| <= (r/2)^k / k! for k >= 0
    for r in np.linspace(0.1, 6.0, 14):
        vals = bessel_j_all(12, float(r))
        for k in range(13):
            assert abs(vals[k]) <= (r / 2.0) ** k / math.factorial(k) + 1e-15


def test_inv_j1_basics():
    assert inv_j1(0.0) == 0.0
    y = bessel_j(1, 1.0)
    assert inv_j1(y) == pytest.approx(1.0, abs=1e-10)


def test_inv_j1_domain_errors():
    with pytest.raises(ValueError):
        inv_j1(bessel_j(1, J1_ARGMAX) + 0.1)
    with pytest.raises(ValueError):
        inv_j1(-0.05)


def test_inv_j1_accepts_rounding_slack_above_its_range():
    # a y within 1e-12 above J1(j1) is read as J1(j1), which maps to j1
    assert inv_j1(J1_MAX + 5e-13) == inv_j1(J1_MAX) == J1_ARGMAX


def test_inv_j1_monotone_and_left_inverse():
    rs = np.linspace(0.0, J1_ARGMAX, 80)
    ys = [bessel_j(1, float(r)) for r in rs]
    # J1 strictly increasing on [0, j1]
    assert all(b > a for a, b in zip(ys[:-1], ys[1:]))
    inv = [inv_j1(y) for y in ys]
    assert np.max(np.abs(np.asarray(inv) - rs)) < 1e-10
    assert all(b > a for a, b in zip(inv[:-1], inv[1:]))


@pytest.mark.parametrize("kmax", [0, 2, 24])
@pytest.mark.parametrize("r", KERNEL_RADII, ids=lambda r: f"{np.ndim(r)}d-{np.max(r):.3g}")
def test_kernel_bytes_match_reference(kmax, r):
    # the leaner kernel keeps every row's truncation and summation order
    got, want = bessel_j_all(kmax, r), bessel_j_all_reference(kmax, r)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_series_coefficients_are_the_exact_ratios_rounded():
    # a[m, k] = prod_{i<=m} -1/(i(i+k)), correctly rounded, for every term
    # count a row can take
    terms = len(bessel._SERIES_Q)
    table, orders = bessel._series_coefficients(30)
    exact = series_coefficients(terms, 30)
    assert table.shape == (terms, 31, 1)
    assert table[:, :, 0].tolist() == [[float(a) for a in row] for row in exact]
    assert orders[:, 0].tolist() == list(range(1, 31))


def test_series_thresholds_bound_the_first_omitted_term():
    # a row with q <= Q_n sums n terms: at Q_n the bound e^{sqrt q} q^n / (n!)^2
    # on term n is below the tolerance, one float above it it is not, and the
    # last threshold covers r = 8
    assert bessel._SERIES_Q == series_thresholds()
    assert bessel._SERIES_TOL == float(SERIES_TOL)
    for n, q in enumerate(bessel._SERIES_Q, start=1):
        assert series_term_bound(n, q) < SERIES_TOL
        assert series_term_bound(n, math.nextafter(q, math.inf)) >= SERIES_TOL
    assert bessel._SERIES_Q[-2] < (0.5 * bessel._SERIES_MAX_R) ** 2 <= bessel._SERIES_Q[-1]


def test_series_rows_sum_the_terms_their_thresholds_give(monkeypatch):
    # with every coefficient 1 a row sums 1 + q + ... + q^(n-1): n terms just
    # below Q_n and n + 1 just above it, for the thresholds where q^n shows,
    # alone and in one batch (the real term at a threshold is below 1e-20,
    # too small to show in a sum near 1)
    table, orders = bessel._series_coefficients(0)
    monkeypatch.setattr(bessel, "_series_coefficients", lambda kmax: (np.ones_like(table), orders))
    radii, want = [], []
    for n, q_n in enumerate(bessel._SERIES_Q[9:25], start=10):
        for factor, terms in ((1.0 - 1e-9, n), (1.0 + 1e-9, n + 1)):
            r = 2.0 * math.sqrt(q_n) * factor
            q = (0.5 * r) ** 2
            radii.append(r)
            want.append(sum(q ** m for m in range(terms)))
    for r, total in zip(radii, want):
        assert bessel._series_rows(np.array([r]), 0, r)[0, 0] == pytest.approx(total, rel=1e-13)
    batch = bessel._series_rows(np.array(radii), 0, max(radii))[:, 0]
    assert batch == pytest.approx(want, rel=1e-13)


def test_series_kernel_against_mpmath():
    # every order 0..30 on a grid of [0, 8] within 5e-14 of 40-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    radii = np.linspace(0.0, 8.0, 161)
    got = bessel_j_all(30, radii)
    with mpmath.workdps(40):
        want = np.array([[float(mpmath.besselj(k, mpmath.mpf(float(r)))) for k in range(31)]
                         for r in radii])
    assert np.max(np.abs(got - want)) < 5e-14


def test_series_rows_do_not_depend_on_their_batch():
    # a row alone, among rows of other term counts, and in any order of them
    radii = np.concatenate([[0.0, 1e-300, 1e-10], np.random.default_rng(8).uniform(0.0, 8.0, 40)])
    for kmax in (0, 2, 24):
        batch = bessel_j_all(kmax, radii)
        perm = np.random.default_rng(kmax).permutation(radii.shape[0])
        assert bessel_j_all(kmax, radii[perm]).tobytes() == batch[perm].tobytes()
        for r, row in zip(radii, batch):
            assert bessel_j_all(kmax, np.array([r])).tobytes() == row.tobytes()


@pytest.mark.parametrize("frac", [1.0, 0.9])
def test_inv_j1_bytes_match_reference(frac):
    cap = frac * J1_ARGMAX
    ys = np.linspace(0.0, bessel_j(1, cap), 41)
    assert inv_j1(ys).tobytes() == inv_j1_reference(ys).tobytes()
    assert all(inv_j1(float(y)) == inv_j1_reference(float(y)) for y in ys[::8])


def test_inv_j1_reversion_coefficients_and_threshold():
    # bessel's b_0..b_9 are the exact reversion rounded to float, and at its
    # threshold the first omitted term b_10 y^21 with a geometric tail of ratio
    # 1/J1(j1)^2, the limit b_{k+1}/b_k rises toward, stays below 2^-54 y
    exact = j1_reversion_coefficients(21)
    assert bessel._REVERSION == tuple(float(b) for b in exact[:10])
    assert bessel._Y_REV == REVERSION_MAX_Y
    ratio = 1.0 / bessel_j(1, J1_ARGMAX) ** 2
    rises = [exact[k + 1] / exact[k] for k in range(10, 20)]
    assert rises == sorted(rises) and rises[-1] < ratio
    y = bessel._Y_REV
    assert float(exact[10]) * y ** 20 / (1.0 - ratio * y * y) < 2.0 ** -54


def test_inv_j1_top_pieces_match_oracle():
    # bessel's two polynomials in sqrt(J1(j1) - y) are the oracle's
    # interpolants rounded to float, on the same split of s's range
    s_top, low, high = j1_top_pieces()
    assert bessel._S_TOP == s_top
    assert bessel._S_PIECES.tolist() == [list(low), list(high)]


def test_inv_j1_within_3e_15_above_the_reversion():
    # relative to the root in 40-digit arithmetic, up to r = 1.83; nearer the
    # flat top at j1 the root moves by more than 1e-15 per ulp of y
    mpmath = pytest.importorskip("mpmath")
    ys = np.linspace(REVERSION_MAX_Y, bessel_j(1, 1.83), 1501)[1:]
    got = inv_j1(ys)
    with mpmath.workdps(40):
        j1 = mpmath.besseljzero(1, 1, derivative=1)
        for y, r in zip(ys.tolist(), got.tolist()):
            true = mpmath.findroot(lambda t: mpmath.besselj(1, t) - y, (0.1, j1),
                                   solver="illinois")
            assert abs(r - true) <= 3e-15 * true, y


def test_inv_j1_runs_no_series_and_is_monotone(monkeypatch):
    # on a dense grid of its whole range: strictly increasing, and not one
    # Bessel series row (Newton above y = 0.11 made up to 8 per entry)
    rows, series_rows = [], bessel._series_rows
    monkeypatch.setattr(bessel, "_series_rows",
                        lambda *args: rows.append(args) or series_rows(*args))
    r = inv_j1(np.linspace(0.0, J1_MAX, 200001))
    assert rows == []
    assert np.all(np.diff(r) > 0.0)


def test_inv_j1_within_two_ulp_on_the_reversion():
    mpmath = pytest.importorskip("mpmath")
    ys = np.linspace(0.0, REVERSION_MAX_Y, 201)[1:]
    got = inv_j1(ys)
    with mpmath.workdps(40):
        for y, r in zip(ys, got):
            true = mpmath.findroot(lambda t: mpmath.besselj(1, t) - float(y), 2.0 * float(y))
            assert abs(mpmath.mpf(float(r)) - true) <= 2 * np.spacing(float(true)), y


def test_inv_j1_answers_the_hold_loop_without_bessel_rows(tmp_path, monkeypatch):
    # the feedback inputs of the benchmark's spectral-hold workload at seed 1
    # (|zhat_{e1}| <= 0.0475) all lie on the reversion: no _series_rows call
    # in inv_j1 (2.42 per call with Newton from 2y on every entry)
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS, load_reference, select_inputs

    workload = WORKLOADS["spectral-hold"]
    config = tmp_path / "scenario.cfg"
    config.write_text(workload.scenario(select_inputs(workload, load_reference(), 1)[1]),
                      encoding="utf-8")
    cfg = cli.parse_config(str(config))
    inputs, rows, series_rows = [], [], bessel._series_rows
    monkeypatch.setattr(spectral, "inv_j1", lambda y: inputs.append(y) or inv_j1(y))
    cli._run_batch(cfg, *cli.draw_initial_conditions(cfg))
    monkeypatch.setattr(bessel, "_series_rows",
                        lambda *args: rows.append(args) or series_rows(*args))
    for y in inputs:
        inv_j1(y)
    assert len(inputs) == 193 and max(float(np.max(y)) for y in inputs) < 0.05
    assert rows == []
