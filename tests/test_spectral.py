import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from unobs_stab import bessel, spectral
from unobs_stab.bessel import J1_ARGMAX, bessel_j, inv_j1
from unobs_stab.observability import GRAMIAN_STEPS, working_disc_inverse_lipschitz
from unobs_stab.spectral import (
    J0_RADIAL,
    J2_COS2THETA,
    KINDS,
    NORM,
    NORM_SQ,
    BESSEL_SERIES,
    WEAK_NORM_BOUND,
    ObserverOperator,
    OutputSpec,
    SpectralParams,
    default_j,
    embed,
    embedded_target,
    expm_action,
    expm_plan,
    generator_matrix,
    left_inverse,
    linearized_output,
    observer_matrix,
    output_value,
    output_vector,
    polar as polar_form,
    sample_hold_feedback,
    taylor_plan,
    truncation_tail_bound,
    weak_norm,
)

from oracles import bessel_series_per_order, bessel_tail_energy


def polar(r, theta):
    return np.array([r * math.cos(theta), r * math.sin(theta)])


def at_e1(c, n=1):
    """Coefficient vectors of order n holding c at e_1 and 0 elsewhere."""
    c = np.asarray(c, dtype=complex)
    z = np.zeros(c.shape + (2 * n + 1,), dtype=complex)
    z[..., n + 1] = c
    return z


class TestEmbed:
    def test_origin_is_constant_mode(self):
        z = embed([0.0, 0.0], mu=0.5, n=6)
        assert np.allclose(z, embedded_target(6))

    def test_positive_axis(self):
        mu, n = 0.7, 8
        r = 1.3
        z = embed([r, 0.0], mu, n)
        for k in range(-n, n + 1):
            want = (1j) ** k * bessel_j(k, mu * r)
            assert z[k + n] == pytest.approx(want, abs=1e-14)

    def test_conjugate_symmetry(self):
        z = embed(polar(1.1, 0.8), mu=1.0, n=10)
        for k in range(1, 11):
            assert z[10 - k] == pytest.approx((-1.0) ** k * np.conj(z[10 + k]), abs=1e-14)

    def test_unit_norm_up_to_tail(self):
        # mu*r = 1, N = 20: the dropped tail is far below 1e-12
        z = embed([1.0, 0.0], mu=1.0, n=20)
        assert np.sum(np.abs(z) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_tiny_truncation(self):
        with pytest.raises(ValueError):
            embed([1.0, 0.0], mu=1.0, n=0)


def generator(u, mu, z):
    """G(u) z: the observer operator at alpha = 0, where zeta only sets N."""
    op = ObserverOperator(mu, 0.0, embedded_target((len(z) - 1) // 2))
    return op.apply(z, op.offdiag(u), 0.0)


class TestGenerator:
    def test_u_zero_is_diagonal(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=9) + 1j * rng.normal(size=9)
        out = generator(0.0, 2.0, z)
        k = np.arange(-4, 5)
        assert np.allclose(out, -1j * k * z)

    def test_constant_mode_image(self):
        # sin(s) = (e_1 - e_{-1}) / (2i): driving the constant mode populates
        # the neighbors with -+1/2
        n = 3
        out = generator(1.0, 1.0, embedded_target(n))
        want = np.zeros(2 * n + 1, dtype=complex)
        want[n + 1] = 0.5
        want[n - 1] = -0.5
        assert np.allclose(out, want)

    def test_skew_symmetry_of_quadratic_form(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            z = rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)
            u = float(rng.normal())
            out = generator(u, 0.8, z)
            assert abs(np.real(np.vdot(z, out))) < 1e-14 * np.vdot(z, z).real

    def test_matrix_matches_apply_and_is_skew_hermitian(self):
        rng = np.random.default_rng(2)
        n = 7
        g = generator_matrix(0.4, 1.3, n)
        assert np.array_equal(g, -g.conj().T)
        z = rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)
        assert np.allclose(g @ z, generator(0.4, 1.3, z), atol=1e-14)


class TestObserverMatrix:
    def test_alpha_zero_reduces_to_generator(self):
        n = 5
        zeta = embedded_target(n)
        assert np.allclose(observer_matrix(0.3, 1.0, 0.0, zeta),
                           generator_matrix(0.3, 1.0, n))

    def test_rank_one_correction(self):
        n = 4
        zeta = embedded_target(n)
        m = observer_matrix(0.0, 1.0, 1.0, zeta)
        want = generator_matrix(0.0, 1.0, n) - np.outer(zeta, zeta.conj())
        assert np.allclose(m, want)

    def test_hermitian_part(self):
        rng = np.random.default_rng(3)
        n = 6
        zeta = rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)
        alpha = 1.7
        m = observer_matrix(0.9, 0.5, alpha, zeta)
        herm = 0.5 * (m + m.conj().T)
        assert np.allclose(herm, -alpha * np.outer(zeta, zeta.conj()), atol=1e-14)
        assert np.max(np.linalg.eigvalsh(herm)) <= 1e-13

    def test_error_norm_derivative_quadratic_form(self):
        # d||eps||^2/dt = 2 Re <M eps, eps> = -2 alpha |<eps, zeta>|^2
        rng = np.random.default_rng(6)
        n = 8
        zeta = embedded_target(n)
        zeta[n + 2] = 0.5j  # non-trivial functional
        alpha = 2.3
        m = observer_matrix(0.7, 1.1, alpha, zeta)
        for _ in range(10):
            eps = rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)
            got = 2.0 * np.real(np.vdot(eps, m @ eps))
            want = -2.0 * alpha * abs(np.vdot(zeta, eps)) ** 2
            assert got == pytest.approx(want, abs=1e-13 * np.vdot(eps, eps).real)


class TestObserverOperator:
    MU, N = 0.3, 10

    def zetas(self):
        n = self.N
        rng = np.random.default_rng(21)
        return {"e0": embedded_target(n),
                "j2": output_vector(OutputSpec(kind=J2_COS2THETA), n),
                "random": rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)}

    @pytest.mark.parametrize("alpha", [0.0, 1.7])
    @pytest.mark.parametrize("which", ["e0", "j2", "random"])
    def test_rows_match_dense_oracle(self, alpha, which):
        zeta = self.zetas()[which]
        op = ObserverOperator(self.MU, alpha, zeta)
        rng = np.random.default_rng(22)
        us = np.array([0.0, 0.4, -2.5, 30.0])
        z = rng.normal(size=(4, 2 * self.N + 1)) + 1j * rng.normal(size=(4, 2 * self.N + 1))
        got = op.apply(z, op.offdiag(us), 0.0)
        for u, row, out in zip(us, z, got):
            want = observer_matrix(u, self.MU, alpha, zeta) @ row
            assert np.linalg.norm(out - want) <= 1e-14 * np.linalg.norm(row)

    def test_measurement_term(self):
        # y enters as + alpha y zeta
        zeta = self.zetas()["random"]
        op = ObserverOperator(self.MU, 1.7, zeta)
        z = np.random.default_rng(23).normal(size=(3, 2 * self.N + 1)) + 0j
        y = np.array([0.5, -1.0 + 2.0j, 0.0])
        c = op.offdiag(np.array([0.1, 0.2, 0.3]))
        want = op.apply(z, c, 0.0) + 1.7 * y[:, None] * zeta
        assert np.allclose(op.apply(z, c, y), want, rtol=0.0, atol=1e-13)

    def test_row_is_the_same_in_any_batch(self):
        zeta = self.zetas()["random"]
        op = ObserverOperator(self.MU, 1.7, zeta)
        rng = np.random.default_rng(24)
        us = rng.normal(size=7)
        z = rng.normal(size=(7, 2 * self.N + 1)) + 1j * rng.normal(size=(7, 2 * self.N + 1))
        y = rng.normal(size=7) + 1j * rng.normal(size=7)
        batch = op.apply(z, op.offdiag(us), y)
        for i in range(7):
            one = op.apply(z[i:i + 1], op.offdiag(us[i:i + 1]), y[i:i + 1])
            assert np.array_equal(one[0], batch[i])
            assert np.array_equal(op.apply(z[::-1], op.offdiag(us[::-1]), y[::-1])[6 - i],
                                  batch[i])


class TestPropagation:
    MU, ALPHA, N = 0.1, 1.0, 24

    @staticmethod
    def one_row(op, z, u, h):
        """expm(h * observer_matrix(u, ...)) z for the one vector z."""
        rows = np.asarray(z, dtype=complex)[None]
        return expm_action(op, rows, expm_plan(op, np.array([u]), h))[0]

    def vectors(self, zeta):
        rng = np.random.default_rng(11)
        m = 2 * self.N + 1
        eps = rng.normal(size=m) + 1j * rng.normal(size=m)
        # one vector the rank-one term does not see at t=0
        perp = eps - zeta * np.vdot(zeta, eps) / np.vdot(zeta, zeta)
        # an error vector of the loop, its energy in the low orders: the series
        # stops on its measured tail after fewer terms than for the others
        loop = embed([0.3, -0.5], self.MU, self.N) - embed([-0.4, 0.2], self.MU, self.N)
        return [eps / np.linalg.norm(eps), perp / np.linalg.norm(perp), loop]

    @pytest.mark.parametrize("kind", [NORM_SQ, J2_COS2THETA])
    @pytest.mark.parametrize("h", [1e-3, 1.0 / 32.0, 0.5])
    @pytest.mark.parametrize("u", [0.0, 0.3, 5.0, 40.0])
    def test_matches_dense_expm(self, kind, h, u):
        zeta = output_vector(OutputSpec(kind=kind), self.N)
        dense = scipy.linalg.expm(h * observer_matrix(u, self.MU, self.ALPHA, zeta))
        op = ObserverOperator(self.MU, self.ALPHA, zeta)
        for eps in self.vectors(zeta):
            got = self.one_row(op, eps, u, h)
            size = np.linalg.norm(eps)
            assert np.linalg.norm(got - dense @ eps) < 1e-14 * size
            assert np.linalg.norm(got) <= size + 1e-15

    def test_rows_take_their_own_input(self):
        # rows with different u take different sub-step counts and norm bounds,
        # and the loop's error vector stops early beside random rows that run on
        # for more terms; each row comes out bitwise as it does alone
        zeta = output_vector(OutputSpec(kind=J2_COS2THETA), self.N)
        full, _, loop = self.vectors(zeta)
        us = np.tile([0.0, 0.3, 5.0, 40.0, 400.0], 2)
        eps = np.array([full, loop] * 5)
        op = ObserverOperator(self.MU, self.ALPHA, zeta)
        batch = expm_action(op, eps, expm_plan(op, us, 0.5))
        for u, e, row in zip(us, eps, batch):
            assert np.array_equal(self.one_row(op, e, u, 0.5), row)

    @classmethod
    def terms_per_substep(cls, monkeypatch, op, z, u, h):
        """The Taylor terms (op.apply calls) of each of expm_action's
        sub-steps on the one row z: a sub-step starts with the norm of its
        input, then each term is one apply and one norm."""
        events = []
        sq_norms, apply = spectral._sq_norms, ObserverOperator.apply
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_sq_norms", lambda rows: events.append("n") or sq_norms(rows))
            patch.setattr(ObserverOperator, "apply",
                          lambda self, *args: events.append("a") or apply(self, *args))
            cls.one_row(op, z, u, h)
        counts = []
        for before, event in zip([None] + events, events):
            if event == "a":
                counts[-1] += 1
            elif before != "a":
                counts.append(0)
        return counts

    @pytest.mark.parametrize("h", [1e-3, 1.0 / 32.0, 0.5, 2.0 * math.pi / GRAMIAN_STEPS])
    @pytest.mark.parametrize("u", [0.0, 0.3, 5.0, 40.0, 400.0])
    def test_measured_stop_ends_by_the_degree(self, monkeypatch, u, h):
        # the measured tail is the one stop rule: it ends every sub-step by the
        # a-priori degree m*, the least m with theta^{m+1} / (m+1)! <= 2^-53;
        # e_{+-N} at u = 0 and alpha = 0, as the Gramian propagates them, have
        # |h M e| equal to the bound, and reach m* (the last h is the Gramian's)
        cases = []
        for kind in (NORM_SQ, J2_COS2THETA):
            zeta = output_vector(OutputSpec(kind=kind), self.N)
            op = ObserverOperator(self.MU, self.ALPHA, zeta)
            cases += [(op, eps, False) for eps in self.vectors(zeta)]
        gramian = ObserverOperator(self.MU, 0.0, embedded_target(self.N))
        cases += [(gramian, e, u == 0.0) for e in np.eye(2 * self.N + 1)[[0, -1]]]
        for op, z, tight in cases:
            subs, theta = taylor_plan(op.n, op.mu, op.load, h, u)
            degree = 1
            while theta ** (degree + 1) / math.factorial(degree + 1) > 2.0 ** -53:
                degree += 1
            counts = self.terms_per_substep(monkeypatch, op, z, u, h)
            assert len(counts) == subs and max(counts) <= degree
            assert not tight or counts == [degree] * len(counts)


class TestOutputs:
    def test_linearized_output_examples(self):
        mu = 0.8
        spec = OutputSpec(kind=NORM_SQ)
        assert linearized_output(spec, mu, 0.0) == pytest.approx(1.0)
        r = 1.2
        assert linearized_output(spec, mu, 0.5 * r * r) == pytest.approx(bessel_j(0, mu * r))
        spec = OutputSpec(kind=J0_RADIAL)
        assert linearized_output(spec, mu, bessel_j(0, mu * r) - 1.0) == pytest.approx(
            bessel_j(0, mu * r))
        spec = OutputSpec(kind=NORM)
        assert linearized_output(spec, mu, r) == pytest.approx(bessel_j(0, mu * r))
        spec = OutputSpec(kind=J2_COS2THETA)
        assert linearized_output(spec, mu, 0.123) == pytest.approx(0.123)

    def test_radial_kinds_linearize_to_floats(self):
        # the radial kinds' functional is real, so their rows stay float and
        # the observer's inputs are complex-by-real products; the other
        # kinds' values are complex
        y = np.array([[0.0, 0.3], [1.2, 2.5]])
        for kind in KINDS:
            spec = OutputSpec(kind=kind, coeffs={-1: 0.7} if kind == BESSEL_SERIES else {})
            got = linearized_output(spec, 0.8, y)
            radial = kind in (NORM_SQ, NORM, J0_RADIAL)
            assert (got.shape, got.dtype) == (y.shape, np.dtype(float if radial else complex))
            assert isinstance(linearized_output(spec, 0.8, 0.3), float if radial else complex)

    def test_negative_measurements_rejected(self):
        spec = OutputSpec(kind=NORM_SQ)
        with pytest.raises(ValueError):
            linearized_output(spec, 1.0, -1e-3)
        spec = OutputSpec(kind=NORM)
        with pytest.raises(ValueError):
            linearized_output(spec, 1.0, -0.2)

    def test_radial_kinds_measure_constant_mode(self):
        for kind in (NORM_SQ, J0_RADIAL, NORM):
            zeta = output_vector(OutputSpec(kind=kind), 6)
            assert np.allclose(zeta, embedded_target(6))

    def test_j2_functional_support(self):
        zeta = output_vector(OutputSpec(kind=J2_COS2THETA), 6)
        assert zeta[6 + 2] == pytest.approx(-0.5)
        assert zeta[6 - 2] == pytest.approx(-0.5)
        assert np.count_nonzero(zeta) == 2
        with pytest.raises(ValueError):
            output_vector(OutputSpec(kind=J2_COS2THETA), 1)

    def test_functional_matches_transformed_measurement_on_grid(self):
        # <embed(x), zeta> = linearized_output(h(x)) on a polar grid
        n = 20
        specs = [
            (OutputSpec(kind=NORM_SQ), 1.0),
            (OutputSpec(kind=J0_RADIAL), 0.7),
            (OutputSpec(kind=NORM), 1.3),
            (OutputSpec(kind=J2_COS2THETA), 1.0),
            (OutputSpec(kind=BESSEL_SERIES,
                        coeffs={-1: 0.4 - 0.2j, 0: 1.0, 3: 0.25j}), 0.9),
        ]
        for spec, mu in specs:
            zeta = output_vector(spec, n)
            for r in (0.0, 0.4, 1.1, 2.0 / mu):
                for theta in (0.0, 0.9, 2.4, 4.4):
                    x = polar(r, theta)
                    lhs = np.vdot(zeta, embed(x, mu, n))
                    rhs = linearized_output(spec, mu, output_value(spec, mu, *polar_form(x)))
                    assert abs(lhs - rhs) < 1e-10, (spec.kind, r, theta)

    def test_j2_is_its_bessel_series(self):
        # j2_cos2theta is the coefficient map {2: 1/2, -2: 1/2}: the same
        # measurement, bit for bit, as that bessel_series
        j2 = OutputSpec(kind=J2_COS2THETA)
        series = OutputSpec(kind=BESSEL_SERIES, coeffs={2: 0.5, -2: 0.5})
        rng = np.random.default_rng(5)
        x = rng.uniform(-20.0, 20.0, size=(400, 2))
        for mu in (0.1, 1.0):
            got = linearized_output(j2, mu, output_value(j2, mu, *polar_form(x)))
            want = linearized_output(series, mu, output_value(series, mu, *polar_form(x)))
            assert np.array_equal(got, want)
        assert np.array_equal(output_vector(j2, 6), output_vector(series, 6))

    @pytest.mark.parametrize("coeffs", [
        {-1: 0.4 - 0.2j, 0: 1.0, 3: 0.25j},
        {-3: 1.0, -1: 2.0, 1: -0.5, 2: 0.3j, 5: 1e-3, 7: 2.0},
    ], ids=["3-orders", "6-orders"])
    def test_series_matches_per_order_loop(self, coeffs):
        # the series arm sums all orders at once; a sum in another order may
        # move the last bits, at most a few ulp of sum |c_k| (|J_k| <= 1)
        spec = OutputSpec(kind=BESSEL_SERIES, coeffs=coeffs)
        x = np.random.default_rng(7).uniform(-20.0, 20.0, size=(500, 2))
        tol = 8.0 * np.finfo(float).eps * sum(abs(c) for c in coeffs.values())
        for mu in (0.1, 1.0):
            got = output_value(spec, mu, *polar_form(x))
            assert np.max(np.abs(got - bessel_series_per_order(coeffs, mu, x))) <= tol

    def test_named_kind_takes_no_coefficients(self):
        with pytest.raises(ValueError, match="norm_sq takes no coefficients"):
            OutputSpec(kind=NORM_SQ, coeffs={3: 1.0})

    def test_bessel_series_requires_coeff(self):
        with pytest.raises(ValueError):
            OutputSpec(kind=BESSEL_SERIES, coeffs={})
        with pytest.raises(ValueError):
            output_vector(OutputSpec(kind=BESSEL_SERIES, coeffs={5: 1.0}), 3)


class TestWeakNorm:
    def test_examples(self):
        assert weak_norm(np.zeros(7)) == 0.0
        e1 = np.zeros(5, dtype=complex)
        e1[2 + 1] = 1.0
        assert weak_norm(e1) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_constant_value(self):
        nu = WEAK_NORM_BOUND
        assert nu == pytest.approx(1.7758, abs=1e-4)
        # direct summation with integral tail correction
        k = np.arange(1, 1_000_001, dtype=float)
        direct = 1.0 + 2.0 * np.sum(1.0 / (k * k + 1.0)) + 2.0 / 1_000_000.5
        assert nu == pytest.approx(math.sqrt(direct), abs=1e-9)

    def test_dominated_by_norm(self):
        rng = np.random.default_rng(4)
        nu = WEAK_NORM_BOUND
        for _ in range(20):
            n = int(rng.integers(1, 30))
            z = rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)
            assert weak_norm(z) <= nu * np.linalg.norm(z) + 1e-12


class TestInverse:
    def test_zero_maps_to_origin(self):
        assert np.allclose(left_inverse(at_e1(0.0), 0.5, default_j())[0], [0.0, 0.0])

    def test_round_trip_inside_inversion_ball(self):
        mu, j = 0.4, default_j()
        for r in (0.1, 0.8, 0.5 * j / mu):
            for theta in (0.0, 1.0, 2.5, 5.0):
                c = 1j * bessel_j(1, mu * r) * np.exp(-1j * theta)
                assert np.allclose(left_inverse(at_e1(c), mu, j)[0], polar(r, theta), atol=1e-10)

    def test_clamped_branch(self):
        mu, j = 0.3, default_j()
        j1 = J1_ARGMAX
        big = 2.0 * bessel_j(1, j1)
        x = left_inverse(at_e1(big + 0.0j), mu, j)[0]
        assert np.linalg.norm(x) == pytest.approx(j1 / mu, abs=1e-12)

    def test_clamped_past_the_inverse(self):
        # the clamp flag marks the rows whose e_1 coefficient leaves the
        # inverse of J1 for the blend, at J1(j) exactly
        mu, j, n = 0.3, default_j(), 4
        y0 = bessel_j(1, j)
        zhat = np.zeros((3, 2 * n + 1), dtype=complex)
        zhat[:, n + 1] = [1j * y0, -np.nextafter(y0, 1.0), 0.5 * y0]
        assert left_inverse(zhat, mu, j)[1].tolist() == [False, True, False]
        inside = np.linalg.norm(left_inverse(zhat[0], mu, j)[0])
        assert inside == pytest.approx(j / mu, abs=1e-12)

    def test_blend_is_c1_and_monotone(self):
        mu, j = 1.0, default_j()
        j1 = J1_ARGMAX
        y0, y1 = bessel_j(1, j), bessel_j(1, j1)
        h = 1e-7
        for y_edge in (y0, y1):
            lo = np.linalg.norm(left_inverse(at_e1(y_edge - h), mu, j)[0])
            hi = np.linalg.norm(left_inverse(at_e1(y_edge + h), mu, j)[0])
            mid = np.linalg.norm(left_inverse(at_e1(y_edge), mu, j)[0])
            left = (mid - lo) / h
            right = (hi - mid) / h
            # a kink would show up as an O(10) slope jump; curvature of the
            # blend makes the one-sided quotients differ only at O(h * g'')
            assert abs(left - right) < 0.05 * (1.0 + max(abs(left), abs(right)))
        ys = np.linspace(1e-6, y1 * 1.05, 400)
        radii = [np.linalg.norm(left_inverse(at_e1(y), mu, j)[0]) for y in ys]
        assert all(b >= a - 1e-12 for a, b in zip(radii[:-1], radii[1:]))

    @pytest.mark.parametrize("mu,r2", [(0.1, 2.9), (0.25, 5.0)])
    def test_sampled_lipschitz_matches_closed_form(self, mu, r2):
        # difference quotients of the inverse between neighbours of a polar
        # grid over the working disc |c| <= J1(mu R2): bounded by the closed
        # form, and approaching it (the maximum is radial, at the edge)
        ell = working_disc_inverse_lipschitz(mu, r2)
        a = np.linspace(0.0, bessel_j(1, mu * r2), 401)[1:]
        theta = np.linspace(0.0, 2.0 * math.pi, 65)
        c = a[:, None] * np.exp(1j * theta)[None, :]
        x = left_inverse(at_e1(c), mu, default_j())[0]
        sampled = max(np.max(np.linalg.norm(np.diff(x, axis=ax), axis=-1)
                             / np.abs(np.diff(c, axis=ax))) for ax in (0, 1))
        assert 0.99 * ell < sampled <= ell

    def test_left_inverse_round_trip_grid(self):
        mu, j, n = 0.25, default_j(), 16
        for r_frac in np.linspace(0.0, 0.9, 7):
            for theta in np.linspace(0.0, 2.0 * math.pi, 9):
                x = polar(r_frac * j / mu, theta)
                err = np.linalg.norm(left_inverse(embed(x, mu, n), mu, j)[0] - x)
                assert err < 1e-9

    def test_batched_inverse_matches_scalar_path(self):
        mu, j, n = 0.25, default_j(), 16
        points = [polar(r_frac * j / mu, theta)
                  for r_frac in np.linspace(0.0, 0.9, 7)
                  for theta in np.linspace(0.0, 2.0 * math.pi, 9)]
        zs = np.array([embed(x, mu, n) for x in points])
        # clamped branch and blend region of the radius map
        for a in (50.0 - 12.0j, 2.0 * bessel_j(1, J1_ARGMAX),
                  0.5 * (bessel_j(1, j) + bessel_j(1, J1_ARGMAX))):
            z = embedded_target(n)
            z[n + 1] = a
            zs = np.vstack([zs, z])
        batch, flags = left_inverse(zs, mu, j)
        rows = [left_inverse(z, mu, j) for z in zs]
        assert np.array_equal(batch, np.array([x for x, _ in rows]))
        assert flags.tolist() == [bool(flag) for _, flag in rows]
        ys = np.abs(zs[:, n + 1])
        ys = ys[ys <= bessel_j(1, j)]
        assert np.array_equal(inv_j1(ys), np.array([inv_j1(float(y)) for y in ys]))

    def test_smallest_normal_coefficient_keeps_its_phase(self):
        # |c| at or below the smallest normal float is divided out of the
        # phase: the point is (Im c, Re c) / |c| times the radius 2|c| / mu,
        # not the product of c and the radius, which underflows to the origin
        tiny = np.finfo(float).tiny
        for c in (tiny, tiny / 4):
            x = left_inverse(at_e1(c), 0.1, 0.9 * J1_ARGMAX)[0]
            assert x[0] == 0.0 and x[1] == inv_j1(c) / 0.1
            assert x[1] == pytest.approx(20.0 * c, rel=1e-3)

    def test_coefficient_on_an_axis_reads_its_radius_exactly(self):
        # Re c / |c| or Im c / |c| is +-1 exactly on an axis, so x-hat is the
        # radius itself on one axis (multiplying by 1/|c| missed it by an ulp
        # at |c| = 0.09, 0.18 and 0.36)
        mu, j = 0.3, default_j()
        for a in (0.09, 0.18, 0.36, 2.0):
            radius = J1_ARGMAX / mu if a >= bessel_j(1, J1_ARGMAX) else inv_j1(a) / mu
            for c, want in ((a, [0.0, radius]), (-a, [0.0, -radius]),
                            (1j * a, [radius, 0.0]), (-1j * a, [-radius, 0.0])):
                assert left_inverse(at_e1(c), mu, j)[0].tolist() == want, c

    def test_huge_coefficient_clamped(self):
        mu, j, n = 0.5, default_j(), 8
        z = np.zeros(2 * n + 1, dtype=complex)
        z[n + 1] = 50.0 - 12.0j
        assert np.linalg.norm(left_inverse(z, mu, j)[0]) == pytest.approx(
            J1_ARGMAX / mu, abs=1e-12)

    def test_clamped_rows_skip_the_inverse(self, monkeypatch):
        # rows past J1(j) take the blend alone, so once the caches are warm
        # they evaluate no Bessel series row (Newton at y = J1(j) took 10 per
        # call when every row went through the inverse)
        mu, j, n = 0.1, 0.9 * J1_ARGMAX, 24
        a = np.geomspace(np.nextafter(bessel_j(1, j), 1.0), 50.0, 12)
        zhat = at_e1(a * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 12)), n)
        left_inverse(zhat, mu, j)  # fill the caches first
        rows, series_rows = [], bessel._series_rows
        monkeypatch.setattr(bessel, "_series_rows",
                            lambda *args: rows.append(args) or series_rows(*args))
        for batch in (zhat, zhat[:1], zhat[-1]):
            assert np.all(left_inverse(batch, mu, j)[1])
        assert rows == []


# Left-inverse properties, drawn by hypothesis from a fixed seed so that every
# run tests the same examples
PROPERTIES = settings(derandomize=True, database=None, max_examples=200, deadline=None)
_J = default_j()
_Y0, _Y1 = bessel_j(1, _J), bessel_j(1, J1_ARGMAX)
# |c| anywhere in the kernel's range, or at either end of the blend
MAGNITUDES = st.one_of(
    st.floats(0.0, 50.0),
    st.sampled_from([_Y0, np.nextafter(_Y0, 0.0), np.nextafter(_Y0, 1.0), _Y1,
                     np.nextafter(_Y1, 0.0)]))
ANGLES = st.one_of(st.just(0.0), st.floats(0.0, 2.0 * math.pi))
MUS = st.floats(0.05, 1.0)


@PROPERTIES
@given(frac=st.floats(0.0, 0.95), theta=ANGLES, mu=MUS, n=st.integers(1, 24))
def test_left_inverse_recovers_states_inside_the_ball(frac, theta, mu, n):
    x = polar(frac * _J / mu, theta)
    xhat, clamped = left_inverse(embed(x, mu, n), mu, _J)
    assert not clamped
    assert np.linalg.norm(xhat - x) <= 1e-9 * max(1.0, np.linalg.norm(x))


@PROPERTIES
@given(coefs=st.lists(st.tuples(MAGNITUDES, ANGLES), min_size=2, max_size=8), mu=MUS)
def test_left_inverse_clamp_flag_and_radius(coefs, mu):
    # the flag is exact; the radius |xhat| carries the unit phase
    # (Im c, Re c) / |c|, rounded to about 2 ulp (rel below)
    j1, rel = J1_ARGMAX, 1e-15
    c = np.array([a * np.exp(1j * theta) for a, theta in coefs])
    a = np.abs(c)
    xhat, clamped = left_inverse(at_e1(c, 3), mu, _J)
    assert clamped.tolist() == (a > _Y0).tolist()
    radius = np.hypot(xhat[:, 0], xhat[:, 1])
    order = np.argsort(a, kind="stable")
    assert np.all(np.diff(radius[order]) >= -1e-12)
    assert np.all(radius[clamped] > _J / mu * (1.0 - rel))
    assert np.all(radius[clamped] <= j1 / mu * (1.0 + rel))
    assert np.allclose(radius[a >= _Y1], j1 / mu, rtol=rel, atol=0.0)


class TestFeedbackAndParams:
    def params(self, delta=0.01, n=12):
        return SpectralParams(K=np.array([1.0, -2.0]), delta=delta, alpha=1.0,
                              Delta=0.1, mu=0.2, j=default_j(), N=n)

    def test_zero_at_target(self):
        p = self.params()
        assert sample_hold_feedback(embedded_target(p.N), p)[0] == pytest.approx(0.0, abs=1e-15)

    def test_reduces_to_state_feedback_without_perturbation(self):
        p = self.params(delta=0.0)
        x = polar(0.4 * p.j / p.mu, 1.1)
        u = sample_hold_feedback(embed(x, p.mu, p.N), p)[0]
        assert u == pytest.approx(float(p.K @ x), abs=1e-9)

    def test_perturbation_term(self):
        p = self.params(delta=0.5)
        zhat = embedded_target(p.N)
        zhat[p.N + 3] += 0.2  # deviation in a high mode
        dev = zhat - embedded_target(p.N)
        want = p.delta * weak_norm(dev) ** 2  # left-inverse sees no e_1 content
        assert sample_hold_feedback(zhat, p)[0] == pytest.approx(want, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralParams(K=[1.0, -2.0], delta=0.01, alpha=1.0, Delta=4.0,
                           mu=0.1, j=default_j(), N=8)
        with pytest.raises(ValueError):
            SpectralParams(K=[1.0, -2.0], delta=0.01, alpha=1.0, Delta=0.1,
                           mu=0.1, j=2.5, N=8)
        with pytest.raises(ValueError):
            SpectralParams(K=[1.0], delta=0.01, alpha=1.0, Delta=0.1,
                           mu=0.1, j=default_j(), N=8)


def test_truncation_tail_certificate():
    # certified bound dominates the true tail energy (high-precision oracle)
    for s, n in ((2.0, 24), (1.0, 16), (0.5, 8)):
        true_tail = bessel_tail_energy(s, n)
        assert true_tail < truncation_tail_bound(s, n)
    # and the N=24 default keeps the mu*r <= 2 tail far below 1e-12
    assert truncation_tail_bound(2.0, 24) < 1e-12
