import math

import numpy as np
import pytest
import scipy.linalg

from unobs_stab.bessel import J0_ZERO, J1_ARGMAX, bessel_j
from unobs_stab.observability import (
    BoundParams,
    check_bound_inequalities,
    choose_radii,
    determinant_identity_check,
    max_control_bound,
    observability_gramian,
    working_disc_inverse_lipschitz,
)
from unobs_stab.spectral import WEAK_NORM_BOUND, embedded_target, generator_matrix


class TestGramian:
    def test_zero_input_is_singular(self):
        zeta = embedded_target(6)
        rep = observability_gramian(0.0, 2.0 * math.pi, zeta, mu=1.0)
        # the measured mode decouples from everything else at u = 0
        assert rep.lambda_min < 1e-14
        assert rep.lambda_max > 1.0

    def test_psd_and_hermitian_accumulation(self):
        zeta = embedded_target(4)
        rep = observability_gramian(0.25, 3.0, zeta, mu=1.0)
        assert rep.lambda_min >= -1e-12

    def test_monotone_in_horizon(self):
        zeta = embedded_target(3)
        rep1 = observability_gramian(0.4, 2.0, zeta, mu=1.0)
        rep2 = observability_gramian(0.4, 4.0, zeta, mu=1.0)
        assert rep2.lambda_min >= rep1.lambda_min - 1e-12
        assert rep2.lambda_max >= rep1.lambda_max - 1e-12

    def test_unobservable_direction_witness(self):
        # off the measured mode, u = 0 produces no output energy at all
        n = 5
        zeta = embedded_target(n)
        dt = 2.0 * math.pi / 400
        from unobs_stab.linalg import expm
        from unobs_stab.spectral import generator_matrix
        u_step = expm(generator_matrix(0.0, 1.0, n), dt)
        z = np.zeros(2 * n + 1, dtype=complex)
        z[n + 1] = 1.0
        energy = 0.0
        for _ in range(400):
            energy += dt * abs(np.vdot(zeta, z)) ** 2
            z = u_step @ z
        assert energy < 1e-14

    @pytest.mark.parametrize("u", [0.0, 0.3, 5.0])
    def test_matches_dense_exponential(self, u, monkeypatch):
        # reference: the one-step adjoint from a dense expm, one outer product
        # per trapezoid sample
        n, steps = 12, 400
        T = 2.0 * math.pi
        dt = T / steps
        zeta = embedded_target(n)
        step_h = scipy.linalg.expm(dt * generator_matrix(u, 1.0, n)).conj().T
        w_ref = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
        v = zeta.copy()
        for i in range(steps + 1):
            w_ref += (dt if 0 < i < steps else 0.5 * dt) * np.outer(v, v.conj())
            v = step_h @ v
        w_ref = 0.5 * (w_ref + w_ref.conj().T)
        eig_ref = np.linalg.eigvalsh(w_ref)
        spectra = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a, *args, **kwargs):
            spectra.append(a)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        rep = observability_gramian(u, T, zeta, mu=1.0)
        assert abs(rep.lambda_max - eig_ref[-1]) <= 1e-12 * eig_ref[-1]
        assert np.max(np.abs(spectra[-1] - w_ref)) <= 1e-13 * eig_ref[-1]

    def test_validation(self):
        zeta = embedded_target(3)
        with pytest.raises(ValueError):
            observability_gramian(0.1, -1.0, zeta, 1.0)


class TestObstructionSums:
    def test_single_mode_never_vanishes_below_j0(self):
        # for the single mode {0: 1} the sums F_ell(r) = sum_k d_k J_{k+ell}(r)
        # reduce to J_ell(r): none vanishes on (0, j0), the premise of
        # max_control_bound's mu u_max < j0 rule
        j0 = J0_ZERO
        for ell in range(-8, 9):
            for r in np.linspace(0.05, j0 - 0.05, 40):
                assert abs(bessel_j(ell, float(r))) > 0.0


class TestDeterminantIdentity:
    def test_seeded_batch(self):
        rep = determinant_identity_check(60, rng_seed=42)
        assert rep.max_rel_err < 1e-9
        assert rep.singular_when_unperturbed

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            determinant_identity_check(0, rng_seed=1)


class TestControlBound:
    def test_zero(self):
        value, _ = max_control_bound(0.0, 1.0, 1.0, 0.0)
        assert value == 0.0

    def test_delta_scaling(self):
        nu = WEAK_NORM_BOUND
        v1, _ = max_control_bound(0.1, 1.0, 0.5, 0.01)
        v2, _ = max_control_bound(0.1, 1.0, 0.5, 0.02)
        assert v2 - v1 == pytest.approx(16.0 * nu ** 2 * 0.01, abs=1e-12)

    def test_applicability_flag(self):
        j = 0.9 * J1_ARGMAX
        value, ok = max_control_bound(0.1, j, 0.1, 0.001)
        assert value == pytest.approx(0.1 * j / 0.1 + 16.0 * WEAK_NORM_BOUND ** 2 * 0.001)
        assert ok == (0.1 * value < J0_ZERO)


def make_bounds(**kw):
    base = dict(R0=0.5, R1=1.0, R2=2.9, mu=0.1, delta=1e-3, Delta=0.05,
                kappa=0.2, nu=WEAK_NORM_BOUND, M=1.0,
                ell_pi=working_disc_inverse_lipschitz(0.1, 2.9),
                ell_tau=0.1 / math.sqrt(2.0))
    base.update(kw)
    return BoundParams(**base)


class TestBoundInequalities:
    def test_limiting_case(self):
        # R0, delta, Delta -> 0 leaves R0 - R1 and J1(mu R1) - J1(mu R2)
        p = make_bounds(R0=1e-9, delta=0.0, Delta=0.0)
        res1, res2 = check_bound_inequalities(p)
        assert res1 == pytest.approx(1e-9 - p.R1, abs=1e-6)
        assert res2 == pytest.approx(bessel_j(1, p.mu * p.R1) - bessel_j(1, p.mu * p.R2),
                                     abs=1e-7)

    def test_equal_outer_radii_fail_second_inequality(self):
        p = make_bounds(R2=1.0)
        _, res2 = check_bound_inequalities(p)
        assert res2 >= 0.0

    def test_scaled_radii_close_budget_at_small_mu(self):
        r0 = 1.0
        p = make_bounds(R0=r0, R1=2.0 * r0, R2=(2.0 * math.sqrt(2.0) + 3.0) * r0,
                        mu=0.02, delta=1e-4, Delta=0.01, kappa=0.1,
                        ell_pi=working_disc_inverse_lipschitz(0.02, (2 * math.sqrt(2) + 3)))
        res1, res2 = check_bound_inequalities(p)
        assert res1 < 0.0 and res2 < 0.0

    def test_radius_order_validated(self):
        with pytest.raises(ValueError):
            check_bound_inequalities(make_bounds(R0=2.0, R1=1.0))


class TestChooseRadii:
    def test_radius_formulas(self):
        p = choose_radii(1.0)
        assert p.R1 == pytest.approx(2.0)
        assert p.R2 == pytest.approx(2.0 * math.sqrt(2.0) + 3.0, abs=1e-12)

    def test_returned_parameters_close_inequalities(self):
        p = choose_radii(1.0)
        res1, res2 = check_bound_inequalities(p)
        assert res1 < 0.0 and res2 < 0.0

    def test_inversion_ball_constraint(self):
        p = choose_radii(1.0)
        assert p.mu * p.R2 < 0.9 * J1_ARGMAX

    def test_fixed_mu(self):
        p = choose_radii(1.0, mu=0.1)
        assert p.mu == 0.1
        res1, res2 = check_bound_inequalities(p)
        assert res1 < 0.0 and res2 < 0.0

    def test_rejects_oversized_mu(self):
        with pytest.raises(ValueError):
            choose_radii(1.0, mu=1.0)
