import numpy as np
import pytest
import scipy.linalg

from unobs_stab.linalg import expm, is_hurwitz, kalman_matrix, place_poles, solve_lyapunov

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def random_skew_hermitian(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m - m.conj().T)


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((3, 3)), 1.0), np.eye(3))

    def test_quarter_turn(self):
        got = expm(ROT, np.pi / 2.0)
        want = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(got, want, atol=1e-14)

    def test_skew_hermitian_gives_unitary(self):
        rng = np.random.default_rng(3)
        m = random_skew_hermitian(5, rng)
        unitary = expm(m, 0.7)
        assert np.linalg.norm(unitary.conj().T @ unitary - np.eye(5)) < 1e-11

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = rng.normal(size=(6, 6))
            m *= 2.0 / np.linalg.norm(m)
            s, t = rng.uniform(0.1, 1.5, size=2)
            assert np.allclose(expm(m, s) @ expm(m, t), expm(m, s + t), atol=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            expm(np.zeros((2, 3)))
        with pytest.raises(OverflowError):
            expm(1e3 * np.eye(2), 1e3)


class TestSolveLyapunov:
    def test_identity_case(self):
        p = solve_lyapunov(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(p, np.eye(2), atol=1e-12)

    def test_closed_loop_case_vs_scipy(self):
        k = place_poles(ROT, np.array([0.0, 1.0]), [-1.0, -2.0])
        f = ROT + np.outer([0.0, 1.0], k)
        q = 2.0 * np.eye(2)
        p = solve_lyapunov(f, q)
        assert np.linalg.norm(f.T @ p + p @ f + q) < 1e-10
        p_ref = scipy.linalg.solve_continuous_lyapunov(f.T, -q)
        assert np.allclose(p, p_ref, atol=1e-10)

    def test_output_symmetric_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = rng.normal(size=(4, 4)) - 4.0 * np.eye(4)
            if not is_hurwitz(f):
                continue
            p = solve_lyapunov(f, np.eye(4))
            assert np.allclose(p, p.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(p)) > 0.0

    def test_rejects_non_hurwitz(self):
        with pytest.raises(ValueError):
            solve_lyapunov(np.eye(2), np.eye(2))


class TestPlacePoles:
    def test_repeated_poles_on_rotation(self):
        k = place_poles(ROT, [0.0, 1.0], [-1.0, -1.0])
        eig = np.sort(np.linalg.eigvals(ROT + np.outer([0.0, 1.0], k)).real)
        assert np.allclose(eig, [-1.0, -1.0], atol=1e-8)

    def test_scalar_case(self):
        k = place_poles(np.zeros((1, 1)), [1.0], [-3.0])
        assert k == pytest.approx(np.array([-3.0]), abs=1e-12)

    def test_characteristic_polynomial_oracle(self):
        poles = [-1.0, -2.0]
        k = place_poles(ROT, [0.0, 1.0], poles)
        coeffs = np.poly(ROT + np.outer([0.0, 1.0], k))
        assert np.allclose(coeffs, np.poly(poles), atol=1e-10)

    def test_closed_loop_hurwitz(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            poles = -rng.uniform(0.2, 3.0, size=2)
            k = place_poles(ROT, [0.0, 1.0], poles)
            assert is_hurwitz(ROT + np.outer([0.0, 1.0], k))

    def test_uncontrollable_rejected(self):
        with pytest.raises(ValueError):
            place_poles(np.eye(2), [1.0, 0.0], [-1.0, -2.0])

    def test_non_conjugate_closed_rejected(self):
        with pytest.raises(ValueError):
            place_poles(ROT, [0.0, 1.0], [-1.0 + 1.0j, -2.0])


class TestKalman:
    def test_observability_stack(self):
        m, rank = kalman_matrix([1.0, 0.0], ROT)
        assert np.allclose(m, [[1.0, 0.0], [0.0, -1.0]])
        assert rank == 2

    def test_controllability_stack(self):
        # [b, Ab] is the transpose of the observability matrix of (A', b')
        m, rank = kalman_matrix([0.0, 1.0], ROT.T)
        assert np.allclose(m.T, [[0.0, -1.0], [1.0, 0.0]])
        assert rank == 2

    def test_rank_deficiency(self):
        _, rank = kalman_matrix([1.0, 0.0], np.eye(2))
        assert rank == 1


class TestIsHurwitz:
    def test_negative_identity(self):
        assert is_hurwitz(-np.eye(3))

    def test_rotation_is_not(self):
        assert not is_hurwitz(ROT)
