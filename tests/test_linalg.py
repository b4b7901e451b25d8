import numpy as np
import pytest

from unobs_stab.linalg import expm, kalman_matrix, place_poles

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


class TestPlacePoles:
    def test_repeated_poles_on_rotation(self):
        # a repeated pole is defective, so the computed eigenvalues spread by
        # about sqrt(eps) |p|: the characteristic polynomial is the check
        # (Ackermann's 1e-8 eigenvalue re-check refused (-3, -3))
        for p in (-1.0, -3.0):
            k = place_poles(ROT, [0.0, 1.0], [p, p])
            assert k.tolist() == [p * p - 1.0, 2.0 * p]
            eig = np.sort(np.linalg.eigvals(ROT + np.outer([0.0, 1.0], k)).real)
            assert np.allclose(eig, [p, p], atol=1e-7)

    def test_scalar_case(self):
        # the loop runs only the quarter turn, so a scalar plant is refused
        with pytest.raises(ValueError, match="Plant: the loop runs only"):
            place_poles(np.zeros((1, 1)), [1.0], [-3.0])

    def test_characteristic_polynomial_oracle(self):
        # random real pairs, one in four repeated, and the configs' (-1, -2)
        rng = np.random.default_rng(7)
        pairs = -rng.uniform(0.01, 20.0, size=(400, 2))
        pairs[::4, 1] = pairs[::4, 0]
        for poles in [[-1.0, -2.0], *pairs]:
            k = place_poles(ROT, [0.0, 1.0], poles)
            coeffs = np.poly(ROT + np.outer([0.0, 1.0], k))
            assert np.allclose(coeffs, np.poly(poles), rtol=0.0, atol=1e-10)
        assert place_poles(ROT, [0.0, 1.0], [-1.0, -2.0]).tolist() == [1.0, -3.0]

    def test_closed_loop_hurwitz(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            poles = -rng.uniform(0.2, 3.0, size=2)
            k = place_poles(ROT, [0.0, 1.0], poles)
            assert np.all(np.linalg.eigvals(ROT + np.outer([0.0, 1.0], k)).real < 0.0)

    def test_uncontrollable_rejected(self):
        # (I, e1) is not controllable, (ROT, e1) is: the loop runs neither
        for a, b in [(np.eye(2), [1.0, 0.0]), (ROT, [1.0, 0.0])]:
            with pytest.raises(ValueError, match="Plant: the loop runs only"):
                place_poles(a, b, [-1.0, -2.0])

    def test_non_conjugate_closed_rejected(self):
        # only two real poles: no complex pole, closed under conjugation or not
        for poles in ([-1.0 + 1.0j, -2.0], [-1.0 + 1.0j, -1.0 - 1.0j], [-1.0 + 0.0j, -2.0]):
            with pytest.raises(ValueError, match="two real poles"):
                place_poles(ROT, [0.0, 1.0], poles)

    def test_pole_count_rejected(self):
        for poles in (-1.0, [-1.0], [-1.0, -2.0, -3.0], [[-1.0, -2.0]]):
            with pytest.raises(ValueError, match="two real poles"):
                place_poles(ROT, [0.0, 1.0], poles)


class TestKalman:
    def test_observability_stack(self):
        m = kalman_matrix([1.0, 0.0], ROT)
        rank = np.linalg.matrix_rank(m, tol=1e-10)
        assert np.allclose(m, [[1.0, 0.0], [0.0, -1.0]])
        assert rank == 2

    def test_controllability_stack(self):
        # [b, Ab] is the transpose of the observability matrix of (A', b')
        m = kalman_matrix([0.0, 1.0], ROT.T)
        rank = np.linalg.matrix_rank(m, tol=1e-10)
        assert np.allclose(m.T, [[0.0, -1.0], [1.0, 0.0]])
        assert rank == 2

    def test_rank_deficiency(self):
        rank = np.linalg.matrix_rank(kalman_matrix([1.0, 0.0], np.eye(2)), tol=1e-10)
        assert rank == 1
