import numpy as np
import pytest
import scipy.linalg

from unobs_stab.finite import (
    FinParams,
    Plant,
    closed_loop_rhs,
    delta_margin,
    embed,
    observability_certificate,
    perturbed_feedback,
    rotation_plant,
)
from unobs_stab.linalg import place_poles

from oracles import finite_rhs_matrix_form


@pytest.fixture
def plant():
    return rotation_plant()


@pytest.fixture
def gain(plant):
    return place_poles(plant.A, plant.b, [-1.0, -2.0])


def test_embed_examples():
    assert np.allclose(embed([0.0, 0.0]), [0.0, 0.0, 0.0])
    assert np.allclose(embed([3.0, 4.0]), [3.0, 4.0, 12.5])
    assert np.allclose(embed([1.0, 0.0]), [1.0, 0.0, 0.5])


def test_embed_rows_match_one_row_calls():
    # the rows are lifted by the same sum as one point, bit for bit
    xs = np.random.default_rng(3).uniform(-3.0, 3.0, size=(2000, 2))
    rows = embed(xs)
    assert rows.shape == (2000, 3)
    assert rows.tobytes() == np.array([embed(x) for x in xs]).tobytes()
    assert embed(xs[None]).tobytes() == rows.tobytes()


@pytest.mark.parametrize("A, b", [
    ([[0.1, -1.0], [1.0, 0.0]], [0.0, 1.0]),   # not skew
    ([[0.0, -2.0], [2.0, 0.0]], [0.0, 1.0]),   # skew, another frequency
    ([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [0.0, 1.0, 0.0]),
    ([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0]),
    ([[0.0, -1.0], [1.0, 0.0]], [[0.0], [1.0]]),
], ids=["not-skew", "other-frequency", "three-states", "other-b", "b-column"])
def test_plant_rejects_other_than_quarter_turn(A, b):
    with pytest.raises(ValueError, match="^Plant: the loop runs only"):
        Plant(A=np.array(A), b=np.array(b))


def test_perturbed_feedback_examples():
    assert perturbed_feedback(np.zeros(3), [1.0, 1.0], 0.3) == 0.0
    x = np.array([0.4, -0.7])
    k = np.array([2.0, 0.5])
    assert perturbed_feedback(embed(x), k, 0.0) == pytest.approx(k @ x, abs=1e-15)
    # K zhat[:2] + delta zhat[2] by hand: -1 + 0 + 0.5*2 = 0
    assert perturbed_feedback([1.0, 0.0, 2.0], [-1.0, -1.0], 0.5) == pytest.approx(0.0, abs=1e-15)
    assert perturbed_feedback([1.0, 0.0, 2.0], [-1.0, -1.0], 1.0) == pytest.approx(1.0, abs=1e-15)
    # on embedded states this is K x + (delta/2)|x|^2
    delta = 0.37
    assert perturbed_feedback(embed(x), k, delta) == pytest.approx(
        k @ x + 0.5 * delta * np.dot(x, x), abs=1e-15)
    # one value per row, each as the row would give alone
    zhats = np.array([[1.0, 0.0, 2.0], embed(x), np.zeros(3)])
    rows = perturbed_feedback(zhats, k, delta)
    assert rows.shape == (3,)
    assert all(u == perturbed_feedback(z, k, delta) for z, u in zip(zhats, rows))


def test_closed_loop_equilibrium(gain):
    params = FinParams(K=gain, delta=0.2, alpha=10.0)
    sdot = closed_loop_rhs(np.zeros(5), params)
    assert sdot.shape == (5,)
    assert np.allclose(sdot, 0.0)


def test_error_dynamics_annihilate_on_manifold(gain):
    # if zhat = embed(x), the estimation error has zero derivative
    params = FinParams(K=gain, delta=0.2, alpha=3.0)
    x = np.array([0.8, -0.5])
    sdot = closed_loop_rhs(np.append(x, embed(x)), params)
    xdot, zdot = sdot[:2], sdot[2:]
    tau_dot = np.append(xdot, x @ xdot)  # chain rule through (x, |x|^2/2)
    assert np.allclose(zdot - tau_dot, 0.0, atol=1e-14)


def test_error_norm_derivative_is_dissipative(gain):
    # d|eps|^2/dt = -2 alpha (C eps)^2 along the coupled dynamics, for every
    # packed row (x, zhat) of a batch, each row as it would be alone
    rng = np.random.default_rng(8)
    params = FinParams(K=gain, delta=0.15, alpha=4.0)
    rows = rng.normal(size=(10, 5))
    sdots = closed_loop_rhs(rows, params)
    assert sdots.shape == (10, 5)
    for s, sdot in zip(rows, sdots):
        assert np.array_equal(sdot, closed_loop_rhs(s, params))
        x, zhat = s[:2], s[2:]
        xdot, zdot = sdot[:2], sdot[2:]
        eps = zhat - embed(x)
        eps_dot = zdot - np.append(xdot, x @ xdot)
        got = 2.0 * eps @ eps_dot
        want = -2.0 * params.alpha * eps[2] ** 2
        assert got == pytest.approx(want, abs=1e-12)


def test_rhs_is_the_matrix_form(plant, gain):
    # the field is L s + q(s), bit for bit as the oracle spells it from the
    # paper's blocks; and it is the block form A x + b u,
    # A_emb(u) zhat + B_emb u - L(u) innov within 8 ulp of the largest term
    # of its row (the matrix form sums zhat0 and u in one dot product)
    params = FinParams(K=gain, delta=0.15, alpha=4.0)
    rows = np.random.default_rng(5).normal(size=(2000, 5))
    got = closed_loop_rhs(rows, params)
    assert got.tobytes() == finite_rhs_matrix_form(rows, gain, params.delta,
                                                   params.alpha).tobytes()
    x, zbar, zlast = rows[:, :2], rows[:, 2:4], rows[:, 4]
    u = perturbed_feedback(rows[:, 2:], gain, params.delta)
    innov = zlast - 0.5 * (x * x).sum(axis=1)
    want = np.hstack([x @ plant.A.T + u[:, None] * plant.b,
                      zbar @ plant.A.T + (u * (1.0 - innov))[:, None] * plant.b,
                      (u * (zbar @ plant.b) - params.alpha * innov)[:, None]])
    terms = np.hstack([np.abs(rows), np.abs(u * innov)[:, None],
                       np.abs(u * zbar[:, 1])[:, None], params.alpha * np.abs(innov)[:, None],
                       np.abs(rows[:, 2:] * params.feedback)])
    ulp = np.spacing(terms.max(axis=1))
    assert np.all(np.abs(got - want) <= 8 * ulp[:, None])
    assert not np.array_equal(got, want)


def test_delta_margin_formula(plant, gain):
    # the closed form against scipy's Lyapunov solver, as the oracle, at the
    # configs' gain and at 2000 random real pole pairs, one in four repeated
    rng = np.random.default_rng(5)
    pairs = -rng.uniform(0.01, 20.0, size=(2000, 2))
    pairs[::4, 1] = pairs[::4, 0]
    cases = [(gain, 3.0)] + [(place_poles(plant.A, plant.b, p), rng.uniform(0.5, 5.0))
                             for p in pairs]
    for k, rho in cases:
        f = plant.A + np.outer(plant.b, k)
        p = scipy.linalg.solve_continuous_lyapunov(f.T, -2.0 * np.eye(2))
        want = 1.0 / (rho * np.linalg.norm(p @ plant.b))
        assert delta_margin(k, rho, plant) == pytest.approx(want, rel=1e-12, abs=0.0)
    margin = delta_margin(gain, 3.0, plant)
    assert margin == 0.4714045207910316
    # 1/rho scaling, and only a positive radius
    assert delta_margin(gain, 6.0, plant) == pytest.approx(0.5 * margin, abs=1e-12)
    with pytest.raises(ValueError, match="rho must be positive"):
        delta_margin(gain, 0.0, plant)


def test_delta_margin_requires_hurwitz(plant):
    # A + bK = [[0, -1], [1 + K0, K1]] is Hurwitz exactly when 1 + K0 > 0 and
    # K1 < 0: refused at K = 0, at 1 + K0 = 0 and below, at K1 = 0 and above
    for K in ([0.0, 0.0], [-1.0, -3.0], [-1.5, -3.0], [1.0, 0.0], [1.0, 0.5]):
        with pytest.raises(ValueError, match="not Hurwitz"):
            delta_margin(np.array(K), 1.0, plant)


def test_certificate_structure(plant, gain):
    delta, alpha = 0.3, 2.0
    q = observability_certificate(gain, plant.A, delta, alpha)
    assert q.shape == (4, 4)
    # first row (K, delta, 0); later rows (K A^k, 0, delta(-alpha)^k)
    assert np.allclose(q[0], [gain[0], gain[1], delta, 0.0])
    row = gain.copy()
    for k in range(1, 4):
        row = row @ plant.A
        assert np.allclose(q[k, :2], row)
        assert q[k, 2] == 0.0
        assert q[k, 3] == pytest.approx(delta * (-alpha) ** k)


def test_certificate_determinant_identity(plant, gain):
    delta, alpha = 0.1, 2.0
    q = observability_certificate(gain, plant.A, delta, alpha)
    k_tilde = gain @ plant.A
    obs = np.vstack([k_tilde, k_tilde @ plant.A])
    # characteristic polynomial of the quarter-turn generator is X^2 + 1;
    # the sign comes from the row-permutation parity of the cofactor reduction
    want = -delta ** 2 * alpha * np.linalg.det(obs) * (alpha ** 2 + 1.0)
    assert np.linalg.det(q) == pytest.approx(want, rel=1e-12)
    assert abs(np.linalg.det(q)) > 0.0


def test_certificate_singular_without_perturbation(plant, gain):
    q = observability_certificate(gain, plant.A, 0.0, 2.0)
    assert np.linalg.matrix_rank(q, tol=1e-10) < 4


def test_certificate_rejects_singular_generator(gain):
    with pytest.raises(ValueError):
        observability_certificate(gain, np.zeros((2, 2)), 0.1, 1.0)


def test_fin_params_validation(gain):
    with pytest.raises(ValueError):
        FinParams(K=gain, delta=0.0, alpha=1.0)
    with pytest.raises(ValueError):
        FinParams(K=gain, delta=0.1, alpha=-1.0)
    with pytest.raises(ValueError, match="two"):
        FinParams(K=[1.0, -3.0, 0.5], delta=0.1, alpha=1.0)
