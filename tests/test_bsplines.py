import numpy as np
import pytest

from kstfit.bsplines import (
    LinearSpline,
    ReluCombination,
    UniformBSplineBasis,
    eval_relu_combination,
    linear_interpolant,
    linear_spline_to_relu,
)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_partition_of_unity(degree):
    basis = UniformBSplineBasis(count=17, degree=degree, upper=2.0)
    t = np.random.default_rng(0).random(10_000) * 2.0
    t = np.concatenate([t, [0.0, 2.0]])
    total = basis.design_matrix(t).sum(axis=1)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_nonnegative_with_local_support(degree):
    basis = UniformBSplineBasis(count=12, degree=degree, upper=3.0)
    t = np.linspace(0, 3, 301)
    dm = basis.design_matrix(t)
    assert dm.min() >= 0.0
    for j in (0, 5, 11):
        lo, hi = basis.support(j)
        outside = (t < lo) | (t > hi)
        assert np.all(dm[outside, j] == 0.0)


def cox_de_boor(knots, i, k, x):
    """B-spline i of degree k at the scalar x, by the Cox-de Boor
    recursion; the last nonempty knot interval is closed at the right."""
    t = knots
    if k == 0:
        if t[i] <= x < t[i + 1]:
            return 1.0
        if x == t[-1] and t[i] < t[i + 1] == t[-1]:
            return 1.0
        return 0.0
    left = 0.0
    if t[i + k] > t[i]:
        left = (x - t[i]) / (t[i + k] - t[i]) * cox_de_boor(t, i, k - 1, x)
    right = 0.0
    if t[i + k + 1] > t[i + 1]:
        right = ((t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1])
                 * cox_de_boor(t, i + 1, k - 1, x))
    return left + right


def test_degree1_hat_peaks_at_interior_knot():
    basis = UniformBSplineBasis(count=11, degree=1, upper=1.0)
    # interior basis function j peaks with value 1 at its middle knot
    for j in range(1, 10):
        peak = basis.knots[j + 1]
        assert basis.design_matrix(peak)[0, j] == pytest.approx(1.0,
                                                                abs=1e-14)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_design_matrix_matches_cox_de_boor_recursion(degree):
    basis = UniformBSplineBasis(count=9, degree=degree, upper=2.0)
    t = np.linspace(0, 2, 41)
    dm = basis.design_matrix(t)
    ref = np.array([[cox_de_boor(basis.knots, j, degree, x)
                     for j in range(basis.count)] for x in t])
    assert np.allclose(dm, ref, rtol=0, atol=1e-13)


def test_design_matrix_rejects_points_outside_the_domain():
    basis = UniformBSplineBasis(count=9, degree=3, upper=2.0)
    for bad in (2.5, -0.1, [0.5, 2.0 + 1e-9]):
        with pytest.raises(ValueError, match="outside"):
            basis.design_matrix(bad)


def test_linear_interpolant_reproduces_linear_and_kinks():
    lin = linear_interpolant(lambda t: 3 * t - 1, np.linspace(0, 1, 7))
    t = np.linspace(0, 1, 500)
    assert np.allclose(lin(t), 3 * t - 1, atol=1e-14)

    knots = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    kink = linear_interpolant(lambda t: np.abs(t - 0.5), knots)
    assert np.allclose(kink(t), np.abs(t - 0.5), atol=1e-14)


def test_linear_interpolant_error_bound_for_lipschitz():
    # sup |f - S_f| <= L (b - a) / (2 (n + 1)) on n interior uniform knots
    cases = [
        (np.sin, 1.0, 0.0, 2.0),
        (lambda t: np.abs(t - 0.3), 1.0, 0.0, 1.0),
        (lambda t: np.cos(2 * t), 2.0, 0.0, 1.5),
        (lambda t: t ** 2, 2.0, 0.0, 1.0),
        (np.exp, np.e, 0.0, 1.0),
    ]
    for f, lip, a, b in cases:
        n_interior = 100
        knots = np.linspace(a, b, n_interior + 2)
        s = linear_interpolant(f, knots)
        t = np.linspace(a, b, 20_001)
        err = np.max(np.abs(f(t) - s(t)))
        assert err <= 1.01 * lip * (b - a) / (2 * (n_interior + 1))


def test_linear_interpolant_rejects_bad_knots():
    with pytest.raises(ValueError):
        linear_interpolant(np.sin, [0.0, 0.5, 0.5, 1.0])


def test_relu_identity_is_single_term():
    s = LinearSpline(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    r = linear_spline_to_relu(s)
    assert len(r) == 1
    assert r.offset == 0.0
    assert r.coeffs[0] == 1.0 and r.biases[0] == 0.0


def test_relu_constant_spline():
    s = LinearSpline(np.linspace(0, 1, 6), np.ones(6))
    r = linear_spline_to_relu(s)
    t = np.linspace(0, 1, 100)
    assert np.allclose(r(t), 1.0, atol=0)


def test_relu_round_trip_on_random_splines():
    rng = np.random.default_rng(42)
    t = np.linspace(0, 1, 10_000)
    for _ in range(25):
        knots = np.sort(rng.random(8))
        knots = np.concatenate([[0.0], knots, [1.0]])
        vals = rng.normal(size=len(knots))
        s = LinearSpline(knots, vals)
        r = linear_spline_to_relu(s)
        assert len(r) <= len(knots) + 1
        assert np.max(np.abs(r(t) - s(t))) <= 1e-12


def test_relu_eval_basics():
    empty = ReluCombination(np.array([]), np.array([]), offset=0.0)
    assert eval_relu_combination(empty, 0.7) == 0.0
    one = ReluCombination(np.array([2.0]), np.array([0.5]))
    assert eval_relu_combination(one, 1.0) == pytest.approx(1.0)
    assert one(0.25) == 0.0
