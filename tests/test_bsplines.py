import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kstfit

from kstfit.bsplines import (
    LinearSpline,
    ReluCombination,
    UniformBSplineBasis,
    bspline_basis,
    contract_axes,
    design_csr,
    eval_relu_combination,
    eval_spline,
    linear_interpolant,
    linear_spline_to_relu,
    spline_derivative,
)


@st.composite
def axis_operators(draw):
    """d = 1..3 matrices with distinct input sizes per axis (such as
    8 x 9 x 10), a tensor with those trailing axes and an optional
    leading column axis."""
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(2, 10), min_size=d, max_size=d,
                          unique=True))
    outs = draw(st.lists(st.integers(1, 7), min_size=d, max_size=d))
    lead = draw(st.sampled_from([(), (1,), (4,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = [rng.normal(size=(p, k)) for p, k in zip(outs, sizes)]
    return mats, rng.normal(size=lead + tuple(sizes))


@settings(max_examples=80, deadline=None)
@given(axis_operators())
def test_contract_axes_applies_the_kronecker_product(case):
    """contract_axes(mats, t) is (mats[0] x ... x mats[-1]) applied to the
    C-order flattening of each trailing block of t, in C order."""
    mats, t = case
    kron = np.array([[1.0]])
    for m in mats:
        kron = np.kron(kron, m)
    lead = t.shape[:t.ndim - len(mats)]
    blocks = t.reshape((-1, kron.shape[1]))
    want = (blocks @ kron.T).reshape(lead + tuple(m.shape[0] for m in mats))
    got = contract_axes(mats, t)
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert np.max(np.abs(got - want), initial=0.0) \
        <= 1e-12 * max(1.0, np.max(np.abs(want)))


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


def test_evaluator_keeps_the_bits_of_scipy_bsplines():
    """The NumPy de Boor recursion reproduces SciPy's design matrix (data,
    indices, index dtype) and its splder derivatives bit for bit, at
    random points, at every knot and at both ends."""
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(5)
    for degree in (1, 2, 3):
        for count, upper in ((degree + 1, 1.0), (17, 1.0), (40, 3.0)):
            basis = UniformBSplineBasis(count=count, degree=degree,
                                        upper=upper)
            x = np.concatenate([upper * rng.random(500), basis.knots])
            want = interpolate.BSpline.design_matrix(x, basis.knots, degree)
            got = design_csr(x, basis.knots, degree)
            for name in ("data", "indices", "indptr"):
                a, b = getattr(want, name), getattr(got, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert np.array_equal(basis.design_matrix(x), want.toarray())
            c = rng.normal(size=count)
            spline = interpolate.BSpline(basis.knots, c, degree)
            for order in range(degree + 1):
                t, cc, k = spline_derivative(basis.knots, c[:, None], degree,
                                             order)
                assert np.array_equal(eval_spline(t, cc, k, x)[:, 0],
                                      spline.derivative(order)(x))


def test_evaluator_rejects_non_finite_arguments():
    """searchsorted would place a NaN silently; every entry point raises
    instead, as SciPy's design matrix does."""
    basis = UniformBSplineBasis(count=9, degree=3, upper=2.0)
    for bad in ([0.5, np.nan], [np.inf], [-np.inf, 1.0]):
        with pytest.raises(ValueError):
            basis.design_matrix(bad)
        with pytest.raises(ValueError):
            bspline_basis(np.array(bad), basis.knots, 3)
        with pytest.raises(ValueError):
            design_csr(np.array(bad), basis.knots, 3)


def test_import_leaves_scipy_interpolate_out():
    """B-splines need no scipy.interpolate, so no process pays its import."""
    src = os.path.dirname(os.path.dirname(kstfit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, kstfit, kstfit.cli; "
            "sys.exit('scipy.interpolate' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_import_and_network_rates_leave_scipy_out():
    """SciPy is imported where it is used, so neither the import nor the
    network-rate path (inner, knet, bsplines) pays for it."""
    src = os.path.dirname(os.path.dirname(kstfit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, kstfit, kstfit.cli; "
            "kstfit.bench.run_knet_rate(2, 'sin', [8, 16, 32]); "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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


def test_linear_interpolant_needs_one_value_per_knot():
    """f is called once on the knot array; a scalar-only f is refused
    rather than called again point by point."""
    with pytest.raises(ValueError, match="one value per knot"):
        linear_interpolant(lambda t: 1.0, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="one value per knot"):
        linear_interpolant(lambda t: np.sin(t)[:-1], [0.0, 0.5, 1.0])


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


def relu_hinge_oracle(coeffs, biases, offset, t):
    """Reference evaluation as a dense hinge sum, in the order given: the
    (K, N) matrix of max(t - y_i, 0) contracted with the coefficients."""
    ta = np.asarray(t, dtype=float)
    flat = np.atleast_1d(ta).ravel()
    hinges = np.maximum(flat[None, :] - np.asarray(biases)[:, None], 0.0)
    out = offset + np.asarray(coeffs) @ hinges
    return float(out[0]) if ta.ndim == 0 else out.reshape(ta.shape)


@st.composite
def relu_cases(draw):
    """Coefficients, unsorted and often repeated biases (drawn from a
    coarse grid) and an offset, with points left of every bias, exactly
    at biases, past the last one and in between, as a scalar, a 1-d or a
    2-d array."""
    k = draw(st.integers(0, 16))
    coarse = st.integers(-16, 16).map(lambda i: i / 8)
    biases = draw(st.lists(coarse | st.floats(-2, 2), min_size=k,
                           max_size=k))
    coeffs = draw(st.lists(st.floats(-4, 4), min_size=k, max_size=k))
    offset = draw(st.floats(-4, 4))
    pts = list(biases) + [-3.0, 3.0]
    pts += draw(st.lists(st.floats(-3, 3), max_size=12))
    shape = draw(st.sampled_from(["scalar", "1-d", "2-d"]))
    if shape == "scalar":
        return coeffs, biases, offset, draw(st.sampled_from(pts))
    t = np.array(pts)
    if shape == "2-d":
        t = np.concatenate([t, t[:len(t) % 2]]).reshape(2, -1)
    return coeffs, biases, offset, t


@settings(max_examples=300, deadline=None)
@given(relu_cases())
@example(([], [], 1.5, np.array([[-1.0, 0.0], [2.0, 3.0]])))
@example(([1.0, -2.0, 3.0, 0.5], [0.5, -1.0, 0.5, 0.5], -1.0,
          np.array([-2.0, -1.0, 0.0, 0.5, 0.75, 4.0])))
def test_relu_eval_matches_hinge_oracle(case):
    coeffs, biases, offset, t = case
    comb = ReluCombination(np.array(coeffs), np.array(biases), offset=offset)
    got = eval_relu_combination(comb, t)
    want = relu_hinge_oracle(coeffs, biases, offset, t)
    assert np.shape(got) == np.shape(want)
    assert isinstance(got, float) == isinstance(want, float)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert np.max(np.abs(np.asarray(got) - want), initial=0.0) <= tol


@pytest.mark.parametrize("field", ["coeffs", "biases", "offset"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_relu_rejects_non_finite_fields(field, bad):
    fields = {"coeffs": np.array([1.0, -2.0]), "biases": np.array([0.0, 0.5]),
              "offset": 0.25}
    if field == "offset":
        fields[field] = bad
    else:
        fields[field][1] = bad
    with pytest.raises(ValueError, match="finite"):
        ReluCombination(**fields)


def test_relu_tables_are_read_only():
    comb = ReluCombination(np.array([1.0, -2.0]), np.array([0.5, 0.0]))
    for arr in (comb.coeffs, comb.biases, comb.slopes, comb.knot_values):
        with pytest.raises(ValueError):
            arr[0] = 7.0


def test_relu_eval_allocates_nothing_per_hinge():
    """1024 hinges at 201^2 points: a (K, N) hinge matrix would take
    1024 times the input's bytes."""
    rng = np.random.default_rng(3)
    comb = ReluCombination(rng.normal(size=1024), rng.random(1024))
    t = np.linspace(0.0, 1.0, 201 ** 2)
    tracemalloc.start()
    try:
        eval_relu_combination(comb, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * t.nbytes
