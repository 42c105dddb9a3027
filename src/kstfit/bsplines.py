"""Uniform B-spline bases, linear interpolatory splines and their exact
rewriting as combinations of ReLU hinges.

B-splines are evaluated by the de Boor recursion (de Boor 1972, "On
calculating with B-splines") in the operation order of SciPy's
``BSpline``, so designs and derivatives keep SciPy's bits without
importing SciPy's interpolation package and what it pulls in."""

import math
from dataclasses import dataclass, field

import numpy as np


def bspline_basis(x, knots, degree):
    """The degree+1 B-splines of the knot vector that can be nonzero at
    each point: (values, first) with values[i, a] = B_{first[i]+a}(x[i]).

    x must lie in [knots[degree], knots[-degree-1]]; each point falls in
    the knot interval t_l <= x < t_{l+1}, the last interval being closed.
    A NaN fails the range check, where searchsorted would place it."""
    x = np.ascontiguousarray(x, dtype=float).ravel()
    t = knots
    n = len(t) - degree - 1
    if not np.all((x >= t[degree]) & (x <= t[n])):
        raise ValueError(f"argument outside [{t[degree]}, {t[n]}]")
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, degree, n - 1)
    h = np.empty((len(x), degree + 1))
    h[:, 0] = 1.0
    for j in range(1, degree + 1):
        hh = h[:, :j].copy()
        h[:, 0] = 0.0
        for m in range(1, j + 1):
            xb = t[ell + m]
            xa = t[ell + m - j]
            w = hh[:, m - 1] / (xb - xa)
            h[:, m - 1] += w * (xb - x)
            h[:, m] = w * (x - xa)
    return h, ell - degree


def design_csr(x, knots, degree):
    """(len(x), len(knots)-degree-1) CSR design of every B-spline at x,
    with SciPy's ``BSpline.design_matrix`` layout: degree+1 stored entries
    per row, exact zeros included."""
    from scipy import sparse
    values, first = bspline_basis(x, knots, degree)
    rows, width = values.shape
    itype = np.int32 if rows * width < np.iinfo(np.int32).max else np.int64
    indices = (first[:, None] + np.arange(width)).astype(itype).ravel()
    indptr = np.arange(0, (rows + 1) * width, width, dtype=itype)
    return sparse.csr_array((values.ravel(), indices, indptr),
                            shape=(rows, len(knots) - width))


def spline_derivative(knots, coeffs, degree, order):
    """(knots, coeffs, degree) of the order-th derivative of the splines
    with the given coefficient columns, by SciPy's ``splder`` formula;
    coeffs is padded with zero rows to len(knots)."""
    c = np.zeros((len(knots), coeffs.shape[1]))
    c[:len(coeffs)] = coeffs
    t, k = knots, degree
    for _ in range(order):
        dt = t[k + 1:-1] - t[1:-k - 1]
        c = (c[1:-1 - k] - c[:-2 - k]) * k / dt[:, None]
        c = np.concatenate([c, np.zeros((k, c.shape[1]))])
        t = t[1:-1]
        k -= 1
    return t, c, k


def eval_spline(knots, coeffs, degree, x):
    """The splines with the given coefficient columns at x, one column
    each: the nonzero B-splines weighted and added left to right."""
    values, first = bspline_basis(x, knots, degree)
    out = 0.0
    for a in range(degree + 1):
        out = out + coeffs[first + a] * values[:, a, None]
    return out


@dataclass(frozen=True)
class UniformBSplineBasis:
    """count B-splines of the given degree on [0, upper], clamped uniform
    knots, so the basis sums to one everywhere on the interval."""

    count: int
    degree: int = 3
    upper: float = 1.0
    knots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.degree not in (1, 2, 3):
            raise ValueError(f"degree must be 1, 2 or 3, got {self.degree}")
        if self.count < self.degree + 1:
            raise ValueError(
                f"need at least degree+1={self.degree + 1} basis functions")
        if self.upper <= 0:
            raise ValueError("upper end must be positive")
        interior = np.linspace(0.0, self.upper, self.count - self.degree + 1)
        knots = np.concatenate([np.zeros(self.degree), interior,
                                np.full(self.degree, self.upper)])
        object.__setattr__(self, "knots", knots)

    def design_matrix(self, t):
        """Dense (len(t), count) matrix of all basis functions at t."""
        return design_csr(t, self.knots, self.degree).toarray()

    def support(self, j):
        """Knot interval outside which basis function j vanishes."""
        return self.knots[j], self.knots[j + self.degree + 1]


def contract_axes(mats, t):
    """Apply mats[a] along the a-th of the last len(mats) axes of t, so
    (mats[0] x ... x mats[-1]) to each C-ordered trailing block; leading
    axes, such as a column axis, pass through.  One batched product per
    axis makes one new C-ordered array, so at most two of the result's
    size live.  The last axis goes first: while the axes before it are
    still narrow, a widening operator meets the fewest batches."""
    shape = list(t.shape)
    lead = t.ndim - len(mats)
    for a in reversed(range(len(mats))):
        m = mats[a]
        t = np.matmul(m, np.reshape(t, (math.prod(shape[:lead + a]),
                                        m.shape[1],
                                        math.prod(shape[lead + a + 1:]))))
        shape[lead + a] = m.shape[0]
    return np.reshape(t, shape)


@dataclass(frozen=True)
class LinearSpline:
    """Continuous piecewise-linear function given by values at knots."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if k.ndim != 1 or k.shape != v.shape:
            raise ValueError("knots and values must be 1-d and equally long")
        if len(k) < 2 or np.any(np.diff(k) <= 0):
            raise ValueError("knots must be strictly increasing, >= 2 of them")
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        return np.interp(t, self.knots, self.values)


def linear_interpolant(f, knots):
    """The linear spline interpolating f at the given knots; f takes the
    knot array and returns one value per knot."""
    k = np.asarray(knots, dtype=float)
    if k.ndim != 1 or len(k) < 2 or np.any(np.diff(k) <= 0):
        raise ValueError("knots must be strictly increasing, >= 2 of them")
    vals = np.asarray(f(k), dtype=float)
    if vals.shape != k.shape:
        raise ValueError(f"f must return one value per knot: shape "
                         f"{vals.shape} for {len(k)} knots")
    return LinearSpline(k, vals)


@dataclass(frozen=True)
class ReluCombination:
    """t -> offset + sum_i c_i * max(t - y_i, 0), biases ascending.

    This is the continuous piecewise-linear function with breakpoints at
    the biases; slopes[j] is its slope right of biases[j] and
    knot_values[j] its value there.
    """

    coeffs: np.ndarray
    biases: np.ndarray
    offset: float = 0.0
    slopes: np.ndarray = field(init=False, repr=False)
    knot_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        y = np.asarray(self.biases, dtype=float)
        if c.shape != y.shape or c.ndim != 1:
            raise ValueError("coeffs and biases must be 1-d and equally long")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(y))
                and np.isfinite(self.offset)):
            raise ValueError("coeffs, biases and offset must be finite")
        order = np.argsort(y, kind="stable")
        c, y = c[order], y[order]
        slopes = np.cumsum(c)
        rises = slopes[:-1] * np.diff(y)  # value change from bias to bias
        knot_values = self.offset + np.concatenate(
            [[0.0], np.cumsum(rises)])[:len(y)]
        for name, arr in (("coeffs", c), ("biases", y), ("slopes", slopes),
                          ("knot_values", knot_values)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.coeffs)

    def __call__(self, t):
        return eval_relu_combination(self, t)


def eval_relu_combination(comb, t):
    """Evaluate comb at t by locating each t among the sorted biases:
    O(log K) time per point and no K x N temporary.  Scalar in, scalar
    out; left of the first bias the value is comb.offset."""
    ta = np.asarray(t, dtype=float)
    flat = np.atleast_1d(ta).ravel()
    if len(comb):
        j = np.searchsorted(comb.biases, flat, side="right") - 1
        left = j < 0
        j[left] = 0
        out = comb.knot_values[j] + comb.slopes[j] * (flat - comb.biases[j])
        out[left] = comb.offset
    else:
        out = np.full(flat.shape, comb.offset)
    if ta.ndim == 0:
        return float(out[0])
    return out.reshape(ta.shape)


def linear_spline_to_relu(spline):
    """Exact hinge representation of a linear spline on its interval.

    Uses one hinge per knot except the last (slope changes), so the term
    count is at most n+2 for n+1 knots; hinges with exactly zero weight
    are dropped.
    """
    x, v = spline.knots, spline.values
    slopes = np.diff(v) / np.diff(x)
    coeffs = np.concatenate([[slopes[0]], np.diff(slopes)])
    keep = coeffs != 0.0
    return ReluCombination(coeffs[keep], x[:-1][keep], offset=float(v[0]))
