"""Two-hidden-layer ReLU networks mirroring the superposition structure,
and empirical approximation-rate experiments against it."""

from dataclasses import dataclass

import numpy as np

from .bsplines import LinearSpline, linear_interpolant, \
    linear_spline_to_relu
from .inner import coordinate_terms, forward_superpose
from .kb import PointSet


@dataclass(frozen=True)
class KNetwork:
    """ReLU form L_q of each inner function plus a ReLU profile for the
    outer function; evaluates sum_q S_g(sum_i lambda_i L_q(x_i))."""

    d: int
    lambdas: np.ndarray
    inner: list
    outer: object
    m: int
    n: int

    @property
    def parameter_count(self):
        return 2 * self.d * self.n + 2 * (2 * self.d + 1) * self.m


def build_knetwork(family, g, m, n):
    """Network with m-piece inner approximants and an outer interpolant of
    g on d*n knots over [0, d].

    Inner knots are spaced uniformly in phi values (the monotone inverse
    of the table), which makes the inner error O(1/m) regardless of how
    unevenly phi rises.  Outer knots are uniform on [0, d].
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    d = family.d
    inner = []
    for q in range(family.n_phi):
        tab = family.phis[q]
        knots = np.interp(np.linspace(0.0, 1.0, m + 1), tab[:, 1], tab[:, 0])
        knots[0], knots[-1] = 0.0, 1.0
        knots = np.unique(knots)
        vals = np.interp(knots, tab[:, 0], tab[:, 1])
        inner.append(linear_spline_to_relu(LinearSpline(knots, vals)))
    outer_knots = np.linspace(0.0, float(d), max(d * n, 2))
    outer = linear_spline_to_relu(linear_interpolant(g, outer_knots))
    return KNetwork(d=d, lambdas=family.lambdas.copy(), inner=inner,
                    outer=outer, m=m, n=n)


def eval_knetwork(net, x):
    """Evaluate the network at the points x of inner.coordinate_terms:
    shape (d,), (..., d) or a PointSet, whose inner layer runs axis by
    axis on a grid.  Like eval_z it refuses a point outside the unit
    cube, where the ReLU form would extrapolate."""
    out = 0.0
    for q in range(2 * net.d + 1):
        terms, shape = coordinate_terms(
            x, net.d, lambda i, t: net.lambdas[i] * net.inner[q](t))
        out = out + net.outer(np.clip(sum(terms), 0.0, net.d))
    return float(out) if np.ndim(out) == 0 else out.reshape(shape)


# Points per axis of the grid rate_experiment checks the networks on.
RATE_GRID_PER_AXIS = {1: 2001, 2: 201, 3: 61}


def rate_experiment(family, g, n_list):
    """Sup-error of the m=n network against the family's own superposition
    of g, for each n, plus the fitted log-log slope.

    Returns a dict with keys n, sup_error, slope and flag; flag is
    'exact' (slope undefined) when every error vanishes.
    """
    n_list = list(n_list)
    if len(set(n_list)) < 3:
        raise ValueError("need at least 3 distinct sizes to fit a slope")
    d = family.d
    grid = PointSet.grid(d, RATE_GRID_PER_AXIS.get(d, 21))
    reference = forward_superpose(family, g, grid)
    errors = []
    for n in n_list:
        net = build_knetwork(family, g, m=n, n=n)
        errors.append(float(np.max(np.abs(eval_knetwork(net, grid)
                                          - reference))))
    errors = np.array(errors)
    if np.all(errors == 0.0):
        return {"n": n_list, "sup_error": errors, "slope": None,
                "flag": "exact"}
    safe = np.maximum(errors, 1e-300)
    slope = float(np.polyfit(np.log(n_list), np.log(safe), 1)[0])
    return {"n": n_list, "sup_error": errors, "slope": slope, "flag": "ok"}
