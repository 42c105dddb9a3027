"""One point rule for every evaluator: each reads its points through
inner.coordinate_terms, so each takes (d,), (..., d) or a PointSet, gives
one value per point (a float for one point) and refuses the same inputs
with the same errors."""

import numpy as np
import pytest

from kstfit.inner import build_inner_family, eval_z, forward_superpose
from kstfit.kb import KBBasis, PointSet, eval_kb
from kstfit.knet import build_knetwork, eval_knetwork
from kstfit.smoothing import SmoothingConfig, SmoothSurface, eval_surface

D = 2
EVALUATORS = ["eval_z", "forward_superpose", "eval_knetwork", "eval_kb",
              "eval_surface"]


@pytest.fixture(scope="module")
def evaluators():
    family = build_inner_family(D, 3)
    net = build_knetwork(family, np.sin, m=16, n=16)
    basis = KBBasis(family, n=10)
    cfg = SmoothingConfig(degree=2, segments=5)
    surface = SmoothSurface(coeffs=np.random.default_rng(0).normal(
        size=(cfg.coeffs_per_axis,) * D), config=cfg)
    return {
        "eval_z": lambda x: eval_z(family, 1, x),
        "forward_superpose": lambda x: forward_superpose(family, np.sin, x),
        "eval_knetwork": lambda x: eval_knetwork(net, x),
        "eval_kb": lambda x: eval_kb(basis, 3, x),
        "eval_surface": lambda x: eval_surface(surface, x),
    }


@pytest.mark.parametrize("name", EVALUATORS)
def test_one_value_per_point(evaluators, name):
    ev = evaluators[name]
    pts = np.random.default_rng(1).random((6, D))
    pts[0] = [0.0, 1.0]
    flat = ev(pts)
    assert flat.shape == (6,)
    one = ev(pts[0])
    assert isinstance(one, float)
    assert one == pytest.approx(flat[0], rel=1e-12, abs=1e-15)
    stack = ev(pts.reshape(2, 3, D))
    assert stack.shape == (2, 3)
    assert np.allclose(stack.reshape(-1), flat, rtol=1e-12, atol=1e-15)
    scattered = PointSet(d=D, points=pts)
    assert np.array_equal(ev(scattered), flat)


@pytest.mark.parametrize("name", EVALUATORS)
def test_grid_agrees_with_its_points(evaluators, name):
    """The grid path runs axis by axis; it keeps the bits of the points,
    except for the surface, which contracts its coefficients by axis."""
    ev = evaluators[name]
    grid = PointSet.grid(D, (7, 13))
    on_grid, at_points = ev(grid), ev(grid.points)
    assert on_grid.shape == at_points.shape == (len(grid),)
    if name == "eval_surface":
        assert np.max(np.abs(on_grid - at_points)) \
            <= 1e-12 * np.max(np.abs(at_points))
    else:
        assert np.array_equal(on_grid, at_points)


@pytest.mark.parametrize("name", EVALUATORS)
def test_refusals(evaluators, name):
    ev = evaluators[name]
    for bad in (np.full((4, 3), 0.5), np.full((2, 3, 1), 0.5),
                np.full(3, 0.5), 0.5):
        with pytest.raises(ValueError, match="last axis"):
            ev(bad)
    for bad in ([np.nan, 0.5], [[0.1, 0.2], [0.5, np.nan]],
                [1.5, 0.2], [[0.1, 0.2], [0.5, -0.1]], [np.inf, 0.5]):
        with pytest.raises(ValueError, match="unit cube"):
            ev(np.array(bad))
    outside = PointSet(d=D, points=np.zeros((4, D)),
                       grid_axes=(np.array([0.0, 1.0]), np.array([0.0, 1.5])))
    with pytest.raises(ValueError, match="unit cube"):
        ev(outside)
