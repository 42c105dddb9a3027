import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kstfit.bench import run_knet_rate
from kstfit.bsplines import eval_relu_combination
from kstfit.inner import PROFILES, build_inner_family, eval_z, \
    forward_superpose
from kstfit.kb import KBBasis, PointSet, assemble_design_matrix
from kstfit.knet import RATE_GRID_PER_AXIS, KNetwork, build_knetwork, \
    eval_knetwork, rate_experiment


@pytest.fixture(scope="module")
def family():
    return build_inner_family(2, 3)


def test_parameter_count_formula(family):
    net = build_knetwork(family, np.sin, m=100, n=100)
    assert net.parameter_count == 1400  # (6d+2)n at d=2, m=n
    net2 = build_knetwork(family, np.sin, m=7, n=13)
    assert net2.parameter_count == 2 * 2 * 13 + 2 * 5 * 7


def test_constant_profile_reproduced_exactly(family):
    net = build_knetwork(family, lambda t: np.full_like(t, 3.25), m=5, n=5)
    pts = np.random.default_rng(0).random((200, 2))
    out = eval_knetwork(net, pts)
    assert np.allclose(out, 5 * 3.25, atol=1e-12)


def test_zero_profile_gives_zero_network(family):
    net = build_knetwork(family, lambda t: np.zeros_like(t), m=4, n=4)
    assert eval_knetwork(net, np.array([0.3, 0.8])) == 0.0


def test_structural_identity_with_manual_composition(family):
    net = build_knetwork(family, np.sin, m=20, n=20)
    pts = np.random.default_rng(1).random((50, 2))
    manual = np.zeros(50)
    for q in range(5):
        u = np.zeros(50)
        for i in range(2):
            u += net.lambdas[i] * eval_relu_combination(net.inner[q],
                                                        pts[:, i])
        manual += eval_relu_combination(net.outer, np.clip(u, 0.0, 2.0))
    assert np.array_equal(eval_knetwork(net, pts), manual)


def test_network_at_origin_hits_anchored_value(family):
    g = lambda t: np.cos(t) + 2.0
    net = build_knetwork(family, g, m=10, n=10)
    # all inner knots include 0 with phi(0)=0, so the outer sees g(0)
    assert eval_knetwork(net, np.zeros(2)) == pytest.approx(5 * g(0.0),
                                                            abs=1e-12)


def test_identity_profile_approaches_sum_of_z(family):
    pts = np.random.default_rng(2).random((300, 2))
    target = np.zeros(300)
    for q in range(5):
        target += eval_z(family, q, pts)
    errs = []
    for n in (20, 160):
        net = build_knetwork(family, lambda t: t, m=n, n=n)
        errs.append(np.max(np.abs(eval_knetwork(net, pts) - target)))
    assert errs[1] < errs[0]
    assert errs[1] < 0.02


def test_rate_experiment_lipschitz_slope(family):
    res = rate_experiment(family, np.sin, [16, 64, 256])
    assert res["flag"] == "ok"
    assert res["slope"] <= -0.8
    assert np.all(np.diff(res["sup_error"]) <= 0.05 * res["sup_error"][:-1])


def test_rate_experiment_constant_flags_exact(family):
    res = rate_experiment(family, lambda t: np.full_like(t, 1.5), [4, 8, 16])
    assert res["flag"] == "exact"
    assert res["slope"] is None
    assert np.all(res["sup_error"] == 0.0)


def test_rate_experiment_needs_three_sizes(family):
    with pytest.raises(ValueError):
        rate_experiment(family, np.sin, [8, 16])


def test_network_error_against_own_superposition_is_small(family):
    g = np.sin
    net = build_knetwork(family, g, m=128, n=128)
    pts = np.random.default_rng(5).random((500, 2))
    ref = forward_superpose(family, g, pts)
    assert np.max(np.abs(eval_knetwork(net, pts) - ref)) < 25 / 128


def test_network_refuses_points_outside_the_unit_cube(family):
    """The ReLU form extrapolates past [0, 1] (it gave 4.48 at (1.5, 0.2))
    and passes NaN through; like eval_z the network refuses both."""
    net = build_knetwork(family, np.sin, m=16, n=16)
    for bad in ([1.5, 0.2], [np.nan, 0.5], [[0.1, 0.2], [0.5, -0.1]],
                [np.inf, 0.5]):
        with pytest.raises(ValueError, match="unit cube"):
            eval_knetwork(net, np.array(bad))
    outside = PointSet(d=2, points=np.zeros((4, 2)),
                       grid_axes=(np.array([0.0, 1.0]),
                                  np.array([0.0, 1.5])))
    with pytest.raises(ValueError, match="unit cube"):
        eval_knetwork(net, outside)
    with pytest.raises(ValueError, match="last axis"):
        eval_knetwork(net, np.zeros((4, 3)))


# a shallow family per dimension: the grid path's bits do not depend on
# the construction depth
_FAMILIES = {1: (1, 4), 2: (2, 3), 3: (3, 2)}


def _grid_matches_points(d, per_axis, g, n):
    family = build_inner_family(*_FAMILIES[d])
    grid = PointSet.grid(d, per_axis)
    net = build_knetwork(family, g, m=n, n=n)
    assert np.array_equal(eval_knetwork(net, grid),
                          eval_knetwork(net, grid.points))
    assert np.array_equal(forward_superpose(family, g, grid),
                          forward_superpose(family, g, grid.points))


@pytest.mark.parametrize("d, per_axis", sorted(RATE_GRID_PER_AXIS.items()))
@pytest.mark.parametrize("profile", ["sin", "sqrt"])
def test_grid_path_keeps_the_bits_of_the_points(d, per_axis, profile):
    """On a grid the inner functions run once per axis coordinate; the
    network and the reference superposition keep the bits of the same
    functions at every grid point."""
    _grid_matches_points(d, per_axis, PROFILES[profile], 512)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), d=st.integers(1, 3))
def test_grid_path_keeps_the_bits_on_any_grid(data, d):
    per_axis = tuple(data.draw(st.lists(st.integers(2, 30), min_size=d,
                                        max_size=d)))
    n = data.draw(st.sampled_from([1, 3, 8, 64]))
    _grid_matches_points(d, per_axis, np.sin, n)


@pytest.mark.parametrize("per_axis", [21, (7, 13)])
def test_design_matrix_on_a_grid_matches_its_points(family, per_axis):
    basis = KBBasis(family, n=30)
    grid = PointSet.grid(2, per_axis)
    a = assemble_design_matrix(basis, grid)
    b = assemble_design_matrix(basis, PointSet(d=2, points=grid.points))
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, part), getattr(b, part))


# sha256 of the float64 (little-endian) sup errors of the criteria 4 and
# 5 runs, n = 8 to 512 on the 201^2 grid, as computed point by point
_KNET_RATE_2D_SHA256 = {
    "sin": "8cf8354362f24b413a45e3447058c56f6ba96276fa27a688ba2b5e726f0af88d",
    "sqrt":
        "a0610082d610d7a4e7252aad7ffe3b80e4adbc2a2d019e03a59ccafefb415f09",
}


@pytest.mark.parametrize("profile", ["sin", "sqrt"])
def test_knet_rate_sup_errors_keep_their_bytes(profile):
    """The same-numbers gate of the network rate runs: a change to how
    the network or the reference is evaluated keeps every sup error."""
    res = run_knet_rate(2, profile, [8, 16, 32, 64, 128, 256, 512])[1]
    errors = np.asarray(res["sup_error"], dtype="<f8")
    assert hashlib.sha256(errors.tobytes()).hexdigest() \
        == _KNET_RATE_2D_SHA256[profile]
