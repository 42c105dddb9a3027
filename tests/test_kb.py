import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from kstfit.inner import build_inner_family, forward_superpose
from kstfit.kb import (
    KBBasis,
    PointSet,
    assemble_design_matrix,
    eval_kb,
    independence_check,
    prune_near_zero_columns,
)


@pytest.fixture(scope="module")
def fam2():
    return build_inner_family(2, 3)


@pytest.fixture(scope="module")
def fam3():
    return build_inner_family(3, 2)


def test_grid_enumeration_is_c_order():
    """Grid rows run last axis fastest, so samples reshape to the tensor
    of values on the ij-indexed mesh; distinct axis lengths keep an axis
    mix-up from passing."""
    for shape in ((3, 2), (4, 5, 6)):
        ps = PointSet.grid(len(shape), shape)
        assert len(ps) == np.prod(shape)
        mesh = np.meshgrid(*ps.grid_axes, indexing="ij")

        def f(x):
            return sum((a + 1) ** 2 * x[..., a] ** (a + 1)
                       for a in range(len(shape)))

        assert np.array_equal(f(ps.points).reshape(shape),
                              f(np.stack(mesh, axis=-1)))


def test_pointset_validates_cube():
    with pytest.raises(ValueError):
        PointSet(d=2, points=np.array([[0.5, 1.5]]))


@pytest.mark.parametrize("per_axis", [4.9, (3, 4.9), np.float64(5.0)])
def test_grid_refuses_a_non_integer_size(per_axis):
    """A size of 4.9 once built a 4-point axis."""
    with pytest.raises(ValueError, match="must be an integer"):
        PointSet.grid(2, per_axis)
    assert len(PointSet.grid(2, (np.int64(3), 4))) == 12


def test_kb_column_sum_is_2d_plus_1(fam2):
    basis = KBBasis(fam2, n=20, degree=3)
    rng = np.random.default_rng(0)
    pts = rng.random((1000, 2))
    total = np.zeros(1000)
    for j in range(basis.n_columns):
        total += eval_kb(basis, j, pts)
    assert np.max(np.abs(total - 5.0)) <= 1e-10


def test_kb_values_nonnegative_and_bounded(fam2):
    basis = KBBasis(fam2, n=10)
    pts = np.random.default_rng(1).random((200, 2))
    for j in (0, 7, 19):
        v = eval_kb(basis, j, pts)
        assert np.all(v >= 0.0) and np.all(v <= 5.0)


def test_kb_left_end_degree1(fam2):
    basis = KBBasis(fam2, n=10, degree=1)
    origin = np.zeros(2)
    assert eval_kb(basis, 0, origin) == pytest.approx(5.0, abs=1e-12)
    assert eval_kb(basis, basis.n_columns - 1, origin) == 0.0


def test_trailing_columns_vanish(fam2):
    # z never exceeds sum(lambda) < d, so late columns are identically 0
    basis = KBBasis(fam2, n=50)
    pts = np.random.default_rng(2).random((500, 2))
    assert np.all(eval_kb(basis, basis.n_columns - 1, pts) == 0.0)


def test_one_column_allocates_little_beside_its_values(fam2):
    """One column of a 2-d n=1000 basis on the 101^2 grid.  Densifying the
    univariate design of each map (10201 x 2000 floats) to read column j
    peaked at 325 MB traced; column j of the sparse design is O(N)."""
    basis = KBBasis(fam2, n=1000)
    grid = PointSet.grid(2, 101)
    eval_kb(basis, 500, grid)  # the lazy SciPy import, outside the trace
    tracemalloc.start()
    try:
        values = eval_kb(basis, 500, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.size == len(grid) and np.any(values)
    assert peak < 8e6


def test_design_matrix_rows_match_pointwise_eval(fam2):
    basis = KBBasis(fam2, n=8)
    ps = PointSet(d=2, points=np.random.default_rng(3).random((5, 2)))
    m = assemble_design_matrix(basis, ps)
    assert m.shape == (5, 16)
    # a row holds at most degree+1 nonzeros from each of the 2d+1 maps
    assert m.format == "csr" and np.all(np.diff(m.indptr) <= 5 * 4)
    for j in range(basis.n_columns):
        assert np.array_equal(m.toarray()[:, j],
                              eval_kb(basis, j, ps.points))


def test_design_matrix_row_sums(fam2, fam3):
    for fam, per_axis in ((fam2, 41), (fam3, 11)):
        basis = KBBasis(fam, n=12)
        grid = PointSet.grid(fam.d, per_axis)
        m = assemble_design_matrix(basis, grid)
        row_sums = m.sum(axis=1)
        assert np.max(np.abs(row_sums - (2 * fam.d + 1))) <= 1e-10


def test_prune_drops_only_zero_columns_at_tol_zero():
    values = np.array([[1.0, 0.0, 1e-150], [2.0, 0.0, 0.0]])
    kept = prune_near_zero_columns(sparse.csr_array(values), tol=0.0)
    assert list(kept) == [0, 2]


def test_prune_is_idempotent(fam2):
    basis = KBBasis(fam2, n=25)
    grid = PointSet.grid(2, 21)
    m = assemble_design_matrix(basis, grid)
    once = prune_near_zero_columns(m, tol=1e-10)
    twice = prune_near_zero_columns(m[:, once], tol=1e-10)
    assert np.array_equal(twice, np.arange(len(once)))
    assert len(once) < basis.n_columns  # structural zeros exist


def test_prune_all_zero_is_error():
    with pytest.raises(ValueError, match="degenerate"):
        prune_near_zero_columns(sparse.csr_array((4, 3)), tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        prune_near_zero_columns(sparse.csr_array(np.eye(3)), tol=-1.0)


def test_original_column_indices_recoverable(fam2):
    basis = KBBasis(fam2, n=25)
    grid = PointSet.grid(2, 21)
    m = assemble_design_matrix(basis, grid)
    kept = prune_near_zero_columns(m, tol=1e-10)
    dense = m.toarray()
    # the cut on the sparse entries is the cut on the dense column norms
    norms = np.linalg.norm(dense, axis=0)
    assert np.array_equal(kept, np.flatnonzero(norms > 1e-10 * norms.max()))
    # every kept column equals the original column it claims to be
    pruned = m[:, kept].toarray()
    for local, orig in enumerate(kept):
        assert np.array_equal(pruned[:, local], dense[:, orig])


def test_independence_small_2d(fam2):
    basis = KBBasis(fam2, n=5)
    report = independence_check(basis, PointSet.grid(2, 41))
    assert report["independent"]
    assert report["rank"] == report["n_nonzero_columns"]


def test_independence_small_3d(fam3):
    basis = KBBasis(fam3, n=20)
    report = independence_check(basis, PointSet.grid(3, 21))
    assert report["independent"]


def test_duplicated_column_detected():
    rng = np.random.default_rng(4)
    values = rng.random((30, 4))
    values[:, 3] = values[:, 0]
    svals = np.linalg.svd(values, compute_uv=False)
    rank = int(np.sum(svals > max(values.shape) * np.finfo(float).eps
                      * svals[0]))
    assert rank == 3  # the SVD oracle flags the duplication


def test_independence_needs_enough_points(fam2):
    basis = KBBasis(fam2, n=50)
    with pytest.raises(ValueError, match="at least"):
        independence_check(basis, PointSet.grid(2, 7))


def test_superpose_of_basis_profile_equals_kb_column(fam2):
    # summing a univariate basis function over the superposition maps is
    # the definition of the composed column
    basis = KBBasis(fam2, n=12, degree=3)
    pts = np.random.default_rng(5).random((50, 2))
    for j in (0, 5, 11):
        def b_j(t):
            col = basis.univariate.design_matrix(np.ravel(t))[:, j]
            return col.reshape(np.shape(t))

        assert np.allclose(forward_superpose(fam2, b_j, pts),
                           eval_kb(basis, j, pts), atol=1e-13)
        # a scalar in gives a scalar out
        one = forward_superpose(fam2, b_j, pts[0])
        assert isinstance(one, float)
        assert one == pytest.approx(eval_kb(basis, j, pts[0]), abs=1e-13)


def test_density_residual_nonincreasing(fam2):
    # fitting the family's own superposition of a smooth profile on a
    # fixed grid improves (or holds) as the basis is refined
    from kstfit.inner import forward_superpose

    grid = PointSet.grid(2, 21)
    f = forward_superpose(fam2, np.sin, grid.points)
    residuals = []
    for n in (4, 8, 16):
        basis = KBBasis(fam2, n=n, degree=1)
        m = assemble_design_matrix(basis, grid).toarray()
        sol, res, *_ = np.linalg.lstsq(m, f, rcond=None)
        fit = m @ sol
        residuals.append(np.sqrt(np.mean((fit - f) ** 2)))
    assert residuals[1] <= residuals[0] * 1.0001
    assert residuals[2] <= residuals[1] * 1.0001
