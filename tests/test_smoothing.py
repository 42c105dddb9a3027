import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from conftest import second_derivative_sup, thin_plate_energy_of
from kstfit import smoothing
from kstfit.bsplines import UniformBSplineBasis, contract_axes
from kstfit.inner import build_inner_family
from kstfit.kb import KBBasis, PointSet, assemble_design_matrix
from kstfit.smoothing import (
    GridSmoother,
    LKBBasis,
    SmoothingConfig,
    build_lkb_basis,
    denoise_samples,
    energy_matrix,
    eval_surface,
)


@pytest.fixture(scope="module")
def grid():
    return PointSet.grid(2, 41)


def raw_column(kb, grid, j):
    """Raw KB column j sampled on the grid, as a dense vector."""
    return assemble_design_matrix(kb, grid)[:, [j]].toarray()[:, 0]


def energy(surface):
    """c^T E c with E the energy matrix that the smoother factors."""
    c = surface.coeffs.reshape(-1)
    return c @ energy_matrix(surface.d, surface.config) @ c


def test_energy_of_affine_is_zero(grid):
    aff = 1.0 + 2.0 * grid.points[:, 0] - 0.5 * grid.points[:, 1]
    s = denoise_samples(aff, grid, SmoothingConfig(penalty=1.0, segments=8))
    assert energy(s) <= 1e-10


def test_energy_of_x_squared_is_four(grid):
    s = denoise_samples(grid.points[:, 0] ** 2, grid,
                        SmoothingConfig(penalty=0.0, segments=8))
    assert energy(s) == pytest.approx(4.0, rel=0.01)


def test_energy_scales_quadratically(grid):
    cfg = SmoothingConfig(penalty=0.0, segments=8)
    base = denoise_samples(grid.points[:, 0] ** 2, grid, cfg)
    scaled = denoise_samples(3.0 * grid.points[:, 0] ** 2, grid, cfg)
    assert energy(scaled) == pytest.approx(9.0 * energy(base), rel=1e-10)


def test_zero_data_gives_zero_surface(grid):
    s = denoise_samples(np.zeros(len(grid)), grid,
                        SmoothingConfig(penalty=1.0, segments=8))
    assert np.all(s.coeffs == 0.0)


@pytest.mark.parametrize("penalty", [0.0, 1e-3, 1.0, 100.0])
def test_affine_reproduced_for_every_penalty(grid, penalty):
    aff = 0.2 + 0.7 * grid.points[:, 0] + 0.1 * grid.points[:, 1]
    s = denoise_samples(aff, grid, SmoothingConfig(penalty=penalty,
                                                   segments=8))
    fit = eval_surface(s, grid)
    assert np.max(np.abs(fit - aff)) <= 1e-8


def test_penalty_to_zero_limit(grid):
    f = np.sin(2 * np.pi * grid.points[:, 0]) * grid.points[:, 1]
    plain = denoise_samples(f, grid, SmoothingConfig(penalty=0.0, segments=8))
    diffs = []
    for lam in (1.0, 1e-3, 1e-6, 1e-9):
        s = denoise_samples(f, grid, SmoothingConfig(penalty=lam, segments=8))
        diffs.append(np.abs(s.coeffs - plain.coeffs).max())
    assert diffs[0] > diffs[1] > diffs[2] > diffs[3]
    assert diffs[3] < 1e-3


def test_fit_energy_nonincreasing_in_penalty(grid):
    f = np.sin(2 * np.pi * grid.points[:, 0]) \
        * np.cos(np.pi * grid.points[:, 1])
    energies = []
    for lam in (0.0, 1e-3, 1.0, 10.0):
        s = denoise_samples(f, grid, SmoothingConfig(penalty=lam, segments=8))
        energies.append(energy(s))
    assert np.all(np.diff(energies) <= 1e-9)


def test_error_bound_with_impulsive_noise(grid):
    cfg = SmoothingConfig(penalty=1.0, segments=8)
    h = 1.0 / cfg.segments
    f2 = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    clean = f2(grid.points[:, 0], grid.points[:, 1])

    noiseless = eval_surface(denoise_samples(clean, grid, cfg), grid)
    sup2 = second_derivative_sup(f2)
    c_cal = np.sqrt(np.mean((noiseless - clean) ** 2)) / (sup2 * h ** 2)

    rng = np.random.default_rng(8)
    noise = np.zeros(len(grid))
    hits = rng.choice(len(grid), size=len(grid) // 20, replace=False)
    noise[hits] = rng.choice([-0.5, 0.5], size=len(hits))
    fitted = eval_surface(denoise_samples(clean + noise, grid, cfg), grid)
    rms_err = np.sqrt(np.mean((fitted - clean) ** 2))
    bound = (c_cal * sup2 * h ** 2
             + 2 * np.sqrt(np.mean(noise ** 2))
             + np.sqrt(cfg.penalty * thin_plate_energy_of(f2)))
    assert rms_err <= bound


def test_smoother_requires_grid_and_enough_points():
    scattered = PointSet(d=2, points=np.random.default_rng(0).random((99, 2)))
    with pytest.raises(ValueError, match="grid"):
        GridSmoother(scattered, SmoothingConfig(segments=8))
    tiny = PointSet.grid(2, 9)
    with pytest.raises(ValueError, match="determine"):
        GridSmoother(tiny, SmoothingConfig(segments=12))


def test_config_validation():
    with pytest.raises(ValueError):
        SmoothingConfig(penalty=-1.0)
    with pytest.raises(ValueError):
        SmoothingConfig(segments=3)


def test_lkb_constant_column_and_leakage(grid):
    fam = build_inner_family(2, 3)
    kb = KBBasis(fam, n=30)
    cfg = SmoothingConfig(penalty=1.0, segments=8)
    lkb = build_lkb_basis(kb, grid, cfg)
    assert lkb.n_columns == len(lkb.kept) < kb.n_columns

    # denoising is linear and reproduces constants, so the column sum
    # stays within round-off of 2d+1
    total = lkb.design_matrix(grid).sum(axis=1)
    assert np.max(np.abs(total - 5.0)) <= 1e-6

    # the weakest kept column (narrow boundary band) stays small far away
    # from its support; tolerance measured, see the far-field decay test
    col = lkb.n_columns - 1
    vals = raw_column(kb, grid, lkb.kept[col])
    supp = grid.points[np.abs(vals) > 1e-12]
    dist2 = ((grid.points[:, None, :] - supp[None, :, :]) ** 2).sum(-1).min(1)
    far = dist2 > 0.4 ** 2
    leak = eval_surface(lkb.column(col), grid.points[far])
    assert np.max(np.abs(leak)) <= 1e-2


def test_lkb_leakage_decays_with_distance(grid):
    fam = build_inner_family(2, 3)
    kb = KBBasis(fam, n=30)
    cfg = SmoothingConfig(penalty=1.0, segments=8)
    lkb = build_lkb_basis(kb, grid, cfg)
    col = 0
    vals = raw_column(kb, grid, lkb.kept[col])
    supp = grid.points[np.abs(vals) > 1e-12]
    dist2 = ((grid.points[:, None, :] - supp[None, :, :]) ** 2).sum(-1).min(1)
    leaks = [np.max(np.abs(eval_surface(lkb.column(col),
                                        grid.points[dist2 > r * r])))
             for r in (0.1, 0.25, 0.4)]
    assert leaks[0] > leaks[2]


def test_lkb_matches_fitted_surface_at_nodes(grid):
    fam = build_inner_family(2, 3)
    kb = KBBasis(fam, n=20)
    cfg = SmoothingConfig(penalty=1.0, segments=8)
    lkb = build_lkb_basis(kb, grid, cfg)
    j = lkb.n_columns // 2
    node_vals = eval_surface(lkb.column(j), grid.points)
    fitted = eval_surface(lkb.column(j), grid)
    assert np.allclose(node_vals, fitted, atol=1e-12)
    with pytest.raises(IndexError):
        eval_surface(lkb.column(lkb.n_columns), grid.points[0])


def test_surface_point_eval_matches_grid_eval(grid):
    f = np.exp(-grid.points[:, 0] - grid.points[:, 1] ** 2)
    s = denoise_samples(f, grid, SmoothingConfig(penalty=1.0, segments=8))
    via_grid = eval_surface(s, grid)
    via_points = eval_surface(s, grid.points)
    assert np.allclose(via_grid, via_points, atol=1e-12)


def test_grid_evaluation_reads_cached_read_only_axis_designs():
    """Grid axes repeat across fits, so their designs are computed once
    and shared read-only, by bases of any penalty; evaluation through
    them keeps every bit."""
    cfg = SmoothingConfig(degree=2, segments=5)
    rng = np.random.default_rng(3)
    surface = smoothing.SmoothSurface(
        coeffs=rng.normal(size=(cfg.coeffs_per_axis,) * 2), config=cfg)
    uni = UniformBSplineBasis(count=cfg.coeffs_per_axis, degree=cfg.degree)
    for grid in (PointSet.grid(2, 101), PointSet.grid(2, (7, 13))):
        designs = smoothing._grid_designs(cfg, grid)
        # equal axes in new arrays, under another penalty
        same = PointSet(d=2, points=grid.points.copy(),
                        grid_axes=tuple(a.copy() for a in grid.grid_axes))
        again = smoothing._grid_designs(
            SmoothingConfig(penalty=7.0, degree=2, segments=5), same)
        for axis, design, other in zip(grid.grid_axes, designs, again):
            assert np.array_equal(design, uni.design_matrix(axis))
            assert other is design
            with pytest.raises(ValueError, match="read-only"):
                design[0, 0] = 1.0
        want = contract_axes([uni.design_matrix(a) for a in grid.grid_axes],
                             surface.coeffs).reshape(-1)
        assert np.array_equal(eval_surface(surface, grid), want)


@pytest.mark.parametrize("d,per_axis,segments", [(1, 41, 12), (2, 41, 12),
                                                 (2, (7, 13), 4),
                                                 (3, (9, 6, 11), 4)])
def test_smoother_builds_the_kron_transpose_in_csr(d, per_axis, segments):
    """A^T is assembled in CSR from the axis designs with the arrays of
    kron(B_1, ..., B_d).T.tocsr(): same structure, same products."""
    cfg = SmoothingConfig(segments=segments)
    grid = PointSet.grid(d, per_axis)
    designs = smoothing._grid_designs(cfg, grid)
    a = sparse.csr_array(designs[0])
    for b in designs[1:]:
        a = sparse.kron(a, b, format="csr")
    want = a.T.tocsr()
    got = GridSmoother(grid, cfg)._at
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_block_coefficients_match_per_column_denoise(grid):
    cfg = SmoothingConfig(penalty=1.0, segments=8)
    smoother = GridSmoother(grid, cfg)
    x, y = grid.points.T
    values = np.stack([np.sin(3 * x) * y, x * x - y, np.exp(x * y)], axis=1)
    coeffs = smoother.coefficients(values)
    assert coeffs.shape == (3,) + (cfg.coeffs_per_axis,) * 2
    # column after column in memory: the cache writes this block as is
    assert coeffs.flags.c_contiguous
    for j in range(3):
        one = denoise_samples(values[:, j], grid, cfg).coeffs
        assert np.allclose(coeffs[j], one, rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="one sample column"):
        denoise_samples(values, grid, cfg)


def test_lkb_design_matrix_needs_a_grid(grid):
    lkb = LKBBasis(coeffs=np.zeros((2, 11, 11)), kept=np.arange(2),
                   config=SmoothingConfig(segments=8))
    scattered = PointSet(d=2, points=grid.points[:50])
    with pytest.raises(ValueError, match="grid"):
        lkb.design_matrix(scattered)
    with pytest.raises(ValueError, match="grid"):
        lkb.sample(scattered)


@st.composite
def random_lkb_on_grid(draw):
    """A random LKB basis (d = 1, 2, 3) and a grid whose per-axis sizes may
    fall below the coefficients per axis."""
    d = draw(st.integers(1, 3))
    cfg = SmoothingConfig(degree=draw(st.sampled_from([2, 3])),
                          segments=draw(st.integers(4, 7)))
    top = {1: 30, 2: 16, 3: 10}[d]
    per_axis = tuple(draw(st.lists(st.integers(2, top), min_size=d,
                                   max_size=d)))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # column after column, as GridSmoother lays them out
    block = rng.uniform(-1.0, 1.0, (m,) + (cfg.coeffs_per_axis,) * d)
    lkb = LKBBasis(coeffs=block, kept=np.arange(m), config=cfg)
    return lkb, PointSet.grid(d, per_axis)


@settings(max_examples=40, deadline=None)
@given(random_lkb_on_grid())
def test_grid_design_matrix_matches_per_column_eval(case):
    lkb, grid = case
    values = lkb.design_matrix(grid)
    oracle = np.stack([eval_surface(lkb.column(j), grid)
                       for j in range(lkb.n_columns)], axis=1)
    # a view of the samples of one column after the other
    assert values.flags.f_contiguous
    assert values.shape == oracle.shape
    assert np.max(np.abs(values - oracle)) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(random_lkb_on_grid())
def test_rank_factor_has_the_singular_values_of_the_matrix(case):
    lkb, grid = case
    want = np.linalg.svd(lkb.design_matrix(grid), compute_uv=False)
    matrix = lkb.sample(grid)
    tol = 1e-10 * want[0]
    for got in (np.linalg.svd(matrix.rank_factor(), compute_uv=False),
                matrix.svd[1]):
        k = min(len(want), len(got))
        assert np.all(np.abs(got[:k] - want[:k]) <= tol)
        assert np.all(want[k:] <= tol) and np.all(got[k:] <= tol)
    assert not matrix.svd[1].flags.writeable
    assert matrix.svd[1] is matrix.svd[1]


@settings(max_examples=40, deadline=None)
@given(random_lkb_on_grid())
def test_combine_matches_per_column_sum(case):
    lkb, _ = case
    x = np.linspace(-1.0, 1.0, lkb.n_columns)
    oracle = sum(w * lkb.column(j).coeffs for j, w in enumerate(x))
    # |coeffs| <= 1 and |x| <= 1: only the summation order differs
    assert np.max(np.abs(lkb.combine(x).coeffs - oracle)) <= 1e-13


def contracted_rhs(grid, cfg, values):
    """A^T V for dense samples V (N, m) by one contraction per grid axis:
    the smoother's former right-hand side, kept here as the reference."""
    designs = [UniformBSplineBasis(count=cfg.coeffs_per_axis,
                                   degree=cfg.degree).design_matrix(axis)
               for axis in grid.grid_axes]
    shape = tuple(len(axis) for axis in grid.grid_axes)
    t = values.T.reshape((values.shape[1],) + shape)
    return contract_axes([b.T for b in designs], t).reshape(
        values.shape[1], -1).T, designs


@st.composite
def sparse_samples_on_grid(draw):
    """A config, a grid with distinct sizes per axis (such as 8 x 9 x 10),
    and a random CSR block of sample columns on it."""
    d = draw(st.integers(1, 3))
    cfg = SmoothingConfig(penalty=draw(st.sampled_from([1.0, 1e-2])),
                          degree=draw(st.sampled_from([2, 3])),
                          segments=draw(st.integers(4, 7)))
    ncf = cfg.coeffs_per_axis
    per_axis = tuple(draw(st.lists(st.integers(ncf - 2, ncf + 12),
                                   min_size=d, max_size=d, unique=True)))
    assume(math.prod(per_axis) >= ncf ** d)
    grid = PointSet.grid(d, per_axis)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = sparse.random_array(
        (len(grid), draw(st.integers(1, 12))), format="csr", rng=rng,
        density=draw(st.floats(0.05, 0.5)))
    return cfg, grid, values


@settings(max_examples=60, deadline=None)
@given(sparse_samples_on_grid())
def test_sparse_coefficients_match_per_axis_contraction(case):
    cfg, grid, values = case
    dense = values.toarray()
    rhs, designs = contracted_rhs(grid, cfg, dense)
    ata = np.array([[1.0]])
    for b in designs:
        ata = np.kron(ata, b.T @ b)
    normal = ata / len(grid) + cfg.penalty * energy_matrix(grid.d, cfg)
    want = cho_solve(cho_factor(normal), rhs / len(grid))
    smoother = GridSmoother(grid, cfg)
    for block in (values, dense):
        got = smoother.coefficients(block)
        assert got.shape == (dense.shape[1],) + (cfg.coeffs_per_axis,) * grid.d
        got = got.reshape(dense.shape[1], -1).T
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lkb_build_keeps_the_raw_matrix_sparse():
    """Raw columns to C at 2-d n=10000 on the 41^2 grid.  A dense raw
    matrix and its pruned copy peaked at >= 538 MB here; the sparse raw
    columns and their A^T V product peak near 126 MB."""
    kb = KBBasis(build_inner_family(2), n=10000)
    grid = PointSet.grid(2, 41)
    tracemalloc.start()
    try:
        lkb = build_lkb_basis(kb, grid, SmoothingConfig(segments=24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lkb.n_columns == 10343
    assert peak < 200e6


def test_sampling_allocates_little_beside_the_matrix():
    """M of a 3-d basis (190 columns, 15^3 coefficients, 41^3 grid) is
    105 MB.  Sampling forms no M, and its first read writes M a block of
    columns at a time, so M meets only one block's intermediates; one
    contraction of all the columns held the previous axis step's result
    beside it (1.37 x M), and a transposing copy of the samples into grid
    order reached 2.0 x M."""
    cfg = SmoothingConfig(segments=12)
    rng = np.random.default_rng(0)
    lkb = LKBBasis(coeffs=rng.normal(size=(190,) + (15,) * 3),
                   kept=np.arange(190), config=cfg)
    grid = PointSet.grid(3, 41)
    tracemalloc.start()
    try:
        matrix = lkb.sample(grid)
        sampled = tracemalloc.get_traced_memory()[0]
        values = matrix.values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.shape == (41 ** 3, 190)
    assert sampled < 0.1 * values.nbytes
    assert peak < 1.1 * values.nbytes


def test_smoother_forms_its_normal_matrix_in_place():
    """A fresh 3-d smoother (11^3 coefficients, 1331^2 normal matrix of
    14 MB) holds at most two arrays of the normal matrix's size at once:
    its in-place sum and LAPACK's copy.  Summing into new arrays held up
    to five of them (5.0 x)."""
    cfg = SmoothingConfig(segments=8)
    grid = PointSet.grid(3, 16)
    GridSmoother(grid, cfg)  # the cached per-axis Gram matrices
    tracemalloc.start()
    try:
        GridSmoother(grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * cfg.coeffs_per_axis ** 6 * 8
