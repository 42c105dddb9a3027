import dataclasses
import json
import math
import pickle
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg as sla

from kstfit import fitting
from kstfit.bench import PIPELINE_RANK_TOL, ExperimentSpec
from kstfit.fitting import LSTSQ_RCOND, OMP_STAGNATION, OMP_TIE, \
    FitResult, dls_fit, evaluate_fit, omp_fit, rms_seminorm
from kstfit.inner import build_inner_family
from kstfit.kb import DesignMatrix, KBBasis, PointSet
from kstfit.pivotal import maxvol_select, pivotal_fit
from kstfit.smoothing import LKBBasis, SmoothingConfig, build_lkb_basis
from kstfit.testfuncs import registry


@pytest.fixture(scope="module")
def pipeline():
    fam = build_inner_family(2, 3)
    kb = KBBasis(fam, n=25)
    grid = PointSet.grid(2, 41)
    lkb = build_lkb_basis(kb, grid, SmoothingConfig(penalty=1.0, segments=8))
    return lkb, lkb.sample(grid), grid


def test_rms_examples():
    assert rms_seminorm(np.zeros(10)) == 0.0
    assert rms_seminorm(np.full(7, -2.5)) == 2.5
    assert rms_seminorm([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
    with pytest.raises(ValueError):
        rms_seminorm([])


def test_dls_reproduces_own_column(pipeline):
    _, matrix, _ = pipeline
    j = matrix.shape[1] // 2
    fit = dls_fit(matrix, matrix.values[:, j])
    assert fit.training_rmse <= 1e-10


def test_dls_coefficient_unit_vector_on_full_rank():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(50, 8))
    m = DesignMatrix(values=values)
    fit = dls_fit(m, values[:, 3])
    want = np.zeros(8)
    want[3] = 1.0
    assert np.allclose(fit.coefficients, want, atol=1e-10)


def test_dls_fits_constants_via_partition(pipeline):
    _, matrix, _ = pipeline
    fit = dls_fit(matrix, np.ones(matrix.shape[0]))
    assert fit.training_rmse <= 1e-6


def test_dls_scaling_linearity(pipeline):
    _, matrix, grid = pipeline
    f = np.sin(grid.points[:, 0] * 3) + grid.points[:, 1]
    fit1 = dls_fit(matrix, f)
    fit5 = dls_fit(matrix, 5.0 * f)
    assert np.allclose(fit5.coefficients, 5.0 * fit1.coefficients,
                       atol=1e-9 * max(1.0, np.abs(fit1.coefficients).max()))
    assert fit5.training_rmse == pytest.approx(5.0 * fit1.training_rmse,
                                               rel=1e-6, abs=1e-12)


@st.composite
def rank_deficient_plain(draw):
    """A plain matrix A @ B of rank at most r (zero included) and a target
    outside its column space."""
    n_rows, n_cols = draw(st.integers(1, 20)), draw(st.integers(1, 12))
    r = draw(st.integers(0, min(n_rows, n_cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(size=(n_rows, r)) @ rng.normal(size=(r, n_cols))
    return (DesignMatrix(values=values),
            rng.normal(size=n_rows))


@st.composite
def rank_deficient_lkb(draw):
    """A sampled LKB basis (d = 1, 2, 3) whose m columns span at most r
    coefficient directions, on a grid whose per-axis sizes may fall below
    the coefficients per axis, and a target on that grid."""
    d = draw(st.integers(1, 3))
    cfg = SmoothingConfig(degree=draw(st.sampled_from([2, 3])),
                          segments=draw(st.integers(4, 7)))
    top = {1: 30, 2: 16, 3: 10}[d]
    grid = PointSet.grid(d, tuple(draw(st.lists(
        st.integers(2, top), min_size=d, max_size=d))))
    m = draw(st.integers(1, 12))
    r = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ncf = cfg.coeffs_per_axis
    block = rng.normal(size=(m, r)) @ rng.normal(size=(r, ncf ** d))
    lkb = LKBBasis(coeffs=block.reshape((m,) + (ncf,) * d),
                   kept=np.arange(m), config=cfg)
    return lkb.sample(grid), rng.normal(size=len(grid))


def assert_matches_lstsq(matrix, f):
    """Same fitted values and rank as np.linalg.lstsq at LSTSQ_RCOND."""
    fit = dls_fit(matrix, f)
    m = matrix.values
    want, _, rank, _ = np.linalg.lstsq(m, f, rcond=LSTSQ_RCOND)
    assert np.linalg.norm(m @ (fit.coefficients - want)) \
        <= 1e-10 * np.linalg.norm(f)
    assert matrix.rank(LSTSQ_RCOND) == rank


@settings(max_examples=60, deadline=None)
@given(rank_deficient_plain())
def test_dls_matches_lstsq_on_rank_deficient_matrices(case):
    assert_matches_lstsq(*case)


@settings(max_examples=60, deadline=None)
@given(rank_deficient_lkb())
def test_dls_matches_lstsq_on_factored_lkb_bases(case):
    matrix, f = case
    assert matrix.qs  # the factored path
    assert_matches_lstsq(matrix, f)


def test_factored_and_plain_paths_agree(pipeline):
    _, matrix, grid = pipeline
    plain = DesignMatrix(values=matrix.values)
    assert matrix.rank_factor().shape[0] < plain.rank_factor().shape[0]
    k = matrix.rank(LSTSQ_RCOND)
    assert plain.rank(LSTSQ_RCOND) == k
    assert plain.rank(PIPELINE_RANK_TOL) == matrix.rank(PIPELINE_RANK_TOL)
    assert np.allclose(plain.column_norms, matrix.column_norms, rtol=1e-12,
                       atol=0.0)
    for f in (np.sin(3 * grid.points[:, 0]) * grid.points[:, 1],
              np.exp(grid.points.sum(axis=1)), np.ones(len(grid))):
        a, b = dls_fit(matrix, f), dls_fit(plain, f)
        assert np.linalg.norm(matrix.values @ (a.coefficients
                                               - b.coefficients)) \
            <= 1e-10 * np.linalg.norm(f)
        assert a.training_rmse == pytest.approx(b.training_rmse, rel=1e-6,
                                                abs=1e-14)


def test_dls_factors_each_matrix_once(pipeline, monkeypatch):
    lkb, _, grid = pipeline
    calls = []

    def counting(svd):
        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)
        return counted

    for module in (np.linalg, sla):
        monkeypatch.setattr(module, "svd", counting(module.svd))
    matrices = [lkb.sample(grid), lkb.sample(grid)]
    assert calls == []  # sampling does not factor: the first fit does
    for matrix in matrices:
        for c in range(5):
            dls_fit(matrix, np.cos(c * grid.points[:, 0]))
    # one SVD of W per matrix
    assert calls == [matrices[0].rank_factor().shape] * 2


def test_dls_fitted_values_hold_on_an_ill_conditioned_matrix():
    """cond(M) ~ 6e9: applying V, S^-1 and U^T in turn keeps the fitted
    values to rounding, while a formed pseudo-inverse V S^-1 U^T is off
    by ~eps * cond(M) ~ 1e-6 relative."""
    rng = np.random.default_rng(10)
    u, _ = np.linalg.qr(rng.normal(size=(80, 30)))
    v, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    values = (u * np.logspace(0, -9.8, 30)) @ v.T
    matrix = DesignMatrix(values=values)
    f = values @ rng.normal(size=30)
    fit = dls_fit(matrix, f)
    assert matrix.rank(LSTSQ_RCOND) == 30
    assert np.linalg.norm(values @ fit.coefficients - f) \
        <= 1e-10 * np.linalg.norm(f)


def test_design_matrix_values_are_read_only(pipeline):
    _, matrix, _ = pipeline
    values = np.eye(3)
    plain = DesignMatrix(values=values)
    for array in (plain.values, matrix.values, matrix.coeffs, *matrix.qs,
                  *matrix.rs):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 2.0
    values[0, 0] = 2.0  # the caller's own array stays writable


def test_design_matrix_ignores_later_writes_to_the_callers_array():
    """A write through the caller's array after the first fit must not
    reach the matrix, whose kept SVD would otherwise go stale (the fit
    then read training RMSE 0.842 instead of 0.641)."""
    rng = np.random.default_rng(0)
    values = rng.normal(size=(20, 5))
    f = rng.normal(size=20)
    matrix = DesignMatrix(values=values)
    first = dls_fit(matrix, f)
    values[:, 0] *= 2.0
    again = dls_fit(matrix, f)
    assert np.array_equal(again.coefficients, first.coefficients)
    assert again.training_rmse == first.training_rmse
    assert round(again.training_rmse, 3) == 0.641


def test_pipeline_hands_its_arrays_over_without_copies(pipeline):
    lkb, matrix, _ = pipeline
    assert np.shares_memory(matrix.coeffs, lkb.coeffs)
    for array in (matrix.values, *matrix.qs, *matrix.rs):
        assert not array.flags.writeable
    handed = np.eye(3)
    handed.flags.writeable = False  # a fresh array, handed over
    assert DesignMatrix(values=handed).values is handed


def test_design_matrix_rejects_mismatched_factor(pipeline):
    _, matrix, _ = pipeline
    with pytest.raises(ValueError, match="do not match the designs"):
        DesignMatrix(designs=matrix.designs[:1], coeffs=matrix.coeffs)
    with pytest.raises(ValueError, match="do not match the designs"):
        DesignMatrix(designs=matrix.designs, coeffs=matrix.coeffs[:, 1:])
    with pytest.raises(ValueError, match="do not match the designs"):
        DesignMatrix(designs=(matrix.designs[0], matrix.designs[1][:, 1:]),
                     coeffs=matrix.coeffs)


def test_design_matrix_takes_values_or_designs_and_coeffs(pipeline):
    _, matrix, _ = pipeline
    for kwargs in ({"values": matrix.values, "designs": matrix.designs,
                    "coeffs": matrix.coeffs},
                   {"values": matrix.values, "coeffs": matrix.coeffs},
                   {"values": matrix.values, "designs": matrix.designs},
                   {"designs": matrix.designs}, {}):
        with pytest.raises(ValueError, match="values, or designs"):
            DesignMatrix(**kwargs)
    made = DesignMatrix(designs=matrix.designs, coeffs=matrix.coeffs)
    assert np.array_equal(made.values, matrix.values)


def test_design_matrix_refuses_a_non_finite_coefficient(pipeline):
    _, matrix, _ = pipeline
    for bad in (np.nan, np.inf):
        coeffs = matrix.coeffs.copy()
        coeffs[3, 2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            DesignMatrix(designs=matrix.designs, coeffs=coeffs)


def test_dls_dimension_mismatch(pipeline):
    _, matrix, _ = pipeline
    with pytest.raises(ValueError):
        dls_fit(matrix, np.ones(3))


def _nan_at(values, i=1):
    values = np.array(values, dtype=float)
    values.flat[i] = np.nan
    return values


@pytest.mark.parametrize("call", [
    lambda: PointSet(d=2, points=_nan_at(np.full((3, 2), 0.5))),
    lambda: DesignMatrix(values=_nan_at(np.eye(4))),
    lambda: dls_fit(DesignMatrix(values=np.eye(4)),
                    _nan_at(np.ones(4))),
    lambda: omp_fit(DesignMatrix(values=np.eye(4)),
                    _nan_at(np.ones(4)), sparsity=2),
    lambda: pivotal_fit(np.eye(4), [0, 1], [0, 1], _nan_at(np.ones(2))),
], ids=["PointSet", "DesignMatrix", "dls_fit", "omp_fit", "pivotal_fit"])
def test_non_finite_input_rejected(call):
    with pytest.raises(ValueError, match="finite"):
        call()


def test_dls_deterministic(pipeline):
    _, matrix, grid = pipeline
    f = np.cos(grid.points @ np.array([2.0, 1.0]))
    a = dls_fit(matrix, f)
    b = dls_fit(matrix, f)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_adding_columns_never_hurts(pipeline):
    _, matrix, grid = pipeline
    f = np.exp(-grid.points[:, 0] - grid.points[:, 1])
    sub = DesignMatrix(values=matrix.values[:, :30])
    frm = dls_fit(sub, f).training_rmse
    full = dls_fit(matrix, f).training_rmse
    assert full <= frm + 1e-12


def test_evaluate_fit_on_training_grid_matches_residual(pipeline):
    lkb, matrix, grid = pipeline

    def f(pts):
        return np.sin(2 * pts[:, 0]) * pts[:, 1]

    fit = dls_fit(matrix, f(grid.points))
    err = evaluate_fit(fit, lkb, grid, f)
    assert err == pytest.approx(fit.training_rmse, rel=1e-8, abs=1e-12)
    assert fit.eval_rmse == err


def test_evaluate_zero_fit_gives_rms_of_target(pipeline):
    lkb, matrix, grid = pipeline

    def f(pts):
        return 1.0 + pts[:, 0]

    fit = FitResult(coefficients=np.zeros(matrix.shape[1]),
                    training_rmse=0.0, method="dls")
    err = evaluate_fit(fit, lkb, grid, f)
    assert err == pytest.approx(rms_seminorm(f(grid.points)))


def test_evaluate_fit_reads_one_finite_target_per_point(pipeline):
    """Targets are read as the fits read them.  An (N, 1) target once
    broadcast against the (N,) surface into an N x N difference, and a NaN
    target came back as a NaN error."""
    lkb, matrix, grid = pipeline

    def f(pts):
        return np.sin(pts[:, 0]) * pts[:, 1]

    fit = dls_fit(matrix, f(grid.points))
    for bad in (lambda p: f(p)[:, None], lambda p: f(p)[1:],
                lambda p: np.where(p[:, 0] > 0.5, np.nan, f(p))):
        with pytest.raises(ValueError, match="target values"):
            evaluate_fit(fit, lkb, grid, bad)
    assert fit.eval_rmse is None
    assert evaluate_fit(fit, lkb, grid, f) < 1e-2


def test_omp_single_atom_unnormalized_scale():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(40, 6))
    m = DesignMatrix(values=values)
    fit = omp_fit(m, 3.0 * values[:, 5], sparsity=3)
    assert list(fit.support) == [5]
    assert fit.coefficients[5] == pytest.approx(3.0, abs=1e-12)
    assert fit.training_rmse <= 1e-12


@pytest.mark.parametrize("scale", [1e-20, 1e-9, 1.0, 3.0, 3e6, 3e9, 1e9])
def test_omp_stagnation_does_not_depend_on_the_target_units(scale):
    """An absolute stagnation floor picked [0, 3, 5] for 3e6 * column 5
    and [2, 3, 5] for 3e9 * column 5: the residual's rounding grows with
    the target, the floor did not."""
    rng = np.random.default_rng(1)
    values = rng.normal(size=(40, 6))
    fit = omp_fit(DesignMatrix(values=values), scale * values[:, 5],
                  sparsity=3)
    assert list(fit.support) == [5]
    assert fit.stagnated
    assert fit.coefficients[5] == pytest.approx(scale, rel=1e-12)


def test_omp_planted_support_recovery():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(60, 12)))
    m = DesignMatrix(values=q)
    planted = [1, 4, 6, 9, 11]
    target = q[:, planted] @ np.array([2.0, -1.5, 1.0, 0.5, -3.0])
    fit = omp_fit(m, target, sparsity=5)
    assert sorted(fit.support) == planted
    assert fit.training_rmse <= 1e-8


@pytest.mark.parametrize("sparsity", [0, -3])
def test_omp_refuses_a_sparsity_below_one(sparsity):
    """sparsity=0 used to return the all-zero fit, and -3 died inside
    np.zeros."""
    matrix = DesignMatrix(values=np.eye(4))
    with pytest.raises(ValueError, match="sparsity"):
        omp_fit(matrix, np.ones(4), sparsity=sparsity)


def test_omp_orthogonal_target_stagnates():
    values = np.zeros((5, 2))
    values[0, 0] = 1.0
    values[1, 1] = 1.0
    m = DesignMatrix(values=values)
    target = np.zeros(5)
    target[4] = 1.0
    fit = omp_fit(m, target, sparsity=2)
    assert fit.stagnated
    assert len(fit.support) == 0


def test_omp_stops_at_a_column_in_the_span_of_the_active_set():
    """Of two columns 1e-11 apart the second is in the span of the first
    to LSTSQ_RCOND: the fit stagnates with one of them, where taking both
    gives coefficients of 3e10."""
    a, b, c = np.random.default_rng(0).standard_normal((3, 40))
    m = DesignMatrix(values=np.column_stack([a, a + 1e-11 * b, c]))
    fit = omp_fit(m, a + 0.3 * b, sparsity=3)
    assert fit.stagnated
    assert len(fit.support) == 2 and 2 in fit.support
    assert np.max(np.abs(fit.coefficients)) < 10


def test_omp_never_beats_dls(pipeline):
    _, matrix, grid = pipeline
    f = np.sin(3 * grid.points[:, 0]) + np.cos(2 * grid.points[:, 1])
    full = dls_fit(matrix, f).training_rmse
    for s in (1, 5, 20):
        assert omp_fit(matrix, f, sparsity=s).training_rmse >= full - 1e-12


def test_fit_result_json_roundtrip(pipeline):
    """to_dict is what `kstfit fit --out` writes: plain JSON values that
    read back to the fit's own numbers."""
    _, matrix, grid = pipeline
    f = grid.points[:, 0] * grid.points[:, 1]
    fit = omp_fit(matrix, f, sparsity=4)
    back = json.loads(json.dumps(fit.to_dict()))
    assert back["method"] == "omp"
    assert np.array_equal(back["coefficients"], fit.coefficients)
    assert back["support"] == list(fit.support)
    assert back["training_rmse"] == fit.training_rmse


def test_fit_result_pickles_without_its_tensor(pipeline):
    lkb, matrix, grid = pipeline

    def f(pts):
        return pts[:, 0] * pts[:, 1]

    fit = dls_fit(matrix, f(grid.points))
    back = pickle.loads(pickle.dumps(fit))
    assert back.tensor is None
    assert np.array_equal(back.coefficients, fit.coefficients)
    assert evaluate_fit(back, lkb, grid, f) == evaluate_fit(fit, lkb, grid, f)


def omp_lstsq_oracle(values, f, sparsity):
    """Reference OMP on the whole matrix: each step adds the column most
    correlated with the residual (after normalization, first index on
    exact ties) and re-solves least squares on the active set by lstsq.
    Returns the sorted support and the coefficients."""
    norms = np.linalg.norm(values, axis=0)
    normalized = values / np.where(norms > 0, norms, 1.0)
    active, coef_active, residual = [], np.zeros(0), f.copy()
    while len(active) < min(sparsity, *values.shape):
        corr = np.abs(normalized.T @ residual)
        corr[active] = 0.0
        best = int(np.argmax(corr))
        if corr[best] <= OMP_STAGNATION * np.linalg.norm(f):
            break
        active.append(best)
        coef_active = np.linalg.lstsq(values[:, active], f,
                                      rcond=LSTSQ_RCOND)[0]
        residual = f - values[:, active] @ coef_active
    coef = np.zeros(values.shape[1])
    coef[active] = coef_active
    return sorted(active), coef


def test_omp_matches_lstsq_oracle_on_separated_gaussian_matrices():
    rng = np.random.default_rng(12)
    for trial in range(20):
        n_rows = int(rng.integers(20, 60))
        n_cols = int(rng.integers(5, 30))
        values = rng.normal(size=(n_rows, n_cols)) \
            * rng.uniform(0.5, 2.0, size=n_cols)
        f = rng.normal(size=n_rows)
        sparsity = int(rng.integers(1, min(n_rows, n_cols) + 1))
        fit = omp_fit(DesignMatrix(values=values),
                      f, sparsity=sparsity)
        support, coef = omp_lstsq_oracle(values, f, sparsity)
        assert list(fit.support) == support, trial
        assert np.allclose(fit.coefficients, coef, rtol=0.0,
                           atol=1e-10 * np.abs(coef).max()), trial


def test_omp_breaks_rounding_ties_toward_the_lowest_index():
    """Column 4 is a multiple of column 1 moved by one ulp per entry, so
    their normalized correlations tie at rounding level, and a bare argmax
    picks column 4 whenever it rounds higher (3 of these 40 draws here).
    The support must stay on column 1."""
    rng = np.random.default_rng(5)
    base = rng.normal(size=(30, 6))
    f = base[:, 1] + 0.1 * base[:, 2]
    for trial in range(40):
        values = base.copy()
        values[:, 4] = np.nextafter((trial % 4 + 1) * base[:, 1],
                                    rng.choice([-np.inf, np.inf], size=30))
        fit = omp_fit(DesignMatrix(values=values), f,
                      sparsity=2)
        assert list(fit.support) == [1, 2], trial


@st.composite
def full_rank_lkb(draw):
    """A sampled LKB basis (d = 1, 2, 3) whose m columns have independent
    Gaussian coefficients, on a grid with at least as many points per
    axis as coefficients, a target on it and a sparsity up to m."""
    d = draw(st.integers(1, 3))
    cfg = SmoothingConfig(degree=draw(st.sampled_from([2, 3])),
                          segments=draw(st.integers(4, 7)))
    ncf = cfg.coeffs_per_axis
    grid = PointSet.grid(d, tuple(draw(st.lists(
        st.integers(ncf, ncf + {1: 20, 2: 6, 3: 2}[d]),
        min_size=d, max_size=d))))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lkb = LKBBasis(coeffs=rng.normal(size=(m,) + (ncf,) * d),
                   kept=np.arange(m), config=cfg)
    return lkb.sample(grid), rng.normal(size=len(grid)), \
        draw(st.integers(1, m))


@settings(max_examples=60, deadline=None)
@given(full_rank_lkb())
def test_omp_factored_and_plain_paths_agree(case):
    matrix, f, sparsity = case
    plain = DesignMatrix(values=matrix.values)
    a = omp_fit(matrix, f, sparsity=sparsity)
    b = omp_fit(plain, f, sparsity=sparsity)
    assert list(a.support) == list(b.support)
    assert np.allclose(a.coefficients, b.coefficients, rtol=0.0,
                       atol=1e-10 * np.abs(b.coefficients).max())
    # an exact fit leaves rounding noise, so the floor scales with f
    assert a.training_rmse == pytest.approx(b.training_rmse, rel=1e-8,
                                            abs=1e-10 * rms_seminorm(f))


def test_omp_solves_no_least_squares_problem(pipeline, monkeypatch):
    _, matrix, grid = pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("omp_fit called lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(sla, "lstsq", refuse)
    fit = omp_fit(matrix, np.sin(3 * grid.points[:, 0]), sparsity=10)
    assert len(fit.support) == 10


def test_omp_builds_the_rank_factor_once_per_matrix(pipeline, monkeypatch):
    """OMP reads the SVD that the matrix keeps, so W = (R_1 x ... x R_d) C
    is built once per matrix, for that SVD, not once per fit."""
    lkb, _, grid = pipeline
    calls = []

    def counted(self):
        calls.append(self.shape)
        return rank_factor(self)

    rank_factor = DesignMatrix.rank_factor
    monkeypatch.setattr(DesignMatrix, "rank_factor", counted)
    matrices = [lkb.sample(grid), lkb.sample(grid)]
    for matrix in matrices:
        for c in range(5):
            fit = omp_fit(matrix, np.cos(c * grid.points[:, 0]), sparsity=8)
            assert len(fit.support) == 8
    assert calls == [matrices[0].shape] * 2


def test_column_norms_are_kept_read_only(pipeline):
    _, matrix, _ = pipeline
    norms = matrix.column_norms
    assert matrix.column_norms is norms
    assert np.allclose(norms, np.linalg.norm(matrix.values, axis=0),
                       rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError, match="read-only"):
        norms[0] = 1.0


def test_omp_allocates_no_copy_of_the_sampled_matrix(pipeline):
    _, matrix, grid = pipeline
    f = np.cos(2 * grid.points[:, 0]) * grid.points[:, 1]
    tracemalloc.start()
    try:
        omp_fit(matrix, f, sparsity=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix.values.nbytes / 2


def omp_fresh_score_oracle(matrix, f, sparsity):
    """The OMP loop that scores every step afresh as z = V^T (S r), a
    p x m product, where omp_fit updates z from one kept row of the Gram
    matrix per step.  The rest of the loop is omp_fit's: the same tie rule,
    floor, Gram-Schmidt step and triangular solve.  Returns the sorted
    support, the coefficients, the stagnation flag and the fresh z of
    every step."""
    n_rows, n_cols = matrix.shape
    u_w, s, vt = matrix.svd
    h = u_w.T @ matrix.project(f)
    norms = matrix.column_norms
    usable = norms > 0
    phi = np.where(usable, norms, 1.0)
    floor = OMP_STAGNATION * np.linalg.norm(f)
    budget = min(sparsity, n_rows, n_cols)
    u = np.zeros((min(budget, len(s)), len(s)))
    r = np.zeros((len(u), len(u)))
    active, scores, residual = [], [], h.copy()
    stagnated = False
    while len(active) < budget:
        k = len(active)
        scores.append(vt.T @ (s * residual))
        corr = np.abs(scores[-1]) / phi
        corr[~usable] = 0.0
        corr[active] = 0.0
        top = corr.max()
        best = int(np.argmax(corr >= top * (1.0 - OMP_TIE)))
        if top <= floor or k == len(u):
            stagnated = True
            break
        col = s * vt[:, best]
        for _ in range(2):
            proj = u[:k] @ col
            col -= proj @ u[:k]
            r[:k, k] += proj
        r[k, k] = np.linalg.norm(col)
        if r[k, k] <= LSTSQ_RCOND * norms[best]:
            stagnated = True
            break
        u[k] = col / r[k, k]
        residual -= u[k] * (u[k] @ residual)
        active.append(best)
    k = len(active)
    coef = np.zeros(n_cols)
    coef[active] = sla.solve_triangular(r[:k, :k], u[:k] @ h)
    return sorted(active), coef, stagnated, scores


def assert_matches_fresh_scores(matrix, f, sparsity):
    """omp_fit picks the oracle's support with the oracle's coefficient
    bits and stagnation flag, and its updated z stays within
    1e-9 ||Z^T h|| of the fresh z at every step."""
    updated = []

    def spy(z, phi):
        updated.append(z.copy())
        return pick(z, phi)

    pick = fitting._best_column
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(fitting, "_best_column", spy)
        fit = omp_fit(matrix, f, sparsity=sparsity)
    support, coef, stagnated, fresh = omp_fresh_score_oracle(matrix, f,
                                                             sparsity)
    assert list(fit.support) == support
    assert np.array_equal(fit.coefficients, coef)
    assert fit.stagnated == stagnated
    assert len(updated) == len(fresh)
    scale = np.linalg.norm(fresh[0])
    for step, (a, b) in enumerate(zip(updated, fresh)):
        assert np.abs(a - b).max() <= 1e-9 * scale, step


def test_omp_matches_the_fresh_score_loop_on_the_pipeline(pipeline):
    _, matrix, grid = pipeline
    x, y = grid.points.T
    rank = matrix.rank(LSTSQ_RCOND)
    for f in (np.sin(3 * x) + np.cos(2 * y), np.exp(x * y),
              np.abs(x - 0.4) + y ** 3):
        for sparsity in (1, 5, 20, rank, matrix.shape[1]):
            assert_matches_fresh_scores(matrix, f, sparsity)


@settings(max_examples=60, deadline=None)
@given(full_rank_lkb())
def test_omp_matches_the_fresh_score_loop_on_lkb_bases(case):
    assert_matches_fresh_scores(*case)


def test_gram_is_kept_read_only_and_equals_the_column_products(pipeline):
    _, matrix, _ = pipeline
    gram = matrix.gram
    assert matrix.gram is gram
    want = matrix.values.T @ matrix.values
    assert np.abs(gram - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(ValueError, match="read-only"):
        gram[0, 0] = 1.0


def test_omp_builds_the_gram_once_per_matrix(pipeline, monkeypatch):
    lkb, _, grid = pipeline
    calls = []

    def counted(self):
        calls.append(self.shape)
        return build(self)

    build = DesignMatrix.gram.func
    kept = cached_property(counted)
    kept.__set_name__(DesignMatrix, "gram")
    monkeypatch.setattr(DesignMatrix, "gram", kept)
    matrices = [lkb.sample(grid), lkb.sample(grid)]
    for matrix in matrices:
        for c in range(5):
            fit = omp_fit(matrix, np.cos(c * grid.points[:, 0]), sparsity=8)
            assert len(fit.support) == 8
    assert calls == [matrices[0].shape] * 2


def test_dls_and_pivotal_fits_never_build_the_gram(pipeline):
    """Only OMP reads G, so a run without OMP never pays its m x m."""
    lkb, _, grid = pipeline
    matrix = lkb.sample(grid)
    f = np.sin(3 * grid.points[:, 0]) * grid.points[:, 1]
    dls_fit(matrix, f)
    rows, cols = maxvol_select(matrix, matrix.rank(1e-8))
    pivotal_fit(matrix, rows, cols, f[rows])
    assert "gram" not in matrix.__dict__


@pytest.fixture(scope="module")
def pipeline_2d():
    """The pipeline's 2-d LKB bases for n = 100 and 1000 on its fit grid
    (no pivot search), each with the sampled matrix and the samples of
    f1..f10."""
    spec = ExperimentSpec(d=2, n_list=(100, 1000))
    family = build_inner_family(2, spec.build_config(100)["inner_rank"])
    bases = {}
    for n in spec.n_list:
        cfg = spec.build_config(n)
        grid = PointSet.grid(2, cfg["fit_grid"])
        lkb = build_lkb_basis(
            KBBasis(family, n=n, degree=cfg["degree"]), grid,
            SmoothingConfig(penalty=cfg["penalty"], degree=cfg["degree"],
                            segments=cfg["segments"]))
        bases[n] = lkb, lkb.sample(grid), \
            [f(grid.points) for f in registry(2)]
    return bases


def test_no_fit_reads_the_sampled_matrix(pipeline_2d):
    """DLS, OMP, pivotal fits, their evaluation and the column norms run
    on the factors alone: with every entry of values NaN they give the
    bits of the intact matrix."""
    lkb, intact, targets = pipeline_2d[100]
    grid = PointSet.grid(2, 41)
    eval_pts = PointSet.grid(2, 21)
    blind = lkb.sample(grid)
    object.__setattr__(blind, "values",
                       np.broadcast_to(np.nan, intact.shape))
    sparsity = intact.rank(PIPELINE_RANK_TOL)
    rows, cols = maxvol_select(intact, sparsity)
    for func, f in zip(registry(2)[:3], targets):
        for fit in (lambda m: dls_fit(m, f),
                    lambda m: omp_fit(m, f, sparsity=sparsity),
                    lambda m: pivotal_fit(m, rows, cols, f[rows])):
            a, b = fit(blind), fit(intact)
            assert np.array_equal(a.coefficients, b.coefficients)
            assert a.training_rmse == b.training_rmse
            assert evaluate_fit(a, lkb, eval_pts, func) \
                == evaluate_fit(b, lkb, eval_pts, func)
    assert np.array_equal(blind.column_norms, intact.column_norms)


def test_factored_column_norms_match_the_sampled_matrix(pipeline_2d):
    """The norms of a factored matrix come from its rank factor W, which
    is as accurate as the values: those of Z = S V^T were off by up to
    6e-13 relative at n = 1000, half of OMP_TIE."""
    _, matrix, _ = pipeline_2d[1000]
    assert matrix.qs
    want = np.linalg.norm(matrix.values, axis=0)
    assert np.all(np.abs(matrix.column_norms - want) <= 1e-15 * want)


@pytest.mark.parametrize("n", [100, 1000])
def test_factored_training_rmse_matches_the_sampled_matrix(pipeline_2d, n):
    """The training RMSE from the factors is rms(M x - f) of the returned
    x; combine over a fit's support is the dense contraction, and an
    evaluation from the T a fit kept gives the bits of a fresh combine."""
    lkb, matrix, targets = pipeline_2d[n]
    eval_pts = PointSet.grid(2, 21)
    sparsity = matrix.rank(PIPELINE_RANK_TOL)
    for func, f in zip(registry(2), targets):
        for fit in (dls_fit(matrix, f), omp_fit(matrix, f, sparsity)):
            want = rms_seminorm(matrix.values @ fit.coefficients - f)
            assert fit.training_rmse == pytest.approx(
                want, rel=1e-8, abs=1e-12 * rms_seminorm(f)), func.fid
            dense = np.tensordot(fit.coefficients, lkb.coeffs, 1)
            sparse = lkb.combine(fit.coefficients, fit.support).coeffs
            # only the summation order differs: relative to the summands
            scale = np.tensordot(np.abs(fit.coefficients),
                                 np.abs(lkb.coeffs), 1).max()
            assert np.abs(sparse - dense).max() <= 1e-13 * scale, func.fid
            assert fit.tensor[0]() is lkb.coeffs
            assert "tensor" not in fit.to_dict()
            kept = evaluate_fit(fit, lkb, eval_pts, func)
            fresh = evaluate_fit(dataclasses.replace(fit, tensor=None), lkb,
                                 eval_pts, func)
            assert kept == fresh, func.fid


def test_combine_of_zero_coefficients_is_the_zero_surface(pipeline):
    lkb, _, _ = pipeline
    zero = np.zeros(lkb.n_columns)
    for support in (None, [], [0, 3, 7]):
        surface = lkb.combine(zero, support)
        assert surface.coeffs.shape == lkb.coeffs.shape[1:]
        assert not np.any(surface.coeffs)


def test_evaluate_fit_reuses_the_kept_tensor(pipeline, monkeypatch):
    """A DLS or OMP fit on the basis's own matrix is evaluated from the T
    it formed, without reading C again; a basis with a copy of C, or a
    fit without T, contracts C afresh."""
    lkb, matrix, grid = pipeline

    def f(pts):
        return np.sin(2 * pts[:, 0]) * pts[:, 1]

    fits = [dls_fit(matrix, f(grid.points)),
            omp_fit(matrix, f(grid.points), sparsity=10)]
    calls = []
    combine = LKBBasis.combine

    def counted(self, *args):
        calls.append(args)
        return combine(self, *args)

    monkeypatch.setattr(LKBBasis, "combine", counted)
    for fit in fits:
        evaluate_fit(fit, lkb, grid, f)
    assert calls == []
    copy = LKBBasis(coeffs=lkb.coeffs.copy(), kept=lkb.kept,
                    config=lkb.config)
    for fit in fits:
        assert evaluate_fit(fit, copy, grid, f) \
            == evaluate_fit(fit, lkb, grid, f)
    assert len(calls) == 2
    assert calls[1][1] is fits[1].support
