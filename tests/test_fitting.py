import math

import numpy as np
import pytest

from kstfit.fitting import FitResult, dls_fit, evaluate_fit, omp_fit, \
    rms_seminorm
from kstfit.inner import build_inner_family
from kstfit.kb import DesignMatrix, KBBasis, PointSet, \
    assemble_design_matrix, prune_near_zero_columns
from kstfit.pivotal import pivotal_fit
from kstfit.smoothing import SmoothingConfig, build_lkb_basis


@pytest.fixture(scope="module")
def pipeline():
    fam = build_inner_family(2, 3)
    kb = KBBasis(fam, n=25)
    grid = PointSet.grid(2, 41)
    raw = prune_near_zero_columns(assemble_design_matrix(kb, grid))
    lkb = build_lkb_basis(raw, grid, SmoothingConfig(penalty=1.0, segments=8))
    matrix = DesignMatrix(values=lkb.design_matrix(grid), kept=lkb.kept,
                          basis_id=lkb.kb_id, points_id=lkb.grid_id)
    return lkb, matrix, grid


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
    m = DesignMatrix(values=values, kept=np.arange(8))
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


def test_dls_dimension_mismatch(pipeline):
    _, matrix, _ = pipeline
    with pytest.raises(ValueError):
        dls_fit(matrix, np.ones(3))


def _nan_at(values, i=1):
    values = np.array(values, dtype=float)
    values.flat[i] = np.nan
    return values


@pytest.mark.parametrize("call", [
    lambda: PointSet.from_points(_nan_at(np.full((3, 2), 0.5))),
    lambda: dls_fit(DesignMatrix(values=np.eye(4), kept=np.arange(4)),
                    _nan_at(np.ones(4))),
    lambda: omp_fit(DesignMatrix(values=np.eye(4), kept=np.arange(4)),
                    _nan_at(np.ones(4)), sparsity=2),
    lambda: pivotal_fit(np.eye(4), [0, 1], [0, 1], _nan_at(np.ones(2))),
], ids=["PointSet", "dls_fit", "omp_fit", "pivotal_fit"])
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
    sub = DesignMatrix(values=matrix.values[:, :30], kept=matrix.kept[:30])
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


def test_omp_single_atom_unnormalized_scale():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(40, 6))
    m = DesignMatrix(values=values, kept=np.arange(6))
    fit = omp_fit(m, 3.0 * values[:, 5], sparsity=3)
    assert list(fit.support) == [5]
    assert fit.coefficients[5] == pytest.approx(3.0, abs=1e-12)
    assert fit.training_rmse <= 1e-12


def test_omp_planted_support_recovery():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(60, 12)))
    m = DesignMatrix(values=q, kept=np.arange(12))
    planted = [1, 4, 6, 9, 11]
    target = q[:, planted] @ np.array([2.0, -1.5, 1.0, 0.5, -3.0])
    fit = omp_fit(m, target, sparsity=5)
    assert sorted(fit.support) == planted
    assert fit.training_rmse <= 1e-8


def test_omp_orthogonal_target_stagnates():
    values = np.zeros((5, 2))
    values[0, 0] = 1.0
    values[1, 1] = 1.0
    m = DesignMatrix(values=values, kept=np.arange(2))
    target = np.zeros(5)
    target[4] = 1.0
    fit = omp_fit(m, target, sparsity=2)
    assert fit.stagnated
    assert len(fit.support) == 0


def test_omp_residual_tolerance_stop():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(30, 10))
    m = DesignMatrix(values=values, kept=np.arange(10))
    target = values @ rng.normal(size=10)
    fit = omp_fit(m, target, residual_tol=1e-9)
    assert fit.training_rmse <= 1e-9


def test_omp_never_beats_dls(pipeline):
    _, matrix, grid = pipeline
    f = np.sin(3 * grid.points[:, 0]) + np.cos(2 * grid.points[:, 1])
    full = dls_fit(matrix, f).training_rmse
    for s in (1, 5, 20):
        assert omp_fit(matrix, f, sparsity=s).training_rmse >= full - 1e-12


def test_omp_requires_stop_criterion(pipeline):
    _, matrix, _ = pipeline
    with pytest.raises(ValueError):
        omp_fit(matrix, np.ones(matrix.shape[0]))


def test_fit_result_json_roundtrip(tmp_path, pipeline):
    _, matrix, grid = pipeline
    f = grid.points[:, 0] * grid.points[:, 1]
    fit = omp_fit(matrix, f, sparsity=4)
    path = tmp_path / "fit.json"
    fit.save_json(path)
    back = FitResult.load_json(path)
    assert back.method == "omp"
    assert np.allclose(back.coefficients, fit.coefficients)
    assert list(back.support) == list(fit.support)
    assert back.training_rmse == pytest.approx(fit.training_rmse)
