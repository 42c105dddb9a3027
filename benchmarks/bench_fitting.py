"""Micro-benchmarks of the fits on the pipeline's 2-d n=1000 basis.

The basis is the LKB basis the pipeline builds for 2-d n=1000 on the 41^2
fit grid (a 1681 x 1458 matrix with a 729 x 1458 rank factor W).  The
first DLS fit on a freshly sampled matrix pays the SVD of W; every later
fit, DLS or OMP, reuses it.  OMP runs at sparsity 71, the pipeline's
pivotal rank for this basis, once on the factored matrix and once on the
same values as a plain matrix (W = M); its first fit also forms the
Gram matrix G = M^T M that OMP's score updates read.  On a 2-core Intel
Xeon x86-64 VM one factored fit takes 12-15 ms (median), where scoring
every column afresh at every step took 33-36 ms and rebuilding W for
every fit 46-57 ms.  The pivotal fit solves on the 71 x 71 block at the
pivots that maxvol_select picks (a one-off ~4 s search); the warm fit
reuses the SVD of that block.  The warm evaluation evaluates a DLS fit
on the 101^2 evaluation grid as one surface, from the coefficient
tensor T = C^T x that the fit formed for its training RMSE; the "DLS +
evaluate" round times the two together, as one table cell runs them.
The file name keeps it out of the default test collection; run it on
its own:

    PYTHONPATH=src python -m pytest benchmarks/bench_fitting.py
"""

import numpy as np
import pytest

from kstfit.bench import ExperimentSpec
from kstfit.fitting import dls_fit, evaluate_fit, omp_fit
from kstfit.inner import build_inner_family
from kstfit.kb import DesignMatrix, KBBasis, PointSet
from kstfit.pivotal import maxvol_select, pivotal_fit
from kstfit.smoothing import SmoothingConfig, build_lkb_basis
from kstfit.testfuncs import get as get_function

D, N = 2, 1000
OMP_SPARSITY = 71  # the pivotal rank of this basis


@pytest.fixture(scope="module")
def basis():
    cfg = ExperimentSpec(d=D, n_list=(N,)).build_config(N)
    kb = KBBasis(build_inner_family(D, cfg["inner_rank"]), n=N,
                 degree=cfg["degree"])
    grid = PointSet.grid(D, cfg["fit_grid"])
    smoothing = SmoothingConfig(penalty=cfg["penalty"], degree=cfg["degree"],
                                segments=cfg["segments"])
    lkb = build_lkb_basis(kb, grid, smoothing)
    target = np.sin(2 * np.pi * grid.points.sum(axis=1))
    return lkb, grid, target


def test_first_dls_fit(benchmark, basis):
    """A fresh matrix each round, so every timed fit factors W."""
    lkb, grid, target = basis

    def fresh_matrix():
        return (lkb.sample(grid), target), {}

    fit = benchmark.pedantic(dls_fit, setup=fresh_matrix, rounds=3)
    assert fit.training_rmse < 1e-3


def test_warm_dls_fit(benchmark, basis):
    lkb, grid, target = basis
    matrix = lkb.sample(grid)
    dls_fit(matrix, target)  # factors W
    fit = benchmark.pedantic(dls_fit, args=(matrix, target), rounds=20)
    assert fit.training_rmse < 1e-3


@pytest.mark.parametrize("kind", ["factored", "plain"])
def test_omp_fit(benchmark, basis, kind):
    lkb, grid, target = basis
    matrix = lkb.sample(grid)
    if kind == "plain":
        matrix = DesignMatrix(values=matrix.values)
    omp_fit(matrix, target, sparsity=OMP_SPARSITY)  # factors W, forms G
    fit = benchmark.pedantic(omp_fit, args=(matrix, target),
                             kwargs={"sparsity": OMP_SPARSITY}, rounds=5)
    assert len(fit.support) == OMP_SPARSITY


def test_warm_pivotal_fit(benchmark, basis):
    lkb, grid, target = basis
    matrix = lkb.sample(grid)
    rows, cols = maxvol_select(matrix, OMP_SPARSITY)
    pivotal_fit(matrix, rows, cols, target[rows])  # factors the block
    fit = benchmark.pedantic(pivotal_fit,
                             args=(matrix, rows, cols, target[rows]),
                             rounds=20)
    assert fit.training_rmse < 1e-8


def test_warm_evaluate_fit(benchmark, basis):
    lkb, grid, _ = basis
    func = get_function(D, "f7")
    fit = dls_fit(lkb.sample(grid), func(grid.points))
    eval_pts = ExperimentSpec(d=D, n_list=(N,)).eval_points()
    evaluate_fit(fit, lkb, eval_pts, func)  # fills the axis-design cache
    err = benchmark.pedantic(evaluate_fit, args=(fit, lkb, eval_pts, func),
                             rounds=20)
    assert err < 1e-3


def test_warm_dls_fit_and_evaluate(benchmark, basis):
    lkb, grid, _ = basis
    func = get_function(D, "f7")
    matrix, target = lkb.sample(grid), func(grid.points)
    eval_pts = ExperimentSpec(d=D, n_list=(N,)).eval_points()

    def fit_and_evaluate():
        return evaluate_fit(dls_fit(matrix, target), lkb, eval_pts, func)

    fit_and_evaluate()  # factors W, fills the axis-design cache
    err = benchmark.pedantic(fit_and_evaluate, rounds=20)
    assert err < 1e-3
