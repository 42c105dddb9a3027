"""Micro-benchmarks of dls_fit and omp_fit on the pipeline's 2-d n=1000
basis.

The basis is the LKB basis the pipeline builds for 2-d n=1000 on the 41^2
fit grid (a 1681 x 1458 matrix with a 729 x 1458 rank factor W), without
its pivot search.  The first DLS fit on a freshly sampled matrix pays the
SVD of W; every later fit reuses it.  OMP runs at sparsity 71, the
pipeline's pivotal rank for this basis, once on the factored matrix and
once on the same values as a plain matrix (W = M).  The file name keeps
it out of the default test collection; run it on its own:

    PYTHONPATH=src python -m pytest benchmarks/bench_fitting.py
"""

import numpy as np
import pytest

from kstfit.bench import ExperimentSpec
from kstfit.fitting import dls_fit, omp_fit
from kstfit.inner import build_inner_family
from kstfit.kb import DesignMatrix, KBBasis, PointSet
from kstfit.smoothing import SmoothingConfig, build_lkb_basis

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
    fit = benchmark.pedantic(omp_fit, args=(matrix, target),
                             kwargs={"sparsity": OMP_SPARSITY}, rounds=5)
    assert len(fit.support) == OMP_SPARSITY
