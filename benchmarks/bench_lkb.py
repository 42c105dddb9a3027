"""Micro-benchmark of build_lkb_basis, the raw KB columns -> C stage, at
2-d n=1000 on the 41^2 fit grid: sample the 2000 raw columns as a sparse
matrix, prune them to 1458 and denoise those into the coefficient matrix
C.  The inner family is built once, outside the timing.  The file name
keeps it out of the default test collection; run it on its own:

    PYTHONPATH=src python -m pytest benchmarks/bench_lkb.py
"""

import pytest

from kstfit.bench import ExperimentSpec
from kstfit.inner import build_inner_family
from kstfit.kb import KBBasis, PointSet
from kstfit.smoothing import SmoothingConfig, build_lkb_basis

D, N = 2, 1000


@pytest.fixture(scope="module")
def inputs():
    cfg = ExperimentSpec(d=D, n_list=(N,)).build_config(N)
    kb = KBBasis(build_inner_family(D, cfg["inner_rank"]), n=N,
                 degree=cfg["degree"])
    smoothing = SmoothingConfig(penalty=cfg["penalty"], degree=cfg["degree"],
                                segments=cfg["segments"])
    return kb, PointSet.grid(D, cfg["fit_grid"]), smoothing


def test_build_lkb_basis(benchmark, inputs):
    lkb = benchmark.pedantic(build_lkb_basis, args=inputs, rounds=5)
    assert lkb.n_columns == 1458
