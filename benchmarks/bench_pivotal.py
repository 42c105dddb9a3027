"""Micro-benchmarks of the two maxvol kernels on a pipeline-sized matrix.

The matrix is seeded and synthetic: 1681 x 1458 (the 41^2 fit grid by the
LKB columns of 2-d n=1000) with 71 singular values spread over five
decades, the rank the pipeline picks there.  A complete-pivot start
overwrites the array it is given with its residual, so each round starts
on a fresh copy of the matrix, made outside the timing: the start's time
no longer includes that copy.  The file name keeps it out of the default
test collection; run it on its own:

    PYTHONPATH=src python -m pytest benchmarks/bench_pivotal.py
"""

import numpy as np
import pytest

from kstfit.pivotal import _full_pivot_init, _sweep_rows

SHAPE = (1681, 1458)
RANK = 71


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(1000)
    u, _ = np.linalg.qr(rng.normal(size=(SHAPE[0], RANK)))
    v, _ = np.linalg.qr(rng.normal(size=(SHAPE[1], RANK)))
    return (u * np.logspace(0, -5, RANK)) @ v.T


@pytest.mark.parametrize("skip", [0, 5])
def test_complete_pivot_start(benchmark, matrix, skip):
    def fresh_copy():
        return (matrix.copy(), RANK, skip), {}

    rows, cols = benchmark.pedantic(_full_pivot_init, setup=fresh_copy,
                                    rounds=3)
    assert len(set(rows)) == len(set(cols)) == RANK


def test_row_sweep(benchmark, matrix):
    """One row sweep from rows 0, 2, 4, ... against the complete-pivot
    start's columns: a poor row set, so the sweep has swaps to make (42
    on this matrix)."""
    _, cols = _full_pivot_init(matrix.copy(), RANK)

    def fresh_selection():
        rows = list(range(0, 2 * RANK, 2))
        return (matrix, rows, list(cols), [1.0]), {}

    grew = benchmark.pedantic(_sweep_rows, setup=fresh_selection, rounds=5)
    assert grew
