"""Micro-benchmarks of the ReLU networks of criteria 4 and 5.

The network and the reference superposition are timed on the 201^2 grid
that rate_experiment checks in 2-d (40401 points), passed as its
PointSet, so the inner functions run once per axis coordinate and only
the outer layer and the profile run once per point.  eval_knetwork
times one n = m = 512 network for the sin profile (512 inner hinges and
1023 outer ones), forward_superpose the family's own superposition of
sin that the networks are checked against, and rate_experiment the
whole criterion-4 run: seven networks, n = 8 to 512, against that
superposition.  The inner family is built once, untimed.  The file name
keeps it out of the default test collection; run it on its own:

    PYTHONPATH=src python -m pytest benchmarks/bench_knet.py
"""

import numpy as np
import pytest

from kstfit.inner import build_inner_family, forward_superpose
from kstfit.kb import PointSet
from kstfit.knet import build_knetwork, eval_knetwork, rate_experiment

D, N, GRID = 2, 512, 201
CRITERION_4_SIZES = [8, 16, 32, 64, 128, 256, 512]


@pytest.fixture(scope="module")
def family():
    return build_inner_family(D)


def test_eval_knetwork(benchmark, family):
    net = build_knetwork(family, np.sin, m=N, n=N)
    grid = PointSet.grid(D, GRID)
    out = benchmark.pedantic(eval_knetwork, args=(net, grid), rounds=10)
    reference = forward_superpose(family, np.sin, grid)
    assert np.max(np.abs(out - reference)) <= 25.0 / N


def test_forward_superpose(benchmark, family):
    grid = PointSet.grid(D, GRID)
    out = benchmark.pedantic(forward_superpose,
                             args=(family, np.sin, grid), rounds=10)
    assert out.shape == (len(grid),)
    assert np.array_equal(out, forward_superpose(family, np.sin,
                                                 grid.points))


def test_rate_experiment(benchmark, family):
    res = benchmark.pedantic(rate_experiment,
                             args=(family, np.sin, CRITERION_4_SIZES),
                             rounds=3)
    assert res["slope"] <= -0.9
