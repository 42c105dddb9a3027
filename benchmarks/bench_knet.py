"""Micro-benchmarks of the ReLU networks of criteria 4 and 5.

eval_knetwork times one n = m = 512 network for the sin profile on the
201^2 grid that rate_experiment checks in 2-d (40401 points; 512 inner
hinges and 1023 outer ones).  rate_experiment times the whole criterion-4
run: seven networks, n = 8 to 512, against the family's own
superposition of sin.  The inner family is built once, untimed.  The
file name keeps it out of the default test collection; run it on its
own:

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
    pts = PointSet.grid(D, GRID).points
    out = benchmark.pedantic(eval_knetwork, args=(net, pts), rounds=10)
    reference = forward_superpose(family, np.sin, pts)
    assert np.max(np.abs(out - reference)) <= 25.0 / N


def test_rate_experiment(benchmark, family):
    res = benchmark.pedantic(rate_experiment,
                             args=(family, np.sin, CRITERION_4_SIZES),
                             rounds=3)
    assert res["slope"] <= -0.9
