"""Micro-benchmarks of the fixed start-up of every kstfit process.

build_family times a fresh 2-d depth-4 inner family, the one every 2-d
basis and ReLU network starts from, bypassing the in-process cache.
design_matrix times the sparse cubic B-spline design of a 2-d n=1000 KB
basis (2000 functions on [0, 2]) at 10^5 random points, the block that
kb.assemble_design_matrix sums once per phi.  The file name
keeps it out of the default test collection; run it on its own:

    PYTHONPATH=src python -m pytest benchmarks/bench_inner.py
"""

import hashlib

import numpy as np

from kstfit.bsplines import UniformBSplineBasis, design_csr
from kstfit.inner import _build_cached

# sha256 of the concatenated phi tables of the 2-d depth-4 family
PHI_2D_SHA256 = \
    "ad6f65fbaf0d43be67ee23c8238734a0e71f89c67f83d8fb9aaf0434874570a9"
POINTS = 10 ** 5


def test_build_family(benchmark):
    family = benchmark.pedantic(_build_cached.__wrapped__, args=(2, 4),
                                rounds=3)
    tables = b"".join(table.tobytes() for table in family.phis)
    assert hashlib.sha256(tables).hexdigest() == PHI_2D_SHA256


def test_design_matrix(benchmark):
    basis = UniformBSplineBasis(count=2000, degree=3, upper=2.0)
    t = 2.0 * np.random.default_rng(0).random(POINTS)
    dm = benchmark.pedantic(design_csr, args=(t, basis.knots, 3), rounds=5)
    assert dm.shape == (POINTS, 2000) and dm.nnz == 4 * POINTS
    assert np.allclose(dm.sum(axis=1), 1.0, rtol=0, atol=1e-13)
