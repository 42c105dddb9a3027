"""What the benchmark in perfbench/ reads of kstfit.

The tracer wraps its targets by module and qualified name; one that
stops resolving would read as a layer with zero calls, not as an error.
The targets are only resolved here, never wrapped: Tracer.install()
would patch kstfit for the rest of the session.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from kstfit.bench import get_basis_set

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = _spans()


@pytest.mark.parametrize("name", sorted(SPANS))
def test_traced_target_resolves(name):
    modname, qualname, _ = SPANS[name]
    owner = importlib.import_module(modname)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_built_basis_exposes_its_sampled_values():
    """The benchmark's DLS-linearity check reads the sampled matrix and
    its pivot block from matrix.values."""
    basis = get_basis_set(2, 20)
    values = basis.matrix.values
    assert isinstance(values, np.ndarray)
    assert values.shape == (len(basis.grid), basis.matrix.shape[1])
    assert values[np.ix_(basis.rows, basis.cols)].shape == \
        (basis.rank, basis.rank)
