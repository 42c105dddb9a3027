import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import linalg as sla

from kstfit import pivotal
from kstfit.pivotal import (
    SWAP_MARGIN,
    build_cross_approximation,
    cross_certificate,
    estimate_rank,
    maxvol_select,
    pivotal_fit,
    pivotal_locations,
)
from kstfit.kb import DesignMatrix, PointSet
from kstfit.smoothing import LKBBasis, SmoothingConfig


def exhaustive_max_volume(m, r):
    """Brute force over every r x r submatrix; the oracle the greedy
    search is measured against."""
    best = 0.0
    for rows in combinations(range(m.shape[0]), r):
        for cols in combinations(range(m.shape[1]), r):
            best = max(best, abs(np.linalg.det(m[np.ix_(rows, cols)])))
    return best


def reference_full_pivot_init(m, r, skip=0, magnitudes=None):
    """The complete-pivot start as first written: |resid|, the outer
    product, its quotient and the new residual are fresh arrays at every
    step.  The reference the in-place kernel must agree with; magnitudes,
    when given, collects |pivot| of every step."""
    resid = np.array(m, dtype=float)
    rows, cols = [], []
    banned = []
    for step in range(r + skip):
        a = np.abs(resid)
        for bi, bj in banned:
            a[bi, bj] = -1.0
        i, j = divmod(int(np.argmax(a)), m.shape[1])
        piv = resid[i, j]
        if piv == 0.0:
            break
        if step < skip:
            banned.append((i, j))
            continue
        rows.append(i)
        cols.append(j)
        if magnitudes is not None:
            magnitudes.append(abs(piv))
        resid = resid - np.outer(resid[:, j], resid[i, :]) / piv
    return rows, cols


def reference_sweep_rows(m, rows, cols, log):
    """The row sweep as first written, with an |B| array and an outer
    product allocated per swap."""
    changed = False
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            b = sla.solve(m[np.ix_(rows, cols)].T, m[:, cols].T,
                          check_finite=False).T
    except sla.LinAlgError:
        return False
    for _ in range(4 * len(rows)):
        flat = int(np.argmax(np.abs(b)))
        i, j = divmod(flat, len(rows))
        gain = abs(b[i, j])
        if gain <= 1.0 + SWAP_MARGIN or i in rows:
            break
        update = b[i, :].copy()
        update[j] -= 1.0
        b -= np.outer(b[:, j] / b[i, j], update)
        rows[j] = i
        log.append(log[-1] * gain)
        changed = True
    return changed


def search_outcome(m, r, start, sweep):
    """Starts, final (I, J) and history of the search with the kernels
    start and sweep, or the ValueError text for a rejected matrix.  Every
    start and every sweep must read the one buffer of the search."""
    starts, read = [], []

    def started(resid, r, skip=0):
        read.append(resid)
        rows, cols = start(resid, r, skip)
        starts.append((list(rows), list(cols)))  # the sweeps swap in place
        return rows, cols

    def swept(m, rows, cols, log):
        read.append(m)
        return sweep(m, rows, cols, log)

    with mock.patch.multiple(pivotal, _full_pivot_init=started,
                             _sweep_rows=swept):
        try:
            rows, cols, history = maxvol_select(m, r, with_history=True)
        except ValueError as exc:
            return str(exc)
    assert all(np.shares_memory(a, read[0]) for a in read)
    return starts, rows, cols, history


def reference_runs_out(m, r):
    """Whether a reference start pivots on a rounding-level residual.

    A start with skipped entries can run out of residual before step r.
    Its last pivots are then rounding noise, which the two kernels round
    differently (the BLAS update fuses its multiply-add).
    """
    magnitudes = []
    for skip in range(6):
        reference_full_pivot_init(m, r, skip, magnitudes)
    return min(magnitudes) < 1e-12 * np.abs(m).max()


@st.composite
def small_search_problems(draw):
    """(matrix, r, kind): Gaussian matrices; small-integer matrices with
    exact ties at r = 1, where every comparison is between raw entries or
    multiples of one column; integer low-rank matrices asked for more than
    their rank."""
    shape = (draw(st.integers(2, 9)), draw(st.integers(2, 9)))
    kind = draw(st.sampled_from(["gaussian", "integer", "low rank"]))
    small_ints = st.integers(-4, 4).map(float)
    if kind == "gaussian":
        seed = draw(st.integers(0, 2 ** 32 - 1))
        m = np.random.default_rng(seed).normal(size=shape)
        return m, draw(st.integers(1, min(shape))), kind
    if kind == "integer":
        return draw(hnp.arrays(np.float64, shape, elements=small_ints)), 1, \
            kind
    k = draw(st.integers(1, min(shape) - 1))
    u = draw(hnp.arrays(np.float64, (shape[0], k), elements=small_ints))
    v = draw(hnp.arrays(np.float64, (k, shape[1]), elements=small_ints))
    return u @ v, draw(st.integers(k + 1, min(shape))), kind


# History entries are products of at most a few dozen gains, each read
# after a handful of rank-one updates in float64 whose rounding differs
# between the kernels.
HISTORY_RTOL = 1e-10


@settings(max_examples=300, deadline=None)
@given(small_search_problems())
# every entry banned by the fifth start: the reference pivots on (0, 0)
@example((np.array([[1.0, 2.0], [3.0, 4.0]]), 1, "integer"))
def test_in_place_kernels_match_allocating_reference(case):
    m, r, kind = case
    got = search_outcome(m, r, pivotal._full_pivot_init, pivotal._sweep_rows)
    want = search_outcome(m, r, reference_full_pivot_init,
                          reference_sweep_rows)
    if kind == "low rank":
        assert isinstance(want, str) and "numerical rank" in want
    if isinstance(want, str):
        assert got == want
        return
    assume(kind == "integer" or not reference_runs_out(m, r))
    starts, rows, cols, history = got
    assert starts == want[0]
    assert np.array_equal(rows, want[1]) and np.array_equal(cols, want[2])
    assert len(history) == len(want[3])
    assert np.allclose(history, want[3], rtol=HISTORY_RTOL, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               max_side=7),
                  elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0,
                                            -2.0, 0.5])))
def test_abs_argmax_matches_argmax_of_abs(a):
    assert pivotal._abs_argmax(a) == divmod(int(np.argmax(np.abs(a))),
                                            a.shape[1])


def test_rank_one_downdate_in_place_and_refuses_other_layouts():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(7, 5))
    x, y = rng.normal(size=7), rng.normal(size=5)
    want = a - np.outer(x, y) * 0.25
    buf = a.copy()
    pivotal._rank_one_downdate(buf, x, y, 0.25)
    assert np.allclose(buf, want, rtol=1e-14, atol=1e-15)
    # dger would update a copy of these and leave them unchanged
    for other in (np.asfortranarray(a), a[:, ::2].copy().T, a.astype(int)):
        with pytest.raises(ValueError, match="C-contiguous"):
            pivotal._rank_one_downdate(other, x, y, 0.25)


def test_maxvol_leaves_its_input_unchanged_in_every_layout():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(30, 12))
    want = maxvol_select(m, 5)
    inputs = {
        "C": np.ascontiguousarray(m),
        "F": np.asfortranarray(m),
        "transposed view": np.ascontiguousarray(m.T).T,
        "strided view": np.repeat(m, 2, axis=1)[:, ::2],
        "DesignMatrix": DesignMatrix(values=m.copy()),
    }
    for name, matrix in inputs.items():
        values = getattr(matrix, "values", matrix)
        before = values.copy()
        rows, cols = maxvol_select(matrix, 5)
        assert np.array_equal(rows, want[0]), name
        assert np.array_equal(cols, want[1]), name
        assert np.array_equal(values, before), name
        assert np.array_equal(values, m), name


def test_estimate_rank_identity_and_outer_product():
    assert estimate_rank(np.eye(5), tol=1e-8) == 5
    u = np.arange(1.0, 7.0)[:, None]
    v = np.array([[1.0, -2.0, 0.5]])
    m = u @ v + 2 * (u ** 2) @ (v ** 2)
    assert estimate_rank(m, tol=1e-10) == 2
    assert estimate_rank(np.zeros((4, 3))) == 0
    with pytest.raises(ValueError):
        estimate_rank(np.eye(3), tol=2.0)


def test_maxvol_picks_largest_entry_rank1():
    rows, cols = maxvol_select(np.diag([3.0, 2.0, 1.0]), 1)
    assert list(rows) == [0] and list(cols) == [0]
    rows, cols = maxvol_select(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)
    assert list(rows) == [1] and list(cols) == [1]


def test_maxvol_matches_exhaustive_oracle_within_margin():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        m = rng.normal(size=(8, 6))
        rows, cols, history = maxvol_select(m, 2, with_history=True)
        got = abs(np.linalg.det(m[np.ix_(rows, cols)]))
        best = exhaustive_max_volume(m, 2)
        assert got >= best / (1 + SWAP_MARGIN) ** 2
        assert np.all(np.diff(history) > 0)  # accepted swaps only grow it


def test_maxvol_result_is_dominant():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(30, 12))
    rows, cols = maxvol_select(m, 5)
    core = m[np.ix_(rows, cols)]
    b = m[:, cols] @ np.linalg.inv(core)
    c = np.linalg.inv(core) @ m[rows, :]
    assert np.max(np.abs(b)) <= 1 + SWAP_MARGIN + 1e-9
    assert np.max(np.abs(c)) <= 1 + SWAP_MARGIN + 1e-9


def test_maxvol_rejects_rank_deficiency():
    u = np.arange(1.0, 9.0)[:, None]
    m = u @ np.array([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="rank"):
        maxvol_select(m, 2)


def test_certificate_exact_low_rank():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(20, 3)) @ rng.normal(size=(3, 15))
    rows, cols = maxvol_select(m, 3)
    residual, bound = cross_certificate(m, rows, cols)
    assert residual <= 1e-10
    assert bound <= 1e-10 * (1 + 3) * np.linalg.norm(m)


def test_cross_approximation_takes_one_svd_of_the_matrix():
    rng = np.random.default_rng(10)
    m = (rng.normal(size=(40, 5)) @ rng.normal(size=(5, 25))
         + 1e-6 * rng.normal(size=(40, 25)))
    with mock.patch.object(sla, "svd", wraps=sla.svd) as svd:
        approx = build_cross_approximation(m, 5)
    shapes = [call.args[0].shape for call in svd.call_args_list]
    assert shapes.count(m.shape) == 1
    rows, cols = maxvol_select(m, 5)
    assert np.array_equal(approx.rows, rows)
    assert np.array_equal(approx.cols, cols)
    assert (approx.residual_chebyshev, approx.certificate_bound) == \
        cross_certificate(m, rows, cols)


def test_rank_guard_of_a_factored_matrix_takes_no_svd_of_m():
    """sigma(M) = sigma(W): the guard reads the singular values of the
    small rank factor, padded with zeros where W has fewer rows than
    min(M.shape), and picks and refuses exactly as on the plain M."""
    cfg = SmoothingConfig(segments=4)  # 7 coefficients per axis: W is 49 x m
    grid = PointSet.grid(2, 15)
    rng = np.random.default_rng(4)
    for m, r in ((20, 5), (60, 49), (60, 50)):
        lkb = LKBBasis(coeffs=rng.normal(size=(m, 7, 7)),
                       kept=np.arange(m), config=cfg)
        matrix = lkb.sample(grid)
        plain = DesignMatrix(values=matrix.values)
        with mock.patch.object(sla, "svd", wraps=sla.svd) as svd:
            try:
                got = maxvol_select(matrix, r)
            except ValueError as exc:
                got = str(exc)
        assert [c.args[0].shape for c in svd.call_args_list] == [(49, m)]
        try:
            want = maxvol_select(plain, r)
        except ValueError as exc:
            assert got == str(exc) == \
                "matrix has numerical rank 49 < requested 50"
        else:
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def test_certificate_identity_closed_form():
    residual, bound = cross_certificate(np.eye(3), np.array([0, 1]),
                                        np.array([0, 1]))
    assert residual == 1.0
    assert bound == 3.0


def test_certificate_noisy_low_rank_within_slack():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = (rng.normal(size=(50, 5)) @ rng.normal(size=(5, 20))
             + 1e-6 * rng.normal(size=(50, 20)))
        approx = build_cross_approximation(m, 5)
        assert approx.residual_chebyshev <= 3 * approx.certificate_bound


def test_pivotal_fit_recovers_selected_column():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(40, 10))
    rows, cols = maxvol_select(m, 6)
    j_local = 2
    target = m[rows, cols[j_local]]
    fit = pivotal_fit(m, rows, cols, target)
    want = np.zeros(10)
    want[cols[j_local]] = 1.0
    assert np.allclose(fit.coefficients, want, atol=1e-10)
    assert fit.training_rmse <= 1e-10
    assert fit.method == "pivotal"


def test_pivotal_fit_rejects_ill_conditioned():
    m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(ValueError, match="cond"):
        pivotal_fit(m, [0, 1], [0, 1], np.array([1.0, 2.0]))


def test_pivotal_fit_takes_one_svd_of_the_block():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(30, 12))
    rows, cols = maxvol_select(m, 6)
    f = rng.normal(size=6)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
            mock.patch.object(np.linalg, "lstsq") as lstsq:
        fit = pivotal_fit(m, rows, cols, f)
    assert [call.args[0].shape for call in svd.call_args_list] == [(6, 6)]
    assert not lstsq.called
    want = np.linalg.solve(m[np.ix_(rows, cols)], f)
    assert np.allclose(fit.coefficients[cols], want, rtol=1e-12, atol=1e-12)
    # the limit is on the block's own condition number, from that SVD
    core = np.diag([1.0, 1e-13])
    with pytest.raises(ValueError, match="cond=1.00e\\+13"):
        pivotal_fit(core, [0, 1], [0, 1], np.ones(2))
    assert pivotal_fit(np.diag([1.0, 1e-11]), [0, 1], [0, 1],
                       np.ones(2)).coefficients[1] == pytest.approx(1e11)


def test_pivotal_fit_reuses_the_kept_block_svd():
    """Repeated fits on one matrix and pivot set factor the block once,
    give the same bits every time, and match a fresh SVD of the block."""
    rng = np.random.default_rng(13)
    values = rng.normal(size=(30, 12))
    matrix = DesignMatrix(values=values)
    rows, cols = maxvol_select(matrix, 6)
    targets = rng.normal(size=(4, 6))
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
            mock.patch.object(DesignMatrix, "pivot_block", autospec=True,
                              side_effect=DesignMatrix.pivot_block) as look:
        fits = [pivotal_fit(matrix, rows, cols, f) for f in targets]
        again = pivotal_fit(matrix, list(rows), list(cols), targets[0])
    assert [call.args[0].shape for call in svd.call_args_list] == [(6, 6)]
    assert look.call_count == len(fits) + 1  # the block is read once a fit
    assert np.array_equal(again.coefficients, fits[0].coefficients)
    assert again.training_rmse == fits[0].training_rmse
    u, s, vt = np.linalg.svd(values[np.ix_(rows, cols)], full_matrices=False)
    for fit, f in zip(fits, targets):
        assert np.array_equal(fit.coefficients[cols], vt.T @ ((u.T @ f) / s))
        fresh = pivotal_fit(values, rows, cols, f)  # a new plain matrix
        assert np.array_equal(fit.coefficients, fresh.coefficients)
    block, factors = matrix.pivot_block(rows, cols)
    for a, b in zip((block, *factors), (values[np.ix_(rows, cols)], u, s,
                                        vt)):
        assert np.array_equal(a, b)
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_another_pivot_set_gets_its_own_block_svd():
    """The matrix keeps the factors of the last (I, J) only; a fit on
    another (I, J) must never read stale factors."""
    rng = np.random.default_rng(14)
    values = rng.normal(size=(20, 10))
    matrix = DesignMatrix(values=values)
    f = rng.normal(size=4)
    first = ([0, 3, 5, 7], [1, 2, 4, 8])
    for rows, cols in (first, ([0, 3, 5, 9], [1, 2, 4, 8]),
                       ([0, 3, 5, 7], [1, 2, 4, 9]), first):
        fit = pivotal_fit(matrix, rows, cols, f)
        want = np.linalg.solve(values[np.ix_(rows, cols)], f)
        assert np.allclose(fit.coefficients[cols], want, rtol=1e-12,
                           atol=1e-12)
        fresh = np.linalg.svd(values[np.ix_(rows, cols)],
                              full_matrices=False)
        for kept, want in zip(matrix.pivot_block(rows, cols)[1], fresh):
            assert np.array_equal(kept, want)
    # the key is a copy: changing the caller's index array refactors
    rows = np.array([0, 3, 5, 8])
    pivotal_fit(matrix, rows, first[1], f)
    rows[-1] = 9
    fit = pivotal_fit(matrix, rows, first[1], f)
    assert np.allclose(fit.coefficients[first[1]],
                       np.linalg.solve(values[np.ix_(rows, first[1])], f),
                       rtol=1e-12, atol=1e-12)


def test_pivotal_fit_validates_length():
    m = np.eye(4)
    with pytest.raises(ValueError):
        pivotal_fit(m, [0, 1], [0, 1], np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("rows, cols", [([0, 1], [-1, 0]), ([-1, 0], [0, 1]),
                                        ([0, 6], [0, 1]), ([0, 1], [0, 4])])
def test_pivotal_fit_refuses_an_index_out_of_range(rows, cols):
    """A negative pivot is refused, not wrapped to a row or column from
    the end and written into the fit's support."""
    m = np.random.default_rng(3).normal(size=(6, 4))
    with pytest.raises(IndexError, match="out of range"):
        pivotal_fit(m, rows, cols, np.ones(2))


def test_selection_independent_of_targets():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(25, 8))
    first = maxvol_select(m, 4)
    # fitting different targets cannot change the selection
    pivotal_fit(m, first[0], first[1], m[first[0], :] @ rng.normal(size=8))
    second = maxvol_select(m, 4)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_pivotal_locations_order_and_bounds():
    grid = PointSet.grid(2, 5)
    locs = pivotal_locations(grid, [0])
    assert np.array_equal(locs, [[0.0, 0.0]])  # first lexicographic point
    locs = pivotal_locations(grid, [7, 3])
    assert np.array_equal(locs, grid.points[[7, 3]])
    with pytest.raises(IndexError):
        pivotal_locations(grid, [99])
