"""Matrix cross approximation by a greedy dominant-submatrix search.

A rank-r skeleton M ~= M[:, J] M[I, J]^{-1} M[I, :] built from a row set I
and column set J found by alternating maxvol sweeps.  The rows of I name
the "pivotal" sample locations: fitting on those |I| samples alone gives
accuracy comparable to the full point set, and (I, J) depend only on the
matrix, never on the target values.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .fitting import FitResult, rms_seminorm, target_vector
from .kb import DesignMatrix

# Minimal volume improvement a swap must bring to be accepted.
SWAP_MARGIN = 1e-2
# Condition-number limit of the pivotal system.
PIVOTAL_CONDITION_LIMIT = 1e12


def _as_matrix(matrix):
    """matrix itself if it is a DesignMatrix, else the array as a plain
    one, so that every caller reads its one kept SVD."""
    if isinstance(matrix, DesignMatrix):
        return matrix
    return DesignMatrix(values=matrix)


@dataclass(frozen=True)
class CrossApproximation:
    """Selected rows I, columns J, the Chebyshev residual of the skeleton
    and the (1+r) * sigma_{r+1} certificate bound."""

    rows: np.ndarray
    cols: np.ndarray
    rank: int
    residual_chebyshev: float
    certificate_bound: float
    condition_number: float

    @property
    def ratio(self):
        if self.certificate_bound == 0.0:
            return np.inf if self.residual_chebyshev > 0 else 0.0
        return self.residual_chebyshev / self.certificate_bound


def estimate_rank(matrix, tol=1e-8):
    """Count of singular values above tol * sigma_1 (0 for a zero matrix)."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie strictly between 0 and 1")
    return _as_matrix(matrix).rank(tol)


def _rank_one_downdate(a, x, y, scale):
    """a -= scale * outer(x, y) in place: one BLAS pass, no temporary.

    dger updates the Fortran-ordered view a.T in place; for any other
    layout f2py would update a copy and leave a unchanged.  x and y must
    not alias a.
    """
    if not (a.flags.c_contiguous and a.dtype == np.float64):
        raise ValueError("rank-one downdate needs a C-contiguous float64 "
                         "array")
    from scipy.linalg.blas import dger
    dger(-scale, y, x, a=a.T, overwrite_a=True)


def _abs_argmax(a):
    """(i, j) of np.argmax(np.abs(a)), the first largest magnitude in
    row-major order, from one argmax and one argmin without |a|."""
    hi, lo = int(np.argmax(a)), int(np.argmin(a))
    top, bottom = a.flat[hi], -a.flat[lo]
    flat = lo if bottom > top or (bottom == top and lo < hi) else hi
    return divmod(flat, a.shape[1])


def _full_pivot_init(resid, r, skip=0):
    """Rows/columns of the first r completely pivoted LU steps, optionally
    skipping the `skip` largest residual entries to diversify starts.
    resid, a C-ordered float64 array holding the matrix, is overwritten
    with the residual."""
    rows, cols = [], []
    ban_i, ban_j = [], []
    for step in range(r + skip):
        # banned entries read as zero during the scan only; they keep
        # their residual, which the updates still reach
        held = resid[ban_i, ban_j]
        resid[ban_i, ban_j] = 0.0
        i, j = _abs_argmax(resid)
        piv = resid[i, j]
        resid[ban_i, ban_j] = held
        if len(ban_i) >= resid.size:
            # all entries banned: the scan lands on (0, 0), and like an
            # argmax over a wholly masked |resid| it takes that entry
            piv = resid[i, j]
        if piv == 0.0:
            break
        if step < skip:
            ban_i.append(i)
            ban_j.append(j)
            continue
        rows.append(i)
        cols.append(j)
        _rank_one_downdate(resid, resid[:, j].copy(), resid[i, :].copy(),
                           1.0 / piv)
        # zero in exact arithmetic; rounding must not let them pivot again
        resid[i, :] = 0.0
        resid[:, j] = 0.0
    return rows, cols


# Above this work estimate (entries * rank) only the first start is tried.
_DIVERSE_START_BUDGET = 2.0e8


def _sweep_rows(m, rows, cols, log):
    """Swap rows into I while any swap grows |det| by > 1 + margin.

    Keeps B = M[:, J] M[I, J]^{-1} current through rank-one updates, the
    standard maxvol trick, so each swap costs O(n r) instead of a solve.
    """
    from scipy import linalg as sla
    changed = False
    try:
        with warnings.catch_warnings():
            # near the numerical rank the pivot block is expected to be
            # poorly conditioned mid-sweep; swaps only improve it
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            b = sla.solve(m[np.ix_(rows, cols)].T, m[:, cols].T,
                          check_finite=False).T
    except sla.LinAlgError:
        return False
    b = np.ascontiguousarray(b)
    for _ in range(4 * len(rows)):
        i, j = _abs_argmax(b)
        gain = abs(b[i, j])
        if gain <= 1.0 + SWAP_MARGIN or i in rows:
            break
        update = b[i, :].copy()
        update[j] -= 1.0
        _rank_one_downdate(b, b[:, j].copy(), update, 1.0 / b[i, j])
        rows[j] = i
        log.append(log[-1] * gain)
        changed = True
    return changed


def maxvol_select(matrix, r, with_history=False):
    """Greedy dominant r x r submatrix: complete-pivot starts, then
    alternating row and column sweeps, each swap growing the volume by a
    factor above 1 + SWAP_MARGIN (so the loop always terminates).  Small
    problems get extra diversified starts because the sweeps only explore
    single swaps and can stall on a local optimum.  The search holds one
    N x m array: M is written into it (DesignMatrix.write_values) before
    each start, which overwrites it with its residual, and once more for
    the sweeps, so the matrix never forms values.

    Returns (I, J) as sorted index arrays; with_history=True appends the
    relative-volume trace (strictly increasing across accepted swaps).
    """
    matrix = _as_matrix(matrix)
    n_rows, n_cols = matrix.shape
    if not 1 <= r <= min(n_rows, n_cols):
        raise ValueError(f"rank {r} out of range for a {matrix.shape} "
                         f"matrix")
    achieved = matrix.rank(max(matrix.shape) * np.finfo(float).eps)
    if achieved < r:
        raise ValueError(
            f"matrix has numerical rank {achieved} < requested {r}")

    m = np.empty(matrix.shape)
    diverse = n_rows * n_cols * r <= _DIVERSE_START_BUDGET
    starts = [_full_pivot_init(matrix.write_values(m), r, skip)
              for skip in range(6 if diverse else 1)]
    matrix.write_values(m)
    best = None
    for rows, cols in starts:
        if len(rows) < r:
            continue
        log = [1.0]  # relative volume trace; swaps multiply it up
        for _ in range(64):
            grew = _sweep_rows(m, rows, cols, log)
            grew |= _sweep_rows(m.T, cols, rows, log)
            if not grew:
                break
        _, logvol = np.linalg.slogdet(m[np.ix_(rows, cols)])
        if best is None or logvol > best[0]:
            best = (logvol, rows, cols, log)
    _, rows, cols, log = best
    rows, cols = np.array(sorted(rows)), np.array(sorted(cols))
    if with_history:
        return rows, cols, log
    return rows, cols


def cross_certificate(matrix, rows, cols):
    """(Chebyshev residual, (1+r) sigma_{r+1}) of the skeleton on (I, J)."""
    from scipy import linalg as sla
    matrix = _as_matrix(matrix)
    m, svals = matrix.values, matrix.singular_values
    core = m[np.ix_(rows, cols)]
    r = len(rows)
    try:
        mid = sla.solve(core, m[rows, :], check_finite=False)
    except sla.LinAlgError:
        raise ValueError("pivot block M[I, J] is singular")
    residual = float(np.max(np.abs(m - m[:, cols] @ mid)))
    sigma_next = float(svals[r]) if r < len(svals) else 0.0
    return residual, (1 + r) * sigma_next


def build_cross_approximation(matrix, r):
    """maxvol_select plus the certificate and the condition number of
    M[I, J], packaged; they read the SVD of M and the block SVD that the
    matrix keeps, so a pivotal_fit on (I, J) factors nothing more."""
    matrix = _as_matrix(matrix)
    rows, cols = maxvol_select(matrix, r)
    residual, bound = cross_certificate(matrix, rows, cols)
    s = matrix.block_svd(rows, cols)[1]
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    return CrossApproximation(rows=rows, cols=cols, rank=r,
                              residual_chebyshev=residual,
                              certificate_bound=bound,
                              condition_number=cond)


def pivotal_fit(matrix, rows, cols, f_at_rows):
    """Least-squares solve of the pivotal block M[I, J] x ~= f_I, embedded
    as a full-length coefficient vector (zeros off J).  (I, J) depend on
    the basis alone, so the SVD of the block comes from the matrix, which
    keeps it with the block for the last (I, J) asked for: repeated fits
    on one basis contract and factor the block once, never form M, and
    give the same bits as a fresh SVD.  That SVD gives both the block's
    condition number and the solve, and the block the training RMSE."""
    matrix = _as_matrix(matrix)
    f = target_vector(f_at_rows, len(rows))
    u, s, vt = matrix.block_svd(rows, cols)
    cond = s[0] / s[-1] if s[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > PIVOTAL_CONDITION_LIMIT:
        raise ValueError(
            f"pivotal block is too ill-conditioned (cond={cond:.2e})")
    # cond <= 1e12 keeps every sigma above the eps * max(shape) cut that
    # lstsq would make, for any block narrower than ~4500
    x = vt.T @ ((u.T @ f) / s)
    coef = np.zeros(matrix.shape[1])
    coef[np.asarray(cols)] = x
    resid = rms_seminorm(matrix.block(rows, cols) @ x - f)
    return FitResult(coefficients=coef, training_rmse=resid,
                     method="pivotal", support=np.asarray(cols, dtype=int))


def pivotal_locations(pts, rows):
    """Coordinates of the pivotal rows, in row order."""
    rows = np.asarray(rows, dtype=int)
    if rows.size and (rows.min() < 0 or rows.max() >= len(pts)):
        raise IndexError("pivotal row index out of range")
    return pts.points[rows]
