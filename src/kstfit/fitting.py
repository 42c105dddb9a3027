"""Discrete least-squares fitting over sampled basis columns, plus greedy
sparse fitting by orthogonal matching pursuit."""

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .smoothing import eval_surface_on_grid

# Relative singular-value threshold of the rank-revealing solve.
LSTSQ_RCOND = 1e-10
# Correlations below this mean the residual is numerically orthogonal.
OMP_STAGNATION = 1e-14
# Correlations within this relative distance of the largest tie; the
# lowest index among them wins.
OMP_TIE = 1e-12


def rms_seminorm(values):
    """sqrt(mean(v_i^2)): the root-mean-square over the sample set."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("rms of an empty sample set is undefined")
    return float(np.sqrt(np.mean(v * v)))


def target_vector(values, count):
    """values as a float vector of length count; raises ValueError on a
    wrong shape or a non-finite entry, which would poison every fitted
    coefficient without an error."""
    f = np.asarray(values, dtype=float)
    if f.shape != (count,):
        raise ValueError(f"expected {count} target values, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("target values must be finite")
    return f


@dataclass
class FitResult:
    """Coefficients over the kept columns plus bookkeeping.

    method is 'dls', 'omp' or 'pivotal'; support lists the active local
    column indices for sparse fits; eval_rmse is filled by evaluate_fit.
    """

    coefficients: np.ndarray
    training_rmse: float
    method: str
    eval_rmse: float = None
    support: np.ndarray = None
    stagnated: bool = False

    def to_dict(self):
        return {
            "method": self.method,
            "training_rmse": self.training_rmse,
            "eval_rmse": self.eval_rmse,
            "stagnated": self.stagnated,
            "support": None if self.support is None
            else [int(i) for i in self.support],
            "coefficients": [float(c) for c in self.coefficients],
        }


def dls_fit(matrix, f_values):
    """Minimum-norm least-squares fit of the samples by the columns.

    Rank-deficient systems get the unique minimum-norm solution that
    np.linalg.lstsq gives at relative threshold LSTSQ_RCOND, from the
    matrix's factorization M = (Q_1 x ... x Q_d) W and the SVD of W that
    the matrix keeps, cut to its k = matrix.rank(LSTSQ_RCOND) leading
    triplets: x = V_k (S_k^-1 (U_k^T (Q_1 x ... x Q_d)^T f)).  The factors are
    applied one at a time; a formed pseudo-inverse V_k S_k^-1 U_k^T would
    carry rounding of eps / sigma_k into every direction, so fitted values
    of an ill-conditioned M would be off by ~eps * cond(M).  Repeated runs
    are bit-identical.
    """
    f = target_vector(f_values, matrix.values.shape[0])
    u, s, vt = matrix.svd
    k = matrix.rank(LSTSQ_RCOND)
    coef = vt[:k].T @ ((u[:, :k].T @ matrix.project(f)) / s[:k])
    resid = rms_seminorm(matrix.values @ coef - f)
    return FitResult(coefficients=coef, training_rmse=resid, method="dls")


def evaluate_fit(fit, lkb_basis, pts, f):
    """RMS of (fit - f) over the point set, recorded on the fit.

    The fitted function is collapsed into a single tensor-product surface
    (linear combinations stay in the space), so evaluation never builds a
    design matrix over the evaluation grid.
    """
    surface = lkb_basis.combine(fit.coefficients)
    approx = eval_surface_on_grid(surface, pts)
    target = np.asarray(f(pts.points), dtype=float)
    err = rms_seminorm(approx - target)
    fit.eval_rmse = err
    return err


def omp_fit(matrix, f_values, sparsity):
    """Greedy sparse fit: repeatedly add the column most correlated with
    the residual, re-solving least squares on the active set.

    Columns are compared after normalization to unit Euclidean norm, and
    among correlations within a relative OMP_TIE of the largest the lowest
    index wins, so rounding cannot flip a tie.  Reported coefficients live
    on the original (unnormalized) columns.  Stops at the requested
    sparsity, or flags stagnation when every remaining column is
    numerically orthogonal to the residual or the chosen one lies in the
    span of the active set.

    The loop runs in the row coordinates of the rank factor: M = Q W with
    Q = Q_1 x ... x Q_d orthonormal gives M^T r = W^T Q^T r, equal column
    norms, and ||M_A x - f||^2 = ||W_A x - g||^2 + ||f - Q g||^2 for
    g = Q^T f.  The active columns of W keep a QR factorization W_A = U R
    that grows by one Gram-Schmidt column per step (orthogonalized twice,
    which keeps U orthonormal to rounding), so a step costs O(s k) for W
    with s rows, and the coefficients come from one triangular solve.
    """
    if sparsity < 1:
        raise ValueError(f"sparsity must be >= 1, got {sparsity}")
    n_rows, n_cols = matrix.shape
    f = target_vector(f_values, n_rows)
    w = matrix.rank_factor()
    g = matrix.project(f)
    norms = np.linalg.norm(w, axis=0)
    usable = norms > 0
    phi = np.where(usable, norms, 1.0)

    budget = min(sparsity, n_rows, n_cols)
    # W_A = U R: orthonormal U (s x k) and upper-triangular R (k x k)
    u = np.zeros((w.shape[0], min(budget, w.shape[0])))
    r = np.zeros((u.shape[1], u.shape[1]))
    active = []
    residual = g.copy()
    stagnated = False
    while len(active) < budget:
        k = len(active)
        corr = np.abs(w.T @ residual) / phi
        corr[~usable] = 0.0
        corr[active] = 0.0
        top = corr.max()
        best = int(np.argmax(corr >= top * (1.0 - OMP_TIE)))
        # at k = s, U spans every row coordinate of W: no column is new
        if top < OMP_STAGNATION or k == u.shape[1]:
            stagnated = True
            break
        col = w[:, best].copy()
        for _ in range(2):
            proj = u[:, :k].T @ col
            col -= u[:, :k] @ proj
            r[:k, k] += proj
        r[k, k] = np.linalg.norm(col)
        if r[k, k] <= LSTSQ_RCOND * norms[best]:
            stagnated = True
            break
        u[:, k] = col / r[k, k]
        residual -= u[:, k] * (u[:, k] @ residual)
        active.append(best)
    k = len(active)
    coef = np.zeros(n_cols)
    coef[active] = sla.solve_triangular(r[:k, :k], u[:, :k].T @ g)
    return FitResult(coefficients=coef,
                     training_rmse=rms_seminorm(matrix.values @ coef - f),
                     method="omp", support=np.array(sorted(active), dtype=int),
                     stagnated=stagnated)
