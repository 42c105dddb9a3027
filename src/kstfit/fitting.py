"""Discrete least-squares fitting over sampled basis columns, plus greedy
sparse fitting by orthogonal matching pursuit."""

import weakref
from dataclasses import dataclass, field

import numpy as np

from .bsplines import contract_axes
from .kb import combine_columns
from .smoothing import SmoothSurface, eval_surface

# Relative singular-value threshold of the rank-revealing solve.
LSTSQ_RCOND = 1e-10
# Correlations at or below this times ||f|| mean the residual is
# numerically orthogonal to every column.
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
    if not np.isfinite(f).all():
        raise ValueError("target values must be finite")
    return f


@dataclass
class FitResult:
    """Coefficients over the kept columns plus bookkeeping.

    method is 'dls', 'omp' or 'pivotal'; support lists the active local
    column indices for sparse fits; eval_rmse is filled by evaluate_fit.
    tensor is (a weak reference to C, T = C^T coefficients) when the fit
    formed T from the matrix's C, for evaluate_fit to reuse; it is not
    part of to_dict.
    """

    coefficients: np.ndarray
    training_rmse: float
    method: str
    eval_rmse: float = None
    support: np.ndarray = None
    stagnated: bool = False
    tensor: tuple = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        # a weak reference does not pickle; evaluate_fit recombines
        return {**self.__dict__, "tensor": None}

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


def _training_rmse(matrix, coef, f, g, support=None):
    """(rms(M coef - f), tensor) for coefficients coef that are zero off
    support (None: every column), samples f and g = matrix.project(f),
    without reading M: T = C^T coef over the support gives
    W coef = (R_1 x ... x R_d) T, and M coef - f = Q (W coef - g) +
    (Q g - f) splits into two orthogonal parts, so ||M coef - f||^2 =
    ||W coef - g||^2 + ||f - Q g||^2; tensor keeps T for evaluate_fit.
    A plain matrix has no Q, so the second part is zero."""
    t = combine_columns(matrix.coeffs, coef, support)
    # the residual's parts inside and outside range(Q)
    inside = contract_axes(matrix.rs, t).reshape(-1) - g
    outside = contract_axes(matrix.qs, g.reshape(
        (-1, *(q.shape[1] for q in matrix.qs)))).reshape(-1) - f
    rms = np.sqrt((inside @ inside + outside @ outside) / len(f))
    return float(rms), (weakref.ref(matrix.coeffs), t)


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
    are bit-identical.  The training RMSE is that of the returned x, taken
    from the factors with T = C^T x over every column, so a factored M is
    never read; the fit keeps T for evaluate_fit.
    """
    f = target_vector(f_values, matrix.shape[0])
    u, s, vt = matrix.svd
    k = matrix.rank(LSTSQ_RCOND)
    g = matrix.project(f)
    coef = vt[:k].T @ ((u[:, :k].T @ g) / s[:k])
    resid, tensor = _training_rmse(matrix, coef, f, g)
    return FitResult(coefficients=coef, training_rmse=resid, method="dls",
                     tensor=tensor)


def evaluate_fit(fit, lkb_basis, pts, f):
    """RMS of (fit - f) over the PointSet pts, recorded on the fit; f's
    values pass target_vector, as every fit's targets do.

    The fitted function is collapsed into a single tensor-product surface
    (linear combinations stay in the space), so evaluation never builds a
    design matrix over the evaluation grid.  A fit that kept T = C^T x
    from the basis's own C reuses it; any other contracts C over the
    fit's support.
    """
    kept = fit.tensor
    if kept is not None and kept[0]() is lkb_basis.coeffs:
        surface = SmoothSurface(coeffs=kept[1], config=lkb_basis.config)
    else:
        surface = lkb_basis.combine(fit.coefficients, fit.support)
    target = target_vector(f(pts.points), len(pts))
    err = rms_seminorm(eval_surface(surface, pts) - target)
    fit.eval_rmse = err
    return err


def _best_column(z, phi):
    """(top, j) for the scores |z| / phi: the largest score and the lowest
    index among scores within a relative OMP_TIE of it."""
    corr = np.abs(z) / phi
    top = corr.max()
    return top, int(np.argmax(corr >= top * (1.0 - OMP_TIE)))


def omp_fit(matrix, f_values, sparsity):
    """Greedy sparse fit: repeatedly add the column most correlated with
    the residual, re-solving least squares on the active set.

    Columns are compared after normalization to unit Euclidean norm, and
    among correlations within a relative OMP_TIE of the largest the lowest
    index wins, so rounding cannot flip a tie.  Reported coefficients live
    on the original (unnormalized) columns.  Stops at the requested
    sparsity, or flags stagnation when every remaining column scores at
    most OMP_STAGNATION * ||f|| against the residual (a rule that scales
    with the target, so 3 f and 3e9 f pick the same columns) or the chosen
    one lies in the span of the active set.

    The loop runs in the coordinates of Z = S V^T from the SVD W = U S V^T
    of the rank factor that the matrix keeps: M = Q W with Q = Q_1 x ... x
    Q_d orthonormal, so Z^T Z = W^T W = M^T M, the columns of M and Z have
    the same norms, and the part of g = Q^T f outside range(U) is
    orthogonal to every column.  The target is h = U^T g, and column j
    scores |z_j| / ||M_j|| for z = Z^T r and the residual r, with the
    column norms the matrix keeps.  The active columns of Z keep a QR
    factorization Z_A = U_A^T R whose U_A gains one orthonormal
    Gram-Schmidt row u_k per step (orthogonalized twice, which keeps U_A
    orthonormal to rounding), and the coefficients come from one
    triangular solve.  z is formed once, as Z^T h, and then updated as in
    Batch-OMP (Rubinstein, Zibulevsky and Elad 2008): w_k = Z^T u_k =
    (G_j - R[:k, k]^T W_A) / R[k, k] from row j of the Gram matrix
    G = Z^T Z that the matrix keeps and the earlier w's (rows of W_A), then
    r -= c u_k and z -= c w_k for c = u_k . r.  So a step costs
    O(m k + p k) for p = min(s, m) rows of Z and m columns, and no step
    forms W or Z.  The training RMSE of the returned coefficients comes
    from the factors as in dls_fit, with T = C^T x over the active columns
    only, and the fit keeps T for evaluate_fit.
    """
    from scipy.linalg import solve_triangular
    if sparsity < 1:
        raise ValueError(f"sparsity must be >= 1, got {sparsity}")
    n_rows, n_cols = matrix.shape
    f = target_vector(f_values, n_rows)
    u_w, s, vt = matrix.svd
    g = matrix.project(f)
    h = u_w.T @ g
    norms = matrix.column_norms
    gram = matrix.gram
    # a zero or chosen column scores |z_j| / inf = 0
    phi = np.where(norms > 0, norms, np.inf)
    floor = OMP_STAGNATION * np.linalg.norm(f)

    budget = min(sparsity, n_rows, n_cols)
    # Z_A = U_A^T R: U_A's rows orthonormal (k x p), R upper-triangular
    u = np.zeros((min(budget, len(s)), len(s)))
    r = np.zeros((len(u), len(u)))
    w = np.zeros((len(u), n_cols))  # W_A = U_A Z
    active = []
    residual = h.copy()
    z = vt.T @ (s * h)
    stagnated = False
    while len(active) < budget:
        k = len(active)
        top, best = _best_column(z, phi)
        # at k = p, U_A spans every coordinate of Z: no column is new
        if top <= floor or k == len(u):
            stagnated = True
            break
        col = s * vt[:, best]
        for _ in range(2):
            proj = u[:k] @ col
            col -= proj @ u[:k]
            r[:k, k] += proj
        r[k, k] = np.linalg.norm(col)
        if r[k, k] <= LSTSQ_RCOND * norms[best]:
            stagnated = True
            break
        u[k] = col / r[k, k]
        w[k] = (gram[best] - r[:k, k] @ w[:k]) / r[k, k]
        c = u[k] @ residual
        residual -= c * u[k]
        z -= c * w[k]
        phi[best] = np.inf
        active.append(best)
    k = len(active)
    coef = np.zeros(n_cols)
    coef[active] = solve_triangular(r[:k, :k], u[:k] @ h)
    support = np.array(sorted(active), dtype=int)
    resid, tensor = _training_rmse(matrix, coef, f, g, support)
    return FitResult(coefficients=coef, training_rmse=resid, method="omp",
                     support=support, stagnated=stagnated, tensor=tensor)
