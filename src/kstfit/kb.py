"""Composed spline basis over the unit cube and its sampled design
matrices.

Column j of the basis is sum_q b_j(z_q(x)) with b_j a univariate B-spline
on [0, d] and z_q the weighted superposition maps.  Because the maps only
reach sum(lambda) < d, a block of trailing columns is identically zero;
pruning removes those before any fitting."""

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bsplines import UniformBSplineBasis, contract_axes, design_csr
from .inner import eval_z, forward_superpose

# Relative column norm at or below which a raw KB column is pruned.
PRUNE_TOL = 1e-10


def as_size(name, value):
    """value as an int; ValueError for a float or other non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class PointSet:
    """Points in [0,1]^d with a fixed enumeration order.

    Grids enumerate in C order, the last axis fastest, so the samples of
    a grid reshape to an (n_1, ..., n_d) tensor as a view.
    """

    d: int
    points: np.ndarray
    grid_axes: tuple = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ValueError(f"points must have shape (N, {self.d})")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
            raise ValueError("points must lie in the unit cube")
        object.__setattr__(self, "points", pts)

    @classmethod
    def grid(cls, d, per_axis):
        """Uniform tensor grid with per_axis points along every axis."""
        if np.isscalar(per_axis):
            per_axis = (per_axis,) * d
        per_axis = tuple(as_size("grid size", n) for n in per_axis)
        if len(per_axis) != d or any(n < 2 for n in per_axis):
            raise ValueError("need >= 2 grid points per axis")
        axes = tuple(np.linspace(0.0, 1.0, n) for n in per_axis)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        return cls(d=d, points=pts, grid_axes=axes)

    @property
    def is_grid(self):
        return self.grid_axes is not None

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class KBBasis:
    """d*n composed basis functions built from an inner family and a
    clamped uniform B-spline basis on [0, d]."""

    family: object
    n: int
    degree: int = 3
    univariate: UniformBSplineBasis = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        uni = UniformBSplineBasis(count=self.family.d * self.n,
                                  degree=self.degree,
                                  upper=float(self.family.d))
        object.__setattr__(self, "univariate", uni)

    @property
    def n_columns(self):
        return self.family.d * self.n


def eval_kb(basis, j, x):
    """Basis column j, sum_q b_j(z_q(x)) with b_j the univariate B-spline,
    at the points x of inner.coordinate_terms."""
    if not 0 <= j < basis.n_columns:
        raise IndexError(f"column {j} out of range 0..{basis.n_columns - 1}")

    def b_j(z):
        uni = basis.univariate
        col = design_csr(np.ravel(z), uni.knots, uni.degree)[:, [j]]
        return col.toarray().reshape(np.shape(z))

    return forward_superpose(basis.family, b_j, x)


def _read_only(a):
    """a as a read-only float array, refused unless finite.  An array
    already marked read-only is taken as handed over and kept; any other
    is copied (same layout), so no later write through the caller's array
    reaches it."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("design matrix entries must be finite")
    if a.flags.writeable:
        a = a.copy(order="K")
        a.flags.writeable = False
    return a


# Samples of M (1 MiB) per block of columns when M is written out: 77
# columns on the 41^2 grid, one on the 41^3 grid, so a block's
# intermediates stay a small part of the N x m result.
_BLOCK_SAMPLES = 2 ** 17


@dataclass(frozen=True, init=False)
class DesignMatrix:
    """Dense samples M (N x m) of basis columns at a point set, given as
    values (a plain matrix) or as the per-axis designs B_a of a grid and
    the coefficient tensor C, shape (columns,) + (coeffs per axis, ...),
    of M = (B_1 x ... x B_d) C.  The matrix derives the thin QR factors
    B_a = Q_a R_a of the factorization M = (Q_1 x ... x Q_d) W with the
    small rank factor W = (R_1 x ... x R_d) C when it is made; a factored
    matrix forms M itself only when values is first read.  A plain matrix
    is the case with no axes: C = M^T, no Q and W = M.  The arrays are
    held read-only, and a writable one is copied first, so the SVD of W
    that the matrix keeps cannot go stale; builders that own a fresh array
    mark it read-only to hand it over without a copy."""

    designs: tuple
    coeffs: np.ndarray
    qs: tuple = field(repr=False)
    rs: tuple = field(repr=False)

    def __init__(self, values=None, designs=(), coeffs=None):
        if (values is None) == (coeffs is None) \
                or (values is not None and designs):
            raise ValueError("a design matrix takes values, or designs "
                             "and coeffs")
        designs = tuple(_read_only(b) for b in designs)
        if values is None:
            coeffs = _read_only(coeffs)
            if coeffs.shape[1:] != tuple(b.shape[1] for b in designs):
                raise ValueError("coefficient axes do not match the designs")
        else:
            values = _read_only(values)
            coeffs = values.T  # no axes: C = M^T
            self.__dict__["values"] = values
        qrs = [np.linalg.qr(b) for b in designs]
        for a in (x for qr in qrs for x in qr):
            a.flags.writeable = False
        for name, a in (("designs", designs), ("coeffs", coeffs),
                        ("qs", tuple(q for q, _ in qrs)),
                        ("rs", tuple(r for _, r in qrs))):
            object.__setattr__(self, name, a)

    @property
    def shape(self):
        """(N, m), read off the designs and C: M is not formed."""
        rows = [b.shape[0] for b in self.designs] or self.coeffs.shape[1:]
        return math.prod(rows), len(self.coeffs)

    def column_samples(self, cols):
        """M[:, cols]^T, (len(cols), N): the columns cols of C contracted
        with the designs, so M is not formed.  For a plain matrix there is
        no design, and these are the rows cols of C = M^T."""
        return contract_axes(self.designs, self.coeffs[cols]).reshape(
            -1, self.shape[0])

    def write_values(self, out):
        """Write M into out, an (N, m) float array of any layout, and
        return out: contracted from C a block of columns at a time
        (column_samples), so that no other N x m array is made."""
        n_rows, n_cols = self.shape
        width = max(1, _BLOCK_SAMPLES // max(1, n_rows))
        for lo in range(0, n_cols, width):
            block = slice(lo, lo + width)
            out[:, block] = self.column_samples(block).T
        return out

    @cached_property
    def values(self):
        """M, read-only and Fortran-ordered: one column's samples after
        the other.  A plain matrix holds it from the start; a factored one
        writes it on the first read (write_values) and keeps it."""
        values = self.write_values(np.empty(self.shape[::-1]).T)
        values.flags.writeable = False
        return values

    def rank_factor(self):
        """W = (R_1 x ... x R_d) C, Fortran-ordered: a new array, or the
        read-only M itself for a plain matrix.  W^T W = M^T M, so W has
        the singular values of M, with at most as many rows: prod_a
        min(|axis_a|, coeffs per axis) for a factored matrix, whatever
        the grid size."""
        # C's column blocks stay blocks: the columns of a Fortran-ordered W
        w = contract_axes(self.rs, self.coeffs)
        return w.reshape(self.shape[1], -1).T

    def project(self, f):
        """(Q_1 x ... x Q_d)^T f: samples f (N,) in the row coordinates of
        W; f itself for a plain matrix."""
        return contract_axes([q.T for q in self.qs], np.reshape(
            f, (-1, *(q.shape[0] for q in self.qs)))).reshape(-1)

    @cached_property
    def svd(self):
        """The thin SVD (U, s, V^T) of the rank factor W, read-only; taken
        on the first read and kept, W itself is not.  s is sigma(M),
        largest first: a factored matrix has min(W.shape) of them, and any
        missing up to min(M.shape) are zero."""
        from scipy.linalg import svd
        w = self.rank_factor()
        # W^T W = M^T M: the column norms of M, read off W before LAPACK
        # factors it, in place when W is a new array and not M itself
        self.__dict__["_w_norms"] = np.sqrt(np.einsum("ij,ij->j", w, w))
        factors = svd(w, full_matrices=False, overwrite_a=w.flags.writeable,
                      check_finite=False)
        for a in factors:
            a.flags.writeable = False
        return factors

    @cached_property
    def column_norms(self):
        """Euclidean norms of the columns of M, read-only; taken on the
        first read and kept.  They are those of the rank factor W, which
        svd takes before it factors W, so a factored matrix never reads
        values."""
        self.svd
        norms = self.__dict__["_w_norms"]
        norms.flags.writeable = False
        return norms

    @cached_property
    def gram(self):
        """G = Z^T Z = M^T M (m x m) for Z = S V^T from svd, read-only;
        taken on the first read and kept.  OMP reads one row of it per
        step; DLS and pivotal fits never build it."""
        _, s, vt = self.svd
        z = s[:, None] * vt
        gram = z.T @ z
        gram.flags.writeable = False
        return gram

    def pivot_block(self, rows, cols):
        """(M[I, J], its thin SVD (U, s, V^T)), read-only: the block is
        the rows I of column_samples(J), so M is not formed.  The matrix
        keeps both for the last (I, J) asked for, as it keeps svd, so
        repeated fits on one pivot set contract and factor the block once;
        any other (I, J) is taken afresh and replaces them."""
        rows = np.array(rows, dtype=np.intp)
        cols = np.array(cols, dtype=np.intp)
        # a negative index would wrap to a row or column from the end
        for index, size in zip((rows, cols), self.shape):
            if index.size and (index.min() < 0 or index.max() >= size):
                raise IndexError("pivot index out of range")
        kept = self.__dict__.get("_block")
        if (kept is not None and np.array_equal(kept[0], rows)
                and np.array_equal(kept[1], cols)):
            return kept[2]
        # C-ordered like values[np.ix_(I, J)], so products with it round
        # the same way
        block = np.ascontiguousarray(self.column_samples(cols)[:, rows].T)
        factors = np.linalg.svd(block, full_matrices=False)
        for a in (block, *factors):
            a.flags.writeable = False
        self.__dict__["_block"] = (rows, cols, (block, factors))
        return block, factors

    def rank(self, tol):
        """Count of singular values above tol * sigma_1 (0 for a zero
        matrix): the one rank rule of the package."""
        s = self.svd[1]
        return int(np.sum(s > tol * s[0])) if s.size else 0


def combine_columns(coeffs, x, support=None):
    """T = C^T x: sum_j x[j] * coeffs[j] over the columns in support, for
    coefficients x that are zero off it; every column when support is
    None.  One contraction, over the support's columns of C only."""
    if support is None:
        return np.tensordot(x, coeffs, 1)
    support = np.asarray(support, dtype=np.intp)
    return np.tensordot(x[support], coeffs[support], 1)


def assemble_design_matrix(basis, pts):
    """Sparse CSR (|pts|, d*n) matrix with entry (i, j) = column j at
    point i: the sum of the 2d+1 B-spline designs at z_q(pts), each with at
    most degree+1 nonzeros per row."""
    uni = basis.univariate
    acc = None
    for q in range(basis.family.n_phi):
        z = eval_z(basis.family, q, pts)
        dm = design_csr(np.clip(z, 0.0, uni.upper), uni.knots, uni.degree)
        acc = dm if acc is None else acc + dm
    return acc


def prune_near_zero_columns(raw, tol=PRUNE_TOL):
    """Indices of the columns of the CSR matrix raw whose norm is above
    tol times the largest column norm; exact zeros always go.  Pruning the
    kept columns again keeps them all."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    # the squares add up row after row, as a dense column norm sums them
    norms = np.sqrt(np.bincount(raw.indices, weights=raw.data ** 2,
                                minlength=raw.shape[1]))
    cutoff = tol * norms.max() if norms.size else 0.0
    keep = np.flatnonzero(norms > cutoff)
    if not keep.size:
        raise ValueError("every column pruned; basis is degenerate here")
    return keep


def independence_check(basis, pts):
    """Numerical-rank report for the nonzero columns sampled at pts.

    independent=True means the nonzero-column submatrix has full column
    rank at this sampling resolution: SVD threshold max(N, m) * eps *
    sigma_1, the rank guard of pivotal.maxvol_select.
    """
    raw = assemble_design_matrix(basis, pts)
    kept = prune_near_zero_columns(raw, tol=0.0)
    nonzero = DesignMatrix(values=raw[:, kept].toarray())
    n_rows, n_cols = nonzero.shape
    if n_rows < n_cols:
        raise ValueError(
            f"need at least {n_cols} points to check {n_cols} columns")
    rank = nonzero.rank(max(n_rows, n_cols) * np.finfo(float).eps)
    return {
        "n_nonzero_columns": n_cols,
        "rank": rank,
        "independent": rank == n_cols,
        "smallest_singular_value": float(nonzero.svd[1][n_cols - 1]),
    }
