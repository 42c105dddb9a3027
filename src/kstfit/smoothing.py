"""Penalized tensor-product spline smoothing.

Noisy samples on a full uniform grid are projected onto a tensor-product
B-spline surface by minimizing

    mean_i (s(x_i) - z_i)^2  +  penalty * E2(s),

where E2 is the sum over all second-order coordinate pairs of the squared
derivative L2 norms (the thin-plate energy in 2-d).  The data term is the
mean squared residual, not the raw sum, so penalty values near 1 mean the
same thing on every grid size and match the RMS-based error bound checked
in the tests.  Affine functions span the null space of E2, so they are
reproduced exactly for every penalty.  The normal matrix depends only on
(grid, config) and is factored once and reused across columns.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .bsplines import (
    UniformBSplineBasis,
    contract_axes,
    eval_spline,
    spline_derivative,
)
from .inner import coordinate_terms
from .kb import (DesignMatrix, assemble_design_matrix, combine_columns,
                 prune_near_zero_columns)

# Gauss-Legendre points per interval of the energy quadrature, exact for
# the products of two splines of degree <= 3 that fill the Gram matrices.
_QUAD_POINTS = 4
# Points per block of scattered surface evaluation.
_EVAL_CHUNK = 65536


@dataclass(frozen=True)
class SmoothingConfig:
    """Penalty weight, spline degree and per-axis segment count."""

    penalty: float = 1.0
    degree: int = 3
    segments: int = 12

    def __post_init__(self):
        if not 0 <= self.penalty < np.inf:  # NaN fails too
            raise ValueError("penalty must be finite and >= 0")
        if self.segments < 4:
            raise ValueError("need at least 4 segments per axis")
        if self.degree not in (2, 3):
            raise ValueError("smoothing degree must be 2 or 3")

    @property
    def coeffs_per_axis(self):
        return self.segments + self.degree


@dataclass(frozen=True)
class SmoothSurface:
    """Tensor-product spline on the unit cube in the space of config;
    coeffs has one axis per coordinate."""

    coeffs: np.ndarray
    config: SmoothingConfig

    @property
    def d(self):
        return self.coeffs.ndim


def _axis_design(degree, segments, t):
    return UniformBSplineBasis(count=segments + degree, degree=degree,
                               upper=1.0).design_matrix(t)


def _grid_designs(cfg, grid):
    """_axis_design at the points of each axis of a full uniform grid,
    read-only and shared: the fit and evaluation grids repeat across every
    fit and basis, and bases that differ only in penalty share them."""
    if not grid.is_grid:
        raise ValueError("per-axis designs need a full uniform grid")
    return [_cached_axis_design(cfg.degree, cfg.segments,
                                np.ascontiguousarray(a, dtype=float).tobytes())
            for a in grid.grid_axes]


@lru_cache(maxsize=32)
def _cached_axis_design(degree, segments, axis_bytes):
    design = _axis_design(degree, segments, np.frombuffer(axis_bytes))
    design.flags.writeable = False
    return design


@lru_cache(maxsize=32)
def _axis_grams(degree, segments):
    """Gram matrices of derivative orders 0, 1, 2 on [0, 1], by exact
    per-interval Gauss-Legendre quadrature."""
    basis = UniformBSplineBasis(count=segments + degree, degree=degree,
                                upper=1.0)
    ncf = basis.count
    breaks = np.linspace(0.0, 1.0, segments + 1)
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_POINTS)
    grams = []
    for order in range(3):
        # one coefficient column per basis function
        knots, coeffs, deg = spline_derivative(basis.knots, np.eye(ncf),
                                               degree, order)
        g = np.zeros((ncf, ncf))
        for a, b in zip(breaks[:-1], breaks[1:]):
            t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            w = 0.5 * (b - a) * weights
            cols = eval_spline(knots, coeffs, deg, t)
            g += (cols * w[:, None]).T @ cols
        grams.append(g)
    return grams


def _second_order_multi_indices(d):
    """Multi-indices |alpha| = 2 with their multinomial weights."""
    out = []
    for a, b in combinations_with_replacement(range(d), 2):
        alpha = np.zeros(d, dtype=int)
        alpha[a] += 1
        alpha[b] += 1
        out.append((tuple(alpha), 1 if a == b else 2))
    return out


def energy_matrix(d, cfg):
    """Dense quadratic form of the thin-plate-type energy on coefficient
    vectors (C-order flattening of the coefficient tensor)."""
    grams = _axis_grams(cfg.degree, cfg.segments)
    total = 0.0
    for alpha, weight in _second_order_multi_indices(d):
        term = np.array([[weight]])
        for a in range(d):
            term = np.kron(term, grams[alpha[a]])
        total += term  # in place from the second term on
    return total


def _kron_csr(x, y):
    """kron(x, y) of two CSR arrays with sorted indices, built in CSR with
    sorted indices: row (r, j) holds x[r, i] * y[j, l] at column
    i * y.shape[1] + l.  One vectorized pass per row of y fills the final
    arrays in place, with no COO intermediate of the product's size."""
    from scipy import sparse
    nrow, ncol = x.shape[0] * y.shape[0], x.shape[1] * y.shape[1]
    counts = np.multiply.outer(np.diff(x.indptr), np.diff(y.indptr))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    itype = np.int32 if max(indptr[-1], ncol) <= np.iinfo(np.int32).max \
        else np.int64
    indices = np.empty(indptr[-1], dtype=itype)
    data = np.empty(indptr[-1])
    x_row = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
    x_pos = np.arange(x.nnz) - x.indptr[x_row]  # place within its row
    x_col = x.indices.astype(np.int64) * y.shape[1]
    for j in range(y.shape[0]):
        lo, hi = y.indptr[j], y.indptr[j + 1]
        # entry p of x starts a run of hi - lo entries in row (r(p), j)
        dest = (indptr[x_row * y.shape[0] + j] + x_pos * (hi - lo))[:, None] \
            + np.arange(hi - lo)
        indices[dest] = x_col[:, None] + y.indices[lo:hi]
        data[dest] = x.data[:, None] * y.data[lo:hi]
    return sparse.csr_array((data, indices, indptr.astype(itype)),
                            shape=(nrow, ncol))


class GridSmoother:
    """Factored penalized normal equations for one (grid, config) pair.

    coefficients() solves for a block of sample columns; the
    factorization is shared read-only, so column batches are
    embarrassingly parallel.
    """

    def __init__(self, grid, cfg):
        from scipy import sparse
        from scipy.linalg import cho_factor
        designs = _grid_designs(cfg, grid)
        self.grid = grid
        self.d = grid.d
        ncf = cfg.coeffs_per_axis
        if len(grid) < ncf ** self.d:
            raise ValueError(
                f"{len(grid)} grid points cannot determine {ncf ** self.d} "
                f"coefficients")
        # penalty * E + A^T A / N, summed in place: with LAPACK's copy at
        # most two arrays of the normal matrix's size are alive at once
        normal = energy_matrix(self.d, cfg)
        normal *= cfg.penalty
        ata = np.array([[1.0]])
        for b in designs:
            ata = np.kron(ata, b.T @ b)
        ata /= len(grid)
        normal += ata
        del ata
        try:
            self._cho = cho_factor(normal)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"singular penalized normal system: {exc}")
        del normal
        self._ncf = ncf
        # A^T = B_1^T x ... x B_d^T for A = B_1 x ... x B_d: rows in the
        # C order of the coefficient tensor, columns in grid order
        at = sparse.csr_array(designs[0].T)
        for b in designs[1:]:
            at = _kron_csr(at, sparse.csr_array(b.T))
        self._at = at

    def coefficients(self, values):
        """Coefficient tensors of the smoothed columns of values (N, m),
        dense or sparse, stacked along a leading column axis: shape
        (m,) + (ncf,)*d, C-contiguous.

        LAPACK returns the solve column-major, so its transpose reshapes
        to that tensor as a view."""
        from scipy import sparse
        from scipy.linalg import cho_solve
        v = sparse.csr_array(values, dtype=float)
        if v.ndim != 2 or v.shape[0] != len(self.grid):
            raise ValueError("sample count does not match the grid")
        rhs = (self._at @ v).toarray()
        rhs /= len(self.grid)
        x = cho_solve(self._cho, rhs)
        return x.T.reshape((v.shape[1],) + (self._ncf,) * self.d)


def denoise_samples(values, grid, cfg):
    """Minimizer of the penalized least-squares functional for one sample
    column (N,) on a full uniform grid."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("denoise takes one sample column")
    return SmoothSurface(
        coeffs=GridSmoother(grid, cfg).coefficients(v[:, None])[0],
        config=cfg)


def eval_surface(surface, x):
    """Surface values at the points x of inner.coordinate_terms, by one
    contraction per axis: against the shared axis designs on a grid, and
    against per-point basis rows, block by block, elsewhere."""
    coords, shape = coordinate_terms(x, surface.d, lambda i, t: t)
    if getattr(x, "grid_axes", None) is not None:
        return contract_axes(_grid_designs(surface.config, x),
                             surface.coeffs).reshape(-1)
    coords = [np.ravel(t) for t in coords]
    out = np.empty(len(coords[0]))
    for lo in range(0, len(out), _EVAL_CHUNK):
        designs = [_axis_design(surface.config.degree,
                                surface.config.segments,
                                c[lo:lo + _EVAL_CHUNK]) for c in coords]
        t = np.tensordot(designs[0], surface.coeffs, axes=(1, 0))
        for a in range(1, surface.d):
            t = np.einsum("pi,pi...->p...", designs[a], t)
        out[lo:lo + _EVAL_CHUNK] = t
    return float(out[0]) if not shape else out.reshape(shape)


@dataclass(frozen=True)
class LKBBasis:
    """Denoised versions of the kept design-matrix columns.

    coeffs has shape (m,) + (ncf,)*d, C-contiguous: the coefficient
    tensors of all m columns, one after the other, which is the matrix C
    of M = (B_1 x ... x B_d) C."""

    coeffs: np.ndarray
    kept: np.ndarray
    config: SmoothingConfig

    @property
    def n_columns(self):
        return self.coeffs.shape[0]

    @property
    def d(self):
        return self.coeffs.ndim - 1

    def column(self, j):
        """The surface of column j."""
        if not 0 <= j < self.n_columns:
            raise IndexError(
                f"column {j} out of range 0..{self.n_columns - 1}")
        return SmoothSurface(coeffs=self.coeffs[j], config=self.config)

    def combine(self, coefficients, support=None):
        """The surface sum_j coefficients[j] * column_j; linear combos of
        tensor splines stay in the space, so this is exact.  For
        coefficients that are zero off support (a sparse or pivotal fit's
        recorded columns) only those columns are contracted; None
        contracts every column."""
        c = np.asarray(coefficients, dtype=float)
        if c.shape != (self.n_columns,):
            raise ValueError("coefficient length must match column count")
        return SmoothSurface(coeffs=combine_columns(self.coeffs, c, support),
                             config=self.config)

    def design_matrix(self, grid):
        """(|grid|, n_columns) samples of every column on a full uniform
        grid: one contraction of the factors of M = (B_1 x ... x B_d) C,
        a Fortran-ordered view of one column's samples after the other."""
        t = contract_axes(_grid_designs(self.config, grid), self.coeffs)
        return t.reshape(self.n_columns, -1).T

    def sample(self, grid):
        """The DesignMatrix M = design_matrix(grid) with its factorization
        M = (Q_1 x ... x Q_d) (R_1 x ... x R_d) C, where B_a = Q_a R_a is
        the thin QR of the axis design.  The matrix builds its small rank
        factor W = (R_1 x ... x R_d) C only when asked.  The fresh M, Q_a
        and R_a are handed over read-only, uncopied; C is copied only if
        this basis holds it writable."""
        qrs = [np.linalg.qr(b) for b in _grid_designs(self.config, grid)]
        values = self.design_matrix(grid)
        for a in (values, *(x for qr in qrs for x in qr)):
            a.flags.writeable = False
        return DesignMatrix(values=values, qs=tuple(q for q, _ in qrs),
                            rs=tuple(r for _, r in qrs), coeffs=self.coeffs)


def build_lkb_basis(kb, grid, cfg):
    """The LKB basis of the KB basis kb: its raw columns sampled on the
    grid, those above the prune cut kept, and each kept one denoised.  The
    raw matrix stays sparse and is freed on return."""
    smoother = GridSmoother(grid, cfg)
    raw = assemble_design_matrix(kb, grid)
    kept = prune_near_zero_columns(raw)
    coeffs = smoother.coefficients(raw[:, kept])
    coeffs.flags.writeable = False  # fresh: sample() hands it on uncopied
    return LKBBasis(coeffs=coeffs, kept=kept, config=cfg)
