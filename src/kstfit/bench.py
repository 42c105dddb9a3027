"""End-to-end experiment pipeline: build (or load) a denoised basis with
its pivotal point set, fit the benchmark functions, and emit the result
tables, convergence slopes and pivotal counts as CSV."""

import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import cache as cache_io, kb
from .fitting import dls_fit, evaluate_fit, omp_fit
from .inner import PROFILES, build_inner_family, default_rank
from .kb import DesignMatrix, KBBasis, PointSet, as_size
from .knet import rate_experiment
from .pivotal import estimate_rank, maxvol_select, pivotal_fit, \
    pivotal_locations
from .smoothing import SmoothingConfig, build_lkb_basis
from .testfuncs import get as get_function, registry

# Relative singular-value threshold fixing the pivotal rank; with the
# mean-normalized unit penalty this lands near the reference pivot counts.
PIPELINE_RANK_TOL = 1e-6
# The two columns per n of the RMSE table: full grid, then pivotal set.
TABLE_METHODS = ("dls", "pivotal")
# The ExperimentSpec fields that are inputs of a basis build.
BUILD_SETTINGS = ("fit_grid", "degree", "penalty", "segments")

_DEFAULT_SEGMENTS = {1: 24, 2: 24, 3: 12}
_DEFAULT_EVAL_GRID = {1: 1001, 2: 101, 3: 101}


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a table/slope/count experiment needs; the one place
    where segments and eval_grid of 0 take their defaults and sizes, grids
    and smoothing settings are checked, before anything is built.  Sizes
    are kept as int, the penalty as float: equal inputs, one cache file."""

    d: int
    n_list: tuple
    fit_grid: int = 41
    eval_grid: int = 0
    degree: int = 3
    penalty: float = 1.0
    segments: int = 0
    cache_dir: str = None

    def __post_init__(self):
        for name in ("d", "fit_grid", "eval_grid", "degree", "segments"):
            object.__setattr__(self, name, as_size(name, getattr(self, name)))
        object.__setattr__(self, "n_list",
                           tuple(as_size("n", n) for n in self.n_list))
        object.__setattr__(self, "penalty", float(self.penalty))
        if self.d not in _DEFAULT_SEGMENTS:
            raise ValueError(f"no basis settings for d={self.d}; choose d "
                             f"in {tuple(_DEFAULT_SEGMENTS)}")
        if any(n < 1 for n in self.n_list):
            raise ValueError(f"need every n >= 1, got {self.n_list}")
        if not self.n_list or len(set(self.n_list)) < len(self.n_list):
            raise ValueError(f"need one or more distinct sizes, got "
                             f"{self.n_list}")
        object.__setattr__(self, "segments", self.segments
                           or _DEFAULT_SEGMENTS[self.d])
        object.__setattr__(self, "eval_grid", self.eval_grid
                           or _DEFAULT_EVAL_GRID[self.d])
        if min(self.fit_grid, self.eval_grid) < 2:
            raise ValueError(f"need >= 2 grid points per axis, got fit grid "
                             f"{self.fit_grid}, eval grid {self.eval_grid}")
        ncf = SmoothingConfig(penalty=self.penalty, degree=self.degree,
                              segments=self.segments).coeffs_per_axis
        if self.fit_grid < ncf:
            raise ValueError(f"a fit grid of {self.fit_grid} points per axis "
                             f"cannot determine {ncf} coefficients per axis")

    def build_config(self, n):
        """Every input of the size-n build, the dict the cache hashes and
        names the file by; the build reads its settings from it, and
        prune_tol names the fixed cut of build_lkb_basis."""
        return {"d": self.d, "n": as_size("n", n), "fit_grid": self.fit_grid,
                "degree": self.degree, "penalty": self.penalty,
                "segments": self.segments, "inner_rank": default_rank(self.d),
                "rank_tol": PIPELINE_RANK_TOL, "prune_tol": kb.PRUNE_TOL}

    def basis(self, n):
        """The size-n basis set, loaded or built by get_basis_set."""
        return get_basis_set(self.d, n, cache_dir=self.cache_dir,
                             **{k: getattr(self, k) for k in BUILD_SETTINGS})

    def eval_points(self):
        return PointSet.grid(self.d, self.eval_grid)


@dataclass
class BasisSet:
    """A built pipeline stage: denoised columns sampled on the fit grid,
    plus the pivotal row/column selection."""

    d: int
    n: int
    grid: PointSet
    lkb: object
    matrix: DesignMatrix
    rows: np.ndarray
    cols: np.ndarray

    @property
    def rank(self):
        return len(self.rows)

    @property
    def pivotal_points(self):
        return pivotal_locations(self.grid, self.rows)


def _grid_and_smoothing(cfg):
    """The fit grid and the smoothing settings of one build_config, for a
    build and a cache load alike."""
    return (PointSet.grid(cfg["d"], cfg["fit_grid"]),
            SmoothingConfig(penalty=cfg["penalty"], degree=cfg["degree"],
                            segments=cfg["segments"]))


def _inner_family(d, rank, cache_dir):
    """The (d, rank) inner family: built, or read through the family file
    of cache_dir when one is given (cache.inner_family)."""
    if cache_dir is None:
        return build_inner_family(d, rank)
    os.makedirs(cache_dir, exist_ok=True)
    return cache_io.inner_family(cache_dir, d, rank)


def _build(cfg, cache_dir=None):
    """Full pipeline from one build_config: inner family (through the
    family file of cache_dir, when given) -> raw columns on the grid ->
    prune -> denoise -> numerical rank -> dominant row/column sets."""
    grid, smoothing = _grid_and_smoothing(cfg)
    family = _inner_family(grid.d, cfg["inner_rank"], cache_dir)
    # the raw matrix lives inside build_lkb_basis only: it is freed before
    # the pivot search, which runs next to the kept SVD of W
    lkb = build_lkb_basis(KBBasis(family, n=cfg["n"], degree=cfg["degree"]),
                          grid, smoothing)
    matrix = lkb.sample(grid)
    rows, cols = maxvol_select(matrix, estimate_rank(matrix, cfg["rank_tol"]))
    return BasisSet(d=grid.d, n=cfg["n"], grid=grid, lkb=lkb, matrix=matrix,
                    rows=rows, cols=cols)


def get_basis_set(d, n, cache_dir=None, **settings):
    """The size-n basis set behind a binary cache, one file per
    build_config hash: load when that file exists, rebuild (with a
    warning) when it is stale or corrupt, build uncached when cache_dir is
    None.  The cache keeps the coefficients and the pivots; a load samples
    the matrix again exactly as a build does.  A build in cache_dir reads
    its inner family from the directory's family file, which the first
    build there writes (cache.inner_family).  settings are any of
    BUILD_SETTINGS; a setting that is no build input is refused."""
    stray = settings.keys() - set(BUILD_SETTINGS)
    if stray:
        raise TypeError(f"not basis build settings: {sorted(stray)}")
    config = ExperimentSpec(d=d, n_list=(n,), **settings).build_config(n)
    if cache_dir is None:
        return _build(config)
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_io.cache_path(cache_dir, config)
    if os.path.exists(path):
        grid, smoothing = _grid_and_smoothing(config)
        try:
            blob = cache_io.read_basis_cache(path, config, smoothing)
        except cache_io.CacheMismatch as exc:
            warnings.warn(f"rebuilding stale basis cache: {exc}")
        else:
            return BasisSet(d=config["d"], n=config["n"], grid=grid,
                            lkb=blob["lkb"], matrix=blob["lkb"].sample(grid),
                            rows=blob["rows"], cols=blob["cols"])
    basis = _build(config, cache_dir)
    cache_io.write_basis_cache(path, basis, config)
    return basis


def fit_by_method(basis, func, method, eval_pts, sparsity=None):
    """Fit func's samples on the basis grid by 'dls' (all samples),
    'pivotal' (the pivotal rows only) or 'omp' (sparsity columns, default
    the pivotal rank), then record the RMSE over eval_pts on the fit.  A
    sparsity with any other method is refused, not dropped."""
    if sparsity and method != "omp":
        raise ValueError(f"sparsity applies to method 'omp' only, "
                         f"not {method!r}")
    target = func(basis.grid.points)
    if method == "dls":
        fit = dls_fit(basis.matrix, target)
    elif method == "pivotal":
        fit = pivotal_fit(basis.matrix, basis.rows, basis.cols,
                          target[basis.rows])
    elif method == "omp":
        fit = omp_fit(basis.matrix, target,
                      sparsity=sparsity or basis.rank)
    else:
        raise ValueError(f"unknown method {method!r}")
    evaluate_fit(fit, basis.lkb, eval_pts, func)
    return fit


def run_table_experiment(spec):
    """RMSE table over the registry: one row per function, and per n one
    full-grid column next to one pivotal column whose header carries the
    pivotal sample count.  Returns the CSV text."""
    funcs = registry(spec.d)  # an unregistered d fails before any build
    bases = [spec.basis(n) for n in spec.n_list]
    eval_pts = spec.eval_points()
    header = ["function"]
    for basis, n in zip(bases, spec.n_list):
        for method in TABLE_METHODS:
            count = basis.rank if method == "pivotal" else len(basis.grid)
            header.append(f"{method} n={n} ({count} samples)")
    lines = [",".join(header)]
    for func in funcs:
        cells = [func.fid]
        for basis in bases:
            for method in TABLE_METHODS:
                fit = fit_by_method(basis, func, method, eval_pts)
                cells.append(f"{fit.eval_rmse:.2e}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def estimate_convergence_slope(errors, n_list):
    """Least-squares slope of log error against log n, with the class
    label the slope implies ('K-Lipschitz' at -1 or steeper, K-Hoelder in
    between, 'non-converging' otherwise, 'exact' for zero errors)."""
    errors = np.asarray(errors, dtype=float)
    if len(errors) != len(n_list):
        raise ValueError("need one error per n")
    if len(set(n_list)) < 3:
        raise ValueError("need at least 3 distinct sizes to fit a slope")
    if np.any(errors == 0.0):
        return None, "exact"
    slope = float(np.polyfit(np.log(n_list), np.log(errors), 1)[0])
    if slope <= -1.0:
        label = "K-Lipschitz"
    elif slope < 0.0:
        label = f"K-Hoelder({-slope:.2f})"
    else:
        label = "non-converging"
    return slope, label


def run_slope_experiment(spec, fid, method="pivotal"):
    """Per-n eval RMSE of one function plus the fitted slope; CSV text."""
    func = get_function(spec.d, fid)
    eval_pts = spec.eval_points()
    errors = [fit_by_method(spec.basis(n), func, method, eval_pts).eval_rmse
              for n in spec.n_list]
    slope, label = estimate_convergence_slope(errors, list(spec.n_list))
    lines = ["n,eval_rmse"]
    lines += [f"{n},{e:.3e}" for n, e in zip(spec.n_list, errors)]
    lines.append(f"slope,{'nan' if slope is None else f'{slope:.4f}'}")
    lines.append(f"classification,{label}")
    return "\n".join(lines) + "\n", slope, label, errors


def pivotal_count_experiment(spec):
    """(n, pivotal count) pairs and the log-log growth slope; CSV text."""
    counts = [spec.basis(n).rank for n in spec.n_list]
    if np.any(np.diff(counts) < 0):
        warnings.warn(f"pivotal counts not monotone over n: {counts}")
    slope = None
    if len(spec.n_list) >= 2:
        slope = float(np.polyfit(np.log(spec.n_list), np.log(counts), 1)[0])
    lines = ["n,pivotal_count"]
    lines += [f"{n},{c}" for n, c in zip(spec.n_list, counts)]
    if slope is not None:
        lines.append(f"slope,{slope:.4f}")
    return "\n".join(lines) + "\n", counts, slope


def run_knet_rate(d, profile, n_list, cache_dir=None):
    """Network sup-error against the family superposition of one of
    inner.PROFILES, as CSV.  The default-rank family is read through the
    family file of cache_dir, when given, as a basis build reads it."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"choose from {sorted(PROFILES)}")
    family = _inner_family(d, default_rank(d), cache_dir)
    res = rate_experiment(family, PROFILES[profile], list(n_list))
    lines = ["n,sup_error"]
    lines += [f"{n},{e:.4e}" for n, e in zip(res["n"], res["sup_error"])]
    slope = res["slope"]
    lines.append(f"slope,{'nan' if slope is None else f'{slope:.4f}'}")
    return "\n".join(lines) + "\n", res
