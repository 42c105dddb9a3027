"""Monotone inner functions and superposition maps on the unit cube.

The family consists of d weights ``lambda_i`` and 2d+1 strictly increasing
piecewise-linear functions ``phi_q`` on [0,1].  Each phi is built from a
hierarchy of "town" intervals: at rank k, family q covers [0,1] with closed
towns of length 2d*g_k separated by open gaps of length g_k (period
(2d+1)*g_k), family q being family 0 translated by q*g_k.  Gaps of the
2d+1 families tile each period, so any coordinate misses the towns of at
most one family per rank.  Values are assigned so that on every town phi
is nearly constant (a thin value window) and the windows are spread out
enough that the images of distinct town cubes under

    z_q(x) = sum_i lambda_i * phi_q(x_i)

are pairwise disjoint intervals.  Window separation is measured on the
constructed tables (exhaustively up to a size cap, extrapolated beyond)
and the windows are re-tightened until the margin holds.
"""

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# One prime per weight, so these also fix the largest supported dimension.
# d = 5 is the last d whose rank-1 check the tuning loop measures: its
# 12**5 town cubes are within _BUILD_CHECK_CAP, while d = 6 has 14**6 and
# no lower rank to extrapolate the separation from.
_PRIMES = (2, 3, 5, 7, 11)

# Largest number of town cubes (T**d) enumerated inside the tuning loop,
# and the larger cap used by the final verification pass.
_BUILD_CHECK_CAP = 2 ** 21
_FINAL_CHECK_CAP = 2 ** 27
# Above _BUILD_CHECK_CAP sums (only the 3-d final-cap calls) the exhaustive
# check streams them in value slabs of about this many, so its memory stays
# near a slab's and not 8 bytes per sum.  Within the cap it sorts them all
# at once, which takes 0.6x the streamed time on the 2-d calls.
_STREAM_SLAB = 2 ** 20
# The smallest adjacent gap of the sorted sums is taken in chunks of this
# many differences, so no array of all the differences is formed.
_GAP_CHUNK = 2 ** 16
# Safety margin between the widest cube image and the smallest image gap
# (disjointness itself needs > 1; the excess absorbs measurement noise).
_SEP_MARGIN = 1.25
# Smallest admissible value-window increment before float64 ties appear.
_WIDTH_FLOOR = 128.0 * np.finfo(float).eps


def default_rank(d):
    """Deepest construction rank whose value windows fit in float64.

    The cube-image separation shrinks by a factor around (2d+2)**-d per
    rank, so double precision supports rank 4 only up to d = 2.
    """
    if d <= 2:
        return 4
    return 3 if d == 3 else 1


def superposition_weights(d):
    """The d fixed weights: fractional parts of sqrt(p_i), p_i the i-th
    prime, rescaled so the largest weight is just below 1."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d > len(_PRIMES):
        raise ValueError(f"dimension {d} > {len(_PRIMES)} not supported")
    lam = np.array([math.sqrt(p) % 1.0 for p in _PRIMES[:d]])
    return lam * (0.9999 / lam.max())


def gap_width(d, k):
    """Gap length g_k at rank k: g_1 = 1/(2d+1)^2, ratio 1/(2d+2)."""
    return (1.0 / (2 * d + 1) ** 2) * (1.0 / (2 * d + 2)) ** (k - 1)


def town_intervals(d, k, q):
    """Closed town intervals of family q at rank k, clipped to [0,1].

    Returns an (m, 2) array of [left, right] with right - left <= 2d*g_k.
    Boundary towns may be partial, down to single points.
    """
    g = gap_width(d, k)
    period = (2 * d + 1) * g
    length = 2 * d * g
    j_lo = math.floor((-q * g - length) / period)
    j_hi = math.ceil((1.0 - q * g) / period)
    rows = []
    for j in range(j_lo, j_hi + 1):
        lo = q * g + j * period
        hi = lo + length
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        if hi >= lo and lo <= 1.0 and hi >= 0.0:
            rows.append((lo, hi))
    return np.array(rows)


@dataclass(frozen=True)
class InnerFamily:
    """Weights and phi tables of one construction.

    phis[q] is an (m, 2) array of (x, phi(x)) nodes, strictly increasing in
    both columns, with phi(0) = 0 and phi(1) = 1.  The rank-k town
    intervals of family q are town_intervals(d, k, q).
    """

    d: int
    rank: int
    lambdas: np.ndarray
    phis: list = field(repr=False)

    @property
    def n_phi(self):
        return 2 * self.d + 1


def _min_cube_gap(anchors, lambdas, cap=_BUILD_CHECK_CAP, buf=None):
    """Smallest gap between the weighted d-fold sums of the anchors.

    Exhaustive over all len(anchors)**d combinations when that count is
    within cap; returns None when it is not.  Equal sums give gap 0.
    Above _BUILD_CHECK_CAP sums (d >= 2) the check is streamed in value
    slabs, with the same result.  Up to that many sums, or one slab's,
    are written into buf (a float64 array at least as long, allocated
    when None) and sorted there.
    """
    t = len(anchors)
    d = len(lambdas)
    if t == 0 or t ** d > cap:
        return None if t ** d > cap else math.inf
    if d > 1 and t ** d > _BUILD_CHECK_CAP:
        return _streamed_cube_gap(anchors, lambdas, buf)
    sums = np.empty(t ** d) if buf is None else buf[:t ** d]
    # summed weight by weight, the last sum into sums; 0.0 + x is x
    head = np.zeros(1)
    for lam in lambdas[:-1]:
        head = (head[:, None] + lam * anchors).ravel()
    np.add(head[:, None], lambdas[-1] * anchors,
           out=sums.reshape(len(head), t))
    sums.sort()
    return _least_gap(sums)


def _least_gap(sums):
    """Smallest adjacent difference of the sorted sums (inf for fewer
    than two), taken _GAP_CHUNK differences at a time."""
    gap = math.inf
    for lo in range(0, sums.size - 1, _GAP_CHUNK):
        hi = min(lo + _GAP_CHUNK, sums.size - 1)
        gap = min(gap, float((sums[lo + 1:hi + 1] - sums[lo:hi]).min()))
    return gap


def _streamed_cube_gap(anchors, lambdas, buf=None):
    """_min_cube_gap over all d-fold sums (d >= 2) in value slabs of about
    _STREAM_SLAB sums each, so no array holds every sum.

    Every sum is head + w[k]: head one of the sorted (d-1)-fold sums,
    added in _min_cube_gap's order, and w = lambdas[-1] * anchors, so it
    has the same bits as there.  Rounded addition is monotone, so the sums
    of one anchor k that fall in a slab [lo, hi) are one run of the sorted
    heads; searchsorted finds it, widened by a rounding slack, and a
    second searchsorted on the run's sums keeps each sum in exactly one
    slab.  A slab's sums are written into buf (allocated when None or too
    short) and sorted there.  The smallest gap is the least of the gaps
    inside each sorted slab and the gaps across slab edges.
    """
    head = lambdas[0] * anchors
    for lam in lambdas[1:-1]:
        head = (head[:, None] + lam * anchors).ravel()
    head.sort()
    w = lambdas[-1] * anchors
    total = len(head) * len(w)
    # slab edges: quantiles of a strided sample of the sums, each sample
    # sum standing for `stride` sums
    nslab = -(-total // _STREAM_SLAB)
    stride = max(1, total // (64 * nslab * len(w)))
    sample = (head[::stride, None] + w).ravel()
    sample.sort()
    edges = np.unique(sample[len(sample) * np.arange(1, nslab) // nslab])
    bounds = np.concatenate([[-np.inf], edges, [np.inf]])
    slack = 8.0 * np.finfo(float).eps * (np.abs(head).max()
                                         + np.abs(w).max())
    best, last = math.inf, -math.inf
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        start = np.searchsorted(head, lo - w - slack)
        stop = np.searchsorted(head, hi - w + slack, side="right")
        need = int((stop - start).sum())
        out = buf if buf is not None and len(buf) >= need else np.empty(need)
        size = 0
        for k in np.flatnonzero(stop > start):
            run = np.add(head[start[k]:stop[k]], w[k],
                         out=out[size:size + stop[k] - start[k]])
            a, b = np.searchsorted(run, (lo, hi))
            out[size:size + b - a] = run[a:b]
            size += b - a
        if size:
            sums = out[:size]
            sums.sort()
            best = min(best, float(sums[0] - last), _least_gap(sums))
            last = sums[-1]
    return best


def _run_sums(values, groups, n):
    """Sum of each cell's run of values, where groups pairs an array of
    cell numbers with the (cells, count) index matrix of their runs.  Runs
    of one length are summed as the rows of one 2-D array, which uses the
    pairwise kernel of ndarray.sum, so each sum has the bits of
    values[run].sum()."""
    out = np.zeros(n)
    for cells, idx in groups:
        out[cells] = values[idx].sum(axis=1)
    return out


def _run_groups(counts):
    """The groups of _run_sums for consecutive runs counts[c] long."""
    first = np.cumsum(counts) - counts
    groups = []
    for p in np.unique(counts[counts > 0]):
        cells = np.flatnonzero(counts == p)
        groups.append((cells, first[cells, None] + np.arange(p)))
    return groups


@dataclass(frozen=True)
class _Level:
    """The rank-k split of every rank-k cell into its town and gap pieces.

    parent[p] is the cell piece p lies in; the pieces of one level are
    the cells of the next.  glen is a piece's length and rise the length
    of a gap piece not covered by any deeper town (0 for towns).  Per
    cell, rises says whether there is rise to spread the budget over,
    rise_sum and glen_sum are the sums the budget is split by."""

    parent: np.ndarray
    is_town: np.ndarray
    glen: np.ndarray
    rise: np.ndarray
    groups: list
    rises: np.ndarray
    rise_sum: np.ndarray
    glen_sum: np.ndarray


@dataclass(frozen=True)
class _WidthPlan:
    """The town/gap cell tree of one phi, which depends on the segment
    lengths and unit ids only: one _Level per rank, then the bottom cell
    of each final segment and the length of that cell."""

    levels: list
    lengths: np.ndarray
    bottom: np.ndarray
    bottom_len: np.ndarray


def _width_plan(lengths, unit_ids):
    """Walk the rank hierarchy top-down once.  Cells partition the
    segments at every rank, so the rank-k pieces are the segment runs cut
    at a cell boundary or where the rank-k unit changes."""
    nseg, rank = unit_ids.shape
    len_cum = np.concatenate([[0.0], np.cumsum(lengths)])
    bounds = np.array([0, nseg])
    levels = []
    for k in range(rank):
        ids = unit_ids[:, k]
        cuts = np.union1d(bounds, np.flatnonzero(ids[1:] != ids[:-1]) + 1)
        starts, ends = cuts[:-1], cuts[1:]
        ncell = len(bounds) - 1
        parent = np.searchsorted(bounds, starts, side="right") - 1
        is_town = ids[starts] % 2 == 1
        glen = len_cum[ends] - len_cum[starts]
        # length free of towns at ranks deeper than k
        deeper = (unit_ids[:, k + 1:] % 2 == 1).any(axis=1)
        rc = np.concatenate([[0.0], np.cumsum(np.where(deeper, 0.0,
                                                       lengths))])
        rise = np.where(is_town, 0.0, rc[ends] - rc[starts])
        gap = ~is_town
        rise_sum = _run_sums(rise[gap], _run_groups(
            np.bincount(parent[gap], minlength=ncell)), ncell)
        groups = _run_groups(np.bincount(parent, minlength=ncell))
        rises = rise_sum > 0.0
        levels.append(_Level(
            parent=parent, is_town=is_town, glen=glen, rise=rise,
            groups=groups, rises=rises,
            rise_sum=np.where(rises, rise_sum, 1.0),
            glen_sum=_run_sums(glen, groups, ncell)))
        bounds = cuts
    bottom = np.searchsorted(bounds, np.arange(nseg), side="right") - 1
    return _WidthPlan(levels=levels, lengths=lengths, bottom=bottom,
                      bottom_len=len_cum[bounds[1:]] - len_cum[bounds[:-1]])


def _assign_widths(plan, town_caps, town_lens):
    """Distribute a unit value budget over the final segments.

    Walks the rank hierarchy of the plan top-down, one level at a time.
    Within a cell, rank-k town pieces receive thin windows drawn from the
    global per-town budget (town_caps[k] per full town of length
    town_lens[k], prorated), and the remaining budget flows to gap pieces
    proportional to their rise capacity: the length not covered by any
    deeper-rank town.  Full gaps between sibling towns have identical
    capacity, so sibling anchors fall on local arithmetic progressions,
    which keeps the weighted cube sums spread out instead of collapsing
    birthday-style.  A cell without rise splits its budget by length; a
    gap piece without rise gets no budget and passes none down.
    """
    w = np.ones(1)
    for k, lv in enumerate(plan.levels):
        ncell, up = len(w), lv.parent
        piece_w = np.where(lv.is_town, town_caps[k] * lv.glen / town_lens[k],
                           0.0)
        tw_sum = _run_sums(piece_w, lv.groups, ncell)
        # towns may take at most half of a cell that has rise
        crowded = lv.rises & (tw_sum > 0.5 * w)
        if crowded.any():
            scale = np.ones(ncell)
            scale[crowded] = 0.5 * w[crowded] / tw_sum[crowded]
            piece_w *= scale[up]
            tw_sum = _run_sums(piece_w, lv.groups, ncell)
        gap_w = (w - tw_sum)[up] * lv.rise / lv.rise_sum[up]
        by_len = w[up] * lv.glen / lv.glen_sum[up]
        w = np.where(lv.rises[up], np.where(lv.is_town, piece_w, gap_w),
                     by_len)
    # bottom: spread across the final segments of each piece
    return w[plan.bottom] * plan.lengths / plan.bottom_len[plan.bottom]


def _segments(d, rank, q):
    """The rank-1..rank towns of family q, the sorted edges of the final
    segments they cut [0,1] into, and unit_ids[s, k-1]: which rank-k
    town/gap unit segment s falls in, encoded so odd values mean "inside
    a town"."""
    towns_per_rank = [town_intervals(d, k, q) for k in range(1, rank + 1)]
    flat_per_rank = [t.ravel() for t in towns_per_rank]
    edges = np.unique(np.concatenate([np.array([0.0, 1.0])] + flat_per_rank))
    mids = 0.5 * (edges[:-1] + edges[1:])
    unit_ids = np.empty((len(mids), rank), dtype=np.int64)
    for k in range(rank):
        unit_ids[:, k] = np.searchsorted(flat_per_rank[k], mids, side="right")
    return towns_per_rank, edges, unit_ids


def _build_phi(d, rank, q, lambdas, buf):
    """Construct one phi table; RuntimeError when the value windows cannot
    be made disjoint in float64.  buf is the sums buffer of its cube-gap
    checks (_min_cube_gap)."""
    towns_per_rank, edges, unit_ids = _segments(d, rank, q)
    lengths = np.diff(edges)
    plan = _width_plan(lengths, unit_ids)

    # Node index of each town's endpoints in the edge array (exact floats).
    li = [np.searchsorted(edges, t[:, 0]) for t in towns_per_rank]
    ri = [np.searchsorted(edges, t[:, 1]) for t in towns_per_rank]

    lam_sum = float(lambdas.sum())
    town_lens = [2 * d * gap_width(d, k) for k in range(1, rank + 1)]

    too_deep = (f"could not assign disjoint value windows for family q={q} "
                f"(d={d}, rank={rank}); refinement too deep for float64")

    # Per-rank budget of one full town's value window.
    caps = np.array([0.02 / (3.0 * lam_sum * (2 * d + 2)) ** (k - 1)
                     for k in range(1, rank + 1)])

    def solve(cap):
        widths = _assign_widths(plan, caps, town_lens)
        widths = np.where(lengths > 0, np.maximum(widths, _WIDTH_FLOOR), 0.0)
        vals = np.concatenate([[0.0], np.cumsum(widths)])
        vals /= vals[-1]
        vals[-1] = 1.0
        # Separation and widest window per rank.  Ranks whose cube count
        # exceeds cap get a separation extrapolated by the last measured
        # per-rank shrink ratio (pigeonhole-like decay).
        report = []
        seps = []
        for k in range(rank):
            anchors = vals[li[k]]
            maxw = float((vals[ri[k]] - anchors).max())
            sep = _min_cube_gap(anchors, lambdas, cap=cap, buf=buf)
            measured = sep is not None
            if not measured:
                ratio = seps[-1] / seps[-2] if len(seps) >= 2 else 1e-4
                sep = seps[-1] * min(ratio, 1.0)
            seps.append(sep)
            report.append((sep, maxw, measured))
        return vals, report

    def tighten(report):
        """Shrink caps of crowded ranks; raise when a measured crowded rank
        already sits on the float64 floor and cannot be thinned further."""
        for k, (sep, maxw, measured) in enumerate(report):
            if maxw * lam_sum * _SEP_MARGIN > sep:
                if caps[k] <= _WIDTH_FLOOR:
                    if measured:
                        raise RuntimeError(too_deep)
                    continue
                caps[k] = max(caps[k] * 0.9 * sep
                              / (_SEP_MARGIN * lam_sum * maxw),
                              0.5 * _WIDTH_FLOOR)

    for _ in range(10):
        vals, report = solve(_BUILD_CHECK_CAP)
        bad = [k for k, (sep, maxw, _) in enumerate(report)
               if maxw * lam_sum * _SEP_MARGIN > sep]
        if not bad:
            break
        tighten(report)
    # Verify exhaustively at the larger cap (this is what decides for
    # ranks the tuning loop could only extrapolate).  A last tuning pass
    # that measured every rank and found none crowded has decided already:
    # the larger cap would recompute the same anchors and gaps.
    if bad or not all(measured for _, _, measured in report):
        for _ in range(4):
            vals, report = solve(_FINAL_CHECK_CAP)
            bad = [k for k, (sep, maxw, measured) in enumerate(report)
                   if measured and maxw * lam_sum * _SEP_MARGIN > sep]
            if not bad:
                break
            tighten(report)
    if bad or not (np.all(np.diff(vals) > 0.0)
                   and np.all(np.diff(edges) > 0.0)):
        raise RuntimeError(too_deep)
    return np.column_stack([edges, vals])


def _release_freed_heap():
    """Return the free memory of every allocator arena to the system where
    the C library can (glibc's malloc_trim).  What a worker thread frees
    stays in its arena otherwise, out of reach of the caller's later
    allocations: a cold 3-d n=100 build then peaked 36 MB higher."""
    import ctypes
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


@lru_cache(maxsize=8)
def _build_cached(d, rank):
    """The 2d+1 phi tables, built on min(2d+1, usable cores) threads; each
    phi is independent and its sorts release the GIL, so the tables have
    the bits of a serial build.  Each worker checks into one sums buffer,
    allocated here and handed out through a queue, so concurrent checks
    hold no more than those buffers.  The first failure (in q order) is
    raised, and no phi starts after one has failed."""
    import queue
    import threading
    from concurrent.futures import ThreadPoolExecutor

    lambdas = superposition_weights(d)
    n_phi = 2 * d + 1
    # the cores this process may run on (all, without an affinity call)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(n_phi, cores)
    towns = max(len(town_intervals(d, rank, q)) for q in range(n_phi))
    bufs = queue.SimpleQueue()
    for _ in range(workers):
        bufs.put(np.empty(min(_BUILD_CHECK_CAP, towns ** d)))
    failed = threading.Event()

    def build(q):
        if failed.is_set():
            return None  # never read: an earlier phi raises first
        buf = bufs.get()
        try:
            return _build_phi(d, rank, q, lambdas, buf)
        except BaseException:
            failed.set()
            raise
        finally:
            bufs.put(buf)

    # map reads the results in q order and cancels the unstarted rest
    # when one raises
    try:
        with ThreadPoolExecutor(workers) as pool:
            phis = list(pool.map(build, range(n_phi)))
    finally:
        _release_freed_heap()
    return InnerFamily(d=d, rank=rank, lambdas=lambdas, phis=phis)


def build_inner_family(d, rank=None):
    """Build the weight/phi family for dimension d at construction depth
    ``rank`` (default: default_rank(d)).  Deterministic: identical
    (d, rank) give identical tables.

    Raises ValueError for a d outside 1..5 or when the rank-``rank``
    towns are too narrow for float64, RuntimeError when no admissible
    value assignment is found.
    """
    if rank is None:
        rank = default_rank(d)
    check_construction(d, rank)
    return _build_cached(d, rank)


def check_construction(d, rank):
    """ValueError for a (d, rank) that build_inner_family refuses."""
    superposition_weights(d)  # refuses a d outside 1..5
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if 2 * d * gap_width(d, rank) < 1e-14:
        raise ValueError(
            f"rank {rank} towns are narrower than 1e-14; construction "
            f"would underflow double precision")


def coordinate_terms(x, d, f):
    """The terms f(i, t) of an inner sum over the coordinates i of the
    points x, each laid out to broadcast to the points, and the shape of
    one value per point.

    x is a (..., d) array, or a PointSet.  For an array (and a PointSet
    off a grid) t is x[..., i] and the values have shape x.shape[:-1].
    On a grid (grid_axes set) t is the i-th axis, so f runs once per axis
    coordinate, not once per point; its result lies along axis i of the
    grid's (n_1, ..., n_d) shape, which ravels to the (N,) values in the
    grid's point order.  ValueError for a point that is not d-dimensional
    or not in the unit cube, NaN included.
    """
    axes = getattr(x, "grid_axes", None)
    if axes is None:
        xa = np.asarray(getattr(x, "points", x), dtype=float)
        coords = [xa[..., i] for i in range(xa.shape[-1] if xa.ndim else 0)]
        shape = xa.shape[:-1]
    else:
        coords = [np.asarray(a, dtype=float) for a in axes]
        xa = np.concatenate(coords)
        shape = (math.prod(len(a) for a in coords),)
    if len(coords) != d:
        raise ValueError(f"expected last axis of size {d}")
    if not ((xa >= 0.0) & (xa <= 1.0)).all():  # NaN fails too
        raise ValueError("point outside the unit cube")
    terms = [f(i, t) for i, t in enumerate(coords)]
    if axes is not None:
        terms = [np.reshape(v, (-1,) + (1,) * (d - 1 - i))
                 for i, v in enumerate(terms)]
    return terms, shape


def eval_z(family, q, x):
    """z_q(x) = sum_i lambda_i phi_q(x_i) at the points x of
    coordinate_terms: shape (d,), (..., d) or a PointSet, evaluated axis
    by axis on a grid.  The result drops the last axis, and is (N,) for a
    PointSet.
    """
    table = family.phis[q]
    terms, shape = coordinate_terms(
        x, family.d, lambda i, t: np.interp(t, table[:, 0], table[:, 1]))
    # the phi values gathered per point, so the weighted sum is one product
    vals = np.stack(np.broadcast_arrays(*terms), axis=-1)
    out = vals.reshape(shape + (family.d,)) @ family.lambdas
    return float(out) if out.ndim == 0 else out


def forward_superpose(family, g, x):
    """sum_q g(z_q(x)) at the points x of eval_z; g must accept float
    arrays on [0, d]."""
    acc = None
    for q in range(family.n_phi):
        term = np.asarray(g(eval_z(family, q, x)), dtype=float)
        acc = term if acc is None else acc + term
    return float(acc) if acc.ndim == 0 else acc


# Univariate outer profiles g(t) on [0, d], by name.
PROFILES = {
    "linear": lambda t: t,
    "sin": np.sin,
    "sqrt": np.sqrt,
    "exp": lambda t: np.exp(-t),
    "chirp": lambda t: np.sin(t * t / 2.0),
}
