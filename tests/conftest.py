"""Shared brute-force oracles for the test suite.

These helpers deliberately avoid the library's own verification paths:
they read the public tables and town intervals and check properties from
scratch, and they parse and frame cache files by their documented layout.
"""

import hashlib
import struct
from functools import lru_cache

import numpy as np

from kstfit.inner import town_intervals

# the oracles ask for the same intervals once per probed point
town_intervals = lru_cache(maxsize=None)(town_intervals)


def town_value_windows(family, k, q):
    """[phi(left), phi(right)] per rank-k town of family q, via the table."""
    towns = town_intervals(family.d, k, q)
    tab = family.phis[q]
    lo = np.interp(towns[:, 0], tab[:, 0], tab[:, 1])
    hi = np.interp(towns[:, 1], tab[:, 0], tab[:, 1])
    return lo, hi


def cube_image_overlap(family, k, q, exact_cap=300_000):
    """Exhaustive interval-overlap check of all rank-k town-cube images.

    Returns the worst overlap margin: positive values mean two cube images
    intersect; negative values are the smallest clearance found.  Uses the
    exact per-cube interval endpoints when the cube count is within
    exact_cap, otherwise a conservative sorted-lower-bound sweep.
    """
    lo, hi = town_value_windows(family, k, q)
    lam = family.lambdas
    d = family.d
    n_cubes = len(lo) ** d
    if n_cubes < 2:
        return -np.inf
    if n_cubes <= exact_cap:
        lows = lam[0] * lo
        highs = lam[0] * hi
        for i in range(1, d):
            lows = (lows[..., None] + lam[i] * lo).ravel()
            highs = (highs[..., None] + lam[i] * hi).ravel()
        order = np.argsort(lows, kind="stable")
        lows, highs = lows[order], highs[order]
        return float((highs[:-1] - lows[1:]).max())
    lows = lam[0] * lo
    for i in range(1, d):
        lows = (lows[..., None] + lam[i] * lo).ravel()
    lows.sort()
    max_width = float((hi - lo).max()) * float(lam.sum())
    return max_width - float(np.diff(lows).min())


# Town interval endpoints carry a few ulps of rounding; membership in the
# closed intervals is decided with this slack (far below any town width).
EDGE_TOL = 1e-12


def families_missing_at(family, k, x):
    """How many families have coordinate value x outside all rank-k towns."""
    missing = 0
    for q in range(family.n_phi):
        towns = town_intervals(family.d, k, q)
        if not np.any((towns[:, 0] - EDGE_TOL <= x)
                      & (x <= towns[:, 1] + EDGE_TOL)):
            missing += 1
    return missing


def second_derivative_sup(f, res=401):
    """sup-norm of the second-order derivatives of a bivariate f, by
    finite differences on a fine grid."""
    x = np.linspace(0, 1, res)
    h = x[1] - x[0]
    fx, fy = np.meshgrid(x, x, indexing="ij")
    vals = f(fx, fy)
    fxx = np.gradient(np.gradient(vals, h, axis=0), h, axis=0)
    fyy = np.gradient(np.gradient(vals, h, axis=1), h, axis=1)
    fxy = np.gradient(np.gradient(vals, h, axis=0), h, axis=1)
    return max(np.abs(fxx).max(), np.abs(fyy).max(), np.abs(fxy).max())


def thin_plate_energy_of(f, res=401):
    """Quadrature of |fxx|^2 + 2|fxy|^2 + |fyy|^2 for a bivariate f, by
    finite differences; the fitting code never sees this path."""
    x = np.linspace(0, 1, res)
    h = x[1] - x[0]
    fx, fy = np.meshgrid(x, x, indexing="ij")
    vals = f(fx, fy)
    fxx = np.gradient(np.gradient(vals, h, axis=0), h, axis=0)
    fyy = np.gradient(np.gradient(vals, h, axis=1), h, axis=1)
    fxy = np.gradient(np.gradient(vals, h, axis=0), h, axis=1)
    integrand = fxx ** 2 + 2 * fxy ** 2 + fyy ** 2
    return float(np.trapezoid(np.trapezoid(integrand, dx=h, axis=1), dx=h))


def in_town_cube_count(family, k, grid_1d):
    """For each point of the tensor grid, the number of families whose
    rank-k town cubes contain it.  Returns an array of shape (n,)*d."""
    d = family.d
    counts = None
    for q in range(family.n_phi):
        towns = town_intervals(family.d, k, q)
        coord_in = np.array([np.any((towns[:, 0] - EDGE_TOL <= x)
                                    & (x <= towns[:, 1] + EDGE_TOL))
                             for x in grid_1d])
        cube_in = coord_in
        for _ in range(d - 1):
            cube_in = cube_in[..., None] & coord_in
        counts = cube_in.astype(int) if counts is None else counts + cube_in
    return counts


def record_blocks(data):
    """The blocks of the cache file bytes data: magic and format version
    come first, then the block count and each block after its length
    (uint64 each), and a sha256 of all that last."""
    (count,) = struct.unpack("<Q", data[8:16])
    off, blocks = 16, []
    for _ in range(count):
        (size,) = struct.unpack("<Q", data[off:off + 8])
        blocks.append(data[off + 8:off + 8 + size])
        off += 8 + size
    return blocks


def reframed(data, edit):
    """The cache file bytes data with its blocks replaced by
    edit(blocks), under the same magic and version and with the checksum
    of the edited blocks, so that a reader's own checks see the edit."""
    blocks = edit(record_blocks(data))
    body = data[:8] + struct.pack("<Q", len(blocks)) + b"".join(
        struct.pack("<Q", len(b)) + b for b in blocks)
    return body + hashlib.sha256(body).digest()
