"""Binary cache of built basis sets, one file per build configuration.

Layout: magic "LKBC", format version, the basic shape parameters, a
sha256 of the full build configuration, the kept-column map, the pivotal
row and column sets, the basis and grid ids, and finally the coefficient
tensors of the denoised columns as one block, column after column.  The
sampled matrix is not stored: it is one contraction of those
coefficients, recomputed on load.  A hash or header mismatch invalidates
the file; truncated files are detected by length checks while parsing.
"""

import hashlib
import os
import struct
import uuid

import numpy as np

from .smoothing import LKBBasis, SmoothingConfig

MAGIC = b"LKBC"
FORMAT_VERSION = 3
# Version of the rules that turn a configuration into a basis and its
# pivots (numerical rank, maxvol search).  Part of the configuration hash:
# bump it when those rules change, so that old files are not served.
ALGO_VERSION = 1


class CacheMismatch(Exception):
    """Raised when a cache file exists but cannot serve this build."""


def config_hash(build_config):
    """sha256 over the canonical text of all build inputs and the
    algorithm version."""
    text = repr((ALGO_VERSION, sorted(build_config.items())))
    return hashlib.sha256(text.encode()).digest()


def cache_path(cache_dir, build_config):
    """File name of one configuration, keyed by its hash, so that
    configurations sharing (d, n) do not overwrite each other."""
    return os.path.join(cache_dir, f"basis-d{build_config['d']}"
                        f"-n{build_config['n']}"
                        f"-{config_hash(build_config).hex()[:16]}.lkbc")


def write_basis_cache(path, basis_set, build_config):
    """Write to a temporary file beside path, then rename it into place, so
    a crash or a concurrent writer never leaves a partial file at path."""
    bs = basis_set
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<IIIII", FORMAT_VERSION, bs.d, bs.n,
                                 bs.lkb.config.degree, bs.fit_grid_per_axis))
            fh.write(config_hash(build_config))
            blobs = [np.asarray(idx).astype("<i8").tobytes()
                     for idx in (bs.lkb.kept, bs.rows, bs.cols)]
            blobs += [bs.lkb.kb_id.encode(), bs.lkb.grid_id.encode()]
            for blob in blobs:
                fh.write(struct.pack("<Q", len(blob)))
                fh.write(blob)
            fh.write(struct.pack("<QII", bs.lkb.n_columns,
                                 bs.lkb.config.segments,
                                 bs.lkb.config.quad_points))
            fh.write(struct.pack("<d", bs.lkb.config.penalty))
            # column after column: no copy for a built or loaded basis
            fh.write(np.ascontiguousarray(np.moveaxis(bs.lkb.coeffs, -1, 0),
                                          "<f8"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_basis_cache(path, build_config):
    """Parse a cache file, validating header and configuration hash."""
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0

    def take(count):
        nonlocal off
        if off + count > len(data):
            raise CacheMismatch(f"{path}: truncated (need {off + count} "
                                f"bytes, file has {len(data)})")
        off += count
        return data[off - count:off]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    def sized():
        (count,) = unpack("<Q")
        return take(count)

    if take(4) != MAGIC:
        raise CacheMismatch(f"{path}: bad magic")
    version, d, n, degree, grid_per_axis = unpack("<IIIII")
    if version != FORMAT_VERSION:
        raise CacheMismatch(f"{path}: format version {version}")
    if take(32) != config_hash(build_config):
        raise CacheMismatch(f"{path}: configuration hash mismatch")
    kept, rows, cols = [np.frombuffer(sized(), "<i8").copy()
                        for _ in range(3)]
    try:
        kb_id, grid_id = [sized().decode() for _ in range(2)]
    except UnicodeDecodeError:
        raise CacheMismatch(f"{path}: ids are not text")
    n_columns, segments, quad_points = unpack("<QII")
    (penalty,) = unpack("<d")
    cfg = SmoothingConfig(penalty=penalty, degree=degree, segments=segments,
                          quad_points=quad_points)
    shape = (n_columns,) + (cfg.coeffs_per_axis,) * d
    block = np.frombuffer(take(8 * int(np.prod(shape))), "<f8").copy()
    block.flags.writeable = False  # fresh: sample() hands it on uncopied
    # the same strides as a built basis, so combine() rounds the same
    lkb = LKBBasis(coeffs=np.moveaxis(block.reshape(shape), 0, -1),
                   kept=kept, config=cfg, kb_id=kb_id, grid_id=grid_id)
    return {"d": d, "n": n, "grid_per_axis": grid_per_axis, "lkb": lkb,
            "rows": rows, "cols": cols}
