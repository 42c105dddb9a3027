"""Binary cache of built basis sets, one file per build configuration.

Layout: magic "LKBC", format version (uint32), a sha256 of the full build
configuration, the kept-column map and the pivotal row and column sets
(each a uint64 length and int64 entries), and finally the coefficient
tensors of the denoised columns as one float64 block, column after
column.  All numbers are little-endian.  The file stores no setting: the
build configuration that its hash covers gives the block's shape and the
smoothing settings, so the reader takes them from its caller.  The
sampled matrix is not stored either: it is one contraction of the
coefficients, recomputed on load.  A bad magic, version or hash
invalidates the file, as do index sets out of order or out of range;
truncated or overlong files are detected by length checks while parsing.
"""

import hashlib
import os
import struct
import uuid

import numpy as np

from .smoothing import LKBBasis

MAGIC = b"LKBC"
FORMAT_VERSION = 4
# Version of the rules that turn a configuration into a basis and its
# pivots (numerical rank, maxvol search).  Part of the configuration hash:
# bump it when those rules change, so that old files are not served.
ALGO_VERSION = 3


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
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(config_hash(build_config))
            for idx in (bs.lkb.kept, bs.rows, bs.cols):
                blob = np.asarray(idx).astype("<i8").tobytes()
                fh.write(struct.pack("<Q", len(blob)))
                fh.write(blob)
            # column after column: no copy for a built or loaded basis
            fh.write(np.ascontiguousarray(bs.lkb.coeffs, "<f8"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_basis_cache(path, build_config, smoothing):
    """Parse a cache file, validating magic, version and configuration
    hash, and that the kept map and the pivots are strictly increasing
    indices in range, with as many rows as columns, and that nothing
    follows the block.  The block holds one (ncf,)*d tensor of smoothing's
    coefficients per kept column, d = build_config["d"]."""
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

    def sized():
        (count,) = struct.unpack("<Q", take(8))
        return take(count)

    if take(4) != MAGIC:
        raise CacheMismatch(f"{path}: bad magic")
    (version,) = struct.unpack("<I", take(4))
    if version != FORMAT_VERSION:
        raise CacheMismatch(f"{path}: format version {version}")
    if take(32) != config_hash(build_config):
        raise CacheMismatch(f"{path}: configuration hash mismatch")
    kept, rows, cols = [np.frombuffer(sized(), "<i8").copy()
                        for _ in range(3)]
    d = build_config["d"]
    for name, idx, bound in (("kept", kept, d * build_config["n"]),
                             ("rows", rows, build_config["fit_grid"] ** d),
                             ("cols", cols, len(kept))):
        if idx.size and (idx[0] < 0 or idx[-1] >= bound
                         or np.any(np.diff(idx) <= 0)):
            raise CacheMismatch(f"{path}: {name} not strictly increasing "
                                f"within [0, {bound})")
    if len(rows) != len(cols):
        raise CacheMismatch(f"{path}: {len(rows)} pivot rows but "
                            f"{len(cols)} columns")
    shape = (len(kept),) + (smoothing.coeffs_per_axis,) * d
    block = np.frombuffer(take(8 * int(np.prod(shape))), "<f8").copy()
    if off != len(data):
        raise CacheMismatch(f"{path}: {len(data) - off} bytes after the "
                            f"coefficient block")
    block.flags.writeable = False  # fresh: sample() hands it on uncopied
    lkb = LKBBasis(coeffs=block.reshape(shape), kept=kept, config=smoothing)
    return {"lkb": lkb, "rows": rows, "cols": cols}
