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

Beside the basis files lives one inner-family file per (d, rank), in the
format of inner.family_bytes, so a directory builds and verifies each
family once.  It is named by a hash of (d, rank, ALGO_VERSION), the
version that also keys the basis files, so one bump re-keys both.  A file that fails load_inner_family's
checks (checksum, weights, monotone tables from (0, 0) to (1, 1)) is a
miss: it is rebuilt and rewritten with a warning.  Both kinds of file are
written to a temporary file, fsynced and renamed into place.
"""

import hashlib
import os
import struct
import uuid
import warnings

import numpy as np

from . import inner
from .smoothing import LKBBasis

MAGIC = b"LKBC"
FORMAT_VERSION = 4
# Version of the rules that turn a configuration into a basis and its
# pivots (inner family, numerical rank, maxvol search).  Part of the
# configuration hash and of the family file's key: bump it when those
# rules change, so that old files are not served.
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


def _write_atomic(path, chunks):
    """Write the byte chunks to a temporary file beside path, fsync it,
    then rename it into place, so a crash or a concurrent writer never
    leaves a partial file at path."""
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_basis_cache(path, basis_set, build_config):
    """Write the basis set's file through _write_atomic."""
    bs = basis_set

    def chunks():
        yield MAGIC
        yield struct.pack("<I", FORMAT_VERSION)
        yield config_hash(build_config)
        for idx in (bs.lkb.kept, bs.rows, bs.cols):
            blob = np.asarray(idx).astype("<i8").tobytes()
            yield struct.pack("<Q", len(blob))
            yield blob
        # column after column: no copy for a built or loaded basis
        yield np.ascontiguousarray(bs.lkb.coeffs, "<f8")

    _write_atomic(path, chunks())


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


def family_path(cache_dir, d, rank):
    """File name of the (d, rank) inner family, keyed by a hash of (d,
    rank, ALGO_VERSION)."""
    key = hashlib.sha256(repr((d, rank, ALGO_VERSION)).encode())
    return os.path.join(cache_dir,
                        f"inner-d{d}-r{rank}-{key.hexdigest()[:16]}.ksti")


def inner_family(cache_dir, d, rank):
    """The (d, rank) inner family of cache_dir: loaded from its file when
    that passes load_inner_family's checks, else built by
    build_inner_family and written (with a warning for a bad file)."""
    path = family_path(cache_dir, d, rank)
    if os.path.exists(path):
        try:
            family = inner.load_inner_family(path)
            if (family.d, family.rank) != (d, rank):
                raise ValueError(f"{path}: holds d={family.d}, "
                                 f"rank={family.rank}")
        except ValueError as exc:
            warnings.warn(f"rebuilding inner-family file: {exc}")
        else:
            return family
    family = inner.build_inner_family(d, rank)
    _write_atomic(path, [inner.family_bytes(family)])
    return family
