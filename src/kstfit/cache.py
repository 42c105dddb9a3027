"""Binary cache of built basis sets and of the inner families they are
built from: the one module that knows their layout on disk.

Both kinds of file are records of one framing: a magic (b"LKBC" for a
basis, b"KSTI" for a family), FORMAT_VERSION (uint32), the block count
and each block after its byte length (uint64), and a sha256 of all that
last; every number is little-endian, and every block a multiple of 8
bytes, so each starts 8-byte aligned.  A record is hashed while it streams
into a temporary file, which is fsynced and renamed into place.  A read
checks magic and version first, so a file of an older layout is refused
by its version, then the length and the checksum, and hands out
read-only views of the one buffer it read.  A file that fails a check
raises CacheMismatch, and get_basis_set or inner_family rebuild and
rewrite it with a warning.

A basis file holds [configuration hash, kept-column map, pivotal rows,
pivotal columns, coefficients], the coefficient tensors of the kept
columns as one float64 block, column after column.  It stores no
setting: the build configuration that its hash covers gives the block's
shape and the smoothing settings.  The sampled matrix is not stored
either; a load resamples it.  Beside the basis files lives one
inner-family file per (d, rank), holding [d and rank, the weights,
phi_0 ... phi_2d], so a directory builds and verifies each family once.
It is named by a hash of (d, rank, ALGO_VERSION), the version that also
keys the basis files, so one bump re-keys both.
"""

import hashlib
import os
import struct
import uuid
import warnings

import numpy as np

from . import inner
from .smoothing import LKBBasis

BASIS_MAGIC = b"LKBC"
FAMILY_MAGIC = b"KSTI"
FORMAT_VERSION = 5
# Version of the rules that turn a configuration into a basis and its
# pivots (inner family, numerical rank, maxvol search).  Part of the
# configuration hash and of the family file's key: bump it when those
# rules change, so that old files are not served.
ALGO_VERSION = 3


class CacheMismatch(ValueError):
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


def _write_record(path, magic, blocks):
    """Write the blocks (C-contiguous buffers) as one record at path,
    through a temporary file beside it that is fsynced and renamed into
    place; on any failure the temporary file is removed."""
    digest = hashlib.sha256()
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            parts = [magic, struct.pack("<IQ", FORMAT_VERSION, len(blocks))]
            for block in blocks:
                parts += [struct.pack("<Q", memoryview(block).nbytes), block]
            for part in parts:
                digest.update(part)
                fh.write(part)
            fh.write(digest.digest())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_record(path, magic):
    """The blocks of the record at path, as read-only memoryviews of one
    aligned buffer; CacheMismatch for a bad magic, version, length or
    checksum."""
    data = np.fromfile(path, np.uint8)
    data.flags.writeable = False
    data, off = memoryview(data), 0

    def take(count):
        nonlocal off
        if off + count > len(data):
            raise CacheMismatch(f"{path}: truncated at {len(data)} bytes")
        off += count
        return data[off - count:off]

    if take(4) != magic:
        raise CacheMismatch(f"{path}: bad magic, not a {magic.decode()} "
                            f"file")
    (version,) = struct.unpack("<I", take(4))
    if version != FORMAT_VERSION:
        raise CacheMismatch(f"{path}: format version {version}, this "
                            f"reader takes {FORMAT_VERSION}")
    (count,) = struct.unpack("<Q", take(8))
    blocks = [take(struct.unpack("<Q", take(8))[0]) for _ in range(count)]
    digest = take(32)
    if off != len(data):
        raise CacheMismatch(f"{path}: {len(data) - off} trailing bytes")
    if hashlib.sha256(data[:-32]).digest() != digest:
        raise CacheMismatch(f"{path}: checksum mismatch")
    return blocks


def write_basis_cache(path, basis_set, build_config):
    """Write the basis set's record; the coefficient block is the
    basis's own array, not a copy, for a built or loaded basis."""
    bs = basis_set
    _write_record(path, BASIS_MAGIC, [config_hash(build_config)] + [
        np.asarray(idx).astype("<i8") for idx in (bs.lkb.kept, bs.rows,
                                                   bs.cols)]
        + [np.ascontiguousarray(bs.lkb.coeffs, "<f8")])


def read_basis_cache(path, build_config, smoothing):
    """Read a basis record, checking that its hash is build_config's, the
    kept map and the pivots strictly increasing indices in range, with as
    many rows as columns, and the last block one (ncf,)*d tensor of
    smoothing's coefficients per kept column, d = build_config["d"]."""
    digest, kept, rows, cols, coeffs = _read_record(path, BASIS_MAGIC)
    if digest != config_hash(build_config):
        raise CacheMismatch(f"{path}: configuration hash mismatch")
    kept, rows, cols = [np.frombuffer(b, "<i8") for b in (kept, rows, cols)]
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
    if len(coeffs) != 8 * int(np.prod(shape)):
        raise CacheMismatch(f"{path}: a coefficient block of {len(coeffs)} "
                            f"bytes, not of shape {shape}")
    coeffs = np.frombuffer(coeffs, "<f8").reshape(shape)
    lkb = LKBBasis(coeffs=coeffs, kept=kept, config=smoothing)
    return {"lkb": lkb, "rows": rows, "cols": cols}


def save_inner_family(family, path):
    """Write the family's record to path."""
    _write_record(path, FAMILY_MAGIC, [
        struct.pack("<II", family.d, family.rank),
        np.ascontiguousarray(family.lambdas, "<f8")]
        + [np.ascontiguousarray(t, "<f8") for t in family.phis])


def load_inner_family(path):
    """Read a family written by save_inner_family, its tables as they are
    (they must match what build_inner_family would produce), as read-only
    arrays.  Besides the record's own checks, CacheMismatch for a d or
    rank that build_inner_family refuses, weights that are not
    superposition_weights(d) bit for bit, or a table that does not rise
    strictly from (0, 0) to (1, 1)."""
    blocks = _read_record(path, FAMILY_MAGIC)
    d, rank = struct.unpack("<II", blocks[0])
    try:
        inner.check_construction(d, rank)
    except ValueError as exc:
        raise CacheMismatch(f"{path}: {exc}") from None
    if blocks[1] != inner.superposition_weights(d).astype("<f8").tobytes():
        raise CacheMismatch(f"{path}: weights are not "
                            f"superposition_weights({d})")
    phis = [np.frombuffer(b, "<f8").reshape(-1, 2) for b in blocks[2:]]
    for q, table in enumerate(phis):
        if not (len(table) >= 2 and np.all(np.diff(table, axis=0) > 0.0)
                and table[0].tolist() == [0.0, 0.0]
                and table[-1].tolist() == [1.0, 1.0]):
            raise CacheMismatch(f"{path}: table {q} does not rise strictly "
                                f"from (0, 0) to (1, 1)")
    return inner.InnerFamily(d=d, rank=rank,
                             lambdas=np.frombuffer(blocks[1], "<f8"),
                             phis=phis)


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
            family = load_inner_family(path)
            if (family.d, family.rank) == (d, rank):
                return family
            raise CacheMismatch(f"{path}: holds d={family.d}, "
                                f"rank={family.rank}")
        except CacheMismatch as exc:
            warnings.warn(f"rebuilding inner-family file: {exc}")
    family = inner.build_inner_family(d, rank)
    save_inner_family(family, path)
    return family
