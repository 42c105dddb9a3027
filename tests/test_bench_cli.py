import errno
import gc
import hashlib
import json
import os
import shutil
import struct
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy import linalg as sla

from conftest import record_blocks, reframed
from kstfit import bench, cli, inner, smoothing
from kstfit.bench import (
    ExperimentSpec,
    estimate_convergence_slope,
    fit_by_method,
    get_basis_set,
    pivotal_count_experiment,
    run_knet_rate,
    run_slope_experiment,
    run_table_experiment,
)
from kstfit.cache import CacheMismatch, cache_path, config_hash, \
    family_path, inner_family, read_basis_cache, save_inner_family, \
    write_basis_cache
from kstfit.fitting import dls_fit, omp_fit
from kstfit.kb import DesignMatrix
from kstfit.pivotal import pivotal_fit
from kstfit.smoothing import SmoothingConfig
from kstfit.testfuncs import get as get_function, registry


def hand_coded(d):
    """Independent duplicates of the benchmark formulas."""
    if d == 2:
        return {
            "f1": lambda p: 1 / 6 + p[:, 0] / 3 + p[:, 1] / 2,
            "f2": lambda p: 0.5 * p[:, 0] * p[:, 0] + 0.5 * p[:, 1] * p[:, 1],
            "f3": lambda p: np.prod(p, axis=1),
            "f4": lambda p: 0.5 * (p[:, 0] ** 3 + p[:, 1] ** 3),
            "f5": lambda p: (1 + p[:, 0] ** 2 + p[:, 1] ** 2) ** -1.0,
            "f6": lambda p: np.cos((1 + p[:, 0] * p[:, 1]) ** -1.0),
            "f7": lambda p: np.sin(2 * np.pi * p[:, 0] + 2 * np.pi * p[:, 1]),
            "f8": lambda p: 0.5 * (np.cos(np.pi * (p[:, 0] - p[:, 1]))
                                   - np.cos(np.pi * (p[:, 0] + p[:, 1]))),
            "f9": lambda p: np.exp(-p[:, 0] ** 2) * np.exp(-p[:, 1] ** 2),
            "f10": lambda p: (np.clip(p[:, 0] - 0.5, 0, None)
                              * np.clip(p[:, 1] - 0.5, 0, None)),
        }
    return {
        "f1": lambda p: 0.1 + 0.2 * p[:, 0] + 0.3 * p[:, 1] + 0.4 * p[:, 2],
        "f2": lambda p: (p ** 2).sum(axis=1) / 3,
        "f3": lambda p: (p[:, 0] * p[:, 1] + p[:, 1] * p[:, 2]
                         + p[:, 2] * p[:, 0]) / 3,
        "f4": lambda p: 0.5 * p[:, 1] ** 3 * (p[:, 0] ** 3 + p[:, 2] ** 3),
        "f5": lambda p: p.sum(axis=1) / (1 + (p ** 2).sum(axis=1)),
        "f6": lambda p: np.cos(1 / (1 + np.prod(p, axis=1))),
        "f7": lambda p: np.sin(2 * np.pi * p.sum(axis=1)),
        "f8": lambda p: np.prod(np.sin(np.pi * p), axis=1),
        "f9": lambda p: np.exp(-(p ** 2).sum(axis=1)),
        "f10": lambda p: np.prod(np.clip(p - 0.5, 0, None), axis=1),
    }


@pytest.mark.parametrize("d", [2, 3])
def test_registry_matches_hand_coded_duplicates(d):
    funcs = registry(d)
    assert [f.fid for f in funcs] == [f"f{i}" for i in range(1, 11)]
    pts = np.random.default_rng(0).random((100, d))
    dup = hand_coded(d)
    for f in funcs:
        assert np.allclose(f(pts), dup[f.fid](pts), atol=1e-13), f.fid


def test_registry_function_refuses_a_wrong_last_axis():
    """A 3-d stack once lost its third coordinate in a 2-d function; the
    closed forms stay defined off the cube."""
    f = registry(2)[2]
    with pytest.raises(ValueError, match="last axis"):
        f(np.full((4, 3), 0.5))
    with pytest.raises(ValueError, match="last axis"):
        f(0.5)
    assert f(np.array([2.0, -3.0])) == -6.0


def test_slope_examples():
    slope, label = estimate_convergence_slope([1e-2, 5e-3, 2.5e-3],
                                              [100, 200, 400])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert label == "K-Lipschitz"

    n = np.array([100, 400, 1600])
    slope, label = estimate_convergence_slope(3.0 / np.sqrt(n), n)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert label == "K-Hoelder(0.50)"

    slope, label = estimate_convergence_slope([0.0, 0.0, 0.0], [1, 2, 3])
    assert slope is None and label == "exact"

    slope, label = estimate_convergence_slope([1.0, 1.1, 1.2], [1, 2, 3])
    assert label == "non-converging"

    with pytest.raises(ValueError):
        estimate_convergence_slope([1e-2, 5e-3], [100, 200])


def test_build_takes_one_svd_of_the_rank_factor(monkeypatch):
    """The rank, the maxvol guard and every DLS fit read the one SVD that
    the sampled matrix keeps, so a cold build and its fits factor W
    once."""
    calls = []

    def counting(svd):
        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)
        return counted

    for module in (np.linalg, sla):
        monkeypatch.setattr(module, "svd", counting(module.svd))
    basis = get_basis_set(2, 100)
    for c in range(5):
        dls_fit(basis.matrix, np.cos(c * basis.grid.points[:, 0]))
    assert calls == [basis.matrix.rank_factor().shape]


# sha256 of the 2-d n=100 pivot rows then columns (little-endian int64)
# and of its default table CSV; the same under 1 and 2 OpenBLAS threads
# and under the Prescott, Sandybridge, Haswell and SkylakeX kernels
_PIVOTS_2D_N100_SHA256 = \
    "cf15e318be4cf4d2844bfcc86c3bf724742e21b852dec2c93b1f39253f3b5608"
_TABLE_2D_N100_SHA256 = \
    "3242a9b2a6d85fe3346437ca78542435a83447416883a6b552f812c4a4edc287"


def test_2d_n100_pivots_and_table_keep_their_bytes():
    """The same-numbers gate: a change meant to keep the numbers keeps the
    52 pivots and the table text byte for byte."""
    spec = ExperimentSpec(d=2, n_list=(100,))
    basis = spec.basis(100)
    assert basis.rank == 52
    pivots = np.concatenate([basis.rows, basis.cols]).astype("<i8")
    assert hashlib.sha256(pivots.tobytes()).hexdigest() \
        == _PIVOTS_2D_N100_SHA256
    table = run_table_experiment(spec)
    assert "pivotal n=100 (52 samples)" in table
    assert hashlib.sha256(table.encode()).hexdigest() == _TABLE_2D_N100_SHA256


# sha256 of the 2-d n=1000 pivot rows then columns (little-endian int64)
# and of the table CSV of n = 100 and 1000; the same under 1 and 2
# OpenBLAS threads and on one core
_PIVOTS_2D_N1000_SHA256 = \
    "a1f928cb4cbea3128d7a04a36c88c6bf3fda571c0a0bc409425ef9818601e836"
_TABLE_2D_N1000_SHA256 = \
    "a0ae95c97e6c6ca89b690d5f8f356390bad86e29665b9447fc1b99505e793001"


def test_2d_n1000_pivots_and_table_keep_their_bytes(tmp_path):
    """The same-numbers gate of the six complete-pivot starts on a matrix
    wider than its grid (1681 x 1458): a cold build keeps the 71 pivots,
    and the table, which reads that build back from the cache, keeps its
    text byte for byte."""
    spec = ExperimentSpec(d=2, n_list=(100, 1000), cache_dir=str(tmp_path))
    basis = spec.basis(1000)
    assert basis.rank == 71
    assert "values" not in basis.matrix.__dict__
    pivots = np.concatenate([basis.rows, basis.cols]).astype("<i8")
    assert hashlib.sha256(pivots.tobytes()).hexdigest() \
        == _PIVOTS_2D_N1000_SHA256
    table = run_table_experiment(spec)
    assert "pivotal n=1000 (71 samples)" in table
    assert hashlib.sha256(table.encode()).hexdigest() \
        == _TABLE_2D_N1000_SHA256


def test_a_cold_build_never_forms_the_sampled_matrix(monkeypatch):
    """The pivot search writes M from the factors into one N x m buffer
    before each complete-pivot start, which overwrites it, and once more
    for the sweeps: a cold build runs with the forming of M refused, and
    the search holds no second N x m array."""
    buffers, peaks = [], []
    write, select = DesignMatrix.write_values, bench.maxvol_select

    def refused(self):
        raise AssertionError("the sampled matrix was formed")

    def writing(self, out):
        buffers.append(out)
        return write(self, out)

    def traced(matrix, r):
        tracemalloc.start()
        try:
            return select(matrix, r)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(DesignMatrix.values, "func", refused)
    monkeypatch.setattr(DesignMatrix, "write_values", writing)
    monkeypatch.setattr(bench, "maxvol_select", traced)
    get_basis_set(2, 100)
    assert len(buffers) == 7
    assert all(out is buffers[0] for out in buffers)
    assert peaks[0] < 2 * buffers[0].nbytes


def test_a_warm_table_never_forms_the_sampled_matrix(tmp_path, monkeypatch):
    """A cache load samples the basis without M, and DLS and pivotal fits
    and their evaluation read its factors, so a warm table runs with the
    writing of M refused and keeps the cold table's bytes."""
    spec = ExperimentSpec(d=2, n_list=(100,), cache_dir=str(tmp_path))
    cold = run_table_experiment(spec)

    def refused(self, out):
        raise AssertionError("the sampled matrix was formed")

    monkeypatch.setattr(DesignMatrix, "write_values", refused)
    assert run_table_experiment(spec) == cold


# OMP at sparsity = rank on f1-f10: the supports (little-endian int64),
# the same under 1 and 2 OpenBLAS threads and the four kernels above; the
# coefficients change with the thread count, since the basis coefficients
# C, and so the sampled matrix, differ in their last bits between them
_OMP_2D_N100_SUPPORTS_SHA256 = \
    "96dadc7b74836f1a27bd133baa5450ed0c25efec1af3dfbf1a02e2a46954174e"


def test_2d_n100_omp_supports_keep_their_bytes():
    """The same-numbers gate of OMP: a change to its loop that is meant to
    keep the numbers keeps every support of the registry fits."""
    basis = get_basis_set(2, 100)
    assert basis.rank == 52
    digest = hashlib.sha256()
    for func in registry(2):
        fit = omp_fit(basis.matrix, func(basis.grid.points),
                      sparsity=basis.rank)
        assert len(fit.support) == 52
        digest.update(fit.support.astype("<i8").tobytes())
    assert digest.hexdigest() == _OMP_2D_N100_SUPPORTS_SHA256


def test_build_frees_the_raw_matrix_before_the_pivot_search(monkeypatch):
    """The pivot search runs next to the kept SVD of W, so no reference to
    the raw KB matrix may outlive the denoising."""
    raw = []

    def assembled(*args, **kwargs):
        matrix = assemble(*args, **kwargs)
        raw.append(weakref.ref(matrix))
        return matrix

    def select(*args, **kwargs):
        gc.collect()
        assert raw and raw[0]() is None
        return maxvol(*args, **kwargs)

    assemble, maxvol = smoothing.assemble_design_matrix, bench.maxvol_select
    monkeypatch.setattr(smoothing, "assemble_design_matrix", assembled)
    monkeypatch.setattr(bench, "maxvol_select", select)
    assert get_basis_set(2, 40).rank > 0


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


def test_cache_roundtrip_bit_identical(cache_dir):
    built = get_basis_set(2, 40, cache_dir=cache_dir)
    loaded = get_basis_set(2, 40, cache_dir=cache_dir)
    assert np.array_equal(built.matrix.values, loaded.matrix.values)
    assert np.array_equal(built.lkb.kept, loaded.lkb.kept)
    assert np.array_equal(built.rows, loaded.rows)
    assert np.array_equal(built.cols, loaded.cols)
    assert np.array_equal(built.lkb.coeffs, loaded.lkb.coeffs)
    assert built.lkb.coeffs.flags.c_contiguous
    assert loaded.lkb.coeffs.flags.c_contiguous
    # the file stores no setting: the load takes them from the config
    assert loaded.lkb.config == built.lkb.config
    # read-only views of the one buffer the file was read into, aligned
    # so that the kernels on them take their fast paths
    for arr in (loaded.lkb.coeffs, loaded.lkb.kept, loaded.rows, loaded.cols):
        assert arr.flags.aligned and not arr.flags.writeable


def test_cache_cold_and_warm_fit_json_identical(tmp_path):
    # dls and omp run through the SVD of the rank factor, which the warm
    # path rebuilds from the loaded coefficients
    for method in ("pivotal", "dls", "omp"):
        cache = str(tmp_path / f"cache-{method}")
        texts = []
        for run in ("cold", "warm"):
            out = tmp_path / f"{method}-{run}.json"
            assert cli.main(["fit", "--d", "2", "--n", "20", "--function",
                             "f5", "--method", method, "--eval-grid", "21",
                             "--cache-dir", cache, "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1], method
        # the JSON names its basis by the whole build configuration
        assert json.loads(texts[0])["basis"] == basis_config(2, 20)


@pytest.mark.parametrize("kind", ["basis", "family"])
def test_failed_cache_write_leaves_no_file(kind, tmp_path, monkeypatch):
    """A write that fails after its blocks went out, as on a full disk,
    leaves neither the file nor its temporary; both kinds of file go
    through the one atomic writer."""
    path = str(tmp_path / f"{kind}.file")
    basis = get_basis_set(2, 20) if kind == "basis" else None
    family = inner.build_inner_family(2, 1)

    def full_disk(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", full_disk)
    with pytest.raises(OSError, match="No space"):
        if basis is not None:
            write_basis_cache(path, basis, {})
        else:
            save_inner_family(family, path)
    assert list(tmp_path.iterdir()) == []


def basis_config(d, n, **kwargs):
    """The build configuration get_basis_set hashes and names files by."""
    return ExperimentSpec(d=d, n_list=(n,), **kwargs).build_config(n)


def read_cache(path, cfg):
    """read_basis_cache with the smoothing settings a load of cfg uses."""
    return read_basis_cache(path, cfg, bench._grid_and_smoothing(cfg)[1])


def test_default_cache_file_name_is_pinned(tmp_path):
    """A refactor that changes the hashed configuration re-keys every
    cache; the default 2-d n=20 file keeps its name, and so does the
    inner-family file written beside it."""
    name = "basis-d2-n20-09e8cdb41d211c1a.lkbc"
    family = "inner-d2-r4-d4f2fa7941a9fcc3.ksti"
    assert cache_path("", basis_config(2, 20)) == name
    get_basis_set(2, 20, cache_dir=str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [name, family]


def test_equal_inputs_key_one_cache_file(tmp_path, monkeypatch):
    """Sizes are stored as int and the penalty as float, so an integer
    penalty or NumPy sizes name the default file and hit it; a size that
    is not an integer is refused before any build."""
    name = "basis-d2-n100-2e4c20f722e8940f.lkbc"
    for d, n, settings in ((2, 100, {}), (2, 100, {"penalty": 1}),
                           (np.int64(2), np.int64(100),
                            {"fit_grid": np.int32(41),
                             "degree": np.int64(3), "segments": 24})):
        spec = ExperimentSpec(d=d, n_list=(n,), **settings)
        assert cache_path("", spec.build_config(spec.n_list[0])) == name
    cache = str(tmp_path)
    get_basis_set(2, np.int64(20), cache_dir=cache, penalty=1)

    def no_build(cfg, *args):
        raise AssertionError("basis built")

    monkeypatch.setattr(bench, "_build", no_build)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert get_basis_set(2, 20, cache_dir=cache).n == 20
    assert len(list(tmp_path.glob("*.lkbc"))) == 1
    for n, settings in ((1.5, {}), (20, {"fit_grid": 41.0}),
                        (20, {"segments": 24.0}), (20, {"degree": 3.0})):
        with pytest.raises(ValueError, match="must be an integer"):
            get_basis_set(2, n, cache_dir=cache, **settings)


@pytest.mark.parametrize("stray", [{"eval_grid": 21}, {"inner_rank": 3}])
def test_basis_calls_refuse_settings_that_are_no_build_input(stray,
                                                             monkeypatch):
    def no_build(cfg):
        raise AssertionError("basis built despite a stray setting")

    monkeypatch.setattr(bench, "_build", no_build)
    name = next(iter(stray))
    with pytest.raises(TypeError, match=name):
        get_basis_set(2, 20, **stray)


def test_cache_mismatch_forces_rebuild(tmp_path):
    cache = str(tmp_path)
    get_basis_set(2, 40, cache_dir=cache)
    path = cache_path(cache, basis_config(2, 40))
    with pytest.raises(CacheMismatch, match="hash"):
        read_basis_cache(path, {"d": 2, "n": 41}, SmoothingConfig())
    # a file of another configuration under this configuration's name
    # is stale: it is rebuilt with a warning, then served
    other = cache_path(cache, basis_config(2, 40, penalty=0.5))
    shutil.copyfile(path, other)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        get_basis_set(2, 40, cache_dir=cache, penalty=0.5)
        assert any("stale" in str(w.message) for w in caught)
    read_cache(other, basis_config(2, 40, penalty=0.5))


def test_configs_sharing_d_and_n_keep_their_own_files(tmp_path,
                                                       monkeypatch):
    import kstfit.bench

    cache = str(tmp_path)
    first = {p: get_basis_set(2, 20, cache_dir=cache, penalty=p)
             for p in (0.5, 1.0)}
    assert len(list(tmp_path.glob("*.lkbc"))) == 2

    def no_build(cfg):
        raise AssertionError("cache miss: basis rebuilt")

    monkeypatch.setattr(kstfit.bench, "_build", no_build)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (0.5, 1.0, 0.5, 1.0):
            hit = get_basis_set(2, 20, cache_dir=cache, penalty=p)
            assert np.array_equal(hit.matrix.values, first[p].matrix.values)


def test_algorithm_version_bump_invalidates_cached_pivots(tmp_path,
                                                          monkeypatch):
    import kstfit.bench
    import kstfit.cache

    cache = str(tmp_path)
    cfg = basis_config(2, 20)
    get_basis_set(2, 20, cache_dir=cache)
    old_path = cache_path(cache, cfg)
    monkeypatch.setattr(kstfit.cache, "ALGO_VERSION",
                        kstfit.cache.ALGO_VERSION + 1)
    # a file from the old version is refused even under the new name
    with pytest.raises(CacheMismatch, match="hash"):
        read_cache(old_path, cfg)
    new_path = cache_path(cache, cfg)
    assert new_path != old_path

    builds = []
    build = kstfit.bench._build

    def counted_build(cfg, *args):
        builds.append(cfg)
        return build(cfg, *args)

    monkeypatch.setattr(kstfit.bench, "_build", counted_build)
    get_basis_set(2, 20, cache_dir=cache)
    assert builds == [cfg]
    read_cache(new_path, cfg)


def counted_family_builds(monkeypatch):
    """The (d, rank) of every inner-family build from here on."""
    builds = []
    build = inner.build_inner_family

    def counted(d, rank=None):
        builds.append((d, rank))
        return build(d, rank)

    monkeypatch.setattr(inner, "build_inner_family", counted)
    return builds


def test_family_file_is_built_once_per_cache_directory(tmp_path,
                                                       monkeypatch):
    """A miss builds the family and writes one file, with no temporary
    left; a hit loads it, silently and without a build."""
    cache = str(tmp_path)
    builds = counted_family_builds(monkeypatch)
    built = inner_family(cache, 2, 2)
    assert builds == [(2, 2)]
    path = family_path(cache, 2, 2)
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = inner_family(cache, 2, 2)
    assert builds == [(2, 2)]
    assert family_arrays(loaded) == family_arrays(built)


def test_family_lookup_without_a_directory_builds_and_writes_nothing(
        tmp_path, monkeypatch):
    """With no cache directory the lookup is build_inner_family itself:
    the same (cached) object, and no file anywhere."""
    monkeypatch.chdir(tmp_path)
    assert inner_family(None, 2, 2) is inner.build_inner_family(2, 2)
    assert list(tmp_path.iterdir()) == []


def family_arrays(family):
    """d, rank and the bytes of the weights and of every table."""
    return (family.d, family.rank, family.lambdas.tobytes(),
            [table.tobytes() for table in family.phis])


def with_weights(data, lambdas):
    """Family file bytes data with other weights and a checksum that
    matches them."""
    return reframed(data, lambda blocks: [
        blocks[0], np.asarray(lambdas, "<f8").tobytes(), *blocks[2:]])


def format_2_family(family):
    """The family in the layout of format version 2: magic, version, d and
    rank as uint32, the weights, each table after its node count, and a
    sha256 of everything before it."""
    parts = [b"KSTI", struct.pack("<III", 2, family.d, family.rank),
             family.lambdas.tobytes()]
    for table in family.phis:
        parts += [struct.pack("<Q", len(table)), table.tobytes()]
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()


@pytest.mark.parametrize("corrupt,reason", [
    (lambda data: data[:-40], "truncated"),
    (lambda data: data[:200] + bytes([data[200] ^ 1]) + data[201:],
     "checksum"),
    (lambda data: with_weights(data, inner.superposition_weights(2)[::-1]),
     "weights"),
    (lambda data: reframed(data, lambda blocks: [struct.pack("<II", 2, 1),
                                                 *blocks[1:]]),
     "rank=1"),
    (lambda data: format_2_family(inner.build_inner_family(2, 2)),
     "format version 2"),
    (lambda data: reframed(data, lambda blocks: blocks[:-1]),
     "6 blocks, not")])
def test_bad_family_file_is_rebuilt_and_rewritten(corrupt, reason, tmp_path,
                                                  monkeypatch):
    cache = str(tmp_path)
    path = family_path(cache, 2, 2)
    inner_family(cache, 2, 2)
    good = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(corrupt(good))
    builds = counted_family_builds(monkeypatch)
    with pytest.warns(UserWarning, match=reason):
        inner_family(cache, 2, 2)
    assert builds == [(2, 2)]
    assert open(path, "rb").read() == good


def test_algorithm_version_bump_rekeys_the_family_file(tmp_path,
                                                       monkeypatch):
    """One version keys both kinds of file: a bump rebuilds the family as
    well as the basis that is built from it."""
    import kstfit.cache

    cache, rank = str(tmp_path), inner.default_rank(2)
    cfg = basis_config(2, 20)
    get_basis_set(2, 20, cache_dir=cache)
    old_paths = (family_path(cache, 2, rank), cache_path(cache, cfg))
    assert all(os.path.exists(p) for p in old_paths)
    monkeypatch.setattr(kstfit.cache, "ALGO_VERSION",
                        kstfit.cache.ALGO_VERSION + 1)
    new_paths = (family_path(cache, 2, rank), cache_path(cache, cfg))
    assert all(new != old for new, old in zip(new_paths, old_paths))
    builds = counted_family_builds(monkeypatch)
    get_basis_set(2, 20, cache_dir=cache)
    assert builds == [(2, rank)]
    assert all(os.path.exists(p) for p in new_paths)


def test_basis_from_a_loaded_family_keeps_the_cold_bytes(tmp_path,
                                                         monkeypatch):
    """n=30 built on the family file that n=20 wrote gives the cache file
    of n=30 built in a fresh directory."""
    warm, fresh = str(tmp_path / "warm"), str(tmp_path / "fresh")
    get_basis_set(2, 20, cache_dir=warm)
    get_basis_set(2, 30, cache_dir=fresh)
    builds = counted_family_builds(monkeypatch)
    get_basis_set(2, 30, cache_dir=warm)
    assert builds == []
    cfg = basis_config(2, 30)
    digests = [hashlib.sha256(open(cache_path(c, cfg), "rb").read()).digest()
               for c in (warm, fresh)]
    assert digests[0] == digests[1]


def test_format_4_file_is_rebuilt_to_the_cold_bytes(tmp_path):
    """A file of the previous layout (no block count and no checksum) at
    this configuration's path is refused by its version, then replaced by
    the bytes of a cold build."""
    cache = str(tmp_path)
    cfg = basis_config(2, 20)
    cold = get_basis_set(2, 20, cache_dir=cache)
    path = cache_path(cache, cfg)
    want = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(b"LKBC" + struct.pack("<I", 4) + config_hash(cfg))
        for idx in (cold.lkb.kept, cold.rows, cold.cols):
            blob = np.asarray(idx).astype("<i8").tobytes()
            fh.write(struct.pack("<Q", len(blob)) + blob)
        fh.write(cold.lkb.coeffs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warm = get_basis_set(2, 20, cache_dir=cache)
    assert any("format version 4" in str(w.message) for w in caught)
    assert open(path, "rb").read() == want
    assert np.array_equal(warm.matrix.values, cold.matrix.values)


def test_flipped_coefficient_byte_is_refused_and_rebuilt(tmp_path):
    """One flipped exponent bit in the coefficient block, which would
    change every fit on the basis, is refused by the checksum, and the
    rebuild writes the cold bytes back."""
    cache = str(tmp_path)
    cfg = basis_config(2, 20)
    cold = get_basis_set(2, 20, cache_dir=cache)
    path = cache_path(cache, cfg)
    want = open(path, "rb").read()
    bad = bytearray(want)
    bad[-33] ^= 0x40  # sign and exponent byte of the last coefficient
    open(path, "wb").write(bad)
    with pytest.raises(CacheMismatch, match="checksum"):
        read_cache(path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warm = get_basis_set(2, 20, cache_dir=cache)
    assert any("checksum" in str(w.message) for w in caught)
    assert open(path, "rb").read() == want
    assert np.array_equal(warm.matrix.values, cold.matrix.values)


def test_cache_detects_corruption(cache_dir, tmp_path):
    cfg = basis_config(2, 40)
    get_basis_set(2, 40, cache_dir=cache_dir)
    raw = open(cache_path(cache_dir, cfg), "rb").read()
    bad_magic = tmp_path / "bad.lkbc"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CacheMismatch, match="magic"):
        read_basis_cache(str(bad_magic), {}, SmoothingConfig())
    short = tmp_path / "short.lkbc"
    short.write_bytes(raw[: len(raw) - 200])
    with pytest.raises(CacheMismatch, match="truncated"):
        read_cache(str(short), cfg)
    # a coefficient block one value short, under a matching checksum
    cut = tmp_path / "cut.lkbc"
    cut.write_bytes(reframed(raw, lambda b: [*b[:4], b[4][:-8]]))
    with pytest.raises(CacheMismatch, match="coefficient block"):
        read_cache(str(cut), cfg)


def with_indices(data, edit):
    """The cache file bytes data with its kept map, pivot rows and pivot
    columns replaced by edit(kept, rows, cols) -> (index blocks...,
    trailing bytes), under the checksum of the edited blocks.  An index
    block is an array, or bytes taken as they are."""
    blocks = record_blocks(data)
    *sets, tail = edit(*(np.frombuffer(b, "<i8").copy() for b in blocks[1:4]))
    return reframed(data, lambda b: [b[0], *(
        s if isinstance(s, bytes) else np.asarray(s, "<i8").tobytes()
        for s in sets), b[4]]) + tail


def swapped(a, i, j):
    a[[i, j]] = a[[j, i]]
    return a


CORRUPTIONS = {
    "trailing bytes": lambda k, r, c: (k, r, c, bytes(8)),
    "kept out of order": lambda k, r, c: (swapped(k, 0, 1), r, c, b""),
    "kept repeated": lambda k, r, c: (np.r_[k[:1], k[:-1]], r, c, b""),
    "kept past d*n": lambda k, r, c: (np.r_[k[:-1], 40], r, c, b""),
    "rows past the grid": lambda k, r, c: (k, np.r_[r[:-1], 10 ** 6], c,
                                           b""),
    "rows negative": lambda k, r, c: (k, np.r_[-1, r[1:]], c, b""),
    "rows out of order": lambda k, r, c: (k, swapped(r, 1, 2), c, b""),
    "cols past kept": lambda k, r, c: (k, r, np.r_[c[:-1], len(k)], b""),
    "cols out of order": lambda k, r, c: (k, r, swapped(c, 0, 1), b""),
    "fewer rows than cols": lambda k, r, c: (k, r[:-1], c, b""),
    "4 blocks": lambda k, r, c: (k, r, b""),
    "6 blocks": lambda k, r, c: (k, r, c, c, b""),
    "7-byte index block": lambda k, r, c: (k, r, c.tobytes()[:7], b""),
}
REASONS = {"trailing bytes": "8 trailing bytes",
           "fewer rows than cols": "pivot rows but",
           "4 blocks": "4 blocks, not 5", "6 blocks": "6 blocks, not 5",
           "7-byte index block": "7 bytes, not whole 8-byte words"}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_cache_refuses_bad_indices_and_trailing_bytes(corruption, tmp_path):
    """A file whose header checks out but whose index sets could not come
    from a build (or with bytes after the block) is refused, and the
    warn-and-rebuild path writes the cold build's bytes back."""
    cache = str(tmp_path)
    cfg = basis_config(2, 20)
    cold = get_basis_set(2, 20, cache_dir=cache)
    path = cache_path(cache, cfg)
    want = open(path, "rb").read()
    bad = with_indices(want, CORRUPTIONS[corruption])
    assert bad != want and with_indices(
        want, lambda *s: (*s, b"")) == want
    open(path, "wb").write(bad)
    reason = REASONS.get(corruption, f"{corruption.split()[0]} not strictly "
                                     f"increasing")
    with pytest.raises(CacheMismatch, match=reason):
        read_cache(path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warm = get_basis_set(2, 20, cache_dir=cache)
    assert any("stale" in str(w.message) and reason in str(w.message)
               for w in caught)
    assert open(path, "rb").read() == want
    assert np.array_equal(warm.rows, cold.rows)


def test_table_experiment_deterministic_bytes(cache_dir):
    spec = ExperimentSpec(d=2, n_list=(40,), eval_grid=41,
                          cache_dir=cache_dir)
    first = run_table_experiment(spec)
    second = run_table_experiment(spec)
    assert first == second
    lines = first.strip().split("\n")
    assert len(lines) == 11
    assert lines[0].startswith("function,dls n=40")
    assert "pivotal n=40" in lines[0]


def test_pivotal_count_experiment(cache_dir):
    spec = ExperimentSpec(d=2, n_list=(20, 40), cache_dir=cache_dir)
    csv, counts, slope = pivotal_count_experiment(spec)
    assert len(counts) == 2 and all(c >= 1 for c in counts)
    assert "n,pivotal_count" in csv


def test_slope_experiment_runs(cache_dir):
    spec = ExperimentSpec(d=2, n_list=(20, 30, 40), eval_grid=41,
                          cache_dir=cache_dir)
    csv, slope, label, errors = run_slope_experiment(spec, "f3",
                                                     method="dls")
    assert len(errors) == 3
    assert "classification" in csv


def test_fit_by_method_rejects_unknown_method(cache_dir):
    spec = ExperimentSpec(d=2, n_list=(20,), cache_dir=cache_dir)
    with pytest.raises(ValueError, match="magic"):
        fit_by_method(spec.basis(20), get_function(2, "f3"), "magic",
                      spec.eval_points())


@pytest.mark.parametrize("method", ["dls", "pivotal"])
def test_fit_by_method_refuses_a_sparsity_outside_omp(method, cache_dir):
    spec = ExperimentSpec(d=2, n_list=(20,), cache_dir=cache_dir)
    with pytest.raises(ValueError, match="sparsity"):
        fit_by_method(spec.basis(20), get_function(2, "f3"), method,
                      spec.eval_points(), sparsity=5)


def test_a_pivotal_fit_asks_f_only_at_its_pivotal_points(cache_dir):
    """A pivotal fit asks f at its r pivotal points, then at the evaluation
    points, and its coefficients are bit for bit those of the pivotal rows
    of f on the whole fit grid."""
    spec = ExperimentSpec(d=2, n_list=(100,), cache_dir=cache_dir)
    basis, eval_pts = spec.basis(100), spec.eval_points()
    for func in registry(2):
        asked = []

        def counted(pts, func=func):
            asked.append(np.array(pts))
            return func(pts)

        fit = fit_by_method(basis, counted, "pivotal", eval_pts)
        assert [len(pts) for pts in asked] == [basis.rank, len(eval_pts)]
        assert np.array_equal(asked[0], basis.pivotal_points)
        on_grid = pivotal_fit(basis.matrix, basis.rows, basis.cols,
                              func(basis.grid.points)[basis.rows])
        assert np.array_equal(fit.coefficients, on_grid.coefficients)


def _refuse_builds(monkeypatch):
    def no_build(*args):
        raise AssertionError("basis or inner family built for a bad input")

    monkeypatch.setattr(bench, "_build", no_build)
    monkeypatch.setattr(inner, "build_inner_family", no_build)


def test_unknown_function_fails_before_any_build(monkeypatch, capsys):
    _refuse_builds(monkeypatch)
    spec = ExperimentSpec(d=2, n_list=(20, 30, 40))
    with pytest.raises(KeyError, match="f99"):
        run_slope_experiment(spec, "f99")
    with pytest.raises(ValueError, match="d=1"):
        run_table_experiment(ExperimentSpec(d=1, n_list=(20,)))
    for argv, word in (
            (["slopes", "--function", "f99", "--n-list", "20,30,40"], "f99"),
            (["fit", "--n", "20", "--function", "f99"], "f99"),
            (["table", "--d", "1", "--n-list", "20"], "d=1")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert word in capsys.readouterr().err


def test_too_short_sweep_fails_before_any_build(monkeypatch, capsys):
    """slopes built every basis, and knet-rate the inner family, before
    the slope fit refused fewer than 3 sizes with a traceback."""
    _refuse_builds(monkeypatch)
    for argv in (["slopes", "--d", "2", "--function", "f4",
                  "--n-list", "20,30"],
                 ["knet-rate", "--d", "1", "--n-list", "4,8"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "at least 3 sizes" in capsys.readouterr().err


def test_bad_grid_fails_before_any_build(monkeypatch, capsys):
    """An eval grid of 1 point per axis used to fail only after every
    basis of the table was built."""
    _refuse_builds(monkeypatch)
    for grids in ({"eval_grid": 1}, {"fit_grid": 1}):
        with pytest.raises(ValueError, match="2 grid points"):
            run_table_experiment(ExperimentSpec(d=2, n_list=(20, 30),
                                                **grids))
    for argv in (["table", "--n-list", "20", "--eval-grid", "1"],
                 ["fit", "--n", "20", "--function", "f5", "--eval-grid", "1"],
                 ["build-basis", "--n", "20", "--grid", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "2 grid points" in capsys.readouterr().err


@pytest.mark.parametrize("flag, setting, value", [
    ("--segments", "segments", 3), ("--degree", "degree", 5),
    ("--lambda-pen", "penalty", -1.0), ("--lambda-pen", "penalty", np.nan),
    ("--lambda-pen", "penalty", np.inf)])
def test_bad_smoothing_settings_fail_before_any_build(flag, setting, value,
                                                      monkeypatch, capsys):
    """These used to end in a traceback (exit 1): the first three from
    SmoothingConfig, a NaN or infinite penalty from the Cholesky factor
    after the inner family was built."""
    _refuse_builds(monkeypatch)
    with pytest.raises(ValueError, match=setting):
        ExperimentSpec(d=2, n_list=(20,), **{setting: value})
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--d", "2", "--n-list", "100", flag, str(value)])
    assert exc.value.code == 2
    assert setting in capsys.readouterr().err


@pytest.mark.parametrize("d", [0, 4, 5])
def test_basis_dimension_outside_the_defaults_fails_before_any_build(
        d, monkeypatch, capsys):
    """A d with no per-dimension segments and eval grid used to fall back
    to 8 segments and a 41**d fit grid: 116 M points at d = 5, made before
    anything failed."""
    _refuse_builds(monkeypatch)
    with pytest.raises(ValueError, match=f"d={d}"):
        ExperimentSpec(d=d, n_list=(10,))
    with pytest.raises(ValueError, match=f"d={d}"):
        get_basis_set(d, 10)
    for argv in (["build-basis", "--n", "10"],
                 ["pivotal-count", "--n-list", "10"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--d", str(d)])
        assert exc.value.code == 2
        assert f"d={d}" in capsys.readouterr().err


@pytest.mark.parametrize("d", [0, 6, 16])
def test_cli_knet_rate_refuses_an_unsupported_dimension(d, monkeypatch,
                                                        capsys):
    """These ended in a traceback (exit 1): a ValueError at d = 0 and 16,
    an IndexError inside the inner build at d = 6."""
    _refuse_builds(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["knet-rate", "--d", str(d), "--n-list", "4,8,16"])
    assert exc.value.code == 2
    assert "dimension" in capsys.readouterr().err


def test_cli_refuses_a_negative_sparsity(monkeypatch, capsys):
    """--sparsity -3 used to die inside np.zeros after the build; 0 keeps
    meaning the pivotal rank."""
    _refuse_builds(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--n", "20", "--function", "f5", "--method", "omp",
                  "--sparsity", "-3"])
    assert exc.value.code == 2
    assert "--sparsity" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["dls", "pivotal"])
def test_cli_refuses_a_sparsity_outside_omp(method, monkeypatch, capsys):
    """fit --sparsity 5 --method dls or pivotal used to drop the 5
    silently and fit as if it had not been given."""
    _refuse_builds(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--n", "20", "--function", "f5", "--method", method,
                  "--sparsity", "5"])
    assert exc.value.code == 2
    assert "--sparsity" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["", ",", "0", "20,-5"])
def test_cli_refuses_an_empty_or_nonpositive_n_list(sizes, monkeypatch,
                                                    capsys):
    _refuse_builds(monkeypatch)
    for command in ("table", "pivotal-count", "knet-rate"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--d", "1", "--n-list", sizes])
        assert exc.value.code == 2
        assert "--n-list" in capsys.readouterr().err


def test_nonpositive_n_fails_before_any_build(monkeypatch, capsys):
    """build-basis --n 0 and fit --n -3 built the inner family, then
    ended in a traceback (exit 1) from the KB basis."""
    _refuse_builds(monkeypatch)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n >= 1"):
            ExperimentSpec(d=2, n_list=(20, n))
        with pytest.raises(ValueError, match="n >= 1"):
            get_basis_set(2, n)
    for argv in (["build-basis", "--d", "2", "--n", "0"],
                 ["fit", "--d", "2", "--n", "-3", "--function", "f5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "n >= 1" in capsys.readouterr().err


def test_fit_grid_below_the_coefficients_fails_before_any_build(
        monkeypatch, capsys):
    """table --grid 10 built the inner family, then the smoother refused
    100 grid points for 729 coefficients with a traceback (exit 1)."""
    _refuse_builds(monkeypatch)
    with pytest.raises(ValueError, match="27 coefficients per axis"):
        ExperimentSpec(d=2, n_list=(20,), fit_grid=10)
    with pytest.raises(ValueError, match="15 coefficients per axis"):
        ExperimentSpec(d=3, n_list=(20,), fit_grid=14)
    ExperimentSpec(d=3, n_list=(20,), fit_grid=15)  # just enough
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--d", "2", "--n-list", "20", "--grid", "10"])
    assert exc.value.code == 2
    assert "coefficients" in capsys.readouterr().err


def test_repeated_sizes_give_no_slope(monkeypatch, capsys):
    """knet-rate --n-list 4,4,4 and pivotal-count --n-list 20,20 printed a
    slope that np.polyfit fitted to one distinct size."""
    _refuse_builds(monkeypatch)
    for argv in (["knet-rate", "--d", "1", "--n-list", "4,4,4"],
                 ["pivotal-count", "--d", "2", "--n-list", "20,20"],
                 ["slopes", "--d", "2", "--function", "f4",
                  "--n-list", "20,30,20"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "distinct" in capsys.readouterr().err
    with pytest.raises(ValueError, match="3 distinct sizes"):
        estimate_convergence_slope([0.1] * 3, [20] * 3)
    with pytest.raises(ValueError, match="3 distinct sizes"):
        bench.rate_experiment(None, np.sin, [4, 8, 4])
    monkeypatch.setattr(bench, "_build", lambda cfg: bench.BasisSet(
        d=2, n=cfg["n"], grid=None, lkb=None, matrix=None,
        rows=np.arange(40), cols=np.arange(40)))
    csv, counts, slope = pivotal_count_experiment(
        ExperimentSpec(d=2, n_list=(20,)))
    assert counts == [40] and slope is None
    assert "slope" not in csv


@pytest.mark.parametrize("argv,sweep", [
    (["table", "--d", "2", "--full"], cli.FULL_SWEEP_2D),
    (["table", "--d", "3", "--full"], cli.SHORT_SWEEP),
    (["pivotal-count", "--d", "2"], cli.SHORT_SWEEP),
    (["slopes", "--d", "2", "--function", "f4"], cli.SHORT_SWEEP),
], ids=["table-2d-full", "table-3d-full", "pivotal-count", "slopes"])
def test_cli_default_sweeps(argv, sweep, monkeypatch):
    """Without --n-list a sweep is the short one, and --full extends it to
    n=10000 in 2-d only; read off the spec, before any build."""
    _refuse_builds(monkeypatch)
    assert cli._spec(cli._make_parser().parse_args(argv)).n_list == sweep


def test_spec_refuses_an_empty_or_repeating_sweep(monkeypatch):
    """An empty n_list gave a table of ten function ids and no column,
    and a pivotal count of its header alone; a spec now refuses it, and a
    repeated size, as the --n-list flag does, before any build."""
    _refuse_builds(monkeypatch)
    for sizes in ((), (20, 30, 20), (40, 40)):
        with pytest.raises(ValueError, match="one or more distinct sizes"):
            ExperimentSpec(d=2, n_list=sizes)


def test_cli_config_n_list_is_checked_like_the_flag(tmp_path, monkeypatch,
                                                     capsys):
    _refuse_builds(monkeypatch)
    conf = tmp_path / "conf.json"
    for sizes in ([], [0, 20]):
        conf.write_text(json.dumps({"n_list": sizes}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(conf), "pivotal-count", "--d", "1"])
        assert exc.value.code == 2
        assert "--n-list" in capsys.readouterr().err


def test_cli_config_key_naming_no_option_is_a_usage_error(tmp_path,
                                                         capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grd": 5, "d": 1}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(conf), "knet-rate",
                  "--n-list", "4,8,16"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "grd" in err and "--config" in err


def test_cli_knet_rate(capsys):
    assert cli.main(["knet-rate", "--d", "1", "--g", "sin",
                     "--n-list", "4,8,16"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,sup_error")
    assert "slope," in out


def test_cli_knet_rate_refuses_the_basis_flags(capsys):
    """knet-rate builds no basis, so a basis flag is a usage error rather
    than silently ignored."""
    for flag in (["--grid", "5"], ["--eval-grid", "41"], ["--degree", "2"],
                 ["--lambda-pen", "0.5"], ["--segments", "8"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["knet-rate", "--d", "1", "--n-list", "8,16,32"]
                     + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_knet_rate_takes_config_defaults(tmp_path, capsys):
    argv = ["knet-rate", "--d", "1", "--g", "exp", "--n-list", "4,8,16"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    conf = tmp_path / "conf.json"
    # keys of other subcommands' flags in a shared config stay harmless,
    # and the shared cache directory holds the family
    conf.write_text(json.dumps({"d": 1, "g": "exp", "n_list": [4, 8, 16],
                                "grid": 5,
                                "cache_dir": str(tmp_path / "kc")}))
    out_file = tmp_path / "rate.csv"
    assert cli.main(["--config", str(conf), "knet-rate",
                     "--out", str(out_file)]) == 0
    assert out_file.read_text() == want
    assert os.path.exists(family_path(tmp_path / "kc", 1,
                                      inner.default_rank(1)))


def test_cli_knet_rate_reads_the_family_file(tmp_path, monkeypatch,
                                             capsys):
    """A second knet-rate in one cache directory loads the family the
    first one wrote, builds none, and prints the same CSV bytes."""
    argv = ["knet-rate", "--d", "2", "--n-list", "4,8,16",
            "--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert os.path.exists(family_path(tmp_path, 2, inner.default_rank(2)))

    def no_build(*args):
        raise AssertionError("inner family built beside its file")

    monkeypatch.setattr(inner, "build_inner_family", no_build)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    # so does a directory named by KST_CACHE_DIR alone
    monkeypatch.setenv("KST_CACHE_DIR", str(tmp_path))
    assert cli.main(argv[:-2]) == 0
    assert capsys.readouterr().out == first


def test_cli_table_and_fit(tmp_path, cache_dir, capsys):
    out_file = tmp_path / "table.csv"
    assert cli.main(["table", "--d", "2", "--n-list", "40",
                     "--eval-grid", "41", "--cache-dir", cache_dir,
                     "--out", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.startswith("function,")

    fit_json = tmp_path / "fit.json"
    assert cli.main(["fit", "--d", "2", "--n", "40", "--function", "f3",
                     "--method", "pivotal", "--eval-grid", "41",
                     "--cache-dir", cache_dir, "--out",
                     str(fit_json)]) == 0
    out = capsys.readouterr().out
    assert "f3,pivotal" in out
    data = json.loads(fit_json.read_text())
    assert data["method"] == "pivotal"
    assert data["eval_rmse"] > 0


def test_cli_build_basis_and_counts(cache_dir, capsys):
    assert cli.main(["build-basis", "--d", "2", "--n", "40",
                     "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# d=2 n=40 rank=")

    assert cli.main(["pivotal-count", "--d", "2", "--n-list", "20,40",
                     "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,pivotal_count")


def test_cli_env_cache_dir(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "envcache"
    monkeypatch.setenv("KST_CACHE_DIR", str(env_dir))
    assert cli.main(["build-basis", "--d", "2", "--n", "20"]) == 0
    capsys.readouterr()
    assert any(p.suffix == ".lkbc" for p in env_dir.iterdir())


def test_cli_slopes_by_omp(cache_dir, capsys):
    """slopes --method omp fits each n at sparsity = its pivotal rank, as
    fit --method omp does."""
    spec = ExperimentSpec(d=2, n_list=(20, 30, 40), eval_grid=41,
                          cache_dir=cache_dir)
    assert cli.main(["slopes", "--d", "2", "--function", "f3", "--n-list",
                     "20,30,40", "--eval-grid", "41", "--method", "omp",
                     "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert out == run_slope_experiment(spec, "f3", method="omp")[0]
    assert out != run_slope_experiment(spec, "f3", method="dls")[0]
    func, eval_pts = get_function(2, "f3"), spec.eval_points()
    for n, row in zip(spec.n_list, out.splitlines()[1:4]):
        basis = spec.basis(n)
        fit = fit_by_method(basis, func, "omp", eval_pts)
        assert len(fit.support) == basis.rank
        assert row == f"{n},{fit.eval_rmse:.3e}"


def test_cli_config_file_defaults(tmp_path, cache_dir, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"d": 2, "eval_grid": 41,
                                "cache_dir": cache_dir}))
    assert cli.main(["--config", str(conf), "slopes", "--function", "f3",
                     "--n-list", "20,30,40", "--method", "dls"]) == 0
    out = capsys.readouterr().out
    assert "classification" in out


def test_cli_explicit_flags_beat_config_defaults(tmp_path, cache_dir,
                                                 capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"d": 3, "n_list": [20, 30],
                                "cache_dir": cache_dir}))
    assert cli.main(["--config", str(conf), "build-basis", "--d", "2",
                     "--n", "20"]) == 0
    assert capsys.readouterr().out.startswith("# d=2 n=20 ")
    # a subcommand's own argument takes its config default too
    assert cli.main(["--config", str(conf), "pivotal-count",
                     "--d", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("n,pivotal_count")
    assert [row.split(",")[0] for row in rows[1:3]] == ["20", "30"]
    # an n shared with build-basis and fit leaves the sweeps their n_list
    conf.write_text(json.dumps({"d": 2, "n": 40, "n_list": [20, 30],
                                "cache_dir": cache_dir}))
    assert cli.main(["--config", str(conf), "pivotal-count"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in rows[1:3]] == ["20", "30"]
    assert cli.main(["--config", str(conf), "table", "--n-list", "20",
                     "--eval-grid", "21"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert "dls n=20 " in header and "n=40" not in header
