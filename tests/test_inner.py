import hashlib
import struct
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    cube_image_overlap,
    families_missing_at,
    in_town_cube_count,
    reframed,
)
from kstfit import inner
from kstfit.bench import run_knet_rate
from kstfit.cache import CacheMismatch, load_inner_family, save_inner_family
from kstfit.inner import (
    PROFILES,
    build_inner_family,
    default_rank,
    eval_z,
    forward_superpose,
    gap_width,
    superposition_weights,
    _build_cached,
)


def phi(family, q, x):
    """phi_q at x, read from its table."""
    table = family.phis[q]
    return np.interp(x, table[:, 0], table[:, 1])


def test_weights_distinct_in_unit_interval():
    for d in (1, 2, 3, 5):
        lam = superposition_weights(d)
        assert lam.shape == (d,)
        assert np.all((lam > 0) & (lam <= 1))
        assert len(np.unique(lam)) == d


def test_build_d2_k1_has_five_increasing_tables():
    fam = build_inner_family(2, 1)
    assert len(fam.phis) == 5
    for tab in fam.phis:
        assert np.all(np.diff(tab[:, 0]) > 0)
        assert np.all(np.diff(tab[:, 1]) > 0)


@pytest.mark.parametrize("d,rank", [(2, 3), (3, 2)])
def test_town_cube_images_disjoint(d, rank):
    fam = build_inner_family(d, rank)
    for k in range(1, rank + 1):
        for q in range(fam.n_phi):
            worst = cube_image_overlap(fam, k, q)
            assert worst < 0, f"rank {k}, family {q}: overlap {worst:.3e}"


def test_d3_grid_points_in_at_least_d_plus_1_cubes():
    fam = build_inner_family(3, 2)
    grid = np.linspace(0, 1, 21)
    for k in (1, 2):
        counts = in_town_cube_count(fam, k, grid)
        assert counts.min() >= fam.d + 1


def test_gap_miss_at_most_one_family_per_rank():
    for d in (1, 2, 3):
        fam = build_inner_family(d, 2)
        for k in (1, 2):
            for x in np.linspace(0, 1, 101):
                assert families_missing_at(fam, k, x) <= 1


def test_phi_anchors_and_domain():
    fam = build_inner_family(2, 2)
    assert len(fam.phis) == fam.n_phi == 5
    for q in range(5):
        assert phi(fam, q, 0.0) == 0.0
        assert phi(fam, q, 1.0) == 1.0
    for bad in ([0.5, 1.5], [-0.1, 0.5]):
        with pytest.raises(ValueError, match="unit cube"):
            eval_z(fam, 0, np.array(bad))


def test_phi_strictly_increasing_on_samples():
    fam = build_inner_family(2, 3)
    x = np.linspace(0, 1, 1001)
    for q in range(5):
        v = phi(fam, q, x)
        assert np.all(np.diff(v) >= 0)
        # strict increase across town boundaries at table nodes
        tab = fam.phis[q]
        assert np.all(np.diff(tab[:, 1]) > 0)


def test_phi_stable_under_rank_refinement():
    for d in (2, 3):
        k = 2
        coarse = build_inner_family(d, k)
        fine = build_inner_family(d, k + 1)
        toler = 2 * d * gap_width(d, k)
        for q in range(2 * d + 1):
            assert abs(phi(coarse, q, 0.5) - phi(fine, q, 0.5)) <= toler


# sha256 of the concatenated phi tables of the depth-3 family in 3-d, the
# one every 3-d basis build uses
_PHI3_SHA256 = "760a5516137d86191dfe964be01b202f97916cb61f703371d800751d5461db4f"


def test_d3_default_family_keeps_its_bytes():
    family = build_inner_family(3, 3)  # criterion 1's build, when cached
    tables = b"".join(table.tobytes() for table in family.phis)
    assert hashlib.sha256(tables).hexdigest() == _PHI3_SHA256


def test_too_deep_a_rank_raises_runtime_error():
    """At d = 2, rank 5 the value windows cannot be made disjoint in
    float64; the one attempt per table says so."""
    with pytest.raises(RuntimeError, match="rank=5"):
        build_inner_family(2, 5)


def test_z_corners_and_composition():
    fam = build_inner_family(2, 2)
    assert eval_z(fam, 0, np.zeros(2)) == 0.0
    top = eval_z(fam, 1, np.ones(2))
    assert top == pytest.approx(fam.lambdas.sum(), abs=1e-14)
    lam = fam.lambdas
    want = lam[0] * phi(fam, 2, 0.3) + lam[1] * phi(fam, 2, 0.7)
    assert eval_z(fam, 2, np.array([0.3, 0.7])) == pytest.approx(want, abs=1e-15)
    with pytest.raises(ValueError):
        eval_z(fam, 0, np.array([0.5, 1.2]))


def test_z_rejects_a_nan_coordinate():
    """NaN compares false both ways; it must not pass the cube check and
    come back as a NaN z."""
    fam = build_inner_family(2, 2)
    for bad in ([np.nan, 0.5], [[0.1, 0.2], [0.5, np.nan]], [np.inf, 0.5]):
        with pytest.raises(ValueError, match="unit cube"):
            eval_z(fam, 0, np.array(bad))


def test_z_vectorized_matches_scalar():
    fam = build_inner_family(2, 2)
    pts = np.random.default_rng(3).random((50, 2))
    vec = eval_z(fam, 3, pts)
    scal = np.array([eval_z(fam, 3, p) for p in pts])
    assert np.allclose(vec, scal, rtol=0, atol=1e-15)


def test_superpose_constant_is_exact():
    for d in (2, 3):
        fam = build_inner_family(d, 2)
        pts = np.random.default_rng(7).random((1000, d))
        out = forward_superpose(fam, lambda t: np.ones_like(t), pts)
        assert np.all(out == 2 * d + 1)


def test_superpose_identity_matches_double_loop():
    fam = build_inner_family(2, 2)
    pts = np.random.default_rng(11).random((40, 2))
    got = forward_superpose(fam, lambda t: t, pts)
    want = np.zeros(len(pts))
    for i, p in enumerate(pts):
        for q in range(5):
            for j in range(2):
                want[i] += fam.lambdas[j] * phi(fam, q, p[j])
    assert np.allclose(got, want, atol=1e-13)


def test_profiles_superpose():
    fam = build_inner_family(2, 2)
    lin = forward_superpose(fam, PROFILES["linear"], np.ones(2))
    assert lin == pytest.approx(5 * fam.lambdas.sum(), rel=1e-13)
    corner = forward_superpose(fam, PROFILES["linear"], np.zeros(2))
    assert corner == 0.0
    pts = np.random.default_rng(2).random((20, 2))
    for g in PROFILES.values():
        out = forward_superpose(fam, g, pts)
        assert out.shape == (20,) and np.all(np.isfinite(out))
    with pytest.raises(ValueError, match="tanh"):
        run_knet_rate(2, "tanh", (8, 16, 32))


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_inner_family(0)
    with pytest.raises(ValueError):
        build_inner_family(2, 0)
    with pytest.raises(ValueError):
        build_inner_family(2, 40)  # town widths below double precision
    # d = 6..15 used to end in an IndexError inside the separation check
    for d in (6, 15, 16):
        with pytest.raises(ValueError, match="dimension"):
            build_inner_family(d)


def test_deterministic_rebuild():
    fam1 = build_inner_family(2, 2)
    _build_cached.cache_clear()
    fam2 = build_inner_family(2, 2)
    assert len(fam1.phis) == len(fam2.phis)
    for a, b in zip(fam1.phis, fam2.phis):
        assert np.array_equal(a, b)


# sha256 of the concatenated phi tables of the depth-4 families
_PHI_SHA256 = {
    1: "e3495741f30282fbb8362061eecb7d8ac05729794493388f7cc92ce24421f681",
    2: "ad6f65fbaf0d43be67ee23c8238734a0e71f89c67f83d8fb9aaf0434874570a9",
}


# the same for two shallower 2-d families
_PHI_SHA256_SHALLOW = {
    (2, 2): "a51dc455786c8bd080da7799e73c5bd2e615e409e3c60a99317b6e34502e73c8",
    (2, 3): "34580d80b4a4d54e7ff8c0f0befff811e45472a68adc84ed15dea57301ded354",
}


@pytest.mark.parametrize("d,rank", sorted(_PHI_SHA256_SHALLOW))
def test_shallow_families_keep_their_bytes(d, rank):
    family = _build_cached.__wrapped__(d, rank)
    tables = b"".join(table.tobytes() for table in family.phis)
    assert hashlib.sha256(tables).hexdigest() == _PHI_SHA256_SHALLOW[d, rank]


def reference_widths(lengths, unit_ids, town_caps, town_lens):
    """The width assignment as one recursive walk of the cell tree, cell
    by cell: the oracle of the level-by-level plan."""
    nseg, rank = unit_ids.shape
    widths = np.zeros(nseg)
    len_cum = np.concatenate([[0.0], np.cumsum(lengths)])
    rise_cum = []
    for k in range(rank + 1):
        deeper = (unit_ids[:, k:] % 2 == 1).any(axis=1)
        free = np.where(deeper, 0.0, lengths)
        rise_cum.append(np.concatenate([[0.0], np.cumsum(free)]))

    stack = [(0, nseg, 1.0, 0)]
    while stack:
        lo, hi, w_cell, k = stack.pop()
        if w_cell <= 0.0 or hi <= lo:
            continue
        if k == rank:
            widths[lo:hi] = (w_cell * lengths[lo:hi]
                             / (len_cum[hi] - len_cum[lo]))
            continue
        ids = unit_ids[lo:hi, k]
        cut = np.flatnonzero(ids[1:] != ids[:-1]) + lo + 1
        starts = np.concatenate([[lo], cut])
        ends = np.concatenate([cut, [hi]])
        is_town = unit_ids[starts, k] % 2 == 1
        glen = len_cum[ends] - len_cum[starts]

        piece_w = np.zeros(len(starts))
        piece_w[is_town] = town_caps[k] * glen[is_town] / town_lens[k]
        gap = ~is_town
        rc = rise_cum[k + 1]
        rise = rc[ends[gap]] - rc[starts[gap]]
        tw_sum = piece_w.sum()
        if gap.any() and rise.sum() > 0.0:
            if tw_sum > 0.5 * w_cell:
                piece_w *= 0.5 * w_cell / tw_sum
                tw_sum = piece_w.sum()
            piece_w[gap] = (w_cell - tw_sum) * rise / rise.sum()
        else:
            piece_w = w_cell * glen / glen.sum()
        for s, e, w in zip(starts, ends, piece_w):
            stack.append((s, e, w, k + 1))
    return widths


@st.composite
def width_problems(draw):
    """A family's segments at a supported rank, with per-rank town caps
    of the construction's start scaled down by factors in (0, 1].  The
    construction only ever shrinks caps; raised 1000-fold, towns also
    crowd cells and take the halving branch."""
    d = draw(st.integers(1, 3))
    rank = draw(st.integers(1, default_rank(d)))
    q = draw(st.integers(0, 2 * d))
    factors = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True),
                            min_size=rank, max_size=rank))
    boost = draw(st.sampled_from([1.0, 1000.0]))
    lam_sum = float(superposition_weights(d).sum())
    caps = np.array([boost * f * 0.02 / (3.0 * lam_sum * (2 * d + 2)) ** k
                     for k, f in enumerate(factors)])
    return d, rank, q, caps


@settings(max_examples=60, deadline=None)
@given(width_problems())
def test_width_plan_matches_the_recursive_walk(problem):
    d, rank, q, caps = problem
    _, edges, unit_ids = inner._segments(d, rank, q)
    lengths = np.diff(edges)
    town_lens = [2 * d * gap_width(d, k) for k in range(1, rank + 1)]
    got = inner._assign_widths(inner._width_plan(lengths, unit_ids), caps,
                               town_lens)
    want = reference_widths(lengths, unit_ids, caps, town_lens)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_build_checks_each_anchor_array_once(d, monkeypatch):
    """Where the tuning loop measured every rank exhaustively and found
    none crowded, the verification pass is skipped: it would check the
    same anchors again.  The tables keep their bytes."""
    checked = []

    def spy(anchors, lambdas, **kwargs):
        checked.append(hashlib.sha256(anchors.tobytes()).hexdigest())
        return min_cube_gap(anchors, lambdas, **kwargs)

    min_cube_gap = inner._min_cube_gap
    monkeypatch.setattr(inner, "_min_cube_gap", spy)
    family = _build_cached.__wrapped__(d, 4)
    assert checked and len(set(checked)) == len(checked)
    tables = b"".join(table.tobytes() for table in family.phis)
    assert hashlib.sha256(tables).hexdigest() == _PHI_SHA256[d]


@pytest.mark.parametrize("cores", [1, 7])
@pytest.mark.parametrize("d,rank", [(2, 3), (3, 1)])
def test_family_tables_do_not_depend_on_the_worker_count(d, rank, cores,
                                                         monkeypatch):
    """The phis are built on min(2d+1, usable cores) threads, each checking
    into its own sums buffer, and the 2d+1 checks reuse the buffers the
    build allocated for its workers.  One usable core gives one thread
    and one buffer; more workers than cores, with a short switch
    interval, never share a buffer.  Both give the table bytes of the
    default build."""
    want = [t.tobytes() for t in _build_cached.__wrapped__(d, rank).phis]
    threads, in_use = set(), set()
    # every buffer seen stays referenced, so no two of them share an id
    buffers = {}
    lock = threading.Lock()
    build_phi = inner._build_phi

    def spy(d, rank, q, lambdas, buf):
        with lock:
            threads.add(threading.get_ident())
            assert id(buf) not in in_use, "one sums buffer in two checks"
            in_use.add(id(buf))
            buffers[id(buf)] = buf
        try:
            return build_phi(d, rank, q, lambdas, buf)
        finally:
            with lock:
                in_use.discard(id(buf))

    monkeypatch.setattr(inner, "_build_phi", spy)
    monkeypatch.setattr(inner.os, "sched_getaffinity",
                        lambda pid: set(range(cores)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        family = _build_cached.__wrapped__(d, rank)
    finally:
        sys.setswitchinterval(interval)
    assert [t.tobytes() for t in family.phis] == want
    assert 1 <= len(threads) <= min(cores, 2 * d + 1)
    assert 1 <= len(buffers) <= min(cores, 2 * d + 1)
    if cores == 1:
        assert len(threads) == 1


@pytest.mark.parametrize("cores", [1, None])
def test_a_failing_phi_fails_the_build(cores, monkeypatch):
    """The RuntimeError of one phi surfaces from build_inner_family; on one
    core no phi after it starts."""
    started = []

    def fake(d, rank, q, lambdas, buf):
        started.append(q)
        if q == 1:
            raise RuntimeError("no windows for q=1")
        return np.array([[0.0, 0.0], [1.0, 1.0]])

    monkeypatch.setattr(inner, "_build_phi", fake)
    if cores:
        monkeypatch.setattr(inner.os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
    with pytest.raises(RuntimeError, match="q=1"):
        build_inner_family(5, 2)  # a (d, rank) no other test caches
    assert 1 in started
    if cores == 1:
        assert started == [0, 1]


@st.composite
def cube_gap_problems(draw):
    """Anchors and weights for d = 2, 3.  Anchors on an eighths grid and
    weights from a few dyadic values give exact ties, and equal sums then
    sit on slab edges, which are sums themselves; slabs go down to one
    sum."""
    d = draw(st.sampled_from([2, 3]))
    t = draw(st.integers(1, 12))
    if draw(st.booleans()):
        anchors = [k / 8 for k in draw(st.lists(st.integers(0, 8),
                                                min_size=t, max_size=t))]
        lambdas = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]),
                                min_size=d, max_size=d))
    else:
        anchors = draw(st.lists(st.floats(0.0, 1.0), min_size=t,
                                max_size=t))
        lambdas = draw(st.lists(st.floats(0.01, 1.0), min_size=d,
                                max_size=d))
    slab = draw(st.sampled_from([1, 2, 3, 7, 64, 2 ** 20]))
    return np.array(anchors), np.array(lambdas), slab


@settings(max_examples=300, deadline=None)
@given(cube_gap_problems())
@example((np.array([0.0, 0.25, 0.5, 0.75]), np.array([1.0, 1.0]), 1))
@example((np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5, 0.5]), 2))
def test_streamed_cube_gap_matches_the_plain_check(problem):
    anchors, lambdas, slab = problem
    plain = inner._min_cube_gap(anchors, lambdas)
    with mock.patch.object(inner, "_STREAM_SLAB", slab):
        streamed = inner._streamed_cube_gap(anchors, lambdas)
        # slabs in a caller's buffer, one long enough for all the sums and
        # one too short for any slab but a one-sum one
        for size in (len(anchors) ** len(lambdas), 1):
            buf = np.full(size, np.nan)
            assert inner._streamed_cube_gap(anchors, lambdas, buf) == plain
    assert streamed == plain


@settings(max_examples=200, deadline=None)
@given(cube_gap_problems())
def test_chunked_cube_gap_matches_the_whole_difference(problem):
    """The smallest gap taken chunk by chunk in a caller's buffer, against
    np.diff over all the sorted sums; chunks go down to one difference."""
    anchors, lambdas, chunk = problem
    sums = lambdas[0] * anchors
    for lam in lambdas[1:]:
        sums = (sums[:, None] + lam * anchors).ravel()
    sums.sort()
    want = float(np.diff(sums).min()) if sums.size > 1 else float("inf")
    with mock.patch.object(inner, "_GAP_CHUNK", chunk):
        assert inner._min_cube_gap(anchors, lambdas) == want
        buf = np.full(sums.size + 3, np.nan)
        assert inner._min_cube_gap(anchors, lambdas, buf=buf) == want


def test_serialization_roundtrip(tmp_path):
    fam = build_inner_family(2, 2)
    path = tmp_path / "family.ksti"
    save_inner_family(fam, path)
    back = load_inner_family(path)
    assert back.d == fam.d and back.rank == fam.rank
    assert np.array_equal(back.lambdas, fam.lambdas)
    for a, b in zip(fam.phis, back.phis):
        assert np.array_equal(a, b)


def test_serialization_rejects_corruption(tmp_path):
    fam = build_inner_family(2, 1)
    path = tmp_path / "family.ksti"
    save_inner_family(fam, path)
    raw = path.read_bytes()
    (tmp_path / "bad_magic.ksti").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CacheMismatch, match="magic"):
        load_inner_family(tmp_path / "bad_magic.ksti")
    (tmp_path / "short.ksti").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CacheMismatch, match="truncated"):
        load_inner_family(tmp_path / "short.ksti")
    for cut in (2, 10):  # inside the magic, inside the header
        (tmp_path / "stub.ksti").write_bytes(raw[:cut])
        with pytest.raises(CacheMismatch):
            load_inner_family(tmp_path / "stub.ksti")
    (tmp_path / "long.ksti").write_bytes(raw + bytes(8))
    with pytest.raises(CacheMismatch, match="8 trailing bytes"):
        load_inner_family(tmp_path / "long.ksti")
    # a d or rank that build_inner_family refuses, the rest intact
    for d, rank, word in ((0, 1, "dimension"), (6, 1, "dimension"),
                          (2, 0, "rank"), (2, 40, "narrower")):
        (tmp_path / "bad.ksti").write_bytes(reframed(raw, lambda b: [
            struct.pack("<II", d, rank), *b[1:]]))
        with pytest.raises(CacheMismatch, match=word):
            load_inner_family(tmp_path / "bad.ksti")
    # blocks that do not make a family, under a matching checksum
    for edit, word in (
            (lambda b: [b[0][:7], *b[1:]], "7 bytes"),
            (lambda b: b[:1], "1 blocks, not"),
            (lambda b: [*b[:-1], b[-1][:-8]], "table 4 is not whole"),
            (lambda b: b[:-1], "6 blocks, not")):  # d=2 without phi_4
        (tmp_path / "bad.ksti").write_bytes(reframed(raw, edit))
        with pytest.raises(CacheMismatch, match=word):
            load_inner_family(tmp_path / "bad.ksti")


def test_load_checks_the_checksum_weights_and_tables(tmp_path):
    path = tmp_path / "family.ksti"
    save_inner_family(build_inner_family(2, 1), path)
    raw = path.read_bytes()
    assert reframed(raw, lambda b: b) == raw
    cases = {
        "checksum mismatch": raw[:-1] + bytes([raw[-1] ^ 1]),
        "weights": reframed(raw, lambda b: [
            b[0], struct.pack("<d", 0.5) + b[1][8:], *b[2:]]),
        # phi_4(1) = 2: still rising, but past 1
        "table 4": reframed(raw, lambda b: [
            *b[:-1], b[-1][:-8] + struct.pack("<d", 2.0)]),
    }
    for word, data in cases.items():
        (tmp_path / "bad.ksti").write_bytes(data)
        with pytest.raises(CacheMismatch, match=word):
            load_inner_family(tmp_path / "bad.ksti")
