"""Acceptance suite: one test per exit criterion, each printing a PASS
line with the measured quantities (run with -s to see them).

Reference RMSE targets depend on unpublished construction details, so
they act as order-of-magnitude neighborhoods (factor 100) rather than
exact values; the remaining criteria are property checks at fixed
tolerances.
"""

import itertools
import os
import time

import numpy as np
import pytest

from conftest import (
    cube_image_overlap,
    families_missing_at,
    second_derivative_sup,
    thin_plate_energy_of,
)
from kstfit.bench import (
    ExperimentSpec,
    get_basis_set,
    run_slope_experiment,
    run_table_experiment,
)
from kstfit.bsplines import LinearSpline, linear_spline_to_relu
from kstfit.fitting import dls_fit, evaluate_fit, omp_fit, rms_seminorm
from kstfit.inner import build_inner_family
from kstfit.kb import DesignMatrix, KBBasis, PointSet, \
    assemble_design_matrix
from kstfit.knet import rate_experiment
from kstfit.pivotal import (SWAP_MARGIN, build_cross_approximation,
                            maxvol_select, pivotal_fit)
from kstfit.smoothing import (SmoothingConfig, build_lkb_basis,
                              denoise_samples, eval_surface)
from kstfit.testfuncs import registry

TABLE1_FULL = {
    100: [1.67e-05, 4.19e-04, 1.09e-04, 7.67e-04, 2.28e-04,
          2.52e-04, 7.05e-02, 1.50e-03, 3.49e-04, 2.02e-03],
    1000: [5.79e-06, 1.17e-04, 3.57e-05, 2.10e-04, 6.69e-05,
           7.97e-05, 7.80e-03, 3.73e-04, 8.25e-05, 7.77e-04],
    10000: [5.14e-07, 2.83e-05, 2.20e-05, 4.99e-05, 1.93e-05,
            1.43e-05, 1.30e-03, 1.69e-04, 2.48e-05, 1.68e-04],
}
TABLE2_FULL_N100 = [8.27e-06, 4.42e-05, 1.24e-05, 2.93e-04, 1.31e-04,
                    1.24e-04, 1.65e-02, 2.47e-03, 1.43e-04, 3.21e-04]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("acceptance-cache"))


@pytest.fixture(scope="module")
def basis2(cache_dir):
    return {n: get_basis_set(2, n, cache_dir=cache_dir)
            for n in (100, 1000)}


@pytest.fixture(scope="module")
def basis3(cache_dir):
    return get_basis_set(3, 100, cache_dir=cache_dir)


def _full_and_pivotal_rmse(basis, eval_pts):
    rows = {}
    for func in registry(basis.d):
        target = func(basis.grid.points)
        full = dls_fit(basis.matrix, target)
        evaluate_fit(full, basis.lkb, eval_pts, func)
        piv = pivotal_fit(basis.matrix, basis.rows, basis.cols,
                          target[basis.rows])
        evaluate_fit(piv, basis.lkb, eval_pts, func)
        rows[func.fid] = (full.eval_rmse, piv.eval_rmse)
    return rows


def test_criterion_01_inner_construction_verified():
    t0 = time.monotonic()
    checked = 0
    for d, rank in ((2, 3), (3, 3)):
        fam = build_inner_family(d, rank)
        grid = np.linspace(0.0, 1.0, 101)
        for q in range(fam.n_phi):
            tab = fam.phis[q]
            assert np.all(np.diff(tab[:, 0]) > 0)          # (a)
            assert np.all(np.diff(tab[:, 1]) > 0)
        for k in range(1, rank + 1):
            for x in grid:                                  # (b)
                assert families_missing_at(fam, k, x) <= 1
            for q in range(fam.n_phi):                      # (c)
                overlap = cube_image_overlap(fam, k, q)
                assert overlap < 0, (d, rank, k, q, overlap)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS - monotone tables, gap-miss <= 1, "
          f"{checked} (rank, family) cube-image sets disjoint "
          f"in {elapsed:.1f}s")


def test_criterion_02_partition_row_sums():
    worst = 0.0
    for d, per_axis in ((2, 41), (3, 41)):
        fam = build_inner_family(d)
        kb = KBBasis(fam, n=100)
        matrix = assemble_design_matrix(kb, PointSet.grid(d, per_axis))
        dev = np.max(np.abs(matrix.sum(axis=1) - (2 * d + 1)))
        worst = max(worst, dev)
        assert dev <= 1e-10, f"d={d}"
    print(f"[criterion 2] PASS - row sums equal 2d+1, worst deviation "
          f"{worst:.2e}")


def test_criterion_03_relu_round_trip():
    rng = np.random.default_rng(33)
    t = np.linspace(0.0, 1.0, 10_000)
    lattice = np.linspace(0.05, 0.95, 19)  # keeps slopes well-conditioned
    worst = 0.0
    for _ in range(100):
        interior = np.sort(rng.choice(lattice, size=rng.integers(2, 9),
                                      replace=False))
        knots = np.concatenate([[0.0], interior, [1.0]])
        spline = LinearSpline(knots, rng.normal(size=len(knots)))
        relu = linear_spline_to_relu(spline)
        worst = max(worst, float(np.max(np.abs(relu(t) - spline(t)))))
    assert worst <= 1e-12
    print(f"[criterion 3] PASS - 100 random splines round-trip, max "
          f"error {worst:.2e}")


def test_criterion_04_network_rate_lipschitz():
    t0 = time.monotonic()
    fam = build_inner_family(2)
    res = rate_experiment(fam, np.sin, [8, 16, 32, 64, 128, 256, 512])
    elapsed = time.monotonic() - t0
    bound = 25.0 / np.array(res["n"])  # (2d+1)^2 C_g / n at C_g = 1
    assert res["slope"] <= -0.9
    assert np.all(res["sup_error"] <= bound)
    assert elapsed < 120.0
    print(f"[criterion 4] PASS - sin profile slope {res['slope']:.2f}, "
          f"all errors under (2d+1)^2/n, {elapsed:.0f}s")


def test_criterion_05_network_rate_hoelder():
    fam = build_inner_family(2)
    res = rate_experiment(fam, np.sqrt, [8, 16, 32, 64, 128, 256, 512])
    assert -0.65 <= res["slope"] <= -0.35
    print(f"[criterion 5] PASS - sqrt profile slope {res['slope']:.2f} "
          f"within -0.5 +/- 0.15")


def test_criterion_06_smoothing_error_bound():
    grid = PointSet.grid(2, 41)
    cfg = SmoothingConfig(penalty=1.0, segments=24)
    h = 1.0 / cfg.segments
    cases = [(f, lambda x, y, f=f: f(np.stack([x, y], axis=-1)))
             for f in registry(2) if f.fid in ("f2", "f3", "f5", "f8", "f9")]

    calib = 0.0
    prepared = []
    for func, fxy in cases:
        clean = func(grid.points)
        fitted = eval_surface(denoise_samples(clean, grid, cfg), grid)
        sup2 = second_derivative_sup(fxy)
        calib = max(calib, rms_seminorm(fitted - clean) / (sup2 * h ** 2))
        prepared.append((func, fxy, clean, sup2))

    rng = np.random.default_rng(66)
    for func, fxy, clean, sup2 in prepared:
        noise = np.zeros(len(grid))
        hits = rng.choice(len(grid), size=len(grid) // 20, replace=False)
        amp = 0.5 * (clean.max() - clean.min())
        noise[hits] = amp * rng.choice([-1.0, 1.0], size=len(hits))
        fitted = eval_surface(denoise_samples(clean + noise, grid, cfg), grid)
        err = rms_seminorm(fitted - clean)
        bound = (calib * sup2 * h ** 2 + 2 * rms_seminorm(noise)
                 + np.sqrt(cfg.penalty * thin_plate_energy_of(fxy)))
        assert err <= bound, func.fid
    print(f"[criterion 6] PASS - penalized-fit error bound holds on 5 "
          f"functions with 5% impulses (C calibrated {calib:.2f})")


def test_criterion_07_table1_neighborhood(basis2):
    t0 = time.monotonic()
    eval_pts = PointSet.grid(2, 101)
    errors = {n: _full_and_pivotal_rmse(basis2[n], eval_pts)
              for n in (100, 1000)}
    worst_ratio = 0.0
    non_increasing = 0
    for i, func in enumerate(registry(2)):
        for n in (100, 1000):
            full = errors[n][func.fid][0]
            ratio = full / TABLE1_FULL[n][i]
            worst_ratio = max(worst_ratio, ratio)
            assert ratio <= 100.0, (func.fid, n)
        if errors[1000][func.fid][0] <= errors[100][func.fid][0]:
            non_increasing += 1
    elapsed = time.monotonic() - t0
    assert non_increasing >= 8
    assert elapsed < 1800.0
    print(f"[criterion 7] PASS - full-grid RMSEs within 100x of the 2-d "
          f"reference (worst {worst_ratio:.2f}x), non-increasing "
          f"{non_increasing}/10, {elapsed:.0f}s")


def test_criterion_08_table2_neighborhood(basis3):
    eval_pts = PointSet.grid(3, 101)
    worst = 0.0
    for i, func in enumerate(registry(3)):
        target = func(basis3.grid.points)
        fit = dls_fit(basis3.matrix, target)
        evaluate_fit(fit, basis3.lkb, eval_pts, func)
        ratio = fit.eval_rmse / TABLE2_FULL_N100[i]
        worst = max(worst, ratio)
        assert ratio <= 100.0, func.fid
    print(f"[criterion 8] PASS - 3-d full-grid RMSEs within 100x of the "
          f"reference (worst {worst:.2f}x)")


def test_criterion_09_pivotal_efficiency(basis2):
    basis = basis2[100]
    assert basis.rank <= 110
    eval_pts = PointSet.grid(2, 101)
    rows = _full_and_pivotal_rmse(basis, eval_pts)
    good = sum(1 for full, piv in rows.values() if piv <= 10.0 * full)
    assert good >= 8
    print(f"[criterion 9] PASS - |I| = {basis.rank} <= 110, pivotal "
          f"within 10x of full for {good}/10 functions")


def test_criterion_10_maxvol_oracle():
    rng = np.random.default_rng(2024)
    worst_ratio = 1.0
    for _ in range(50):
        m = rng.normal(size=(8, 6))
        rows, cols = maxvol_select(m, 2)
        got = abs(np.linalg.det(m[np.ix_(rows, cols)]))
        best = max(abs(np.linalg.det(m[np.ix_(r, c)]))
                   for r in itertools.combinations(range(8), 2)
                   for c in itertools.combinations(range(6), 2))
        worst_ratio = min(worst_ratio, got / best)
        assert got >= best / (1 + SWAP_MARGIN) ** 2

    worst_cert = 0.0
    for _ in range(20):
        m = (rng.normal(size=(50, 5)) @ rng.normal(size=(5, 20))
             + 1e-6 * rng.normal(size=(50, 20)))
        approx = build_cross_approximation(m, 5)
        worst_cert = max(worst_cert, approx.ratio)
        assert approx.residual_chebyshev <= 3 * approx.certificate_bound
    print(f"[criterion 10] PASS - greedy/exhaustive volume >= "
          f"{worst_ratio:.3f}, certificate ratio <= {worst_cert:.2f} "
          f"(bound 3)")


def test_criterion_11_omp_planted_recovery():
    fam = build_inner_family(2)
    kb = KBBasis(fam, n=100)
    grid = PointSet.grid(2, 41)
    # light smoothing keeps columns distinguishable; the unit-penalty
    # columns are too collinear for exact support identification
    lkb = build_lkb_basis(kb, grid, SmoothingConfig(penalty=1e-6,
                                                   segments=24))
    values = lkb.design_matrix(grid)
    unit = values / np.linalg.norm(values, axis=0)
    gram = np.abs(unit.T @ unit)
    np.fill_diagonal(gram, 0.0)
    separated = []
    for c in np.argsort(gram.max(axis=1)):
        if all(gram[c, s] < 0.5 for s in separated):
            separated.append(int(c))
    assert len(separated) >= 8
    sub = DesignMatrix(values=values[:, sorted(separated)])
    rng = np.random.default_rng(11)
    for trial in range(20):
        support = sorted(rng.choice(sub.shape[1], size=5, replace=False))
        coef = rng.uniform(1.0, 3.0, size=5) * rng.choice([-1, 1], size=5)
        fit = omp_fit(sub, sub.values[:, support] @ coef, sparsity=5)
        assert sorted(fit.support) == support, trial
        assert fit.training_rmse <= 1e-8, trial
    print(f"[criterion 11] PASS - exact support recovery on 20 planted "
          f"5-sparse targets over {sub.shape[1]} separated columns")


def test_criterion_12_slope_classification(cache_dir):
    spec = ExperimentSpec(d=2, n_list=(100, 200, 400, 1000),
                          cache_dir=cache_dir)
    _, slope, label, errors = run_slope_experiment(spec, "f4", method="dls")
    assert slope <= -0.3
    note = ""
    if os.environ.get("KSTFIT_FULL_SWEEP"):
        full_spec = ExperimentSpec(d=2, n_list=(100, 1000, 10000),
                                   cache_dir=cache_dir)
        _, full_slope, _, _ = run_slope_experiment(full_spec, "f4",
                                                   method="dls")
        assert -0.84 <= full_slope <= -0.34  # -0.59 +/- 0.25
        note = f", full-sweep slope {full_slope:.2f}"
    else:
        note = ", full sweep skipped (set KSTFIT_FULL_SWEEP=1)"
    print(f"[criterion 12] PASS - f4 short-sweep slope {slope:.2f} <= "
          f"-0.3 ({label}){note}")


def test_criterion_13_deterministic_csv(cache_dir):
    spec = ExperimentSpec(d=2, n_list=(100,), cache_dir=cache_dir)
    first = run_table_experiment(spec)
    second = run_table_experiment(spec)
    assert first.encode() == second.encode()
    print("[criterion 13] PASS - repeated table runs produce "
          "byte-identical CSV")
