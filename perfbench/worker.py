"""One benchmark process: set up a workload through kstfit's public API,
then fit and evaluate in a closed loop, checking every result.

perfbench/run.py starts one fresh process of this script per cache fill
(--mode fill) and per run of a workload process (--mode setup, table or
timed: see workloads.py).  The last line of stdout is one JSON object
with the measurements.
"""

import time

_T0 = time.perf_counter()  # set-up and time-to-table count from here

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

import kstfit
import kstfit.bench
import kstfit.testfuncs

from tracing import SPANS, Tracer
from workloads import WORKLOADS

if not os.path.abspath(kstfit.__file__).startswith(
        os.path.join(ROOT, "src") + os.sep):
    raise ImportError(f"kstfit imported from {kstfit.__file__}, not from "
                      f"this checkout's src/")

EVAL_GRID = 101
COMBOS_PER_BASIS = 2
COMBO_TERMS = 3

# The benchmark's own copy of the reference neighbourhoods: full-grid DLS
# eval RMSE of f1..f10 (Table 1, d=2), each result within REF_FACTOR of
# its entry.
TABLE1 = {
    100: [1.67e-05, 4.19e-04, 1.09e-04, 7.67e-04, 2.28e-04,
          2.52e-04, 7.05e-02, 1.50e-03, 3.49e-04, 2.02e-03],
    1000: [5.79e-06, 1.17e-04, 3.57e-05, 2.10e-04, 6.69e-05,
           7.97e-05, 7.80e-03, 3.73e-04, 8.25e-05, 7.77e-04],
}
REF_FACTOR = 100.0
# Criterion 9 at 2-d n=100: |I| <= 110 and pivotal within 10x of full
# for at least 8 of 10 functions.  Criterion 12: f4 DLS slope <= -0.3.
CRIT9_MAX_PIVOTS, CRIT9_FACTOR, CRIT9_MIN_GOOD = 110, 10.0, 8
CRIT12_MAX_SLOPE = -0.3
# DLS is linear in its targets: fitted grid values of sum c_k f_k match
# sum c_k fit(f_k) to rounding.
LINEARITY_RTOL = 1e-8


class Tally:
    """Attempted and failed operations; an exception or a failed check
    counts as one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            print(f"operation failed: {label}", file=sys.stderr)
            return None

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {label}", file=sys.stderr)


class _NoTrace:
    """Stands in for Tracer when tracing is off: spans cost nothing."""

    def span(self, name, **attrs):
        return nullcontext()


class Combo:
    """A seeded fit target: sum_k c_k f_k over registry functions."""

    def __init__(self, funcs, coeffs):
        self.funcs, self.coeffs = funcs, coeffs
        self.fid = "+".join(f"{c:.3f}*{f.fid}" for f, c in zip(funcs, coeffs))

    def __call__(self, pts):
        return sum(c * f(pts) for f, c in zip(self.funcs, self.coeffs))


def gmean(values):
    """Geometric mean of the finite positive values; 0 when there are none
    (non-finite RMSEs fail their own check)."""
    values = [v for v in values if math.isfinite(v) and v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def dir_mb(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total / 1e6


def fit_and_evaluate(basis, target, method, eval_pts):
    values = target(basis.grid.points)
    if method == "dls":
        fit = kstfit.dls_fit(basis.matrix, values)
    elif method == "pivotal":
        fit = kstfit.pivotal_fit(basis.matrix, basis.rows, basis.cols,
                                 values[basis.rows])
    else:
        fit = kstfit.omp_fit(basis.matrix, values, sparsity=basis.rank)
    kstfit.evaluate_fit(fit, basis.lkb, eval_pts, target)
    return fit


def closed_loop(run_pass, check, ops_per_pass, args):
    """Run the first pass (the table) and check it; in a timed process,
    then steady passes for about `args.seconds` seconds.  Every pass is
    whole and there is at least one steady pass; no pass starts that the
    last one's duration says would end past `args.seconds`.  Returns the
    time to table and, after steady passes, fits_per_s: the median over
    them of operations per second, so one slow pass does not move it."""
    run_pass(True)
    check()
    out = {"time_to_table_s": time.perf_counter() - _T0}
    if args.mode != "timed":
        return out
    steady, loop_t0 = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass(False)
        steady.append(time.perf_counter() - t0)
        if time.perf_counter() - loop_t0 + steady[-1] > args.seconds:
            break
    out["fits_per_s"] = statistics.median(ops_per_pass / s for s in steady)
    out["steady_passes"] = len(steady)
    return out


def setup_table(wl, cache_dir, tally, tracer):
    bases = {}
    for n in wl["n_list"]:
        with tracer.span("harness.setup", n=n):
            bases[n] = tally.run(
                f"basis d={wl['d']} n={n}", kstfit.bench.get_basis_set,
                wl["d"], n, cache_dir=cache_dir, fit_grid=wl["fit_grid"])
    return bases


def check_table(wl, bases, results, combos, tally):
    """Checks on the first pass; results[(n, fid, method)] is a FitResult
    or None when the operation failed."""
    d = wl["d"]
    funcs = kstfit.testfuncs.registry(d)
    for key, fit in results.items():
        if fit is not None:
            tally.check(f"finite RMSE {key}", math.isfinite(fit.eval_rmse))
    for n, ref in (TABLE1 if d == 2 else {}).items():
        for f, r in zip(funcs, ref):
            fit = results.get((n, f.fid, "dls"))
            if n in bases and fit is not None:
                tally.check(f"DLS {f.fid} n={n} within {REF_FACTOR:g}x of "
                            f"reference", fit.eval_rmse <= REF_FACTOR * r)
    if d == 2 and bases.get(100) is not None:
        tally.check("criterion 9 pivot count",
                    bases[100].rank <= CRIT9_MAX_PIVOTS)
        good = sum(1 for f in funcs
                   if results.get((100, f.fid, "pivotal")) is not None
                   and results.get((100, f.fid, "dls")) is not None
                   and results[(100, f.fid, "pivotal")].eval_rmse
                   <= CRIT9_FACTOR * results[(100, f.fid, "dls")].eval_rmse)
        tally.check(f"criterion 9 pivotal within {CRIT9_FACTOR:g}x of full "
                    f"({good}/10)", good >= CRIT9_MIN_GOOD)
    for n, basis in bases.items():
        for combo in combos.get(n, []):
            fit = results.get((n, combo.fid, "dls"))
            parts = [results.get((n, f.fid, "dls")) for f in combo.funcs]
            if fit is None or any(p is None for p in parts):
                continue
            m = basis.matrix.values
            expect = sum(c * (m @ p.coefficients)
                         for c, p in zip(combo.coeffs, parts))
            got = m @ fit.coefficients
            scale = max(1.0, float(np.max(np.abs(combo(basis.grid.points)))))
            tally.check(f"DLS linearity n={n} {combo.fid}",
                        float(np.max(np.abs(got - expect)))
                        <= LINEARITY_RTOL * scale)
    if len(wl["n_list"]) >= 3 and all(
            results.get((n, "f4", "dls")) is not None for n in wl["n_list"]):
        errors = [results[(n, "f4", "dls")].eval_rmse for n in wl["n_list"]]
        slope, _ = kstfit.bench.estimate_convergence_slope(errors,
                                                           wl["n_list"])
        tally.check(f"criterion 12 f4 slope {slope}",
                    slope is not None and slope <= CRIT12_MAX_SLOPE)


def run_table(wl, bases, args, tally, tracer):
    rng = np.random.default_rng(args.seed)
    funcs = kstfit.testfuncs.registry(wl["d"])
    ops, combos = [], {}
    for n, basis in bases.items():
        for f in funcs:
            ops += [(n, f, method) for method in wl["methods"]]
        combos[n] = []
        for _ in range(COMBOS_PER_BASIS):
            picks = rng.choice(len(funcs), size=COMBO_TERMS, replace=False)
            signs = rng.choice([-1.0, 1.0], COMBO_TERMS)
            coeffs = signs * rng.uniform(0.25, 1.0, COMBO_TERMS)
            combo = Combo([funcs[i] for i in picks], coeffs.tolist())
            combos[n].append(combo)
            ops.append((n, combo, "dls"))
    order = rng.permutation(len(ops))
    eval_pts = kstfit.PointSet.grid(wl["d"], EVAL_GRID)

    results = {}

    def run_pass(first):
        for i in order:
            n, target, method = ops[i]
            label = f"{method} n={n} {target.fid}"
            with tracer.span("harness.op", n=n, target=target.fid,
                             method=method):
                if bases[n] is None:
                    tally.run(label, _missing_basis, n)
                    fit = None
                else:
                    fit = tally.run(label, fit_and_evaluate, bases[n],
                                    target, method, eval_pts)
            if first:
                results[(n, target.fid, method)] = fit

    def check():
        check_table(wl, {n: b for n, b in bases.items() if b is not None},
                    results, combos, tally)

    out = closed_loop(run_pass, check, len(ops), args)

    registry_rmse = {m: [results[(n, f.fid, m)].eval_rmse
                         for n in bases for f in funcs
                         if results.get((n, f.fid, m)) is not None]
                     for m in ("dls", "pivotal", "omp")}
    live = [b for b in bases.values() if b is not None]
    out.update({
        "rmse_gmean": gmean([v for m in wl["methods"]
                             for v in registry_rmse[m]]),
        "ops": len(ops),
        "pivot_count": sum(b.rank for b in live),
        "cache_mb": dir_mb(args.cache_dir),
        "dls_rmse_gmean": gmean(registry_rmse["dls"]),
        "pivotal_rmse_gmean": gmean(registry_rmse["pivotal"]),
        "omp_rmse_gmean": gmean(registry_rmse["omp"]),
    })
    if live:
        blocks = [b.matrix.values[np.ix_(b.rows, b.cols)] for b in live]
        out["pivotal.logvol"] = float(np.mean(
            [np.linalg.slogdet(m)[1] for m in blocks]))
        out["pivotal.cond"] = float(max(np.linalg.cond(m) for m in blocks))
    return out


def _missing_basis(n):
    raise RuntimeError(f"no basis for n={n}: its set-up failed")


def setup_knet(wl, cache_dir, tally, tracer):
    with tracer.span("harness.setup"):
        tally.run("inner family", kstfit.build_inner_family, wl["d"])


def run_knet(wl, _, args, tally, tracer):
    rng = np.random.default_rng(args.seed)
    order = [wl["profiles"][i] for i in rng.permutation(len(wl["profiles"]))]
    sizes = wl["n_list"]
    errors = {}

    def run_pass(first):
        for profile in order:
            with tracer.span("harness.op", profile=profile):
                res = tally.run(f"knet rate {profile}",
                                kstfit.bench.run_knet_rate, wl["d"], profile,
                                sizes)
            if first and res is not None:
                errors[profile] = res[1]

    def check():
        for profile, res in errors.items():
            sup = np.asarray(res["sup_error"], dtype=float)
            tally.check(f"knet {profile} errors finite",
                        bool(np.all(np.isfinite(sup))))
            slope = res["slope"]
            if profile == "sin":   # criterion 4
                tally.check(f"criterion 4 slope {slope}",
                            slope is not None and slope <= -0.9)
                tally.check("criterion 4 errors under (2d+1)^2/n",
                            bool(np.all(sup <= 25.0 / np.asarray(sizes))))
            elif profile == "sqrt":   # criterion 5
                tally.check(f"criterion 5 slope {slope}",
                            slope is not None and -0.65 <= slope <= -0.35)

    ops = len(order) * len(sizes)
    out = closed_loop(run_pass, check, ops, args)
    sup = [float(e) for res in errors.values() for e in res["sup_error"]]
    out.update({"rmse_gmean": gmean(sup), "ops": ops,
                "sup_err_gmean": gmean(sup)})
    return out


def layer_metrics(tracer):
    """Per-layer metrics of a traced run; layers with no calls read 0."""
    out = {}
    for name, row in tracer.summary().items():
        if name not in SPANS:   # the harness's own root spans
            continue
        out[f"{name}_s"] = row["busy_s"]
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.median_s"] = row["median_s"]
    inner = tracer.attrs("inner.build")
    out["inner.rss_mb"] = sum(a["rss_rise_kb"] for a in inner) / 1024
    prune = [a for a in tracer.attrs("kb.prune") if "raw" in a]
    out["kb.kept_ratio"] = (sum(a["kept"] for a in prune)
                            / sum(a["raw"] for a in prune)) if prune else 0.0
    out["pivotal.rank"] = sum(a.get("rank", 0)
                              for a in tracer.attrs("pivotal.rank"))
    out["fitting.omp_stagnated"] = sum(
        1 for a in tracer.attrs("fitting.omp") if a.get("stagnated"))
    for kind in ("write", "read"):
        out[f"cache.{kind}_mb"] = sum(
            a.get("bytes", 0) for a in tracer.attrs(f"cache.{kind}")) / 1e6
    hits = misses = stale = 0
    for s in tracer.spans:
        if s["name"] != "bench.get_basis":
            continue
        kids = {c["name"]: c["attrs"] for c in tracer.children(s["id"])}
        if "cache.read" in kids and "error" in kids["cache.read"]:
            stale += 1
        elif "cache.read" in kids:
            hits += 1
        elif "cache.write" in kids:
            misses += 1
    out.update({"cache.hits": hits, "cache.misses": misses,
                "cache.stale": stale})
    params = [a["params"] for a in tracer.attrs("knet.build") if "params" in a]
    out["knet.params"] = sum(params) / len(params) if params else 0.0
    return out


def environment():
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {"machine": platform.machine(), "platform": platform.platform(),
            "processor": platform.processor(), "cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--mode", required=True,
                        choices=["fill", "setup", "table", "timed"])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-file", default="")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    tally = Tally()
    tracer = Tracer() if args.trace_file else None
    if tracer is not None:
        tracer.install()
    spans = tracer if tracer is not None else _NoTrace()
    if args.mode == "fill":
        for n in wl["warm"]:
            tally.run(f"fill d={wl['d']} n={n}", kstfit.bench.get_basis_set,
                      wl["d"], n, cache_dir=args.cache_dir,
                      fit_grid=wl["fit_grid"])
        out = {}
    else:
        knet = wl["kind"] == "knet"
        state = (setup_knet if knet else setup_table)(
            wl, args.cache_dir, tally, spans)
        setup_s = time.perf_counter() - _T0
        out = {}
        if args.mode != "setup":
            out = (run_knet if knet else run_table)(wl, state, args, tally,
                                                    spans)
        out["setup_s"] = setup_s
    out.update({"attempted": tally.attempted, "failed": tally.failed,
                "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "environment": environment()})
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        out["unresolved"] = tracer.unresolved
        tracer.write(args.trace_file, {"workload": args.workload,
                                       "seed": args.seed,
                                       "environment": out["environment"]})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
