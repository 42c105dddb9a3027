"""kstfit benchmark: the basis -> pivots -> fit chain, end to end.

    python3 perfbench/run.py --workload table2d-cold --seed 1 --seconds 15
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from the root of a checkout.  Every process of a run (see
workloads.py), and the fill of a warm cache, is a fresh process
(perfbench/worker.py) with BLAS threads limited to the usable cores and
a fresh cache directory under .perfbench/, which is removed at the end.  Prints the metrics by name and unit, then one
JSON object as the last line.  --trace 1 adds a traced timed run and
reports per-layer metrics instead, with the tracing overhead; spans go
to .perfbench/traces/<workload>-seed<seed>.jsonl.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(ROOT, ".perfbench")
RUN_LIMIT_S = 175.0

END_TO_END = [("setup_s", "s"), ("time_to_table_s", "s"),
              ("fits_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("rmse_gmean", "1")]
# Results of the timed run that cannot be end-to-end metrics because some
# workloads have none of them (no cache, no pivots, no network); a
# workload without one reports 0.
RESULTS = [("pivot_count", "count"), ("cache_mb", "MB"),
           ("dls_rmse_gmean", "1"), ("pivotal_rmse_gmean", "1"),
           ("omp_rmse_gmean", "1"), ("sup_err_gmean", "1"),
           ("error_rate", "1"), ("pivotal.logvol", "1"),
           ("pivotal.cond", "1")]
LAYER_UNITS = {"calls": "count", "median_s": "s", "rss_mb": "MB",
               "kept_ratio": "1", "rank": "count", "omp_stagnated": "count",
               "write_mb": "MB", "read_mb": "MB", "hits": "count",
               "misses": "count", "stale": "count", "params": "count",
               "overhead_s": "s"}


def layer_unit(name):
    if name in dict(RESULTS):
        return dict(RESULTS)[name]
    suffix = name.rsplit(".", 1)[-1]
    if suffix in LAYER_UNITS:
        return LAYER_UNITS[suffix]
    return "s" if suffix.endswith("_s") else "1"


class Worker:
    """Starts worker processes within the run's time limit."""

    def __init__(self, workload, seed, seconds, deadline):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = deadline
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                        OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                        PYTHONDONTWRITEBYTECODE="1")

    def __call__(self, mode, cache_dir, trace_file=""):
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--mode", mode, "--cache-dir", cache_dir,
               "--seed", str(self.seed), "--seconds", str(self.seconds),
               "--trace-file", trace_file]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("run exceeded its time limit")
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=left,
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    """One run of one workload: fill its warm cache if it has one, then
    its processes (workloads.py), each on a fresh copy of the cache.
    Returns (the timed result with setup_s and time_to_table_s the
    medians over the processes that reach them, layer metrics or None).
    A traced run has one untraced and one traced timed process."""
    wl = WORKLOADS[name]
    worker = Worker(name, seed, seconds, time.monotonic() + RUN_LIMIT_S)
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        filled = os.path.join(tmp, "filled")
        os.makedirs(filled)
        fill = worker("fill", filled) if wl["warm"] else {}

        def fresh_cache():
            # a copy of what the fill wrote; never shared between runs
            return shutil.copytree(filled, tempfile.mkdtemp(dir=tmp),
                                   dirs_exist_ok=True)

        runs = [worker(mode, fresh_cache())
                for mode in (["timed"] if trace else wl["processes"])]
        timed = dict(runs[-1])
        for key in ("setup_s", "time_to_table_s"):
            timed[f"{key}.runs"] = [r[key] for r in runs if key in r]
            timed[key] = statistics.median(timed[f"{key}.runs"])
        for key in ("attempted", "failed"):
            timed[key] = fill.get(key, 0) + sum(r[key] for r in runs)
        if not trace:
            return timed, None
        trace_file = os.path.join(WORK_DIR, "traces",
                                  f"{name}-seed{seed}.jsonl")
        traced = worker("timed", fresh_cache(), trace_file)
        layers = traced["layers"]
        layers["trace.overhead_s"] = (traced["time_to_table_s"]
                                      - timed["time_to_table_s"])
        for key in ("attempted", "failed"):
            timed[key] += traced[key]
        timed["unresolved"] = traced["unresolved"]
        timed["trace_file"] = os.path.relpath(trace_file, ROOT)
        return timed, layers
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report(name, timed, layers):
    """Print one workload's metrics; return its metrics dict."""
    timed["error_rate"] = timed["failed"] / max(1, timed["attempted"])
    print(f"# {name}: environment {json.dumps(timed['environment'])}")
    for key in ("setup_s", "time_to_table_s"):
        print(f"# {name}: {key} is the median of "
              f"{json.dumps(timed[key + '.runs'])}")
    print(f"# {name}: fits_per_s is the median of "
          f"{timed['steady_passes']} steady pass(es) of {timed['ops']} "
          f"operations after the table pass")
    for key, unit in END_TO_END + RESULTS:
        print(f"{name}  {key:<22} {timed.get(key, 0.0):.6g} {unit}")
    if layers is None:
        return {key: {"value": timed[key], "unit": unit}
                for key, unit in END_TO_END}
    layers.update({key: timed.get(key, 0.0) for key, unit in RESULTS})
    for key in sorted(layers):
        print(f"{name}  {key:<28} {layers[key]:.6g} {layer_unit(key)}")
    zero = sorted(k[:-len(".calls")] for k, v in layers.items()
                  if k.endswith(".calls") and v == 0)
    print(f"# {name}: spans with zero calls: {', '.join(zero) or 'none'}")
    if timed["unresolved"]:
        print(f"# {name}: spans not found in the code under test: "
              f"{', '.join(timed['unresolved'])}")
    print(f"# {name}: tracing overhead {layers['trace.overhead_s']:.3f} s "
          f"(traced minus untraced time_to_table_s); spans in "
          f"{timed['trace_file']}")
    return {key: {"value": value, "unit": layer_unit(key)}
            for key, value in layers.items()}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "kstfit", "__init__.py")):
        sys.exit(f"no kstfit sources under {os.path.join(ROOT, 'src')}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        timed, layers = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        attempted += timed["attempted"]
        failed += timed["failed"]
        for key, value in report(name, timed, layers).items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
