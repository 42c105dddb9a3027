"""Workload table shared by the driver (run.py) and its worker processes.

Each workload is one closed loop in one fresh process with a fresh cache
directory.  `processes` lists the fresh processes of one run, in order,
by how far each goes: "setup" sets up and exits, "table" goes on to the
checked table pass, "timed" then also runs the steady passes.  setup_s
is the median over all of them, time_to_table_s over those that reach
the table.  A cold 2-d build costs ~14 s, so table2d-cold repeats only
its set-up.  Why each workload exists, and what it should and should
not move, is written in perfbench/README.md and BENCHMARK.json.
"""

KNET_SIZES = [8, 16, 32, 64, 128, 256, 512]

WORKLOADS = {
    # README headline: cold build of two 2-d bases, then the RMSE table.
    # maxvol (six diversified starts plus one LU start) and the
    # near-square DLS at n=1000 dominate.
    "table2d-cold": {
        "kind": "table", "d": 2, "n_list": [100, 1000], "fit_grid": 41,
        "methods": ["dls", "pivotal"], "warm": [],
        "processes": ["setup", "timed"],
    },
    # Fits dominate: n=100 and n=400 come from a cache filled beforehand
    # by the code under test (two hits), n=200 is built and written (a
    # miss); the only workload with cache reads and OMP.  n=1000 is left
    # to table2d-cold: building it for the fill would cost ~11 s a run.
    "sweep2d-warm": {
        "kind": "table", "d": 2, "n_list": [100, 200, 400], "fit_grid": 41,
        "methods": ["dls", "pivotal", "omp"], "warm": [100, 400],
        "processes": ["table", "timed"],
    },
    # Network rate experiments of criteria 4 and 5: runs knet and
    # bsplines only, so a pipeline optimisation should not move it.
    "knet2d": {
        "kind": "knet", "d": 2, "profiles": ["sin", "sqrt"],
        "n_list": KNET_SIZES, "warm": [], "processes": ["table", "timed"],
    },
}
