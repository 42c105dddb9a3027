"""Command-line interface; every subcommand emits CSV to stdout or --out,
but fit always prints its CSV line, and its --out receives the fit as JSON,
with the build configuration of its basis under "basis".

The cache directory resolves from --cache-dir, then the KST_CACHE_DIR
environment variable; with neither, nothing is cached.  A JSON file of
argument defaults can be supplied via --config; a key that names no option
of any subcommand is a usage error.
"""

import argparse
import json
import os
import sys

from .bench import (ExperimentSpec, fit_by_method,
                    pivotal_count_experiment, run_knet_rate,
                    run_slope_experiment, run_table_experiment)
from .inner import PROFILES, superposition_weights
from .testfuncs import get as get_function, registry

FULL_SWEEP_2D = (100, 200, 400, 1000, 10000)
SHORT_SWEEP = (100, 200, 400, 1000)


def _int_list(text):
    """Comma-separated sizes, at least one, each >= 1 and none repeated."""
    sizes = tuple(int(tok) for tok in text.split(",") if tok)
    if not sizes or min(sizes) < 1 or len(set(sizes)) < len(sizes):
        raise argparse.ArgumentTypeError(
            f"need one or more distinct sizes >= 1, got {text!r}")
    return sizes


def _make_parser(defaults=None):
    """The kstfit parser; defaults (read from --config) replace the
    built-in defaults of the top parser and of every subcommand, so
    explicit flags still win."""
    defaults = defaults or {}
    top = argparse.ArgumentParser(
        prog="kstfit",
        description="superposition spline bases, least-squares fits and "
                    "pivotal point sets")
    top.add_argument("--config", help="JSON file with argument defaults")
    top.set_defaults(**defaults)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, basis=True):
        """The arguments the subcommands share (basis=False leaves out the
        basis-build ones), then the defaults over all of p's arguments:
        call it after the subcommand's own."""
        p.add_argument("--d", type=int, default=2)
        p.add_argument("--cache-dir", default=None)
        if basis:
            p.add_argument("--grid", type=int, default=41,
                           help="fit-grid points per axis")
            p.add_argument("--eval-grid", type=int, default=0,
                           help="evaluation-grid points per axis "
                                "(0 = default)")
            p.add_argument("--degree", type=int, default=3)
            p.add_argument("--lambda-pen", type=float, default=1.0,
                           dest="lambda_pen")
            p.add_argument("--segments", type=int, default=0,
                           help="smoothing segments per axis (0 = default)")
        p.add_argument("--out", default=None,
                       help="write output here instead of stdout")
        p.set_defaults(**defaults)

    p = sub.add_parser("build-basis", help="build (and cache) one basis set")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("fit", help="fit one benchmark function")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--method", choices=("dls", "pivotal", "omp"),
                   default="dls")
    p.add_argument("--sparsity", type=int, default=0,
                   help="OMP column count (0 = the pivotal rank); "
                        "refused for the other methods")
    common(p)

    p = sub.add_parser("table", help="RMSE table over all functions")
    p.add_argument("--n-list", type=_int_list, default=None)
    p.add_argument("--full", action="store_true",
                   help="extend the 2-d sweep to n=10000")
    common(p)

    p = sub.add_parser("slopes", help="convergence slope of one function")
    p.add_argument("--function", required=True)
    p.add_argument("--n-list", type=_int_list, default=None)
    p.add_argument("--method", choices=("dls", "pivotal", "omp"),
                   default="dls")
    p.add_argument("--full", action="store_true")
    common(p)

    p = sub.add_parser("pivotal-count", help="pivotal set size against n")
    p.add_argument("--n-list", type=_int_list, default=None)
    common(p)

    p = sub.add_parser("knet-rate", help="network approximation-rate sweep")
    p.add_argument("--g", default="sin",
                   choices=tuple(PROFILES))
    p.add_argument("--n-list", type=_int_list,
                   default=(8, 16, 32, 64, 128, 256, 512))
    common(p, basis=False)
    known = {action.dest for parser in (top, *sub.choices.values())
             for action in parser._actions}
    unknown = sorted(set(defaults) - known)
    if unknown:
        top.error(f"--config key(s) naming no option: {', '.join(unknown)}")
    return top


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec(args):
    """The experiment of a basis subcommand: the one --n of build-basis
    and fit, else --n-list, else the default sweep.  A config may give
    every subcommand an n, so the command, not the attribute, decides."""
    if args.command in ("build-basis", "fit"):
        n_list = (args.n,)
    elif args.n_list:
        n_list = args.n_list
    elif args.d == 2 and getattr(args, "full", False):
        n_list = FULL_SWEEP_2D
    else:
        n_list = SHORT_SWEEP
    return ExperimentSpec(d=args.d, n_list=n_list,
                          fit_grid=args.grid, eval_grid=args.eval_grid,
                          degree=args.degree, penalty=args.lambda_pen,
                          segments=args.segments, cache_dir=_cache_dir(args))


def _cache_dir(args):
    return args.cache_dir or os.environ.get("KST_CACHE_DIR")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    pre_args, _ = pre.parse_known_args(argv)
    defaults = {}
    if pre_args.config:
        with open(pre_args.config) as fh:
            defaults = json.load(fh)
        if "n_list" in defaults:  # a string default is parsed like a flag
            defaults["n_list"] = ",".join(map(str, defaults["n_list"]))
    parser = _make_parser(defaults)
    args = parser.parse_args(argv)
    # --d, function ids (valid per --d), the sparsity, sizes, grids and the
    # sweep length of a slope fit are all checked here, before any build
    try:
        if args.command in ("fit", "slopes"):
            func = get_function(args.d, args.function)
        elif args.command == "table":
            registry(args.d)
        if args.command == "fit" and args.sparsity < 0:
            raise ValueError(f"need --sparsity >= 0, got {args.sparsity}")
        if args.command == "fit" and args.sparsity and args.method != "omp":
            raise ValueError(f"--sparsity applies to --method omp only, "
                             f"not {args.method}")
        if args.command == "knet-rate":
            superposition_weights(args.d)  # refuses a d it has no weights for
        else:
            spec = _spec(args)
        # a slope needs 3 sizes; the default sweeps of both have more
        if (args.command in ("slopes", "knet-rate")
                and len(args.n_list or SHORT_SWEEP) < 3):
            raise ValueError("--n-list needs at least 3 sizes to fit a slope")
    except (KeyError, ValueError) as exc:
        parser.error(exc.args[0])

    if args.command == "build-basis":
        basis = spec.basis(args.n)
        locs = basis.pivotal_points
        lines = [f"# d={args.d} n={args.n} rank={basis.rank} "
                 f"columns={basis.matrix.shape[1]}"]
        lines += [",".join(f"{c:.6f}" for c in row) for row in locs]
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    if args.command == "fit":
        fit = fit_by_method(spec.basis(args.n), func, args.method,
                            spec.eval_points(), sparsity=args.sparsity)
        if args.out:
            _emit(json.dumps({"basis": spec.build_config(args.n),
                              **fit.to_dict()}, indent=1), args.out)
        sys.stdout.write(
            f"function,method,training_rmse,eval_rmse\n"
            f"{args.function},{args.method},{fit.training_rmse:.3e},"
            f"{fit.eval_rmse:.3e}\n")
        return 0

    if args.command == "table":
        csv = run_table_experiment(spec)
    elif args.command == "slopes":
        csv = run_slope_experiment(spec, args.function,
                                   method=args.method)[0]
    elif args.command == "pivotal-count":
        csv = pivotal_count_experiment(spec)[0]
    else:
        csv = run_knet_rate(args.d, args.g, args.n_list,
                            cache_dir=_cache_dir(args))[0]
    _emit(csv, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
