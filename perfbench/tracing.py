"""Spans around the calls into kstfit's layers, recorded from outside.

Tracer.install() replaces each traced function, at every name a loaded
kstfit module holds for it, by a wrapper that records a span.  The trace
therefore follows whatever chain the code under test runs: a stage that
is no longer called shows up with zero calls instead of vanishing.
"""

import functools
import importlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager


def _bytes_at(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (module, qualified name, observer of (args, kwargs, result))
SPANS = {
    "inner.build": ("kstfit.inner", "build_inner_family", None),
    "kb.assemble": ("kstfit.kb", "assemble_design_matrix", None),
    "kb.prune": ("kstfit.kb", "prune_near_zero_columns",
                 lambda a, k, r: {"raw": a[0].shape[1], "kept": r.shape[1]}),
    "smoothing.denoise": ("kstfit.smoothing", "build_lkb_basis", None),
    "smoothing.sample": ("kstfit.smoothing", "LKBBasis.design_matrix", None),
    "pivotal.rank": ("kstfit.pivotal", "estimate_rank",
                     lambda a, k, r: {"rank": int(r)}),
    "pivotal.maxvol": ("kstfit.pivotal", "maxvol_select", None),
    "pivotal.fit": ("kstfit.pivotal", "pivotal_fit", None),
    "fitting.dls": ("kstfit.fitting", "dls_fit", None),
    "fitting.omp": ("kstfit.fitting", "omp_fit",
                    lambda a, k, r: {"stagnated": bool(r.stagnated)}),
    "fitting.eval": ("kstfit.fitting", "evaluate_fit", None),
    "cache.write": ("kstfit.cache", "write_basis_cache", _bytes_at),
    "cache.read": ("kstfit.cache", "read_basis_cache", _bytes_at),
    "bench.get_basis": ("kstfit.bench", "get_basis_set", None),
    "knet.build": ("kstfit.knet", "build_knetwork",
                   lambda a, k, r: {"params": int(r.parameter_count)}),
    "knet.eval": ("kstfit.knet", "eval_knetwork", None),
    "knet.reference": ("kstfit.inner", "forward_superpose", None),
    "bsplines.relu": ("kstfit.bsplines", "linear_spline_to_relu", None),
}


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory spans: id, parent id, name, start, end and attributes."""

    def __init__(self):
        self.spans = []
        self.unresolved = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "parent": self._stack[-1]
                  if self._stack else None, "name": name, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        rss0 = _maxrss_kb()
        record["start"] = time.perf_counter()
        try:
            yield record
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            attrs["rss_rise_kb"] = _maxrss_kb() - rss0
            self._stack.pop()

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if observe is not None:
                    try:
                        record["attrs"].update(observe(args, kwargs, result))
                    except Exception as exc:  # a changed return type
                        record["attrs"]["observe_error"] = repr(exc)
                return result
        return traced

    def install(self):
        """Wrap every SPANS target; names that do not resolve are kept in
        self.unresolved and reported with zero calls."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "kstfit" or name.startswith("kstfit.")]
        for name, (modname, qualname, observe) in SPANS.items():
            owner = importlib.import_module(modname)
            *path, attr = qualname.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.unresolved.append(name)
                continue
            wrapper = self._wrap(name, original, observe)
            if path:  # a method: instances look it up on the class
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def self_times(self):
        """Span id -> duration minus the time its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def summary(self):
        """Per traced layer: calls, busy (self) seconds, median self
        seconds per call.  Every SPANS name is listed, called or not."""
        own = self.self_times()
        per_name = {name: [] for name in SPANS}
        for s in self.spans:
            per_name.setdefault(s["name"], []).append(own[s["id"]])
        return {name: {"calls": len(v), "busy_s": sum(v),
                       "median_s": statistics.median(v) if v else 0.0}
                for name, v in per_name.items()}

    def attrs(self, name):
        return [s["attrs"] for s in self.spans if s["name"] == name]

    def children(self, span_id):
        return [s for s in self.spans if s["parent"] == span_id]

    def write(self, path, header):
        """JSON lines: a header, one line per span, one per layer."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header,
                                 "unresolved": self.unresolved}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            for name, row in self.summary().items():
                fh.write(json.dumps({"layer": name, **row}) + "\n")
