"""Spans and counters for the traced run, recorded from outside the program.

`Tracer.install` wraps each function in `SPANS` at every permcomplex
module that binds it (for example `homology` is also `bar.homology` and
`cli.compute_homology`).  A span is (name, start, end, parent, job), kept in
memory; `per_layer` derives self times from them at the end.  A function's
self time is its span's duration minus the spans it caused.  Counters are
computed after the call returns, inside a `bench.count` span, so their cost
is charged to no layer.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter


def _matrix_counts(C) -> dict:
    return {"homology.matrix_entries": sum(len(M) * len(M[0]) for M in C.diff.values() if M),
            "homology.nnz": sum(len(row) - row.count(0)
                                for M in C.diff.values() for row in M)}


def _faces(X) -> dict:
    return {"permutohedron.faces": len(X)}


def _terms(chain) -> dict:
    return {"diagonals.terms": len(chain)}


def _largest(M) -> dict:
    return {"homology.largest_matrix": len(M) * (len(M[0]) if M else 0)}


# Span name ("module.function", or "module.Class.method") -> counters taken
# from (first argument, result); None for none.  A cached function is
# counted only when it computed its result.
SPANS = {
    "permutohedron.build_perm_complex": lambda a, r: _faces(r),
    "permutohedron.full_permutohedron": lambda a, r: _faces(r),
    "permutohedron.build_perm_complex_C": lambda a, r: _faces(r),
    "permutohedron.boundary": None,
    "permutohedron.geometry_json": None,
    "homology.complex_from_boundary": lambda a, r: _matrix_counts(r),
    "homology.ChainComplexData.check_dd_zero": None,
    "homology.homology": None,
    "homology.invariant_factors": None,
    "homology.smith_normal_form": lambda a, r: _largest(a),
    "homology.rank_mod_p": lambda a, r: _largest(a),
    "bar.component_1_1": lambda a, r: {"bar.words": sum(map(len, r.basis.values()))},
    "bar.tor_ranks": None,
    "sumatrix.enumerate_configurations": lambda a, r: {"sumatrix.configurations": len(r)},
    "diagonals.su_top_diagonal": lambda a, r: _terms(r),
    "diagonals._top_cell_terms": None,
    "diagonals.su_diagonal": lambda a, r: _terms(r),
    "diagonals.cai_diagonal": None,
    "projection.verify_su_cai": lambda a, r: {"projection.faces_checked": r["faces_checked"]},
    "projection.verify_image": None,
    "cli.main": None,
}

# Per-layer metric -> the spans whose self times it sums.
SELF_TIMES = {
    "permutohedron.enumerate_s": ("permutohedron.build_perm_complex",
                                  "permutohedron.full_permutohedron",
                                  "permutohedron.build_perm_complex_C"),
    "permutohedron.boundary_s": ("permutohedron.boundary",),
    "permutohedron.export_s": ("permutohedron.geometry_json",),
    "homology.assemble_s": ("homology.complex_from_boundary",),
    "homology.dd_check_s": ("homology.ChainComplexData.check_dd_zero",),
    "homology.eliminate_s": ("homology.homology", "homology.invariant_factors",
                             "homology.smith_normal_form", "homology.rank_mod_p"),
    "bar.assemble_s": ("bar.component_1_1",),
    "sumatrix.configurations_s": ("sumatrix.enumerate_configurations",),
    "diagonals.top_s": ("diagonals.su_top_diagonal", "diagonals._top_cell_terms"),
    "diagonals.extend_s": ("diagonals.su_diagonal",),
    "cubes.cai_s": ("diagonals.cai_diagonal",),
    "projection.verify_s": ("projection.verify_su_cai", "projection.verify_image"),
    "cli.self_s": ("cli.main",),
}
# Per-layer metric -> the span whose whole duration it sums.
TOTAL_TIMES = {"bar.tor_s": "bar.tor_ranks"}
# Per-layer metric -> the span whose calls it counts.
CALLS = {"permutohedron.boundary_calls": "permutohedron.boundary",
         "homology.snf_calls": "homology.smith_normal_form",
         "homology.rank_mod_p_calls": "homology.rank_mod_p"}
# Counters that report a maximum instead of a sum.
MAXIMA = ("homology.largest_matrix",)
COUNTERS = ("permutohedron.faces", "homology.matrix_entries", "homology.nnz",
            "homology.largest_matrix", "bar.words", "sumatrix.configurations",
            "sumatrix.cache_hits", "diagonals.cache_hits", "diagonals.terms", "projection.faces_checked",
            "cli.report_bytes")


def _owner(dotted: str):
    """The module or class holding the last name of a span name."""
    parts = dotted.split(".")
    owner = importlib.import_module("permcomplex." + parts[0])
    for name in parts[1:-1]:
        owner = getattr(owner, name)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, job)
        self.counters = Counter()
        self.job = None
        self._stack = []

    def count(self, values: dict):
        for key, value in values.items():
            if key in MAXIMA:
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            misses = cache_info().misses if cache_info else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if counter and (cache_info is None or cache_info().misses > misses):
                self.count(counter(args[0] if args else None, result))
                spans.append(("bench.count", end, perf_counter(), parent, self.job))
            return result

        return traced

    def install(self):
        """Replace every binding of each function in SPANS by its wrapper."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "permcomplex" or key.startswith("permcomplex.")]
        for name, counter in SPANS.items():
            owner, attr = _owner(name)
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, counter)
            setattr(owner, attr, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def per_layer(self, first: int = 0) -> dict:
        """Self and total times, call counts and counters, by metric, of
        the spans from index `first` on."""
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                covered[parent - first] += end - start
        self_time, total, calls = Counter(), Counter(), Counter()
        for (name, start, end, parent, _), inner in zip(spans, covered):
            self_time[name] += end - start - inner
            total[name] += end - start
            calls[name] += 1
        metrics = {metric: sum((self_time[n] for n in names), 0.0)
                   for metric, names in SELF_TIMES.items()}
        metrics.update({metric: float(total[n]) for metric, n in TOTAL_TIMES.items()})
        metrics.update({metric: calls[n] for metric, n in CALLS.items()})
        metrics.update({key: self.counters[key] for key in COUNTERS})
        return metrics
