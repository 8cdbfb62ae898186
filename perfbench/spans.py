"""Per-layer spans taken from outside the package.

Every public function of the measured modules is replaced by a timing
wrapper. A ``from .x import f`` binding is a separate module global, so
patching ``x.f`` alone would miss callers in other modules: ``install``
rebinds every global, in every ``latentkrig`` module, that refers to a
wrapped function, and ``uninstall`` puts the originals back.
``numpy.linalg.eigh`` is wrapped too, and each call is attributed to the
layer of the span that encloses it.

A span records its category (``<module>.<group>``), the function name,
its parent span, start and end. A layer's self time is a span's duration
minus the part of it that its child spans cover, so work done by a
callee in another group is counted once, where it happens. Spans opened
on ``_util.ordered_map`` pool threads get the span that submitted them
as parent, through a wrapper around the mapped function.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Public functions per module and the metric group their time falls in.
# Functions not listed are still wrapped, under the group "other", so
# their time is not charged to a caller's self time.
GROUPS = {
    "stdata": {
        "load_frame": "load_frame", "load_locations": "load_frame",
        "load_observation_table": "load_frame", "save_frame": "save_frame",
        "distance_matrix": "distance", "pairwise_distances": "distance",
        "distances_to_point": "distance",
    },
    "covariance": {
        "cross_covariance": "lagged", "lagged_covariances": "lagged",
        "lagged_auto_covariance": "lagged",
        "masked_pairwise": "masked_pairwise",
        "pairwise_covariance": "masked_pairwise",
    },
    "factors": {
        "gram_matrices": "gram", "build_laplacian": "laplacian",
        "assemble_latent": "assemble", "fit_factors": "solve",
        "solve_loadings": "solve", "penalized_eigvecs": "solve",
        "estimate_d": "solve", "default_p_star": "solve",
    },
    "ensemble": {
        "aggregate_fit": "aggregate", "aggregate_over_partitions": "aggregate",
        "fit_members": "aggregate", "resolve_tau": "aggregate",
        "divide_and_conquer_fit": "aggregate",
        "save_ensemble": "doc_io", "load_ensemble": "doc_io",
        "ensemble_to_document": "doc_io", "ensemble_from_document": "doc_io",
    },
    "simbench": {
        "select_tau": "select_tau", "select_bandwidth": "select_bandwidth",
    },
    "kriging": {
        "krige_space": "krige_space", "kernel_weights": "krige_space",
        "impute_missing": "impute",
    },
    "forecast": {
        "forecast": "forecast", "forecast_ensemble": "forecast",
        "estimate_sigma_x": "sigma_x",
        "recursive_toeplitz_inverse": "toeplitz",
    },
    "_util": {"ordered_map": "map"},
    "cli": {},
}

# Per-layer metrics in output order, with their units.
METRICS = (
    ("stdata.load_frame_s", "s"), ("stdata.rows_in", "count"),
    ("stdata.save_frame_s", "s"), ("stdata.rows_out", "count"),
    ("stdata.distance_s", "s"), ("stdata.distance_calls", "count"),
    ("covariance.lagged_s", "s"), ("covariance.lagged_calls", "count"),
    ("covariance.masked_pairwise_s", "s"),
    ("covariance.masked_pairwise_calls", "count"),
    ("factors.gram_s", "s"), ("factors.laplacian_s", "s"),
    ("factors.laplacian_calls", "count"), ("factors.eigh_s", "s"),
    ("factors.eigh_calls", "count"), ("factors.eigh_m3", "m3_computed"),
    ("factors.solve_s", "s"), ("factors.assemble_s", "s"),
    ("factors.fit_calls", "count"),
    ("ensemble.aggregate_s", "s"), ("ensemble.members", "count"),
    ("ensemble.doc_io_s", "s"), ("ensemble.doc_bytes", "bytes"),
    ("simbench.select_tau_s", "s"), ("simbench.cv_solves", "count"),
    ("simbench.select_bandwidth_s", "s"),
    ("kriging.krige_space_s", "s"), ("kriging.krige_calls", "count"),
    ("kriging.impute_s", "s"), ("kriging.impute_eigh_s", "s"),
    ("kriging.cells_imputed", "count"),
    ("kriging.impute_eigh_calls", "count"), ("kriging.avail_groups", "count"),
    ("forecast.forecast_s", "s"), ("forecast.sigma_x_s", "s"),
    ("forecast.toeplitz_s", "s"), ("forecast.member_fits", "count"),
    # metric names must start with a letter, so the _util layer is "util"
    ("util.map_s", "s"), ("util.map_items", "count"),
    ("util.busy_ratio", "ratio"),
    # bytes_out (stdout plus output files) is counted by the worker
    ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
)


class Span:
    __slots__ = ("cat", "name", "parent", "t0", "t1", "hook_s", "extra")

    def __init__(self, cat: str, name: str, parent: "Span | None") -> None:
        self.cat = cat
        self.name = name
        self.parent = parent
        self.t0 = time.perf_counter()
        self.t1 = self.t0
        self.hook_s = 0.0
        self.extra: dict | None = None

    def has_ancestor(self, prefix: str) -> bool:
        s = self.parent
        while s is not None:
            if s.name.startswith(prefix):
                return True
            s = s.parent
        return False


def _observed_cells(frame) -> int:
    return int(frame.obs.size - frame.missing.sum())


def _avail_groups(frame) -> int:
    """Distinct (site, availability row) pairs over the missing cells."""
    groups = set()
    for t, i in zip(*np.nonzero(frame.missing)):
        groups.add((int(i), frame.missing[t].tobytes()))
    return len(groups)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Counts taken when a wrapped call returns: (args, kwargs, result) -> dict.
_HOOKS = {
    "stdata.load_frame": lambda a, k, r: {"rows_in": _observed_cells(r)},
    "stdata.save_frame": lambda a, k, r: {
        "rows_out": _observed_cells(_arg(a, k, 0, "frame"))},
    "ensemble.aggregate_over_partitions": lambda a, k, r: {"members": r.J},
    "ensemble.save_ensemble": lambda a, k, r: {
        "doc_bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "kriging.impute_missing": lambda a, k, r: {
        "cells_imputed": len(r.filled_cells or ()),
        "avail_groups": _avail_groups(_arg(a, k, 0, "frame"))},
}


class Tracer:
    """Span recorder; spans live in memory until ``pass_metrics`` reads them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._worker_count = None

    def current(self) -> Span | None:
        return getattr(self._local, "span", None)

    def _enter(self, cat: str, name: str, parent: Span | None) -> tuple:
        span = Span(cat, name, parent)
        prev = self.current()
        self._local.span = span
        return span, prev

    def _leave(self, span: Span, prev: Span | None) -> None:
        span.t1 = time.perf_counter()
        self._local.span = prev
        self.spans.append(span)

    def _wrap(self, fn, cat: str, name: str):
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span, prev = tracer._enter(cat, name, tracer.current())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    h0 = time.perf_counter()
                    span.extra = hook(args, kwargs, result)
                    span.hook_s = time.perf_counter() - h0
                return result
            finally:
                tracer._leave(span, prev)

        traced.__wrapped__ = fn
        return traced

    def _wrap_map(self, fn, cat: str, name: str):
        tracer = self

        def traced_map(fn_item, items, workers=None):
            span, prev = tracer._enter(cat, name, tracer.current())
            resolved = tracer._worker_count() if workers is None else workers
            if resolved <= 1 or len(items) <= 1:
                resolved = 1
            span.extra = {"workers": resolved, "items": len(items)}

            def item(x):
                sub, before = tracer._enter("_util.item", "_util.item", span)
                try:
                    return fn_item(x)
                finally:
                    tracer._leave(sub, before)

            try:
                return fn(item, items, workers)
            finally:
                tracer._leave(span, prev)

        traced_map.__wrapped__ = fn
        return traced_map

    def _wrap_eigh(self, fn):
        tracer = self

        def traced_eigh(a, *args, **kwargs):
            parent = tracer.current()
            module = parent.cat.split(".")[0] if parent is not None else "numpy"
            span, prev = tracer._enter(f"{module}.eigh", "numpy.eigh", parent)
            span.extra = {"m3": int(np.shape(a)[-1]) ** 3}
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer._leave(span, prev)

        traced_eigh.__wrapped__ = fn
        return traced_eigh

    def install(self) -> None:
        """Rebind every reference to a measured function; idempotent."""
        if self._patched:
            return
        import latentkrig._util
        self._worker_count = latentkrig._util.worker_count
        wrappers: dict[int, object] = {}
        for module_name, groups in GROUPS.items():
            mod = sys.modules[f"latentkrig.{module_name}"]
            for attr, value in vars(mod).items():
                if (attr.startswith("_") or not callable(value)
                        or isinstance(value, type)
                        or getattr(value, "__module__", None) != mod.__name__):
                    continue
                group = groups.get(attr, "self" if module_name == "cli" else "other")
                wrap = self._wrap_map if attr == "ordered_map" else self._wrap
                wrappers[id(value)] = wrap(value, f"{module_name}.{group}",
                                           f"{module_name}.{attr}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "latentkrig"
                                   or mod_name.startswith("latentkrig.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
        self._patched.append((np.linalg, "eigh", np.linalg.eigh))
        np.linalg.eigh = self._wrap_eigh(np.linalg.eigh)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last call."""
        spans, self.spans = self.spans, []
        children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, float] = defaultdict(float)
        busy = capacity = 0.0
        for s in spans:
            covered = _union(s, children.get(id(s), ()))
            self_s[s.cat] += (s.t1 - s.t0) - covered - s.hook_s
            if s.parent is None or s.parent.cat != s.cat:
                calls[s.cat] += 1
            if s.extra and s.name != "_util.ordered_map":
                for key, value in s.extra.items():
                    counts[f"{s.cat}.{key}"] += value
            if s.name == "factors.fit_factors":
                counts["fit_calls"] += 1
                if s.has_ancestor("forecast."):
                    counts["member_fits"] += 1
            elif s.name == "factors.solve_loadings" and s.has_ancestor(
                    "simbench.select_tau"):
                counts["cv_solves"] += 1
            elif s.name == "_util.ordered_map":
                capacity += s.extra["workers"] * (s.t1 - s.t0)
                counts["map_items"] += s.extra["items"]
                busy += sum(c.t1 - c.t0 for c in children.get(id(s), ()))
        return {
            "stdata.load_frame_s": self_s["stdata.load_frame"],
            "stdata.rows_in": counts["stdata.load_frame.rows_in"],
            "stdata.save_frame_s": self_s["stdata.save_frame"],
            "stdata.rows_out": counts["stdata.save_frame.rows_out"],
            "stdata.distance_s": self_s["stdata.distance"],
            "stdata.distance_calls": calls["stdata.distance"],
            "covariance.lagged_s": self_s["covariance.lagged"],
            "covariance.lagged_calls": calls["covariance.lagged"],
            "covariance.masked_pairwise_s": self_s["covariance.masked_pairwise"],
            "covariance.masked_pairwise_calls": calls["covariance.masked_pairwise"],
            "factors.gram_s": self_s["factors.gram"],
            "factors.laplacian_s": self_s["factors.laplacian"],
            "factors.laplacian_calls": calls["factors.laplacian"],
            "factors.eigh_s": self_s["factors.eigh"],
            "factors.eigh_calls": calls["factors.eigh"],
            "factors.eigh_m3": counts["factors.eigh.m3"],
            "factors.solve_s": self_s["factors.solve"],
            "factors.assemble_s": self_s["factors.assemble"],
            "factors.fit_calls": counts["fit_calls"],
            "ensemble.aggregate_s": self_s["ensemble.aggregate"],
            "ensemble.members": counts["ensemble.aggregate.members"],
            "ensemble.doc_io_s": self_s["ensemble.doc_io"],
            "ensemble.doc_bytes": counts["ensemble.doc_io.doc_bytes"],
            "simbench.select_tau_s": self_s["simbench.select_tau"],
            "simbench.cv_solves": counts["cv_solves"],
            "simbench.select_bandwidth_s": self_s["simbench.select_bandwidth"],
            "kriging.krige_space_s": self_s["kriging.krige_space"],
            "kriging.krige_calls": calls["kriging.krige_space"],
            "kriging.impute_s": self_s["kriging.impute"],
            "kriging.impute_eigh_s": self_s["kriging.eigh"],
            "kriging.cells_imputed": counts["kriging.impute.cells_imputed"],
            "kriging.impute_eigh_calls": calls["kriging.eigh"],
            "kriging.avail_groups": counts["kriging.impute.avail_groups"],
            "forecast.forecast_s": self_s["forecast.forecast"],
            "forecast.sigma_x_s": self_s["forecast.sigma_x"],
            "forecast.toeplitz_s": self_s["forecast.toeplitz"],
            "forecast.member_fits": counts["member_fits"],
            "util.map_s": self_s["_util.map"],
            "util.map_items": counts["map_items"],
            "util.busy_ratio": busy / capacity if capacity > 0 else 0.0,
            "cli.self_s": self_s["cli.self"],
        }


def _union(span: Span, kids) -> float:
    """Length of the part of ``span`` covered by its children's intervals."""
    if not kids:
        return 0.0
    intervals = sorted((max(k.t0, span.t0), min(k.t1, span.t1)) for k in kids)
    total = 0.0
    lo, hi = intervals[0]
    for a, b in intervals[1:]:
        if a > hi:
            total += hi - lo
            lo, hi = a, b
        elif b > hi:
            hi = b
    return total + (hi - lo)
