"""Spans recorded around the benchmark's calls into pcx, and the per-layer
metrics derived from them.

A span is (id, name, start, end, parent, job, attrs).  Spans stay in memory
until the run ends, when run.py writes them out as JSON.  A span opened on a
thread other than the one that owns the tracer (the program's worker pools
call the wrapped fills) gets the owner's innermost open span as its parent.
"""
from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.job = ""
        self._stack: list[int] = []
        self._owner = threading.get_ident()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Time the body; the yielded dict collects counts for the span."""
        owner = threading.get_ident() == self._owner
        with self._lock:
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rec = {"id": sid, "name": name, "start": 0.0, "end": 0.0,
                   "parent": parent, "job": self.job, "attrs": dict(attrs)}
            self.spans.append(rec)
            if owner:
                self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            if owner:
                with self._lock:
                    self._stack.pop()

    def timed_fill(self, fill: Callable) -> Callable:
        """Wrap a SetSpec.fill so every call, also the ones pcx makes
        internally for deeper rasters, becomes a `generators.fill` span."""
        def fill_traced(level):
            with self.span("generators.fill", level=level.n) as attrs:
                origin, mask = fill(level)
            attrs["cells"] = int(np.count_nonzero(mask))
            return origin, mask
        return fill_traced


class NullTracer:
    """Tracing off: spans cost one no-op context manager, fills run bare."""

    def span(self, name: str, **attrs):
        return nullcontext({})

    def timed_fill(self, fill: Callable) -> Callable:
        return fill


def _self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            kids.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    out = []
    for sp in spans:
        covered, reach = 0.0, sp["start"]
        for a, b in sorted(kids.get(sp["id"], ())):
            a, b = max(a, reach), min(b, sp["end"])
            if b > a:
                covered += b - a
                reach = b
        out.append(sp["end"] - sp["start"] - covered)
    return out


# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "generators.fill_s": "s",
    "generators.fill_calls": "count",
    "generators.cells_per_s": "cells/s",
    "grid.rasterize_self_s": "s",
    "grid.label_s": "s",
    "grid.components_per_s": "components/s",
    "schoenflies.scan_self_s": "s",
    "schoenflies.strip_levels_per_s": "pairs/s",
    "decomposition.relation_self_s": "s",
    "decomposition.regions_per_s": "regions/s",
    "decomposition.merge_sets": "count",
    "decomposition.merge_cells": "count",
    "decomposition.close_s": "s",
    "decomposition.classes_per_s": "classes/s",
    "decomposition.quotient_s": "s",
    "decomposition.monotone_s": "s",
    "decomposition.refines_s": "s",
    "decomposition.common_refinement_s": "s",
    "cli.load_s": "s",
    "cli.emit_s": "s",
    "cli.output_bytes": "bytes",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over a list of spans (one traced pass).  A rate whose
    layer did no work in the pass reads 0."""
    selfs = _self_times(spans)
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr: dict[str, float] = {}
    for sp, st in zip(spans, selfs):
        n = sp["name"]
        dur[n] = dur.get(n, 0.0) + sp["end"] - sp["start"]
        own[n] = own.get(n, 0.0) + st
        calls[n] = calls.get(n, 0) + 1
        for k, v in sp["attrs"].items():
            attr[f"{n}:{k}"] = attr.get(f"{n}:{k}", 0) + v

    def rate(count_key: str, seconds: float) -> float:
        return attr.get(count_key, 0) / seconds if seconds > 0 else 0.0

    fill_s = dur.get("generators.fill", 0.0)
    label_s = dur.get("grid.label", 0.0)
    scan_self = own.get("schoenflies.scan", 0.0)
    rel_self = own.get("decomposition.relation", 0.0)
    close_s = dur.get("decomposition.close", 0.0)
    return {
        "generators.fill_s": fill_s,
        "generators.fill_calls": calls.get("generators.fill", 0),
        "generators.cells_per_s": rate("generators.fill:cells", fill_s),
        "grid.rasterize_self_s": own.get("grid.rasterize", 0.0),
        "grid.label_s": label_s,
        "grid.components_per_s": rate("grid.label:components", label_s),
        "schoenflies.scan_self_s": scan_self,
        "schoenflies.strip_levels_per_s": rate("schoenflies.scan:pairs", scan_self),
        "decomposition.relation_self_s": rel_self,
        "decomposition.regions_per_s": rate("decomposition.relation:regions", rel_self),
        "decomposition.merge_sets": attr.get("decomposition.relation:merge_sets", 0),
        "decomposition.merge_cells": attr.get("decomposition.relation:merge_cells", 0),
        "decomposition.close_s": close_s,
        "decomposition.classes_per_s": rate("decomposition.close:classes", close_s),
        "decomposition.quotient_s": dur.get("decomposition.quotient", 0.0),
        "decomposition.monotone_s": dur.get("decomposition.monotone", 0.0),
        "decomposition.refines_s": dur.get("decomposition.refines", 0.0),
        "decomposition.common_refinement_s": dur.get("decomposition.common_refinement", 0.0),
        "cli.load_s": dur.get("cli.load", 0.0),
        "cli.emit_s": dur.get("cli.emit", 0.0),
        "cli.output_bytes": attr.get("cli.emit:bytes", 0),
    }
