"""Spans around bfcsim's public functions, recorded from outside the program.

`Tracer.install` replaces each function in `WRAP_TARGETS` at the module
attribute its callers look it up through, and fails if one is missing, so
a refactor cannot silently drop a layer.  Spans stay in memory; `dump`
writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from checks import quad_freq_samples


def _trace_counts(trace, args, kwargs) -> dict:
    d = trace.delays_ps
    comb = trace.comb
    step = (d[-1] - d[0]) / max(d.size - 1, 1)
    uniform = d.size < 3 or np.max(np.abs(d - (d[0] + step * np.arange(d.size)))) <= 1e-9 * step
    samples = d.size * quad_freq_samples(comb.n_max, comb.fsr_rad_s, comb.half_width_rad_s)
    return {"quad_samples": samples, "uniform": int(uniform)}


def _path_bytes(result, args, kwargs) -> dict:
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _comb_bins(comb, args, kwargs) -> dict:
    return {"bins": comb.bin_weights.size}


def _jsi_cells(jsi, args, kwargs) -> dict:
    return {"cells": jsi.values.size}


def _svd_dim(spectrum, args, kwargs) -> dict:
    return {"dim": min(np.shape(args[0]))}


# (module, attribute, span name, counts taken from (result, args, kwargs))
WRAP_TARGETS = [
    ("bfcsim.cli", "main", "cli", None),
    ("bfcsim.cli", "load_config", "config.load", None),
    ("bfcsim.cli", "preset_config", "config.load", None),
    ("bfcsim.cli", "run_report", "report", None),
    ("bfcsim.cli", "build_comb", "comb.build", _comb_bins),
    ("bfcsim.cli", "scan_correlation_matrix", "jsi.scan", _jsi_cells),
    ("bfcsim.cli", "schmidt_decompose", "schmidt.svd", _svd_dim),
    ("bfcsim.cli", "time_bin_spectrum_from_visibilities", "schmidt.time", None),
    ("bfcsim.report", "build_comb", "comb.build", _comb_bins),
    ("bfcsim.report", "simulate_hom_trace", "hom.trace", _trace_counts),
    ("bfcsim.report", "locate_revivals", "hom.revivals", None),
    ("bfcsim.report", "central_dip_width", "hom.dip_width", None),
    ("bfcsim.report", "scan_correlation_matrix", "jsi.scan", _jsi_cells),
    ("bfcsim.report", "schmidt_decompose", "schmidt.svd", _svd_dim),
    ("bfcsim.report", "time_bin_eigenvalues", "schmidt.time", None),
    ("bfcsim.report", "time_bin_spectrum_from_visibilities", "schmidt.time", None),
    ("bfcsim.io", "export_csv", "io.write", _path_bytes),
    ("bfcsim.io", "export_json", "io.write", _path_bytes),
    ("bfcsim.io", "jsi_from_csv", "io.read", _path_bytes),
    ("bfcsim.io", "visibilities_from_csv", "io.read", _path_bytes),
    ("bfcsim.chsh", "simulate_fringe_scan", "chsh.sim", lambda r, a, k: {"draws": r.counts.size}),
    # Four angle pairs times four polarizer settings, one Poisson draw each.
    ("bfcsim.chsh", "simulate_chsh_counts", "chsh.sim", lambda r, a, k: {"draws": 16}),
    ("bfcsim", "build_comb", "comb.build", _comb_bins),
    ("bfcsim", "simulate_hom_trace", "hom.trace", _trace_counts),
    ("bfcsim", "locate_revivals", "hom.revivals", None),
    ("bfcsim", "central_dip_width", "hom.dip_width", None),
]

LAYERS = ("hom", "comb", "io", "jsi", "schmidt", "chsh", "config", "cli", "report")
ROOT = "op"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self, targets=WRAP_TARGETS) -> None:
        for module_name, attr, name, counts in targets:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise RuntimeError(f"trace target {module_name}.{attr} is missing")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counts))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, error: bool) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            # A CLI reports failure through its exit code, not an exception.
            self._close(idx, name == "cli" and result != 0)
            if counts is not None:
                self.spans[idx].counts = counts(result, args, kwargs)
            return result

        return traced

    def root(self, fn, *args):
        """Run one op under a root span."""
        return self._wrap(fn, ROOT, None)(*args)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as (value, unit); most per op."""
    ops = sum(1 for s in spans if s.name == ROOT)
    if ops == 0:
        raise ValueError("no traced ops")
    own = self_times(spans)
    total = defaultdict(float)
    selfs = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    errors = defaultdict(int)
    for span, self_s in zip(spans, own):
        total[span.name] += span.end - span.start
        selfs[span.name] += self_s
        calls[span.name] += 1
        errors[span.name.split(".")[0]] += span.error
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value
        if span.name == "hom.trace" and span.counts:
            grid = "uniform" if span.counts["uniform"] else "nonuniform"
            total[f"hom.trace.{grid}"] += span.end - span.start

    def per_op(value):
        return value / ops

    m = {
        "hom.trace_s": (per_op(total["hom.trace"]), "s/op"),
        "hom.trace_s.uniform": (per_op(total["hom.trace.uniform"]), "s/op"),
        "hom.trace_s.nonuniform": (per_op(total["hom.trace.nonuniform"]), "s/op"),
        "hom.trace_calls": (per_op(calls["hom.trace"]), "calls/op"),
        "hom.quad_samples": (per_op(counts["hom.trace.quad_samples"]), "samples/op"),
        "hom.msamples_per_s": (
            counts["hom.trace.quad_samples"] / total["hom.trace"] / 1e6 if total["hom.trace"] else 0.0,
            "Msamples/s",
        ),
        "hom.revivals_s": (per_op(total["hom.revivals"]), "s/op"),
        "hom.dip_width_s": (per_op(total["hom.dip_width"]), "s/op"),
        "comb.build_s": (per_op(total["comb.build"]), "s/op"),
        "comb.bins": (per_op(counts["comb.build.bins"]), "bins/op"),
        "io.write_s": (per_op(total["io.write"]), "s/op"),
        "io.write_bytes": (per_op(counts["io.write.bytes"]), "B/op"),
        "io.read_s": (per_op(total["io.read"]), "s/op"),
        "io.read_bytes": (per_op(counts["io.read.bytes"]), "B/op"),
        "jsi.scan_s": (per_op(total["jsi.scan"]), "s/op"),
        "jsi.cells": (per_op(counts["jsi.scan.cells"]), "cells/op"),
        "schmidt.svd_s": (per_op(total["schmidt.svd"]), "s/op"),
        "schmidt.svd_dim": (
            counts["schmidt.svd.dim"] / calls["schmidt.svd"] if calls["schmidt.svd"] else 0.0,
            "rows/call",
        ),
        "schmidt.time_s": (per_op(total["schmidt.time"]), "s/op"),
        "chsh.sim_s": (per_op(total["chsh.sim"]), "s/op"),
        "chsh.draws": (per_op(counts["chsh.sim.draws"]), "draws/op"),
        "config.load_s": (per_op(total["config.load"]), "s/op"),
        "cli.self_s": (per_op(selfs["cli"]), "s/op"),
        "report.self_s": (per_op(selfs["report"]), "s/op"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = (float(errors[layer]), "count")
    m["trace.op_s"] = (per_op(total[ROOT]), "s/op")
    m["trace.unattributed_s"] = (per_op(selfs[ROOT]), "s/op")
    return m
