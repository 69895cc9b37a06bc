"""Span tracing of hyperstab's public functions, installed from outside the package.

The package itself records nothing.  This module wraps the public functions
named in ``TRACED`` and rebinds every copy of each one that a ``hyperstab.*``
module holds (``from .x import f`` makes such copies), so calls made through
any namespace are seen.  Each call becomes a span: name, start, end, parent
span, process CPU time, and per-function counters.  Spans stay in memory and
are written once, as JSON lines, when the traced command ends.

Run as a script it traces one CLI invocation::

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.jsonl stable --max-deg 24

``layer_metrics`` turns a span file into the per-layer metrics the
benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections.abc import Sized
from pathlib import Path

# module -> public functions whose calls are timed
TRACED = {
    "cli": (
        "main",
        "suite_example19",
        "suite_tables",
        "suite_counts",
        "suite_euler",
        "suite_ranks",
        "suite_diffscan",
    ),
    "symfunc": ("hall_inner_product_induced",),
    "m0n": ("equivariant_poincare_m0n", "twisted_count_config_p1"),
    "series": ("multiply", "invert_unit"),
    "stable": ("numerator_term", "stable_series"),
    "spectral": (
        "e1_column",
        "five_point_configuration_table",
        "scan_differential_system",
        "twisted_config_homology",
    ),
    "linalg": (
        "verify_bundle_rank",
        "singularity_rows",
        "kernel_dimension",
        "sample_configuration",
    ),
    "ffcount": (
        "enumerate_count",
        "stratified_count",
        "psi_roundtrip_check",
        "closed_form_count",
        "euler_identity_check",
    ),
}

ROOT_SPAN = "cli.main"


class Span:
    __slots__ = ("name", "start", "end", "parent", "cpu", "counters")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.cpu = 0.0
        self.counters = None


class Recorder:
    """In-memory span store with one call stack per thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def wrap(self, name, fn, probe=None):
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            finish = probe(args, kwargs) if probe is not None else None
            span = Span(name, time.perf_counter(), stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            cpu = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                span.cpu = time.process_time() - cpu
                span.end = time.perf_counter()
                stack.pop()
                if finish is not None:
                    span.counters = finish()

        return traced

    def records(self) -> list:
        """Spans as dicts; ``parent`` is the index of the parent span."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        out = []
        for i, span in enumerate(self.spans):
            record = {
                "id": i,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": None if span.parent is None else index[id(span.parent)],
                "cpu": span.cpu,
            }
            if span.counters:
                record["counters"] = span.counters
            out.append(record)
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# per-function counters, computed from the call's arguments
# ---------------------------------------------------------------------------

def _bound(fn):
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _enumerate_probe(fn):
    bind = _bound(fn)

    def probe(args, kwargs):
        arguments = bind(args, kwargs)
        tuples = arguments["q"] ** (3 * arguments["g"] + 6)
        return lambda: {"tuples": tuples}

    return probe


def _kernel_probe(fn):
    bind = _bound(fn)

    def probe(args, kwargs):
        rows = bind(args, kwargs)["rows"]
        # count only materialised matrices: a generator must reach the callee intact
        if not isinstance(rows, Sized) or not rows or not isinstance(rows[0], Sized):
            return None
        cells = len(rows) * len(rows[0])
        return lambda: {"cells": cells}

    return probe


def _m0n_probe(fn):
    """Classify each call as an lru hit or miss, and each miss as disk load or write."""
    bind = _bound(fn)
    cache_info = getattr(fn, "cache_info", None)

    def probe(args, kwargs):
        arguments = bind(args, kwargs)
        base = arguments.get("cache_dir") or os.environ.get("HYPERSTAB_CACHE")
        path = Path(base) / f"m0n_{arguments['n']}.json" if base else None
        existed = path is not None and path.exists()
        before = cache_info() if cache_info is not None else None

        def finish():
            counters = {}
            if before is not None:
                after = cache_info()
                counters["lru_hits"] = after.hits - before.hits
                counters["lru_misses"] = after.misses - before.misses
                missed = counters["lru_misses"] > 0
            else:
                missed = True
            if missed and path is not None:
                counters["disk_loads"] = int(existed)
                counters["disk_writes"] = int(not existed and path.exists())
            return counters

        return finish

    return probe


PROBES = {
    "ffcount.enumerate_count": _enumerate_probe,
    "linalg.kernel_dimension": _kernel_probe,
    "m0n.equivariant_poincare_m0n": _m0n_probe,
}


# ---------------------------------------------------------------------------
# installing and removing the wrappers
# ---------------------------------------------------------------------------

def install(recorder: Recorder, package: str = "hyperstab", traced=None):
    """Wrap the traced functions and rebind every copy in ``package.*``.

    Returns a function that puts every original back.  Functions a module
    no longer defines are skipped, so their metrics read zero.
    """
    traced = TRACED if traced is None else traced
    for module in traced:
        importlib.import_module(f"{package}.{module}")
    namespaces = [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    replaced = []  # (namespace, attribute, original)
    for module, names in traced.items():
        home = sys.modules[f"{package}.{module}"]
        for name in names:
            original = getattr(home, name, None)
            if not callable(original):
                continue
            span_name = f"{module}.{name}"
            make_probe = PROBES.get(span_name)
            wrapper = recorder.wrap(
                span_name, original, make_probe(original) if make_probe else None
            )
            for namespace in namespaces:
                for attribute, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attribute, wrapper)
                        replaced.append((namespace, attribute, original))

    def restore():
        for namespace, attribute, original in reversed(replaced):
            setattr(namespace, attribute, original)

    return restore


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def read_spans(path) -> list:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _children(spans: list) -> dict:
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    return children


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover.

    The covered part is the union of the children's intervals, clipped to
    the parent, so children that overlap are not subtracted twice.
    """
    children = _children(spans)
    return [
        span["end"] - span["start"] - _covered(span, children.get(span["id"], []))
        for span in spans
    ]


def _covered(span, kids) -> float:
    covered = 0.0
    reach = span["start"]
    for kid in sorted(kids, key=lambda s: s["start"]):
        lo = max(kid["start"], reach)
        hi = min(kid["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def root_coverage(spans: list, root: str = ROOT_SPAN) -> float:
    """Share of the root span's time covered by its traced children."""
    roots = [s for s in spans if s["name"] == root and s["parent"] is None]
    total = sum(s["end"] - s["start"] for s in roots)
    if total <= 0:
        return 0.0
    children = _children(spans)
    return sum(_covered(r, children.get(r["id"], [])) for r in roots) / total


def function_stats(spans: list) -> dict:
    """Per span name: calls, total_s, self_s, max_s, cpu_s and counter sums.

    ``total_s`` counts only outermost calls of a name, so recursion is not
    counted twice; ``cpu_s`` sums over those same calls.
    """
    by_id = {span["id"]: span for span in spans}
    selfs = self_times(spans)
    stats = {}
    for span, self_s in zip(spans, selfs):
        entry = stats.setdefault(
            span["name"],
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0, "cpu_s": 0.0,
             "counters": {}},
        )
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["max_s"] = max(entry["max_s"], duration)
        if not _has_ancestor_named(span, by_id):
            entry["total_s"] += duration
            entry["cpu_s"] += span["cpu"]
        for key, value in span.get("counters", {}).items():
            entry["counters"][key] = entry["counters"].get(key, 0) + value
    return stats


def _has_ancestor_named(span, by_id) -> bool:
    parent = span["parent"]
    while parent is not None:
        ancestor = by_id[parent]
        if ancestor["name"] == span["name"]:
            return True
        parent = ancestor["parent"]
    return False


def layer_metrics(spans: list, names) -> dict:
    """Values for the per-layer metric names ``<module>.<function>.<field>``.

    ``m0n.disk_loads`` and ``m0n.disk_writes`` are summed over the calls of
    ``m0n.equivariant_poincare_m0n``; ``cpu_per_wall`` is process CPU time
    over wall time inside the outermost calls.  A function never called
    reads zero.  Names outside this scheme are left to the caller.
    """
    stats = function_stats(spans)
    aliases = {
        "m0n.disk_loads": "m0n.equivariant_poincare_m0n.disk_loads",
        "m0n.disk_writes": "m0n.equivariant_poincare_m0n.disk_writes",
    }
    out = {}
    for metric in names:
        function, _, field = aliases.get(metric, metric).rpartition(".")
        if function.count(".") != 1:
            continue
        entry = stats.get(function)
        if entry is None:
            out[metric] = 0
        elif field == "cpu_per_wall":
            out[metric] = entry["cpu_s"] / entry["total_s"] if entry["total_s"] > 0 else 0.0
        elif field in entry and field != "counters":
            out[metric] = entry[field]
        else:
            out[metric] = entry["counters"].get(field, 0)
    return out


def _main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    restore = install(recorder)
    from hyperstab import cli

    try:
        status = cli.main(cli_args)
    finally:
        restore()
        recorder.write(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
