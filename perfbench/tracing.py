"""Outside-in tracing: spans around calls into dpcover's public functions.

The tracer replaces module attributes, class attributes and the CLI's gadget
table entries with wrappers that record a span (layer, start, end, parent,
verdict id, counters) in memory, and puts every original object back when it
exits.  Nothing inside dpcover changes: a layer is traced wherever dpcover
reaches it through one of these names.  A layer's self time is the time of
its spans minus the time of their child spans.
"""
from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable

# Per-layer metric -> (unit, better, what it should move).  The last field is
# the end-to-end metric and workload that a change to this layer should move.
PER_LAYER = {
    "cli.dispatch.self_s": ("s", "lower", "desk.verdict_p50_ms"),
    "analysis.weight.self_s": ("s", "lower", "desk.verdict_p50_ms"),
    "cli.serialize.self_s": ("s", "lower", "wide.suite_s, desk.verdict_p50_ms"),
    "cli.serialize.mb_per_s": ("MB/s", "higher", "wide.suite_s, desk.verdict_p50_ms"),
    "cli.parse.self_s": ("s", "lower", "wide.suite_s, desk.verdict_p50_ms"),
    "cli.parse.mb_per_s": ("MB/s", "higher", "wide.suite_s, desk.verdict_p50_ms"),
    "cli.export_cnf.self_s": ("s", "lower", "wide.suite_s, desk.verdict_p50_ms"),
    "constructions.build.self_s": ("s", "lower", "wide.suite_s, desk.verdict_p50_ms"),
    "constructions.build.maps_per_s": ("1/s", "higher", "wide.suite_s, desk.verdict_p50_ms"),
    "core.family_of.self_s": ("s", "lower", "wide.suite_s, desk.verdict_p50_ms"),
    "core.classify.self_s": ("s", "lower", "wide.suite_s, desk.verdict_p50_ms"),
    "core.classify.calls": ("count", "lower", "wide.suite_s, desk.verdict_p50_ms"),
    "analysis.claims.self_s": ("s", "lower", "wide.suite_s"),
    "analysis.claims.checked": ("count", "higher", "wide.suite_s"),
    "analysis.sample.index_s": ("s", "lower", "wide.suite_s"),
    "analysis.sample.trials_per_s": ("1/s", "higher", "wide.suite_s"),
    "analysis.scan.self_s": ("s", "lower", "dense.suite_s"),
    "analysis.scan.codes": ("count", "lower", "dense.suite_s"),
    "analysis.scan.codes_per_s": ("1/s", "higher", "dense.suite_s"),
    "analysis.scan.w2_speedup": ("ratio", "higher", "dense.suite_s"),
    "analysis.codes.self_s": ("s", "lower", "dense.suite_s"),
    "analysis.table.self_s": ("s", "lower", "dense.suite_s"),
    "analysis.table.cells_per_s": ("1/s", "higher", "dense.suite_s"),
    "analysis.table.bytes": ("B", "lower", "dense.peak_rss_mb"),
    "analysis.parity.self_s": ("s", "lower", "dense.suite_s"),
    "analysis.audit.self_s": ("s", "lower", "dense.suite_s"),
    "search.min_unary.self_s": ("s", "lower", "search.suite_s"),
    "search.min_unary.nodes": ("count", "lower", "search.suite_s"),
    "search.min_unary.nodes_per_s": ("1/s", "higher", "search.suite_s"),
    "search.min_unary.class_ratio": ("ratio", "higher", "search.suite_s"),
    "search.canonical_key.self_s": ("s", "lower", "search.suite_s"),
    "search.canonical_key.keys_per_s": ("1/s", "higher", "search.suite_s"),
    "search.bracket.self_s": ("s", "lower", "search.suite_s"),
    "trace.overhead": ("ratio", "lower", "every workload: traced suite_s / untraced - 1"),
}

# The exhaustive enumeration kernel: its share separates dense from the rest.
KERNEL_LAYERS = ("analysis.scan", "analysis.codes", "analysis.table")

_GADGET_TABLES = ("_PLAIN_GADGETS", "_PARAMETRIC_GADGETS")
_CONSTRUCTORS = (
    "k43_cover", "k54_neq_cover", "k54_eq_cover", "four_uniform_10",
    "nine_edge_gadget", "copy_gadget", "two_edge_gadget", "five_uniform_17",
    "binary_family", "parity_gadget", "unary_upper_even", "double_unary_gadget",
    "lift_to_cover", "join_with_pivot", "uniformize", "double_unary",
)


def _serialize_note(args, kwargs, result):
    return {"bytes": len(result)}


def _parse_note(args, kwargs, result):
    return {"bytes": len(args[0] if args else kwargs["text"])}


def _build_note(args, kwargs, result):
    family = getattr(result, "family", result)
    return {"maps": len(family)}


def _claim_note(args, kwargs, result):
    return {"checked": 1}


def _scan_note(args, kwargs, result):
    return {
        "codes": result.enumerated,
        "workers": kwargs.get("workers", 1),
        "key": [id(args[0] if args else kwargs["family"]), bool(kwargs.get("count", False))],
    }


def _table_note(args, kwargs, result):
    counts = args[0].counts
    return {"cells": int(counts.size), "bytes": int(counts.nbytes)}


def _min_unary_note(args, kwargs, result):
    return {"nodes": result.families_examined, "classes": result.canonical_classes}


def targets(modules: dict) -> list[tuple[Any, Any, str, Callable | None]]:
    """(owner, key, layer, counter) for every name the tracer replaces.

    Owners are modules, classes and the CLI's gadget tables, which hold
    direct function references captured at import time.
    """
    cli, analysis = modules["cli"], modules["analysis"]
    core, search = modules["core"], modules["search"]
    constructions = modules["constructions"]
    out: list[tuple[Any, Any, str, Callable | None]] = [
        (cli, "cli_main", "cli.dispatch", None),
        (cli, "serialize", "cli.serialize", _serialize_note),
        (cli, "parse", "cli.parse", _parse_note),
        (cli, "export_cnf", "cli.export_cnf", None),
        (core.Family, "of", "core.family_of", None),
        (core, "classify", "core.classify", None),
        (analysis, "classify", "core.classify", None),
        (analysis, "weight", "analysis.weight", None),
        (analysis, "check_claims", "analysis.claims", None),
        (analysis, "check_claim", "analysis.claims", _claim_note),
        (analysis, "sample_noncolorability", "analysis.sample", None),
        (analysis, "find_coloring", "analysis.scan", _scan_note),
        (analysis, "avoiding_codes", "analysis.codes", None),
        (analysis.MultiplicityTable, "__init__", "analysis.table", _table_note),
        (analysis, "parity_identity", "analysis.parity", None),
        (analysis, "weight_one_audit", "analysis.audit", None),
        (search, "search_min_unary", "search.min_unary", _min_unary_note),
        (search, "canonical_key", "search.canonical_key", None),
        (search, "verify_bracket", "search.bracket", None),
    ]
    out += [(constructions, name, "constructions.build", _build_note) for name in _CONSTRUCTORS]
    for table in _GADGET_TABLES:
        gadgets = getattr(cli, table)
        out += [(gadgets, name, "constructions.build", _build_note) for name in gadgets]
    return out


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else vars(owner)[key]


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Context manager: wraps the targets on entry and restores them on exit.

    A span is [layer, start, end, parent index, verdict id, counters].
    `sampled` collects (family, seed) of every sampling call, so the caller
    can time the index build of the same family separately.
    """

    def __init__(self, modules: dict):
        self._targets = targets(modules)
        self._saved: list[tuple[Any, Any, Any]] = []
        self._stack: list[int] = []
        self.spans: list[list] = []
        self.sampled: list[tuple[Any, int]] = []
        self.verdict: str | None = None
        self.sample_original = modules["analysis"].sample_noncolorability

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, key, layer, note in self._targets:
                original = _get(owner, key)
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self._wrap(layer, original.__func__, note))
                else:
                    wrapped = self._wrap(layer, original, note)
                self._saved.append((owner, key, original))
                _set(owner, key, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            _set(owner, key, original)
        self._stack.clear()

    def _wrap(self, layer: str, fn: Callable, note: Callable | None) -> Callable:
        tracer = self
        sampling = layer == "analysis.sample"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.verdict, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            if sampling:
                span[5] = {"trials": result.trials}
                tracer.sampled.append((args[0], result.seed))
            return result

        return traced

    def probe_sample_index(self) -> float:
        """Time the index build alone, sample_noncolorability(f, 0, seed), for
        every family sampled since the last probe; returns the total seconds."""
        total = 0.0
        for family, seed in self.sampled:
            t0 = time.perf_counter()
            self.sample_original(family, 0, seed)
            total += time.perf_counter() - t0
        self.sampled.clear()
        return total

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for layer, start, end, parent, verdict, counters in self.spans:
                handle.write(json.dumps([layer, start, end, parent, verdict, counters]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time covered by its child spans."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - c for span, c in zip(spans, child)]


def _outermost(spans: list[list], index: int, layer: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == layer:
            return False
        parent = spans[parent][3]
    return True


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[list], passes: int, index_s: float,
                  traced_suite_s: float, untraced_suite_s: float) -> dict[str, float]:
    """Every per-layer metric, per traced pass; a layer the workload never
    reaches reads 0."""
    selfs = self_times(spans)
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    sums: dict[tuple[str, str], float] = {}
    outer_time: dict[str, float] = {}
    outer_sums: dict[tuple[str, str], float] = {}
    scan_time: dict[tuple, float] = {}
    table_bytes = 0
    for i, (span, own) in enumerate(zip(spans, selfs)):
        layer, counters = span[0], span[5] or {}
        self_s[layer] = self_s.get(layer, 0.0) + own
        count[layer] = count.get(layer, 0) + 1
        for key, value in counters.items():
            if isinstance(value, (int, float)):
                sums[layer, key] = sums.get((layer, key), 0) + value
        if layer in ("constructions.build", "search.min_unary") and _outermost(spans, i, layer):
            outer_time[layer] = outer_time.get(layer, 0.0) + span[2] - span[1]
            for key, value in counters.items():
                outer_sums[layer, key] = outer_sums.get((layer, key), 0) + value
        if layer == "analysis.scan":
            key = (tuple(counters["key"]), counters["workers"])
            scan_time[key] = scan_time.get(key, 0.0) + span[2] - span[1]
        if layer == "analysis.table":
            table_bytes = max(table_bytes, counters["bytes"])

    def per_pass(value: float) -> float:
        return value / passes

    def own(layer: str) -> float:
        return self_s.get(layer, 0.0)

    w1 = w2 = 0.0
    for (key, workers), seconds in scan_time.items():
        if workers == 2 and (key, 1) in scan_time:
            w1 += scan_time[key, 1]
            w2 += seconds
    sample_trials = sums.get(("analysis.sample", "trials"), 0)
    nodes = outer_sums.get(("search.min_unary", "nodes"), 0)
    out = {
        "cli.dispatch.self_s": per_pass(own("cli.dispatch")),
        "analysis.weight.self_s": per_pass(own("analysis.weight")),
        "cli.serialize.self_s": per_pass(own("cli.serialize")),
        "cli.serialize.mb_per_s": _rate(sums.get(("cli.serialize", "bytes"), 0) / 1e6,
                                        own("cli.serialize")),
        "cli.parse.self_s": per_pass(own("cli.parse")),
        "cli.parse.mb_per_s": _rate(sums.get(("cli.parse", "bytes"), 0) / 1e6, own("cli.parse")),
        "cli.export_cnf.self_s": per_pass(own("cli.export_cnf")),
        "constructions.build.self_s": per_pass(own("constructions.build")),
        "constructions.build.maps_per_s": _rate(
            outer_sums.get(("constructions.build", "maps"), 0),
            outer_time.get("constructions.build", 0.0)),
        "core.family_of.self_s": per_pass(own("core.family_of")),
        "core.classify.self_s": per_pass(own("core.classify")),
        "core.classify.calls": per_pass(count.get("core.classify", 0)),
        "analysis.claims.self_s": per_pass(own("analysis.claims")),
        "analysis.claims.checked": per_pass(sums.get(("analysis.claims", "checked"), 0)),
        "analysis.sample.index_s": per_pass(index_s),
        "analysis.sample.trials_per_s": _rate(sample_trials, own("analysis.sample") - index_s),
        "analysis.scan.self_s": per_pass(own("analysis.scan")),
        "analysis.scan.codes": per_pass(sums.get(("analysis.scan", "codes"), 0)),
        "analysis.scan.codes_per_s": _rate(sums.get(("analysis.scan", "codes"), 0),
                                           own("analysis.scan")),
        "analysis.scan.w2_speedup": _rate(w1, w2),
        "analysis.codes.self_s": per_pass(own("analysis.codes")),
        "analysis.table.self_s": per_pass(own("analysis.table")),
        "analysis.table.cells_per_s": _rate(sums.get(("analysis.table", "cells"), 0),
                                            own("analysis.table")),
        "analysis.table.bytes": float(table_bytes),
        "analysis.parity.self_s": per_pass(own("analysis.parity")),
        "analysis.audit.self_s": per_pass(own("analysis.audit")),
        "search.min_unary.self_s": per_pass(own("search.min_unary")),
        "search.min_unary.nodes": per_pass(nodes),
        "search.min_unary.nodes_per_s": _rate(nodes, own("search.min_unary")),
        "search.min_unary.class_ratio": _rate(
            outer_sums.get(("search.min_unary", "classes"), 0), nodes),
        "search.canonical_key.self_s": per_pass(own("search.canonical_key")),
        "search.canonical_key.keys_per_s": _rate(count.get("search.canonical_key", 0),
                                                 own("search.canonical_key")),
        "search.bracket.self_s": per_pass(own("search.bracket")),
        "trace.overhead": traced_suite_s / untraced_suite_s - 1.0,
    }
    if set(out) != set(PER_LAYER):
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return out


def layer_shares(spans: list[list], traced_total_s: float) -> dict[str, float]:
    """Self time of each layer as a share of the traced passes' verdict time."""
    shares: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        shares[span[0]] = shares.get(span[0], 0.0) + own / traced_total_s
    return dict(sorted(shares.items(), key=lambda item: -item[1]))
