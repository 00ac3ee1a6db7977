"""Spans recorded around the benchmark's calls into each layer, and the
per-layer metrics derived from them.

A span is ``(name, start, end, parent, input)``: the layer call's name, its
``perf_counter`` interval, the index of the enclosing span (the input's
root span ``verdict`` for every layer call) and the input's id.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

# Layer calls the chain makes, named module.operation.
LAYERS = (
    "tm.run", "compiler.compile", "compiler.initial_map",
    "engine.build", "engine.verify", "engine.audit", "deduce.forced",
    "render.ascii", "render.svg", "tiling.roundtrip",
    "modules.reduce", "modules.witness_check", "modules.subset_sum",
    "modules.member", "modules.eliminate",
    "groups.instance", "groups.index_cert", "groups.verify.wreath",
    "groups.verify.metabelian", "groups.reject",
    "rational.instance", "rational.bfs", "rational.enumerate",
    "rational.sweep_word",
)

ROOT_SPAN = "verdict"


class Tracer:
    """Records spans; ``input_id`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.input_id = -1
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "start", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append((self.name, 0.0, 0.0, parent, tracer.input_id))
        tracer._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        name, _, _, parent, input_id = tracer.spans[self.index]
        tracer.spans[self.index] = (name, self.start, end, parent, input_id)
        return False


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """The untraced run's tracer: every span is the same empty context."""

    _span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._span


def layer_totals(spans) -> tuple[dict, dict, dict, dict]:
    """Busy time, self time and call count per span name, and the summed
    duration of each name within each input."""
    covered: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    per_input: dict[tuple[int, str], float] = defaultdict(float)
    for index, (name, start, end, _, input_id) in enumerate(spans):
        duration = end - start
        busy[name] += duration
        own[name] += duration - covered[index]
        calls[name] += 1
        per_input[(input_id, name)] += duration
    return busy, own, calls, per_input


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(n) over the median
    time at each n; 0.0 when fewer than two sizes were measured."""
    by_n: dict[int, list[float]] = defaultdict(list)
    for n, seconds in points:
        if n > 0 and seconds > 0:
            by_n[n].append(seconds)
    if len(by_n) < 2:
        return 0.0
    xs = [math.log(n) for n in by_n]
    ys = [math.log(statistics.median(v)) for v in by_n.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans, records: list[dict], overhead: float) -> dict:
    """Every per-layer metric, by name, as ``(value, unit)``.

    ``records`` hold one dict per traced input: ``id``, ``kind``, ``rung``,
    ``status`` and the workload's ``facts``.
    """
    busy, own, calls, per_input = layer_totals(spans)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.s"] = (busy.get(layer, 0.0), "s")
        out[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")

    def facts(key):
        return [(r, r["facts"][key]) for r in records if key in r["facts"]]

    def layer_time(record, layer):
        return per_input.get((record["id"], layer), 0.0)

    forced = [r for r in records if "widths_tried" in r["facts"]]
    found = [r for r in forced if r["facts"]["found"]]
    out["deduce.forced.placements_per_s"] = (_ratio(
        sum(r["facts"]["placements"] for r in found),
        sum(layer_time(r, "deduce.forced") for r in found)), "1/s")
    out["deduce.forced.widths_tried"] = (_ratio(
        sum(r["facts"]["widths_tried"] for r in forced), len(forced)), "count")
    out["deduce.forced.found_ratio"] = (_ratio(len(found), len(forced)), "ratio")
    out["deduce.forced.scaling"] = (loglog_slope(
        [(r["rung"], layer_time(r, "deduce.forced")) for r in found
         if r["rung"]]), "exponent")
    out["engine.verify.placements_per_s"] = (_ratio(
        sum(v for _, v in facts("verify_placements")),
        busy.get("engine.verify", 0.0)), "1/s")
    rendered = [v for _, v in facts("render_bytes")]
    out["render.bytes"] = (_ratio(sum(rendered), len(rendered)), "bytes")
    out["tm.run.steps_per_s"] = (_ratio(
        sum(v for _, v in facts("steps")), busy.get("tm.run", 0.0)), "1/s")

    genuine = [r for r in records if r["kind"] == "genuine"]
    tokens = sum(sum(r["facts"]["tokens"].values()) for r in genuine)
    verify_busy = (busy.get("groups.verify.wreath", 0.0)
                   + busy.get("groups.verify.metabelian", 0.0))
    out["groups.verify.tokens"] = (_ratio(tokens, 2 * len(genuine)), "count")
    out["groups.verify.tokens_per_s"] = (_ratio(tokens, verify_busy), "1/s")
    out["groups.verify.scaling"] = (loglog_slope(
        [(r["rung"], layer_time(r, "groups.verify.wreath")
          + layer_time(r, "groups.verify.metabelian"))
         for r in genuine if r["rung"]]), "exponent")
    out["modules.witness_check.scaling"] = (loglog_slope(
        [(r["rung"], layer_time(r, "modules.witness_check"))
         for r in records if r["rung"]]), "exponent")

    searches = [r for r in records if "method" in r["facts"]]
    out["modules.search.found_ratio"] = (_ratio(
        sum(r["facts"]["found"] for r in searches), len(searches)), "ratio")
    out["modules.search.budget_miss_ratio"] = (_ratio(
        sum(r["status"] == "budget-miss" for r in searches), len(searches)),
        "ratio")

    bfs = [r for r in records if r["kind"] in ("bfs", "doubled")]
    out["rational.bfs.found_ratio"] = (_ratio(
        sum(r["facts"]["found"] for r in bfs), len(bfs)), "ratio")
    hits = [v for _, v in facts("hits")]
    out["rational.enumerate.hits"] = (_ratio(sum(hits), len(hits)), "count")

    out["trace.overhead_share"] = (overhead, "ratio")
    out["trace.spans"] = (len(spans), "count")
    return out

