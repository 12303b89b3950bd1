"""Per-layer metrics from one traced run: spans, samples and metric snapshots.

Every name in :data:`PER_LAYER` is always reported; a layer the
workload does not exercise reads 0 (no calls, no time).  Times are
means per call unless the name says otherwise.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from stats import mean, union_length

#: name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "server.request_ms.query": "ms",
    "server.request_ms.ingest": "ms",
    "server.request_ms.shard_view": "ms",
    "server.request_ms.shard_ingest": "ms",
    "server.self_ms.query": "ms",
    "server.self_ms.ingest": "ms",
    "server.self_ms.shard_view": "ms",
    "server.self_ms.shard_ingest": "ms",
    "wire.codec_pct": "%",
    "batcher.wait_ms": "ms",
    "batcher.flush_ms": "ms",
    "batcher.requests_per_flush": "count",
    "batcher.store_calls_per_request": "ratio",
    "store.query_ms.query": "ms",
    "store.query_ms.distinct_batch": "ms",
    "store.view_builds": "count",
    "store.view_build_ms": "ms",
    "store.view_hit_ratio": "ratio",
    "store.ingest_ms": "ms",
    "store.ingest_events": "count",
    "persistence.append_ms": "ms",
    "persistence.batches": "count",
    "router.gather_ms": "ms",
    "router.shard_request_ms.shard_view": "ms",
    "router.shard_request_ms.ingest": "ms",
    "router.view_cache_hit_ratio": "ratio",
    "router.view_bytes": "bytes",
    "router.fuse_ms": "ms",
    "router.split_ms": "ms",
    "replication.record_ms": "ms",
    "replication.shipped_entries": "count",
    "replication.apply_ms": "ms",
    "replication.ack_wait_ms": "ms",
    "replication.lag_offsets": "count",
    "aggregates.estimate_ms": "ms",
    "aggregates.items": "count",
    "engine.kernel_ms": "ms",
    "engine.kernel_items": "count",
    "engine.moments_ms": "ms",
    **{f"experiments.E{i}_s": "s" for i in range(1, 12)},
    "deployment.cpu_s": "s",
    "generator.lag_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Span names whose functions run without yielding to the event loop:
#: their self time is time the loop spent in that stage.
SYNC_STAGES = (
    "wire.decode",
    "wire.encode",
    "store.view_payload",
    "store.sketch",
    "router.fuse",
    "router.split",
    "store.query",
    "store.distinct_batch",
    "aggregates.estimate",
    "engine.kernel",
    "engine.moments",
    "store.ingest",
    "persistence.append",
    "replication.record",
    "replication.apply",
    "batcher.flush",
)

Snapshot = Dict[str, Any]


def _histogram_mean_ms(before: Snapshot, after: Snapshot, prefix: str) -> float:
    total = count = 0.0
    for series, entry in after["histograms"].items():
        if series == prefix or series.startswith(prefix + "{"):
            prior = before["histograms"].get(series, {"sum": 0.0, "count": 0})
            total += entry["sum"] - prior["sum"]
            count += entry["count"] - prior["count"]
    return 1000.0 * total / count if count else 0.0


def _counter_delta(before: Snapshot, after: Snapshot, series: str) -> float:
    return after["counters"].get(series, 0.0) - before["counters"].get(series, 0.0)


class SpanIndex:
    def __init__(self, spans: Iterable[Tuple]) -> None:
        self.spans = list(spans)
        self.by_id = {span[0]: span for span in self.spans}
        self.children: Dict[int, List[Tuple]] = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                self.children[span[1]].append(span)

    def named(self, name: str, outermost: bool = False) -> List[Tuple]:
        """Spans called ``name``; ``outermost`` drops those nested in one."""
        found = [span for span in self.spans if span[3] == name]
        if outermost:
            found = [span for span in found if self.parent_name(span) != name]
        return found

    def parent_name(self, span: Tuple) -> Optional[str]:
        parent = self.by_id.get(span[1])
        return None if parent is None else parent[3]

    def self_time(self, span: Tuple, keep: Tuple[str, ...] = ()) -> float:
        """The span's duration minus what its children cover, except
        children named in ``keep``, whose time stays in the span."""
        covered = [(c[4], c[5]) for c in self.children[span[0]] if c[3] not in keep]
        return (span[5] - span[4]) - union_length(covered, span[4], span[5])


def _mean_ms(spans: List[Tuple]) -> float:
    return 1000.0 * mean([span[5] - span[4] for span in spans])


def stage_seconds(index: SpanIndex) -> Dict[str, float]:
    """Event-loop seconds per synchronous stage (span self time)."""
    totals: Dict[str, float] = defaultdict(float)
    for span in index.spans:
        if span[3] in SYNC_STAGES:
            totals[span[3]] += index.self_time(span)
    return dict(totals)


def serving_layers(
    spans: List[Tuple],
    samples: List[Tuple[str, float]],
    before: Dict[str, Any],
    after: Dict[str, Any],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of a serving run and its stage breakdown.

    ``before``/``after`` are deployment reports (metrics snapshots by
    role plus CPU seconds) bracketing the traced window.
    """
    index = SpanIndex(spans)
    out = {name: 0.0 for name in PER_LAYER}
    front_before, front_after = before["metrics"]["front"], after["metrics"]["front"]
    for op in ("query", "ingest"):
        out[f"server.request_ms.{op}"] = _histogram_mean_ms(
            front_before, front_after, f'serving_request_seconds{{op="{op}"}}'
        )
    primaries = list(zip(before["metrics"]["primary"], after["metrics"]["primary"]))
    for op, name in (("shard_view", "shard_view"), ("ingest", "shard_ingest")):
        means = [
            _histogram_mean_ms(b, a, f'serving_request_seconds{{op="{op}"}}')
            for b, a in primaries
        ]
        out[f"server.request_ms.{name}"] = mean([m for m in means if m])

    requests = index.named("server.request")
    for role, op, name in (
        ("front", "query", "query"),
        ("front", "ingest", "ingest"),
        ("primary", "shard_view", "shard_view"),
        ("primary", "ingest", "shard_ingest"),
    ):
        chosen = [s for s in requests if s[6].get("role") == role and s[6].get("op") == op]
        # The protocol shell's own work includes encoding and decoding
        # the request and response lines.
        out[f"server.self_ms.{name}"] = 1000.0 * mean(
            [index.self_time(s, keep=("wire.decode", "wire.encode")) for s in chosen]
        )

    stages = stage_seconds(index)
    cpu = after["cpu_s"] - before["cpu_s"]
    codec = stages.get("wire.decode", 0.0) + stages.get("wire.encode", 0.0)
    out["wire.codec_pct"] = 100.0 * codec / cpu if cpu else 0.0

    waits = [value for name, value in samples if name == "batcher.wait"]
    out["batcher.wait_ms"] = 1000.0 * mean(waits)
    flushes = index.named("batcher.flush")
    out["batcher.flush_ms"] = _mean_ms(flushes)
    flushed = sum(s[6]["requests"] for s in flushes)
    out["batcher.requests_per_flush"] = flushed / len(flushes) if flushes else 0.0
    out["batcher.store_calls_per_request"] = (
        sum(s[6]["calls"] for s in flushes) / flushed if flushed else 0.0
    )

    out["store.query_ms.query"] = _mean_ms(index.named("store.query"))
    out["store.query_ms.distinct_batch"] = _mean_ms(index.named("store.distinct_batch"))
    views = [s for s in index.named("store.sketch") if not s[6].get("fused")]
    builds = [s for s in views if s[6].get("built")]
    out["store.view_builds"] = float(len(builds))
    out["store.view_build_ms"] = _mean_ms(builds)
    out["store.view_hit_ratio"] = 1.0 - len(builds) / len(views) if views else 0.0
    # Primary-side ingest only: follower applies are replication.apply.
    ingests = [
        s for s in index.named("store.ingest")
        if index.parent_name(s) != "replication.apply"
    ]
    out["store.ingest_ms"] = _mean_ms(ingests)
    out["store.ingest_events"] = float(sum(s[6]["events"] for s in ingests))
    appends = index.named("persistence.append")
    out["persistence.append_ms"] = _mean_ms(appends)
    out["persistence.batches"] = float(len(appends))

    out["router.gather_ms"] = _histogram_mean_ms(front_before, front_after, "router_gather_seconds")
    shard_requests = index.named("router.shard_request")
    for op in ("shard_view", "ingest"):
        out[f"router.shard_request_ms.{op}"] = _mean_ms(
            [s for s in shard_requests if s[6]["op"] == op]
        )
    fetches = [s for s in shard_requests if s[6]["op"] == "shard_view"]
    out["router.view_cache_hit_ratio"] = (
        sum(1 for s in fetches if s[6]["unchanged"]) / len(fetches) if fetches else 0.0
    )
    payloads = index.named("store.view_payload")
    out["router.view_bytes"] = mean([s[6]["bytes"] for s in payloads])
    out["router.fuse_ms"] = _mean_ms(index.named("router.fuse"))
    out["router.split_ms"] = _mean_ms(index.named("router.split"))

    out["replication.record_ms"] = _mean_ms(index.named("replication.record"))
    out["replication.shipped_entries"] = float(
        sum(_counter_delta(b, a, "serving_repl_segments_shipped_total") for b, a in primaries)
    )
    out["replication.apply_ms"] = _mean_ms(index.named("replication.apply"))
    out["replication.ack_wait_ms"] = _mean_ms(index.named("replication.ack_wait"))
    out["replication.lag_offsets"] = mean(
        [value for name, value in samples if name == "replication.lag"]
    )

    out.update(engine_layers(index))
    out["deployment.cpu_s"] = cpu
    return out, stages


def engine_layers(index: SpanIndex) -> Dict[str, float]:
    estimates = index.named("aggregates.estimate", outermost=True)
    kernels = index.named("engine.kernel", outermost=True)
    return {
        "aggregates.estimate_ms": _mean_ms(estimates),
        "aggregates.items": mean([s[6]["items"] for s in estimates]),
        "engine.kernel_ms": _mean_ms(kernels),
        "engine.kernel_items": float(sum(s[6]["items"] for s in kernels)),
        "engine.moments_ms": _mean_ms(index.named("engine.moments", outermost=True)),
    }


def offline_layers(spans: List[Tuple], passes: int, cpu_s: float) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of traced experiment passes (spans from every worker)."""
    index = SpanIndex(spans)
    out = {name: 0.0 for name in PER_LAYER}
    out.update(engine_layers(index))
    for span in index.named("experiments.shard"):
        out[f"experiments.{span[6]['experiment']}_s"] += (span[5] - span[4]) / passes
    out["deployment.cpu_s"] = cpu_s
    return out, stage_seconds(index)
