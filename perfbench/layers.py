"""Per-layer metrics of a traced pass, and the metric catalogue.

Inputs are what a traced pass leaves behind: the spans recorded around each
layer's public entry points (server side and client side), the program's
own counters scraped through ``StatsRequest``/``MetricsRequest`` (or the
in-process registry) at the start and end of the pass, the load generator's
schedule records and the server's write log.  Every metric of
:data:`PER_LAYER` is produced for every workload; a layer a workload does
not exercise reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.stats import (
    counter_delta,
    histogram_percentile,
    max_overlap,
    mean,
    percentile,
    share,
    tail,
)
from perfbench.tracing import Span, self_time_by_layer

#: End-to-end metrics: ``(name, unit, better, bound)``.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("qps", "queries/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
)

#: Size classes of every workload's mix, for ``engine.run_ms.<class>``.
SIZE_CLASSES = ("c1x1", "c8x8", "c64x16", "c64x64", "c256x256")

#: Span names of the traced entry points, for ``self_us.<layer>``.
TRACED_LAYERS = (
    "client.pack_frame",
    "client.unpack_frame",
    "service.handle_nowait",
    "service.submit",
    "service.handle",
    "cache.get",
    "cache.put",
    "planner.plan",
    "engine.run",
    "cluster.run_phase",
    "cluster.run_shard_phase",
)

#: Per-layer metrics: ``(name, unit)``.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("error_share", "fraction"),
    ("pairs_per_s", "pairs/s"),
    ("query_p99_ms", "ms"),
    ("update.ack_p99_ms", "ms"),
    ("update.visible_p50_ms", "ms"),
    ("update.visible_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("protocol.request_bytes_mean", "bytes"),
    ("protocol.reply_bytes_mean", "bytes"),
    ("protocol.encode_us_p50", "us"),
    ("protocol.decode_us_p50", "us"),
    ("aio.fastpath_share", "fraction"),
    ("aio.paused_total", "count"),
    ("aio.inflight_max", "count"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.handle_ms_p50", "ms"),
    ("service.handle_ms_p99", "ms"),
    ("service.rejected_total", "count"),
    ("service.queue_depth_max", "count"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "fraction"),
    ("cache.get_us_p50", "us"),
    ("cache.invalidations", "count"),
    ("planner.plan_us_p50", "us"),
    ("planner.batches_per_query", "count"),
    ("planner.backward_share", "fraction"),
    *(
        (f"engine.run_ms.{size}.{stat}", "ms")
        for size in SIZE_CLASSES
        for stat in ("p50", "p99")
    ),
    ("engine.stale_retries", "count"),
    ("comm.messages_per_query", "count"),
    ("comm.bytes_per_query", "bytes"),
    ("step.handle_bytes_per_query", "bytes"),
    ("step.groups_per_query", "count"),
    ("pairs.per_query", "count"),
    ("executor.phase_ms_p50", "ms"),
    ("executor.shard_task_ms_p50", "ms"),
    ("executor.dispatch_gap_ms_p50", "ms"),
    ("executor.payload_bytes_per_query", "bytes"),
    ("executor.respawns", "count"),
    ("executor.reconnects", "count"),
    ("flush.count", "count"),
    ("flush.ms_p50", "ms"),
    ("flush.ms_p99", "ms"),
    ("flush.snapshot_ms_p99", "ms"),
    ("flush.heavy_ms_p50", "ms"),
    ("flush.partitions_refreshed_mean", "count"),
    ("flush.coalesced_share", "fraction"),
    ("update.structural_share", "fraction"),
    ("update.apply_us_p50", "us"),
    ("setup.load_s", "s"),
    ("setup.engine_s", "s"),
    ("setup.workers_s", "s"),
    ("setup.listen_s", "s"),
    ("index.compound_edges", "count"),
    ("trace.overhead_share", "fraction"),
    *((f"self_us.{layer}", "us") for layer in TRACED_LAYERS),
)

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _, _ in END_TO_END},
    **dict(PER_LAYER),
}


def _ms(seconds: Iterable[float]) -> List[float]:
    return [value * 1000.0 for value in seconds]


def _us(seconds: Iterable[float]) -> List[float]:
    return [value * 1e6 for value in seconds]


def _by_name(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    grouped: Dict[str, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(span)
    return grouped


def _stat(stats: Optional[Dict[str, Any]], *path: str) -> float:
    value: Any = stats or {}
    for key in path:
        if not isinstance(value, dict):
            return 0.0
        value = value.get(key, 0)
    return float(value or 0)


def service_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Front-door and service-layer numbers from the server's spans."""
    by_name = _by_name(spans)
    submits = {span.rid: span for span in by_name.get("service.submit", ())}
    handles = {
        span.rid: span
        for span in by_name.get("service.handle", ())
        if span.attrs["kind"] == "QueryRequest"
    }
    waits = [
        handles[rid].start - submit.start for rid, submit in submits.items() if rid in handles
    ]
    nowait = [span for span in by_name.get("service.handle_nowait", ()) if (span.attrs or {}).get("query")]
    query_requests = {span.rid for span in nowait}
    answered_inline = sum(1 for span in nowait if span.attrs.get("hit"))
    executed = {span.sid for span in handles.values()}
    plans = [
        span for span in by_name.get("planner.plan", ()) if span.parent in executed
    ]
    return {
        "aio.fastpath_share": share(answered_inline, len(query_requests)),
        "aio.inflight_max": float(max_overlap(
            (submit.start, handles[rid].end) for rid, submit in submits.items() if rid in handles
        )),
        "service.queue_wait_ms_p50": percentile(_ms(waits), 50),
        "service.queue_wait_ms_p99": tail(_ms(waits))[0],
        "service.handle_ms_p50": percentile(_ms(s.duration for s in handles.values()), 50),
        "service.handle_ms_p99": tail(_ms(s.duration for s in handles.values()))[0],
        "service.queue_depth_max": float(max_overlap(
            (submit.start, handles[rid].start) for rid, submit in submits.items() if rid in handles
        )),
        "cache.get_us_p50": percentile(_us(s.duration for s in by_name.get("cache.get", ())), 50),
        "planner.plan_us_p50": percentile(_us(s.duration for s in by_name.get("planner.plan", ())), 50),
        "planner.batches_per_query": mean([s.attrs["batches"] for s in plans]),
        "planner.backward_share": share(
            sum(1 for s in plans if s.attrs["direction"] == "backward"), len(plans)
        ),
    }


def engine_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Engine and executor-dispatch numbers from the spans around them."""
    by_name = _by_name(spans)
    metrics: Dict[str, float] = {}
    runs = by_name.get("engine.run", ())
    for size in SIZE_CLASSES:
        times = _ms(s.duration for s in runs if s.attrs["class"] == size)
        metrics[f"engine.run_ms.{size}.p50"] = percentile(times, 50)
        metrics[f"engine.run_ms.{size}.p99"] = tail(times)[0]
    phases = by_name.get("cluster.run_shard_phase", ())
    metrics["executor.phase_ms_p50"] = percentile(_ms(s.duration for s in phases), 50)
    metrics["executor.dispatch_gap_ms_p50"] = percentile(
        _ms(s.duration - s.attrs["slowest_task"] for s in phases), 50
    )
    return metrics


def counter_metrics(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Engine/executor/flush counters between two Prometheus scrapes."""
    def delta(name: str, **labels: str) -> float:
        return counter_delta(before, after, name, **labels)

    queries = delta("dsr_queries_total")
    task_seconds = histogram_percentile(before, after, "dsr_shard_task_seconds", 50)
    requests = delta("dsr_flush_requests_total")
    return {
        "engine.stale_retries": delta("dsr_query_stale_retries_total"),
        "comm.messages_per_query": share(delta("dsr_query_messages_total"), queries),
        "comm.bytes_per_query": share(delta("dsr_query_bytes_total"), queries),
        "step.handle_bytes_per_query": share(
            delta("dsr_shard_payload_bytes_total", step="remote"), queries
        ),
        "step.groups_per_query": share(delta("dsr_step_groups_total"), queries),
        "pairs.per_query": share(delta("dsr_query_pairs_total"), queries),
        "executor.shard_task_ms_p50": (task_seconds or 0.0) * 1000.0,
        "executor.payload_bytes_per_query": share(
            delta("dsr_shard_payload_bytes_total"), queries
        ),
        "executor.respawns": delta("dsr_worker_respawns_total"),
        "executor.reconnects": delta("dsr_worker_reconnects_total"),
        "flush.count": delta("dsr_flushes_total", outcome="published"),
        "flush.coalesced_share": share(delta("dsr_flush_requests_coalesced_total"), requests),
    }


def stats_metrics(before: Optional[Dict[str, Any]], after: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """Service counters between two ``StatsRequest`` replies."""
    def delta(*path: str) -> float:
        return _stat(after, *path) - _stat(before, *path)

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    return {
        "aio.paused_total": delta("async", "paused_total"),
        "service.rejected_total": delta("rejected"),
        "cache.lookups": hits + misses,
        "cache.hit_ratio": share(hits, hits + misses),
        "cache.invalidations": delta("cache", "invalidations"),
    }


def client_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    by_name = _by_name(spans)
    packs = by_name.get("client.pack_frame", ())
    unpacks = by_name.get("client.unpack_frame", ())
    return {
        "protocol.request_bytes_mean": mean([s.attrs["bytes"] for s in packs]),
        "protocol.reply_bytes_mean": mean([s.attrs["bytes"] for s in unpacks]),
        "protocol.encode_us_p50": percentile(_us(s.duration for s in packs), 50),
        "protocol.decode_us_p50": percentile(_us(s.duration for s in unpacks), 50),
    }


def self_time_metrics(spans: Sequence[Span], client_spans: Sequence[Span]) -> Dict[str, float]:
    layers = self_time_by_layer(spans)
    layers.update(self_time_by_layer(client_spans))
    return {
        f"self_us.{layer}": mean(_us(layers.get(layer, ()))) for layer in TRACED_LAYERS
    }


def write_metrics(flushes: Sequence[list], applies: Sequence[list], structural: Sequence[bool]) -> Dict[str, float]:
    """Write-path numbers from the server's flush and apply logs."""
    seconds = [row[2] for row in flushes]
    return {
        "flush.ms_p50": percentile(_ms(seconds), 50),
        "flush.ms_p99": tail(_ms(seconds))[0],
        "flush.snapshot_ms_p99": tail(_ms(row[3] for row in flushes))[0],
        "flush.heavy_ms_p50": percentile(_ms(row[4] for row in flushes), 50),
        "flush.partitions_refreshed_mean": mean([row[5] for row in flushes]),
        "update.structural_share": share(sum(structural), len(structural)),
        "update.apply_us_p50": percentile(_us(row[4] for row in applies), 50),
    }


def complete(metrics: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 for a layer the workload did not exercise."""
    return {name: float(metrics.get(name, 0.0)) for name, _ in PER_LAYER}
