"""Probes the benchmark attaches to a built engine and service.

Span wrappers around each layer's public entry points (installed only for a
traced pass), and the write log that update visibility is computed from.
All of it wraps methods on the benchmark's own objects from outside; nothing
under ``src/`` is touched.
"""

from __future__ import annotations

import time
from typing import Callable, List

from repro.api import ReachQuery

from perfbench.tracing import SpanRecorder, instrument


def _size_class(query) -> str:
    return f"c{len(query.sources)}x{len(query.targets)}"


def install_layer_spans(recorder: SpanRecorder, service, engine) -> List[Callable[[], None]]:
    """Wrap each serving layer's public entry points; returns the undo list."""
    undo = [
        instrument(
            recorder, service, "handle_nowait", "service.handle_nowait",
            describe=lambda a, k, r: {"hit": r is not None, "query": isinstance(a[0], ReachQuery)},
            carried=True, park_when=lambda r: r is None,
        ),
        instrument(
            recorder, service, "submit", "service.submit",
            carried=True, park_when=lambda r: True,
        ),
        instrument(
            recorder, service, "handle", "service.handle",
            describe=lambda a, k, r: {"kind": type(a[0]).__name__},
            carried=True,
        ),
        instrument(
            recorder, service.planner, "plan", "planner.plan",
            describe=lambda a, k, r: {"direction": r.direction, "batches": r.num_batches},
        ),
    ]
    if service.cache is not None:
        undo.append(instrument(
            recorder, service.cache, "get", "cache.get",
            describe=lambda a, k, r: {"hit": r is not None},
        ))
        undo.append(instrument(recorder, service.cache, "put", "cache.put"))
    undo.extend(install_engine_spans(recorder, engine))
    return undo


def install_engine_spans(recorder: SpanRecorder, engine) -> List[Callable[[], None]]:
    """Wrap ``engine.run`` and the cluster's phase entry points."""
    cluster = engine.cluster
    return [
        instrument(
            recorder, engine, "run", "engine.run",
            describe=lambda a, k, r: {"class": _size_class(a[0]), "pairs": len(r.pairs)},
        ),
        instrument(recorder, cluster, "run_phase", "cluster.run_phase"),
        instrument(
            recorder, cluster, "run_shard_phase", "cluster.run_shard_phase",
            describe=lambda a, k, r: {"slowest_task": _slowest_task(a, k, cluster)},
        ),
    ]


def _slowest_task(args, kwargs, cluster) -> float:
    """Longest per-worker time of the phase just recorded by the cluster."""
    stats = kwargs.get("stats", args[4] if len(args) > 4 else None)
    phases = (stats if stats is not None else cluster.stats).phases
    if not phases:
        return 0.0
    return max(phases[-1].per_worker_seconds.values(), default=0.0)


class WriteLog:
    """Update apply times and epoch publications, for the write-path metrics."""

    def __init__(self, engine) -> None:
        self.applies: List[list] = []
        self.flushes: List[list] = []
        engine.maintainer.add_flush_listener(self._on_flush)
        for name in ("insert_edge", "delete_edge"):
            self._wrap(engine, name)

    def _wrap(self, engine, name: str) -> None:
        original = getattr(engine, name)
        op = name.replace("_", "-")

        def logged(u, v):
            entered = time.monotonic()
            started = time.perf_counter()
            result = original(u, v)
            self.applies.append(
                [op, u, v, entered, time.perf_counter() - started, bool(result.structural_change)]
            )
            return result

        setattr(engine, name, logged)

    def _on_flush(self, result) -> None:
        self.flushes.append([
            time.monotonic(),
            result.epoch,
            result.seconds,
            result.snapshot_seconds,
            result.heavy_seconds,
            len(result.refreshed_partitions),
        ])
