"""Workload runners and result assembly behind ``perfbench/run.py``.

``run_workload`` runs one workload at one seed and returns its record:
the end-to-end metrics (untraced) or the per-layer metrics (traced), the
operation tally, sample counts, set-up phases and the run fingerprint.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import time
from typing import Any, Dict, List

from repro.api import ReachQuery, open_engine
from repro.cluster.shm import shm_available
from repro.obs import global_registry
from repro.service import MetricsRequest, QueryRequest, StatsRequest, UpdateRequest

from perfbench import layers
from perfbench.host import ROOT, ServerProcess, fingerprint, peak_rss_mb
from perfbench.loadgen import LoadGenerator, Op
from perfbench.oracle import Oracle, same_pairs
from perfbench.probes import install_engine_spans
from perfbench.stats import median, parse_prometheus, percentile, tail
from perfbench.tracing import SpanRecorder, load_spans
from perfbench.workloads import (
    CONNECTIONS,
    SETUPS,
    WORKLOADS,
    MixSampler,
    apply_updates,
    build_graph,
    engine_config,
    update_stream,
    working_sets,
)

#: Run records and span dumps, inside the checkout.
OUT = ROOT / ".perfbench"

#: Unmeasured warm-up before the first measured phase (seconds).
WARMUP_S = 1.5
#: Longest wait for outstanding replies after a phase (seconds).
DRAIN_S = 30.0
#: Queries checked against the oracle after ingest-rw's final flush.
FINAL_CHECKS = 60
#: Share of a serve-mixed pass given to the open loop: at 150 queries/s,
#: 20 s of a 30 s run give three rounds of 1000 samples.
OPEN_SHARE = 2.0 / 3.0
#: Latencies and rates are medians over up to this many rounds of a run...
ROUNDS = 5
#: ...with at least this many samples in each, so a p99 keeps 10 beyond it.
ROUND_SAMPLES = 1000


class Tally:
    """Operations attempted, failed (error or no reply) and wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def count(self, failed: bool, wrong: bool = False) -> None:
        self.attempted += 1
        self.failed += failed
        self.wrong += wrong


def _passes(seconds: float, trace: bool) -> List[tuple]:
    """``(traced, duration)`` of each measured pass."""
    if trace:
        return [(False, seconds / 2.0), (True, seconds / 2.0)]
    return [(False, seconds)]


def _ms(values) -> List[float]:
    return [value * 1000.0 for value in values]


def _rounds(samples: list) -> List[list]:
    """Consecutive equal rounds of ``samples``: up to :data:`ROUNDS`, as many
    as keep :data:`ROUND_SAMPLES` in each (at least one round)."""
    count = max(1, min(ROUNDS, len(samples) // ROUND_SAMPLES))
    size = len(samples) // count
    return [samples[i * size : (i + 1) * size] for i in range(count)]


def _latency_summary(latencies_ms: List[float]) -> Dict[str, Any]:
    """Median over rounds of each round's median and tail percentile.

    A stall that hits one round moves one of the per-round values, not the
    reported median of them.
    """
    rounds = _rounds(latencies_ms)
    tails = [tail(chunk) for chunk in rounds]
    return {
        "query_p50_ms": median([percentile(chunk, 50) for chunk in rounds]),
        "query_p99_ms": median([value for value, _ in tails]),
        "query_p99_percentile": min(used for _, used in tails),
        "query_samples": len(latencies_ms),
        "query_rounds": len(rounds),
        "latencies_ms": latencies_ms,
    }


def _throughput(items: List[tuple]) -> Dict[str, float]:
    """``qps`` and ``pairs_per_s``: medians over rounds of ``items``, each
    ``(seconds, pairs)`` — the time one query accounts for, and its pairs."""
    rounds = _rounds(items)
    qps, pairs = [], []
    for chunk in rounds:
        seconds = sum(item[0] for item in chunk)
        qps.append(len(chunk) / seconds if seconds > 0 else 0.0)
        pairs.append(sum(item[1] for item in chunk) / seconds if seconds > 0 else 0.0)
    return {"qps": median(qps), "pairs_per_s": median(pairs)}


def _overhead(passes: List[Dict[str, Any]]) -> float:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not untraced or not traced or not untraced[0]["query_p50_ms"]:
        return 0.0
    base = untraced[0]["query_p50_ms"]
    return (traced[0]["query_p50_ms"] - base) / base


def _setup_metrics(setups: List[Dict[str, float]]) -> Dict[str, float]:
    return {
        "setup_s": median([s["setup_s"] for s in setups]),
        "setup.load_s": median([s["load_s"] for s in setups]),
        "setup.engine_s": median([s["engine_s"] for s in setups]),
        "setup.workers_s": median([s["workers_s"] for s in setups]),
        "setup.listen_s": median([s["listen_s"] for s in setups]),
    }


# ---------------------------------------------------------------------- #
# front-door workloads (server process + load generator)
# ---------------------------------------------------------------------- #
async def _scrape(generator) -> tuple:
    stats = await generator.request(Op("admin", None, StatsRequest()))
    metrics = await generator.request(Op("admin", None, MetricsRequest()))
    if stats.failed or metrics.failed:
        raise RuntimeError("the server did not answer a stats or metrics request")
    return stats.reply.stats, parse_prometheus(metrics.reply.text)


async def _traced_pass(server, generator, run_phase, label: str) -> Dict[str, Any]:
    """Run ``run_phase()`` with spans on at both ends; collect everything."""
    server.command("trace on")
    generator.recorder = SpanRecorder()
    stats_before, prom_before = await _scrape(generator)
    outcome = await run_phase()
    stats_after, prom_after = await _scrape(generator)
    server.command("trace off")
    client_spans = generator.recorder.spans
    generator.recorder = None
    path = OUT / f"spans-{label}.jsonl"
    server.command(f"report {path}")
    spans = load_spans(str(path))
    per_layer: Dict[str, float] = {}
    per_layer.update(layers.service_metrics(spans))
    per_layer.update(layers.engine_metrics(spans))
    per_layer.update(layers.counter_metrics(prom_before, prom_after))
    per_layer.update(layers.stats_metrics(stats_before, stats_after))
    per_layer.update(layers.client_metrics(client_spans))
    per_layer.update(layers.self_time_metrics(spans, client_spans))
    outcome["layers"] = per_layer
    return outcome


def _query_op(sampler):
    def make():
        query_class, (sources, targets) = sampler.next()
        return Op(
            "query", (sources, targets),
            QueryRequest(sources, targets, tenant=query_class.name),
        )

    return make


async def _drive_serve_mixed(server, workload, seed, seconds, trace, tally, vertices, expected):
    generator = LoadGenerator("127.0.0.1", server.ready["port"], CONNECTIONS)
    await generator.connect()

    def check(op) -> None:
        if op.kind != "query":
            return
        wrong = not op.failed and not same_pairs(op.reply.pairs, expected[op.payload])
        tally.count(op.failed, wrong)

    generator.on_done = check
    make_op = _query_op(MixSampler(workload, vertices, seed))
    await generator.closed_loop(workload.window, WARMUP_S, make_op)
    passes = []
    for traced, duration in _passes(seconds, trace):
        async def phase(duration=duration):
            open_phase = await generator.open_loop(
                workload.query_rate, duration * OPEN_SHARE, make_op
            )
            await generator.drain(DRAIN_S)
            closed = await generator.closed_loop(
                workload.window, duration * (1.0 - OPEN_SHARE), make_op
            )
            return {"open": open_phase, "closed": closed}

        if traced:
            outcome = await _traced_pass(server, generator, phase, f"serve-mixed-{seed}")
        else:
            outcome = await phase()
        answered = [op for op in outcome["open"]["ops"] if not op.failed]
        closed_ops = [op for op in outcome["closed"]["ops"] if not op.failed]
        record = {"traced": traced, "layers": outcome.get("layers", {})}
        record.update(_latency_summary(_ms(op.latency for op in answered)))
        # Each closed-loop reply accounts for the time since the previous
        # reply (the first since the start of the phase).
        marks = [outcome["closed"]["started"]] + [op.done for op in closed_ops]
        record.update(_throughput([
            (op.done - previous, len(op.reply.pairs))
            for op, previous in zip(closed_ops, marks)
        ]))
        record["late_p99_ms"] = tail(_ms(outcome["open"]["late"]))[0]
        record["backlog_max"] = outcome["open"]["backlog_max"]
        passes.append(record)
    await generator.close()
    return passes


def run_serve_mixed(workload, seed: int, seconds: float, trace: bool, tally: Tally):
    graph = build_graph(workload)
    oracle = Oracle(graph)
    vertices = sorted(graph.vertices())
    expected = {
        query: frozenset(oracle.expected(*query))
        for queries in working_sets(workload, vertices, seed).values()
        for query in queries
    }
    server = ServerProcess(workload.name, seed)
    try:
        passes = asyncio.run(
            _drive_serve_mixed(
                server, workload, seed, seconds, trace, tally, vertices, expected
            )
        )
        rss = peak_rss_mb(server.pid)
    finally:
        server.stop()
    return passes, rss, server.ready


async def _drive_ingest(server, workload, seed, seconds, trace, tally, graph):
    vertices = sorted(graph.vertices())
    generator = LoadGenerator("127.0.0.1", server.ready["port"], CONNECTIONS)
    await generator.connect()
    stream = update_stream(graph, seed)
    sampler = MixSampler(workload, vertices, seed)
    sent: List[tuple] = []

    async def send(op: Op, connection: int = 0) -> Op:
        # Answers are checked after the final flush, against the model
        # graph; here only failures count.
        await generator.request(op, connection)
        tally.count(op.failed)
        return op

    async def reader(connection: int, ops: List[Op]) -> None:
        for _ in range(workload.cycle_reads // CONNECTIONS):
            query_class, (sources, targets) = sampler.next()
            ops.append(await send(
                Op(
                    "query", (sources, targets),
                    QueryRequest(sources, targets, tenant=query_class.name),
                ),
                connection,
            ))

    async def cycle() -> Dict[str, Any]:
        """One update, a flush that publishes it, then the cycle's reads."""
        started = time.monotonic()
        update = next(stream)
        sent.append(update)
        acked = await send(Op("update", update, UpdateRequest(*update)))
        flushed = await send(Op("update", None, UpdateRequest("flush")))
        reads: List[Op] = []
        await asyncio.gather(*(reader(c, reads) for c in range(CONNECTIONS)))
        return {
            "update": acked, "flush": flushed, "reads": reads,
            "seconds": time.monotonic() - started,
        }

    last = await cycle()  # warm-up
    passes = []
    for traced, duration in _passes(seconds, trace):
        async def phase(duration=duration):
            started = time.monotonic()
            cycles = []
            while time.monotonic() < started + duration:
                cycles.append(await cycle())
            return {"cycles": cycles, "started": started, "ended": time.monotonic()}

        if traced:
            outcome = await _traced_pass(server, generator, phase, f"ingest-rw-{seed}")
        else:
            outcome = await phase()
        cycles = outcome["cycles"]
        last = cycles[-1] if cycles else last
        answered = [op for c in cycles for op in c["reads"] if not op.failed]
        record = {"traced": traced, "layers": outcome.get("layers", {})}
        record.update(_latency_summary(_ms(op.latency for op in answered)))
        # Each read accounts for an equal share of its whole cycle, update
        # and flush included, so a slower write path lowers qps.
        record.update(_throughput([
            (c["seconds"] / len(c["reads"]), len(op.reply.pairs))
            for c in cycles for op in c["reads"] if not op.failed
        ]))
        written = [c for c in cycles if not c["update"].failed and not c["flush"].failed]
        acks = _ms(c["update"].latency for c in written)
        # Visible once the flush that follows the acknowledgement returns:
        # it returns when the epoch containing the update is published.
        visible = _ms(c["flush"].done - c["update"].done for c in written)
        record.update({
            "update_ack_p99_ms": tail(acks)[0],
            "update_visible_p50_ms": percentile(visible, 50),
            "update_visible_p99_ms": tail(visible)[0],
            "update_samples": len(written),
            "structural": [bool(c["update"].reply.structural_change) for c in written],
            "started": outcome["started"],
            "ended": outcome["ended"],
        })
        passes.append(record)

    # Peak memory of the measured passes, before the final checks.
    rss = peak_rss_mb(server.pid)
    # Final flush, then a seeded sample checked against the model graph.
    flushed = await send(Op("update", None, UpdateRequest("flush")))
    if flushed.failed:
        raise RuntimeError(f"final flush failed: {flushed.reply}")
    model = Oracle(apply_updates(graph, sent))
    # The last cycle's reads saw the final graph already.
    for op in last["reads"]:
        tally.wrong += not op.failed and not model.matches(*op.payload, op.reply.pairs)
    checks = MixSampler(workload, vertices, seed, stream="final-check")
    for _ in range(FINAL_CHECKS):
        _, (sources, targets) = checks.next()
        op = await generator.request(Op("query", None, QueryRequest(sources, targets)))
        if op.failed:
            raise RuntimeError(f"final check query failed: {op.reply}")
        tally.count(False, not model.matches(sources, targets, op.reply.pairs))
    report = server.command("report " + str(OUT / f"spans-ingest-rw-{seed}-final.jsonl"))
    await generator.close()
    return passes, report, rss


def run_ingest(workload, seed: int, seconds: float, trace: bool, tally: Tally):
    graph = build_graph(workload)
    server = ServerProcess(workload.name, seed)
    try:
        passes, report, rss = asyncio.run(
            _drive_ingest(server, workload, seed, seconds, trace, tally, graph)
        )
    finally:
        server.stop()
    for record in passes:
        started, ended = record.pop("started"), record.pop("ended")
        structural = record.pop("structural")
        if record["traced"]:
            record["layers"].update(layers.write_metrics(
                [row for row in report["flushes"] if started <= row[0] <= ended],
                [row for row in report["applies"] if started <= row[3] <= ended],
                structural,
            ))
    return passes, rss, server.ready


# ---------------------------------------------------------------------- #
# batch-ladder (library use, in process)
# ---------------------------------------------------------------------- #
def run_batch_ladder(workload, seed: int, seconds: float, trace: bool, tally: Tally):
    setups, engine, graph = [], None, None
    try:
        for _ in range(SETUPS):
            if engine is not None:
                engine.close()
                engine = graph = None
                gc.collect()
            started = time.perf_counter()
            graph = build_graph(workload)
            loaded = time.perf_counter()
            engine = open_engine(graph, engine_config(workload))
            opened = time.perf_counter()
            vertices = sorted(graph.vertices())
            for query_class in workload.classes:
                engine.run(ReachQuery(
                    tuple(vertices[: query_class.sources]),
                    tuple(vertices[-query_class.targets:]),
                ))
            warmed = time.perf_counter()
            setups.append({
                "setup_s": warmed - started, "load_s": loaded - started,
                "engine_s": opened - loaded, "workers_s": warmed - opened, "listen_s": 0.0,
            })
        oracle = Oracle(graph)
        oracle.prepare(vertices)
        sampler = MixSampler(workload, vertices, seed)

        def ladder(duration: float) -> Dict[str, Any]:
            latencies, pairs = [], []
            deadline = time.monotonic() + duration
            while time.monotonic() < deadline:
                _, (sources, targets) = sampler.next()
                query = ReachQuery(sources, targets)
                started = time.perf_counter()
                try:
                    result = engine.run(query)
                except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
                    tally.count(failed=True)
                    continue
                elapsed = time.perf_counter() - started
                tally.count(False, not oracle.matches(sources, targets, result.pairs))
                latencies.append(elapsed)
                pairs.append(len(result.pairs))
            return {"latencies": latencies, "pairs": pairs}

        ladder(WARMUP_S)
        passes = []
        for traced, duration in _passes(seconds, trace):
            record = {"traced": traced}
            if traced:
                recorder = SpanRecorder()
                undo = install_engine_spans(recorder, engine)
                prom_before = parse_prometheus(global_registry().to_prometheus())
                try:
                    outcome = ladder(duration)
                finally:
                    for restore in reversed(undo):
                        restore()
                prom_after = parse_prometheus(global_registry().to_prometheus())
                per_layer = layers.engine_metrics(recorder.spans)
                per_layer.update(layers.counter_metrics(prom_before, prom_after))
                per_layer.update(layers.self_time_metrics(recorder.spans, []))
                record["layers"] = per_layer
                recorder.dump(str(OUT / f"spans-batch-ladder-{seed}.jsonl"))
            else:
                outcome = ladder(duration)
            record.update(_latency_summary(_ms(outcome["latencies"])))
            record.update(_throughput(list(zip(outcome["latencies"], outcome["pairs"]))))
            passes.append(record)
        rss = peak_rss_mb(os.getpid())
        ready = {
            "setups": setups,
            "index": engine.index_sizes(),
            "kernels": engine.kernels,
            "shm": shm_available(),
            "executor": engine.cluster.executor.name,
        }
    finally:
        if engine is not None:
            engine.close()
    return passes, rss, ready


RUNNERS = {
    "serve-mixed": run_serve_mixed,
    "batch-ladder": run_batch_ladder,
    "ingest-rw": run_ingest,
}


# ---------------------------------------------------------------------- #
# reporting
# ---------------------------------------------------------------------- #
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload; returns the result record (metrics with units)."""
    workload = WORKLOADS[name]
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    passes, rss, ready = RUNNERS[name](workload, seed, seconds, trace, tally)
    measured = passes[0]
    setup = _setup_metrics(ready["setups"])
    end_to_end = {
        "setup_s": setup["setup_s"],
        "query_p50_ms": measured["query_p50_ms"],
        "qps": measured["qps"],
        "peak_rss_mb": rss,
    }
    failed = tally.failed + tally.wrong
    error_share = failed / tally.attempted if tally.attempted else 0.0
    extra = {
        "error_share": error_share,
        "pairs_per_s": measured["pairs_per_s"],
        "query_p99_ms": measured["query_p99_ms"],
        "update.ack_p99_ms": measured.get("update_ack_p99_ms", 0.0),
        "update.visible_p50_ms": measured.get("update_visible_p50_ms", 0.0),
        "update.visible_p99_ms": measured.get("update_visible_p99_ms", 0.0),
    }
    if trace:
        traced = passes[-1]
        per_layer = dict(traced.get("layers", {}))
        per_layer.update(extra)
        per_layer.update({k: v for k, v in setup.items() if k != "setup_s"})
        per_layer["index.compound_edges"] = ready["index"]["max_original_edges"]
        per_layer["loadgen.late_p99_ms"] = traced.get("late_p99_ms", 0.0)
        per_layer["loadgen.backlog_max"] = traced.get("backlog_max", 0)
        per_layer["trace.overhead_share"] = _overhead(passes)
        metrics = layers.complete(per_layer)
    else:
        metrics = end_to_end
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "wrong": tally.wrong,
        "metrics": {k: {"value": v, "unit": layers.UNITS[k]} for k, v in metrics.items()},
        "also": {**end_to_end, **extra},
        "samples": {
            key: value
            for key, value in measured.items()
            if key.endswith(("_samples", "_percentile", "_rounds"))
        },
        "setups": ready["setups"],
        "latencies_ms": measured["latencies_ms"],
        "fingerprint": fingerprint(seed, ready["kernels"], ready["shm"]),
    }


def print_result(result: Dict[str, Any]) -> None:
    name = result["workload"]
    print(f"# {name} seed={result['seed']} seconds={result['seconds']} trace={int(result['trace'])}")
    print(f"# fingerprint {json.dumps(result['fingerprint'], sort_keys=True)}")
    print(f"# samples {json.dumps(result['samples'], sort_keys=True)}")
    print(
        f"# operations attempted={result['attempted']} failed={result['failed']} "
        f"wrong={result['wrong']}"
    )
    shown = dict(result["also"])
    shown.update({k: v["value"] for k, v in result["metrics"].items()})
    for metric, value in shown.items():
        print(f"{name:13s} {metric:34s} {value:14.6g} {layers.UNITS[metric]}")
