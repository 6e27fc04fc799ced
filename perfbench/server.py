"""Benchmark server: one workload's DSR service behind the async front door.

Built only through public constructors — ``open_engine``, ``DSRService``,
``DSRAsyncServer`` — from the workload's seeded inputs.  It runs in its own
process so the load generator never shares an interpreter with it.

Usage::

    python3 perfbench/server.py --workload serve-mixed --seed 1

Set-up runs ``SETUPS`` times; every build but the last is torn down again,
and the ready line reports each build's phase times.  The process then
serves on an ephemeral loopback port and takes one command per line on
stdin, answering each with one JSON line on stdout:

``trace on`` / ``trace off``
    Install / remove span wrappers around the layers' public entry points.
``report <path>``
    Write the recorded spans to ``path``; reply with the flush and update
    logs (see below) and the span count.
``stop`` (or end of input)
    Stop the front door, close the service and the engine, exit.

For write workloads the server always logs each update's apply time (entry
into ``engine.insert_edge``/``delete_edge``) and each published epoch (a
``add_flush_listener`` callback), on the host-wide monotonic clock, so the
client can window them by pass for the write-path metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from perfbench.probes import WriteLog, install_layer_spans  # noqa: E402
from perfbench.tracing import SpanRecorder  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SETUPS,
    WORKLOADS,
    Workload,
    build_graph,
    engine_config,
)


def _emit(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()


class BenchServer:
    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.engine = None
        self.service = None
        self.front_door = None
        self.write_log: Optional[WriteLog] = None
        self.recorder = SpanRecorder()
        self._undo: List[Callable[[], None]] = []

    def build(self) -> Dict[str, float]:
        """One full set-up; returns its phase times in seconds."""
        from repro.api import ReachQuery, open_engine
        from repro.service import DSRAsyncServer, DSRService

        workload = self.workload
        started = time.perf_counter()
        graph = build_graph(workload)
        loaded = time.perf_counter()
        self.engine = open_engine(graph, engine_config(workload))
        opened = time.perf_counter()
        # First query of each shape: any lazy worker connection, shard
        # hydration or kernel warm-up happens here, before serving.
        vertices = sorted(graph.vertices())
        for query_class in workload.classes:
            self.engine.run(ReachQuery(
                tuple(vertices[: query_class.sources]),
                tuple(vertices[-query_class.targets:]),
            ))
        warmed = time.perf_counter()
        kwargs = {}
        if workload.cache_capacity is not None:
            kwargs["cache_capacity"] = workload.cache_capacity
        self.service = DSRService(self.engine, **kwargs)
        self.front_door = DSRAsyncServer(self.service, host="127.0.0.1", port=0)
        self.front_door.start_in_thread()
        listening = time.perf_counter()
        return {
            "setup_s": listening - started,
            "load_s": loaded - started,
            "engine_s": opened - loaded,
            "workers_s": warmed - opened,
            "listen_s": listening - warmed,
        }

    def teardown(self) -> None:
        self.trace(False)
        if self.front_door is not None:
            self.front_door.stop_from_thread()
        if self.service is not None:
            self.service.close()
        if self.engine is not None:
            self.engine.close()
        self.engine = self.service = self.front_door = None

    def trace(self, enabled: bool) -> None:
        while self._undo:
            self._undo.pop()()
        if enabled:
            self.recorder.clear()
            self._undo = install_layer_spans(self.recorder, self.service, self.engine)

    def ready_payload(self, setups: List[Dict[str, float]]) -> Dict[str, Any]:
        from repro.cluster.shm import shm_available

        return {
            "ready": True,
            "pid": os.getpid(),
            "port": self.front_door.address[1],
            "setups": setups,
            "index": self.engine.index_sizes(),
            "kernels": self.engine.kernels,
            "shm": shm_available(),
            "executor": self.engine.cluster.executor.name,
        }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    server = BenchServer(WORKLOADS[args.workload], args.seed)
    setups = []
    for attempt in range(SETUPS):
        setups.append(server.build())
        if attempt < SETUPS - 1:
            server.teardown()
            # Free the torn-down build now, so its garbage does not raise
            # the next build's peak memory by however much is left.
            gc.collect()
    if server.workload.cycle_reads:
        server.write_log = WriteLog(server.engine)
    _emit(server.ready_payload(setups))
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if not command:
                continue
            if command == "stop":
                break
            if command == "trace" and argument in ("on", "off"):
                server.trace(argument == "on")
                _emit({"ok": True})
            elif command == "report" and argument:
                spans = server.recorder.dump(argument)
                log = server.write_log
                _emit({
                    "ok": True,
                    "spans": spans,
                    "applies": log.applies if log else [],
                    "flushes": log.flushes if log else [],
                })
            else:
                _emit({"ok": False, "error": f"unknown command {line.strip()!r}"})
    finally:
        server.teardown()
    _emit({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
