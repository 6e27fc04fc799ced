"""Load generator for the front-door workloads: one process, one event loop.

Requests travel as protocol-v5 binary frames built with the program's own
``pack_frame`` and read with ``unpack_frame``, pipelined on a fixed number
of connections and matched to replies by request id.

Two ways to drive load:

* :meth:`LoadGenerator.open_loop` sends on a fixed schedule whatever the
  server does; each request is timed from when it was *due*, so a stall
  also charges the requests queued behind it.  How late the generator
  itself ran, and the largest number of outstanding requests, are kept to
  show whether the schedule was honoured.
* :meth:`LoadGenerator.closed_loop` keeps ``window`` requests in flight per
  connection, sending the next one as each reply arrives.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional

from repro.service.protocol import ErrorResponse, pack_frame, unpack_frame

from perfbench.tracing import SpanRecorder


class Op:
    """One request and what became of it."""

    __slots__ = ("kind", "payload", "message", "due", "sent", "done", "reply", "waiter")

    def __init__(self, kind: str, payload: Any, message: Any) -> None:
        self.kind = kind
        self.payload = payload
        self.message = message
        self.due = 0.0
        self.sent = 0.0
        self.done = 0.0
        self.reply: Any = None
        #: Resolved when the reply arrives, for callers that await one op.
        self.waiter: Optional[asyncio.Future] = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def failed(self) -> bool:
        return self.reply is None or isinstance(self.reply, ErrorResponse)


class FrameConnection(asyncio.Protocol):
    """A pipelined binary-frame connection; replies resolve by request id."""

    def __init__(self, generator: "LoadGenerator") -> None:
        self.generator = generator
        self.transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        self._pending: Dict[int, Op] = {}
        self._next_id = 0
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        for op in self._pending.values():
            self.generator._finish(op, None)
        self._pending.clear()
        if not self.lost.done():
            self.lost.set_result(exc)

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def send(self, op: Op) -> None:
        request_id = self._next_id
        self._next_id += 1
        generator = self.generator
        started = time.perf_counter()
        frame = pack_frame(op.message, request_id=request_id)
        if generator.recorder is not None:
            generator.recorder.record(
                "client.pack_frame", started, time.perf_counter(), request_id,
                {"bytes": len(frame)},
            )
        self._pending[request_id] = op
        op.sent = time.monotonic()
        self.transport.write(frame)

    def data_received(self, data: bytes) -> None:
        self._buffer.extend(data)
        recorder = self.generator.recorder
        while True:
            started = time.perf_counter()
            framed = unpack_frame(self._buffer)
            if framed is None:
                return
            message, _version, request_id, consumed = framed
            if recorder is not None:
                recorder.record(
                    "client.unpack_frame", started, time.perf_counter(), request_id,
                    {"bytes": consumed},
                )
            del self._buffer[:consumed]
            op = self._pending.pop(request_id, None)
            if op is not None:
                self.generator._finish(op, message)


class LoadGenerator:
    """Open- and closed-loop load over a set of frame connections."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.host = host
        self.port = port
        self.count = connections
        self.connections: List[FrameConnection] = []
        self.recorder: Optional[SpanRecorder] = None
        #: Called with every finished op (on the event loop).
        self.on_done: Optional[Callable[[Op], None]] = None
        self._refill: Optional[Callable[[Op], None]] = None
        self._idle: Optional[asyncio.Event] = None

    async def connect(self) -> None:
        loop = asyncio.get_running_loop()
        for _ in range(self.count):
            _, connection = await loop.create_connection(
                lambda: FrameConnection(self), self.host, self.port
            )
            self.connections.append(connection)

    async def close(self) -> None:
        for connection in self.connections:
            connection.transport.close()
        for connection in self.connections:
            await connection.lost
        self.connections = []

    @property
    def outstanding(self) -> int:
        return sum(connection.outstanding for connection in self.connections)

    def _finish(self, op: Op, reply: Any) -> None:
        op.done = time.monotonic()
        op.reply = reply
        if op.waiter is not None and not op.waiter.done():
            op.waiter.set_result(op)
        if self.on_done is not None:
            self.on_done(op)
        if self._refill is not None:
            self._refill(op)
        if self._idle is not None and self.outstanding == 0:
            self._idle.set()

    async def drain(self, timeout: float) -> bool:
        """Wait until no request is outstanding (False on timeout)."""
        if self.outstanding == 0:
            return True
        self._idle = asyncio.Event()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False
        finally:
            self._idle = None

    async def request(self, op: Op, connection: int = 0, timeout: float = 30.0) -> Op:
        """Send one op and wait for its reply (for admin and check traffic)."""
        op.waiter = asyncio.get_running_loop().create_future()
        op.due = time.monotonic()
        self.connections[connection].send(op)
        return await asyncio.wait_for(op.waiter, timeout)

    async def open_loop(
        self,
        rate: float,
        duration: float,
        make_op: Callable[[], Op],
    ) -> Dict[str, Any]:
        """Send ``make_op()`` every ``1/rate`` s for ``duration`` s.

        Requests go round-robin over the connections.  Returns the ops sent, the generator's lateness
        samples (s) and the largest backlog seen at a send.
        """
        ops: List[Op] = []
        late: List[float] = []
        backlog = 0
        start = time.monotonic()
        index = 0
        while True:
            due = start + index / rate
            if due >= start + duration:
                break
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            op = make_op()
            op.due = due
            self.connections[index % len(self.connections)].send(op)
            late.append(op.sent - due)
            backlog = max(backlog, self.outstanding)
            ops.append(op)
            index += 1
        return {"ops": ops, "late": late, "backlog_max": backlog, "started": start}

    async def closed_loop(
        self, window: int, duration: float, make_op: Callable[[], Op]
    ) -> Dict[str, Any]:
        """Keep ``window`` ops in flight per connection for ``duration`` s.

        Returns the ops that completed inside the window, in completion
        order, and when the window started.
        """
        ops: List[Op] = []
        start = time.monotonic()
        deadline = start + duration
        by_op: Dict[int, FrameConnection] = {}

        def send(connection: FrameConnection) -> None:
            op = make_op()
            op.due = time.monotonic()
            by_op[id(op)] = connection
            connection.send(op)

        def refill(op: Op) -> None:
            connection = by_op.pop(id(op), None)
            if connection is None:
                return
            if op.done <= deadline:
                ops.append(op)
                send(connection)

        self._refill = refill
        try:
            for connection in self.connections:
                for _ in range(window):
                    send(connection)
            await asyncio.sleep(max(0.0, deadline - time.monotonic()))
        finally:
            self._refill = None
        await self.drain(timeout=30.0)
        ops.sort(key=lambda op: op.done)
        return {"ops": ops, "started": start}
