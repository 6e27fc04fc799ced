"""Worker hosts over sockets: ``executor="processes"`` and ``executor="tcp"``.

The paper's DSR system is a master/slave deployment where each slave holds
one graph partition and answers local/remote steps over the network.  This
module is the one runtime for such slaves:

:class:`WorkerHost`
    A standalone server holding hydrated shards (in a
    :class:`~repro.cluster.executors.ShardStore` keyed ``(rank, epoch)``; one
    host may serve several ranks) and running registered shard tasks.  Start
    one per slave (``repro-dsr worker-host``) and point an engine at it.
    Replies are ``("ok", result, seconds, delta)`` / ``("stale", ...)`` /
    ``("error", ...)``, so the StaleEpochError/retry and metrics ``absorb()``
    contracts hold.

:class:`TcpExecutor`
    The :class:`~repro.cluster.executors.ExecutorBackend` connecting one
    socket per rank.  With no ``worker_hosts`` it **manages** its own fleet:
    one local :class:`WorkerHost` subprocess per rank, forked so they
    inherit the parent's shard-task registry.  With
    ``worker_hosts=["host:port", ...]`` it connects to **external** hosts,
    rank ``r`` mapping to ``hosts[r % len(hosts)]``.

:class:`ProcessExecutor`
    ``executor="processes"``: a managed :class:`TcpExecutor` whose hosts
    share this machine's memory, so hydration blobs carry shared-memory
    segment names instead of CSR payloads.

Hydration
---------
``tcp`` cannot assume shared memory, so ``supports_shm_hydration = False``
makes the index build *self-contained* shard blobs
(:func:`repro.core.shard_exec.build_shard_blob` with ``ledger=None``): the
CSR arrays travel inside the pickled blob (`CSRGraph.to_bytes` form), one
transfer per rank per epoch.  ``processes`` hydrates by segment name (see
:mod:`repro.cluster.shm`) unless ``REPRO_SHM=0``.  Either way the host keeps
the hydrated shard across any number of queries.

Failure handling
----------------
Every hydrate message is cached per rank.  When a send or receive fails, the
executor reconnects — respawning the subprocess first in managed mode —
**replays the cached hydrations** so the substitute holds every retained
epoch, then retries the in-flight message once per attempt.  A worker host
killed and restarted mid-epoch, even again during the replay, is therefore
invisible above the executor.  An active query deadline bounds every RPC
(the remaining budget is the socket timeout) and the reconnect loop.

Wire format: ``[u64 length][pickle]`` per message, both directions, at
most :data:`MAX_RPC_BYTES` each; a larger message raises
:class:`RpcMessageTooLargeError` (never retried).  A managed fleet's hosts
accept only their executor: the executor draws a random key, the forked
host inherits it, and every connection must answer a keyed-BLAKE2b
challenge before the host unpickles a byte.  External hosts take no key — theirs is a
trusted-cluster transport (pickle!), matching the paper's deployment model;
do not expose them to untrusted networks.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pickle
import socket
import struct
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.executors import (
    DEFAULT_TASK_MODULES,
    ExecutorBackend,
    ShardStore,
    ShardTaskError,
    StaleEpochError,
    _import_task_modules,
    _timed_call,
)
from repro.obs import runtime as obs_runtime
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.deadline import current_deadline, deadline_scope
from repro.resilience.failpoints import failpoint

_LENGTH = struct.Struct(">Q")

#: Cap on one RPC message (128 MiB) — a corrupted length prefix should fail
#: fast, not allocate the universe.
MAX_RPC_BYTES = 128 * 1024 * 1024

#: Size of a managed host's challenge nonce and of the MAC answering it.
_CHALLENGE_BYTES = 32
#: How long a connecting client may take to answer the challenge.
_HANDSHAKE_TIMEOUT_SECONDS = 5.0


class WorkerTransportError(ConnectionError):
    """A worker-host RPC failed after reconnect attempts were exhausted."""


class RpcMessageTooLargeError(ValueError):
    """A message exceeds :data:`MAX_RPC_BYTES`.

    Deliberately not a :class:`ConnectionError`: resending the same message
    to a fresh connection cannot succeed, so it is never reconnected or
    retried.
    """


# ---------------------------------------------------------------------- #
# framing helpers
# ---------------------------------------------------------------------- #
def _frame(obj: Any) -> bytes:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > MAX_RPC_BYTES:
        raise RpcMessageTooLargeError(
            f"rpc message of {len(data)} bytes exceeds the {MAX_RPC_BYTES}-byte cap"
        )
    return _LENGTH.pack(len(data)) + data


def _send_obj(sock: socket.socket, obj: Any) -> None:
    sock.sendall(_frame(obj))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            raise EOFError("worker connection closed")
        chunks.extend(chunk)
    return bytes(chunks)


def _recv_obj(sock: socket.socket) -> Any:
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_RPC_BYTES:
        raise ConnectionError(f"rpc message of {length} bytes exceeds the cap")
    return pickle.loads(_recv_exact(sock, length))


def _challenge_digest(authkey: bytes, nonce: bytes) -> bytes:
    # Keyed BLAKE2b is a MAC in its own right, and unlike HMAC-SHA256 it
    # does not initialise OpenSSL's digest machinery in every worker host
    # (about 1 MiB of resident memory per process).
    return hashlib.blake2b(nonce, key=authkey, digest_size=_CHALLENGE_BYTES).digest()


def _deliver_challenge(sock: socket.socket, authkey: bytes) -> None:
    """Host side: raise unless the peer proves it holds ``authkey``."""
    nonce = os.urandom(_CHALLENGE_BYTES)
    sock.sendall(nonce)
    answer = _recv_exact(sock, _CHALLENGE_BYTES)
    if not hmac.compare_digest(answer, _challenge_digest(authkey, nonce)):
        raise ConnectionError("worker host authentication failed")


def _answer_challenge(sock: socket.socket, authkey: bytes) -> None:
    """Client side of :func:`_deliver_challenge`."""
    sock.sendall(_challenge_digest(authkey, _recv_exact(sock, _CHALLENGE_BYTES)))


def parse_host_port(spec: str) -> Tuple[str, int]:
    """Parse ``"host:port"`` (the ``worker_hosts`` entry format)."""
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"worker host spec {spec!r} is not of the form 'host:port'"
        )
    return host, int(port)


def _count(metric: str) -> None:
    registry = obs_runtime.global_registry()
    if registry.enabled:
        registry.inc(metric)


# ---------------------------------------------------------------------- #
# the worker host
# ---------------------------------------------------------------------- #
class WorkerHost:
    """A standalone shard-task server: hydrate over TCP, query forever.

    ``allow_shutdown`` lets a ``("shutdown",)`` message stop the whole host
    (managed subprocess fleets use it); external hosts default to ignoring
    it so one departing client cannot kill a shared slave.  With an
    ``authkey`` a connection is served only after it answers a MAC
    challenge for that key; any other peer is dropped unread.
    ``collect_deltas=False`` turns off metrics-delta shipping for hosts
    embedded in the engine's own process (tests), where recordings already
    land in the master registry and shipping them would double-count.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        task_modules: Sequence[str] = DEFAULT_TASK_MODULES,
        allow_shutdown: bool = False,
        collect_deltas: bool = True,
        authkey: Optional[bytes] = None,
    ) -> None:
        self._task_modules = tuple(task_modules)
        self._allow_shutdown = allow_shutdown
        self._authkey = authkey
        self._collect_deltas = collect_deltas
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._socket.bind((host, port))
        self._socket.listen(64)
        self.address: Tuple[str, int] = self._socket.getsockname()[:2]
        self._store = ShardStore()
        self._stopped = threading.Event()
        self._acceptor: Optional[threading.Thread] = None
        self._connections: set = set()
        self._connections_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------- #
    def start(self) -> "WorkerHost":
        """Accept connections on a background thread."""
        _import_task_modules(self._task_modules)
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="worker-host-acceptor", daemon=True
        )
        self._acceptor.start()
        return self

    def serve_forever(self) -> None:
        """Foreground entry point (the CLI's ``worker-host`` command)."""
        self.start()
        self._stopped.wait()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._stopped.wait(timeout)

    def stop(self) -> None:
        """Stop accepting and release every hydrated shard."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        try:
            # Wake a blocked accept() so the kernel socket actually leaves
            # LISTEN; close() alone would leave the port bound.
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._socket.close()
        except OSError:
            pass
        # Close live connections too: a stopped host must vanish from its
        # clients' point of view (EOF ⇒ they reconnect elsewhere), never
        # answer "stale" out of a cleared shard map.
        with self._connections_lock:
            connections, self._connections = set(self._connections), set()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        self._store.close()

    def __enter__(self) -> "WorkerHost":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving --------------------------------------------------------- #
    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                connection, _ = self._socket.accept()
            except OSError:
                break
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._connections_lock:
                self._connections.add(connection)
            threading.Thread(
                target=self._serve_connection, args=(connection,), daemon=True
            ).start()

    def _delta(self):
        return obs_runtime.collect_worker_delta() if self._collect_deltas else None

    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            self._serve_connection_inner(connection)
        finally:
            with self._connections_lock:
                self._connections.discard(connection)

    def _serve_connection_inner(self, connection: socket.socket) -> None:
        with connection:
            if self._authkey is not None:
                connection.settimeout(_HANDSHAKE_TIMEOUT_SECONDS)
                try:
                    _deliver_challenge(connection, self._authkey)
                except (EOFError, OSError, ConnectionError):
                    return
                connection.settimeout(None)
            while not self._stopped.is_set():
                try:
                    message = _recv_obj(connection)
                except (EOFError, OSError, ConnectionError, pickle.PickleError):
                    break
                if self._stopped.is_set():
                    break  # stopping: EOF, never a reply from cleared shards
                kind = message[0]
                if kind == "stop":
                    break  # close this connection only
                if kind == "shutdown":
                    if self._allow_shutdown:
                        try:
                            _send_obj(connection, ("ok", None, 0.0, None))
                        except OSError:
                            pass
                        self.stop()
                    break
                try:
                    reply = self._handle(message)
                except StaleEpochError as exc:
                    reply = ("stale", exc.epoch, list(exc.available), self._delta())
                except Exception:
                    reply = ("error", "TaskError", traceback.format_exc())
                try:
                    _send_obj(connection, reply)
                except RpcMessageTooLargeError as exc:
                    reply = ("error", "RpcMessageTooLargeError", str(exc))
                    try:
                        _send_obj(connection, reply)
                    except OSError:
                        break
                except OSError:
                    break

    def _handle(self, message: Tuple) -> Tuple:
        kind = message[0]
        if kind == "ping":
            return ("ok", "pong", 0.0, None)
        if kind == "hydrate":
            _, rank, epoch, loader_name, blob, retire_below = message
            self._store.hydrate(rank, epoch, blob, loader_name, retire_below)
            return ("ok", None, 0.0, self._delta())
        if kind == "task":
            _, rank, task_name, epoch, payload = message
            result, seconds = self._store.run(rank, task_name, epoch, payload)
            return ("ok", result, seconds, self._delta())
        return ("error", "ProtocolError", f"unknown command {kind!r}")

    @property
    def epochs_held(self) -> Dict[int, Tuple[int, ...]]:
        """``{rank: epochs}`` currently hydrated (introspection for tests)."""
        return self._store.epochs_held()


def _worker_host_process_main(
    pipe, task_modules: Sequence[str], authkey: bytes
) -> None:
    """Managed-fleet subprocess body: serve one host, report its port."""
    obs_runtime.reset_for_worker()
    host = WorkerHost(
        task_modules=task_modules,
        allow_shutdown=True,
        collect_deltas=True,
        authkey=authkey,
    )
    host.start()
    pipe.send(host.address)
    pipe.close()
    host.wait()


# ---------------------------------------------------------------------- #
# the executor
# ---------------------------------------------------------------------- #
class TcpExecutor(ExecutorBackend):
    """Shard phases over sockets to worker hosts (see module docstring)."""

    name = "tcp"
    supports_closures = False
    wants_sharded_queries = True
    supports_shm_hydration = False

    def __init__(
        self,
        worker_hosts: Optional[Sequence[Any]] = None,
        task_modules: Sequence[str] = DEFAULT_TASK_MODULES,
        connect_timeout: float = 5.0,
        reconnect_attempts: int = 20,
        reconnect_backoff_seconds: float = 0.05,
        reconnect_backoff_cap_seconds: float = 1.0,
    ) -> None:
        self._task_modules = tuple(task_modules)
        self._connect_timeout = connect_timeout
        self._reconnect_attempts = reconnect_attempts
        self._reconnect_backoff_seconds = reconnect_backoff_seconds
        #: Reconnect sleeps come from the shared capped-exponential policy —
        #: the old ``backoff * attempt`` linear schedule retried a dead peer
        #: with no ceiling and no jitter (synchronised stampedes).
        self._backoff = BackoffPolicy(
            base_seconds=reconnect_backoff_seconds,
            cap_seconds=max(reconnect_backoff_cap_seconds, reconnect_backoff_seconds),
        )
        #: Parsed external host list, or None for a managed local fleet.
        self._external: Optional[List[Tuple[str, int]]] = None
        if worker_hosts is not None:
            specs = list(worker_hosts)
            if not specs:
                raise ValueError("worker_hosts must not be empty when given")
            self._external = [
                spec if isinstance(spec, tuple) else parse_host_port(spec)
                for spec in specs
            ]
        self._addresses: Dict[int, Tuple[str, int]] = {}
        self._sockets: Dict[int, socket.socket] = {}
        self._locks: Dict[int, threading.Lock] = {}
        #: Managed mode: rank -> subprocess serving that rank's host.
        self._managed: Dict[int, Any] = {}
        #: Managed mode: the key only this executor's connections answer.
        self._authkey: Optional[bytes] = (
            os.urandom(32) if self._external is None else None
        )
        self._dispatch: Optional[ThreadPoolExecutor] = None
        self._lifecycle = threading.Lock()
        self._closed = False
        self._started = False
        self._hydration_cache: Dict[int, Dict[int, Tuple]] = {}
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------- #
    def _fork_context(self):
        import multiprocessing

        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            return multiprocessing.get_context()

    def _spawn_hosts(self, ranks: Sequence[int]) -> None:
        """Managed mode: start a local WorkerHost subprocess per rank.

        Every host is forked before any port is awaited, so the hosts'
        start-up overlaps instead of adding up.
        """
        context = self._fork_context()
        pipes = {}
        for rank in ranks:
            parent_pipe, child_pipe = context.Pipe()
            process = context.Process(
                target=_worker_host_process_main,
                args=(child_pipe, self._task_modules, self._authkey),
                name=f"worker-host-{rank}",
                daemon=True,
            )
            process.start()
            child_pipe.close()
            self._managed[rank] = process
            pipes[rank] = parent_pipe
        for rank, parent_pipe in pipes.items():
            with parent_pipe:
                if not parent_pipe.poll(10.0):  # pragma: no cover - startup hang
                    self._managed[rank].terminate()
                    raise WorkerTransportError(f"worker host {rank} failed to start")
                self._addresses[rank] = tuple(parent_pipe.recv())

    def _connect(self, rank: int) -> socket.socket:
        sock = socket.create_connection(
            self._addresses[rank], timeout=self._connect_timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._authkey is not None:
            try:
                _answer_challenge(sock, self._authkey)
            except BaseException:
                sock.close()
                raise
        sock.settimeout(None)
        self._sockets[rank] = sock
        return sock

    def _ensure_started(self) -> None:
        with self._lifecycle:
            if self._closed:
                raise RuntimeError("executor is closed")
            if self._started:
                return
            # Import the task modules in the PARENT before forking: managed
            # hosts then resolve them straight from the inherited
            # sys.modules instead of running a real import — which could
            # deadlock on an import lock some other parent thread held at
            # fork time (e.g. another engine's maintenance thread).
            _import_task_modules(self._task_modules)
            ranks = range(self.num_workers)
            if self._external is None:
                self._spawn_hosts(ranks)
            for rank in ranks:
                if self._external is not None:
                    self._addresses[rank] = self._external[
                        rank % len(self._external)
                    ]
                self._connect(rank)
                self._locks[rank] = threading.Lock()
            self._dispatch = ThreadPoolExecutor(
                max_workers=max(2, 2 * self.num_workers),
                thread_name_prefix="tcp-dispatch",
            )
            self._started = True

    def close(self) -> None:
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            sockets, self._sockets = self._sockets, {}
            managed, self._managed = self._managed, {}
            dispatch, self._dispatch = self._dispatch, None
            self._hydration_cache.clear()
        for rank, sock in sockets.items():
            # Serialise with any in-flight _call_worker on this rank: an
            # unlocked write could interleave with a request mid-stream and
            # corrupt the length-prefixed pickle framing the host reads.  If
            # a call holds the lock past the timeout, skip the polite
            # goodbye and just close the socket.
            lock = self._locks.get(rank)
            if lock is None or lock.acquire(timeout=2.0):
                try:
                    # Managed hosts are ours to stop; external hosts just
                    # see this client depart.
                    _send_obj(
                        sock, ("shutdown",) if rank in managed else ("stop",)
                    )
                except OSError:
                    pass
                finally:
                    if lock is not None:
                        lock.release()
            try:
                sock.close()
            except OSError:
                pass
        for process in managed.values():
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck host
                process.terminate()
        if dispatch is not None:
            dispatch.shutdown(wait=False)

    def __del__(self) -> None:  # pragma: no cover - GC-time cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- transport ------------------------------------------------------- #
    def _reconnect_locked(self, rank: int, message: Tuple) -> Any:
        """Reconnect ``rank`` (respawning a managed host whenever its
        process is dead), replay its cached hydrations, retry ``message``
        once per attempt.

        The dead-process check runs *inside* the attempt loop: a managed
        host killed again mid-replay (the crash-during-hydration chaos
        case) gets a fresh substitute on the next attempt instead of the
        loop reconnecting forever to a corpse's address.  Sleeps come from
        the capped-exponential-jitter policy, and an active query deadline
        bounds both the sleeps and the replayed RPCs.
        """
        with self._lifecycle:
            if self._closed:
                raise WorkerTransportError(f"worker {rank} died") from None
            old = self._sockets.pop(rank, None)
            if old is not None:
                try:
                    old.close()
                except OSError:
                    pass
        deadline = current_deadline()
        last_error: Optional[BaseException] = None
        for attempt in range(self._reconnect_attempts):
            if attempt:
                if deadline is not None and deadline.expired:
                    raise deadline.exceeded("reconnect") from last_error
                time.sleep(self._backoff.delay(attempt))
            with self._lifecycle:
                if self._closed:
                    raise WorkerTransportError(f"worker {rank} died") from None
                try:
                    process = self._managed.get(rank)
                    if process is not None and not process.is_alive():
                        process.join(timeout=0.5)
                        self._spawn_hosts([rank])
                        _count("dsr_worker_respawns_total")
                except (EOFError, OSError, ConnectionError, WorkerTransportError) as exc:
                    last_error = exc
                    continue
                # Snapshot per attempt: a substitute host needs every epoch
                # hydrated so far, including one cached mid-crash.
                replay = sorted(self._hydration_cache.get(rank, {}).items())
            try:
                sock = self._connect(rank)
                if deadline is not None:
                    sock.settimeout(max(deadline.remaining_seconds(), 0.001))
                for _, hydrate_message in replay:
                    failpoint("tcp.hydrate.replay", rank=rank)
                    _send_obj(sock, hydrate_message)
                    _recv_obj(sock)
                _send_obj(sock, message)
                reply = _recv_obj(sock)
                if deadline is not None:
                    sock.settimeout(None)
            except socket.timeout as exc:
                self._drop_socket(rank)
                if deadline is not None:
                    raise deadline.exceeded("reconnect") from exc
                last_error = exc
                continue
            except (EOFError, OSError, ConnectionError) as exc:
                last_error = exc
                self._drop_socket(rank)
                continue
            _count("dsr_worker_reconnects_total")
            return reply
        raise WorkerTransportError(
            f"worker {rank} at {self._addresses.get(rank)} unreachable after "
            f"{self._reconnect_attempts} attempts: {last_error}"
        ) from last_error

    def _drop_socket(self, rank: int) -> None:
        """Forget and close ``rank``'s socket (its stream position is
        unknowable after a mid-frame failure)."""
        with self._lifecycle:
            stale = self._sockets.pop(rank, None)
        if stale is not None:
            try:
                stale.close()
            except OSError:
                pass

    def _set_inflight(self, delta: int) -> None:
        registry = obs_runtime.global_registry()
        with self._inflight_lock:
            self._inflight += delta
            value = self._inflight
        if registry.enabled:
            registry.set_gauge("dsr_rpc_inflight", float(value))

    def _call_worker(self, rank: int, message: Tuple) -> Tuple[Any, float]:
        self._set_inflight(1)
        deadline = current_deadline()
        try:
            with self._locks[rank]:
                sock = self._sockets.get(rank)
                try:
                    if sock is None:
                        raise ConnectionError("not connected")
                    # Framed before the socket is touched: an oversized
                    # message raises with the connection still in sync.
                    frame = _frame(message)
                    failpoint("tcp.call", rank=rank, kind=message[0])
                    if deadline is not None:
                        remaining = deadline.remaining_seconds()
                        if remaining <= 0:
                            raise deadline.exceeded("rpc")
                        # The remaining budget becomes this call's socket
                        # timeout: a wedged host yields a typed deadline
                        # error, not an indefinite recv.
                        sock.settimeout(remaining)
                    sock.sendall(frame)
                    failpoint("tcp.recv", rank=rank, kind=message[0])
                    reply = _recv_obj(sock)
                    if deadline is not None:
                        sock.settimeout(None)
                # socket.timeout subclasses OSError: match it before the
                # reconnect clause, and drop the socket — after a mid-frame
                # timeout its stream position is unknowable.
                except socket.timeout as exc:
                    self._drop_socket(rank)
                    if deadline is None:  # pragma: no cover - no timeout armed
                        raise
                    raise deadline.exceeded("rpc") from exc
                except (EOFError, OSError, ConnectionError):
                    reply = self._reconnect_locked(rank, message)
        finally:
            self._set_inflight(-1)
        kind = reply[0]
        if len(reply) > 3 and reply[3] is not None:
            obs_runtime.absorb_delta(reply[3])
        if kind == "ok":
            return reply[1], reply[2]
        if kind == "stale":
            raise StaleEpochError(rank, reply[1], reply[2])
        task = str(message[2]) if len(message) > 2 else "?"
        raise ShardTaskError(rank, task, reply[2])

    def _scoped_call(self, deadline, rank: int, message: Tuple) -> Tuple[Any, float]:
        # Dispatch-pool threads do not inherit the submitting thread's
        # deadline scope (it is a threading.local); re-enter it explicitly.
        with deadline_scope(deadline):
            return self._call_worker(rank, message)

    def _fan_out(self, messages: Mapping[int, Tuple]) -> Dict[int, Tuple[Any, float]]:
        self._ensure_started()
        if len(messages) == 1:
            ((rank, message),) = messages.items()
            return {rank: self._call_worker(rank, message)}
        assert self._dispatch is not None
        deadline = current_deadline()
        futures = {
            rank: self._dispatch.submit(self._scoped_call, deadline, rank, message)
            for rank, message in messages.items()
        }
        results: Dict[int, Tuple[Any, float]] = {}
        first_error: Optional[BaseException] = None
        for rank, future in futures.items():
            try:
                results[rank] = future.result()
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    # -- backend API ----------------------------------------------------- #
    def run_phase(self, fns):
        # Closures cannot cross the socket; closure phases (index build,
        # maintenance assembly) run at the master.
        return {rank: _timed_call(fn) for rank, fn in fns.items()}

    def run_shard_phase(
        self, task: str, epoch: Optional[int], payloads: Mapping[int, Any]
    ) -> Dict[int, Tuple[Any, float]]:
        return self._fan_out(
            {
                rank: ("task", rank, task, epoch, payload)
                for rank, payload in payloads.items()
            }
        )

    def _remember_hydration(
        self, rank: int, epoch: int, message: Tuple, retire_below: Optional[int]
    ) -> None:
        per_rank = self._hydration_cache.setdefault(rank, {})
        per_rank[epoch] = message
        if retire_below is not None:
            for old in [e for e in per_rank if e < retire_below]:
                del per_rank[old]

    def hydrate(
        self,
        rank: int,
        epoch: int,
        blob: Any,
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        self.hydrate_all(epoch, {rank: blob}, loader, retire_below=retire_below)

    def hydrate_all(
        self,
        epoch: int,
        blobs: Mapping[int, Any],
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        for rank in blobs:
            failpoint("tcp.hydrate", rank=rank, epoch=epoch)
        messages = {
            rank: ("hydrate", rank, epoch, loader, blob, retire_below)
            for rank, blob in blobs.items()
        }
        for rank, message in messages.items():
            self._remember_hydration(rank, epoch, message, retire_below)
        self._fan_out(messages)

    # -- introspection ---------------------------------------------------- #
    def ping(self, rank: int) -> bool:
        """Round-trip a no-op to one worker (health check)."""
        self._ensure_started()
        result, _ = self._call_worker(rank, ("ping",))
        return result == "pong"

    @property
    def worker_addresses(self) -> Dict[int, Tuple[str, int]]:
        return dict(self._addresses)


class ProcessExecutor(TcpExecutor):
    """``executor="processes"``: a managed local fleet hydrated by shm name."""

    name = "processes"
    supports_shm_hydration = True


__all__ = [
    "MAX_RPC_BYTES",
    "ProcessExecutor",
    "RpcMessageTooLargeError",
    "TcpExecutor",
    "WorkerHost",
    "WorkerTransportError",
    "parse_host_port",
]
