"""Pluggable worker executors: how cluster phases actually run.

The simulated cluster models *what* the paper's master/slave deployment
computes (phases, messages, rounds); an :class:`ExecutorBackend` decides *how*
the per-worker work of a phase is executed on the local machine:

``serial``
    One worker after another on the calling thread.  Zero overhead, fully
    deterministic — the default, and the right choice for index builds and
    micro-benchmarks of the algorithmic costs.

``threads``
    A persistent thread pool with one slot per worker.  Python-level work is
    GIL-bound, so the speed-up is limited, but phases that wait (I/O, lock
    handoffs) overlap, and the thread pool is reused across phases instead of
    being rebuilt per call.

``processes`` / ``tcp``
    Shard tasks on worker hosts over sockets (:mod:`repro.cluster.tcp`).
    Each worker is *hydrated once per epoch* with its partition's immutable
    CSR shard (see :mod:`repro.core.shard_exec`), and phases are named
    **shard tasks** — registered module-level functions
    ``task(shard, payload) -> result`` — so only small payloads and results
    cross the process boundary, never the graph.  ``processes`` is the
    managed local fleet (one forked host per partition) with shared-memory
    hydration; ``tcp`` ships self-contained blobs, optionally to external
    hosts.  This is real parallelism: four workers burn four cores.

Closures vs. shard tasks
------------------------
``run_phase`` executes arbitrary closures and is supported by the in-process
executors (``serial``, ``threads``).  Worker hosts cannot receive closures
over shared state, so the socket executors run closure phases at the master
(serially) and reserve the workers for shard tasks — the query hot path.
``run_shard_phase`` executes a registered task against the hydrated shard of
a given *epoch* on every requested worker; asking for an epoch a worker no
longer holds raises :class:`StaleEpochError`, which callers handle by
re-reading the current epoch and retrying.  Every worker — in-process or
remote — keeps its shards in one :class:`ShardStore`.

Every phase result carries the worker's *self-measured* compute seconds
(excluding dispatch/IPC), which feed the simulated-parallel timing model; the
cluster additionally records the real wall-clock of the whole phase.
"""

from __future__ import annotations

import importlib
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.obs import runtime as obs_runtime

#: Names accepted by :func:`make_executor` (and ``DSRConfig.executor``).
#: ``tcp`` (worker hosts over sockets) lives in :mod:`repro.cluster.tcp`.
EXECUTOR_NAMES = ("serial", "threads", "processes", "tcp")

#: Modules imported inside worker hosts to populate the task registry.
DEFAULT_TASK_MODULES = ("repro.core.shard_exec",)


class StaleEpochError(RuntimeError):
    """A shard task addressed an epoch the worker no longer (or not yet) holds."""

    def __init__(self, rank: int, epoch: int, available: Sequence[int]) -> None:
        super().__init__(
            f"worker {rank} has no shard for epoch {epoch} "
            f"(holds {list(available) or 'none'})"
        )
        self.rank = rank
        self.epoch = epoch
        self.available = tuple(available)


class ShardTaskError(RuntimeError):
    """A shard task raised inside a worker; carries the remote traceback."""

    def __init__(self, rank: int, task: str, remote_traceback: str) -> None:
        super().__init__(f"shard task {task!r} failed on worker {rank}:\n{remote_traceback}")
        self.rank = rank
        self.task = task
        self.remote_traceback = remote_traceback


# ---------------------------------------------------------------------- #
# shard task registry (shared by in-process executors and worker hosts)
# ---------------------------------------------------------------------- #
_SHARD_TASKS: Dict[str, Callable[[Any, Any], Any]] = {}
_SHARD_LOADERS: Dict[str, Callable[[Any], Any]] = {}


def register_shard_task(name: str):
    """Register ``fn(shard, payload) -> result`` under ``name``.

    Tasks must live at module level in an importable module (worker hosts
    re-import the registry), and must only read the shard — shards are
    immutable epoch snapshots shared by every in-flight query of that epoch.
    """

    def decorator(fn: Callable[[Any, Any], Any]):
        _SHARD_TASKS[name] = fn
        return fn

    return decorator


def register_shard_loader(name: str):
    """Register ``fn(blob) -> shard``, the worker-side hydration step."""

    def decorator(fn: Callable[[Any], Any]):
        _SHARD_LOADERS[name] = fn
        return fn

    return decorator


def _resolve_task(name: str) -> Callable[[Any, Any], Any]:
    if name not in _SHARD_TASKS:
        _import_task_modules(DEFAULT_TASK_MODULES)
    try:
        return _SHARD_TASKS[name]
    except KeyError:
        raise KeyError(f"unknown shard task {name!r}; registered: {sorted(_SHARD_TASKS)}")


def _resolve_loader(name: str) -> Callable[[Any], Any]:
    if name not in _SHARD_LOADERS:
        _import_task_modules(DEFAULT_TASK_MODULES)
    try:
        return _SHARD_LOADERS[name]
    except KeyError:
        raise KeyError(f"unknown shard loader {name!r}; registered: {sorted(_SHARD_LOADERS)}")


def _import_task_modules(modules: Sequence[str]) -> None:
    for module in modules:
        importlib.import_module(module)


# ---------------------------------------------------------------------- #
# the backend contract
# ---------------------------------------------------------------------- #
class ExecutorBackend(ABC):
    """How one cluster executes the per-worker work of a phase."""

    name: str = "abstract"
    #: Can this backend run arbitrary closures on the workers?
    supports_closures: bool = True
    #: Should DSR queries run through hydrated shard tasks on this backend?
    wants_sharded_queries: bool = False
    #: Can hydration blobs reference shared-memory segments?  False for
    #: backends whose workers live beyond this machine's address space
    #: (e.g. ``tcp``): the index then builds self-contained pickled blobs.
    supports_shm_hydration: bool = True

    def start(self, num_workers: int) -> None:
        """Bind the backend to a worker count (idempotent)."""
        self.num_workers = num_workers

    @abstractmethod
    def run_phase(
        self, fns: Mapping[int, Callable[[], Any]]
    ) -> Dict[int, Tuple[Any, float]]:
        """Run ``{rank: closure}`` and return ``{rank: (result, seconds)}``."""

    @abstractmethod
    def run_shard_phase(
        self, task: str, epoch: Optional[int], payloads: Mapping[int, Any]
    ) -> Dict[int, Tuple[Any, float]]:
        """Run a registered shard task on every rank in ``payloads``."""

    @abstractmethod
    def hydrate(
        self,
        rank: int,
        epoch: int,
        blob: Any,
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        """Install the shard for ``(rank, epoch)``; drop epochs < ``retire_below``."""

    def hydrate_all(
        self,
        epoch: int,
        blobs: Mapping[int, Any],
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        """Install one epoch's shards on every rank (overlapped where possible)."""
        for rank, blob in blobs.items():
            self.hydrate(rank, epoch, blob, loader, retire_below=retire_below)

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release worker resources (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={getattr(self, 'num_workers', '?')})"


def _timed_call(fn: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _record_shard_task(task: str, seconds: float) -> None:
    """Account one shard-task execution in the current process's registry.

    Called by :meth:`ShardStore.run` wherever the store lives, so
    ``dsr_shard_tasks_total`` is comparable across backends (worker-host
    deltas are shipped back and absorbed at the master).
    """
    registry = obs_runtime.global_registry()
    if registry.enabled:
        registry.inc("dsr_shard_tasks_total", task=task)
        registry.observe("dsr_shard_task_seconds", seconds, task=task)


def _record_hydration(seconds: float) -> None:
    registry = obs_runtime.global_registry()
    if registry.enabled:
        registry.inc("dsr_shard_hydrations_total")
        registry.observe("dsr_shard_hydrate_seconds", seconds)


def _close_shard(shard: Any) -> None:
    """Release a retired shard's resources (e.g. a shared-memory mapping)."""
    close = getattr(shard, "close", None)
    if close is None:
        return
    try:
        close()
    except Exception:  # pragma: no cover - release is best-effort
        pass


class ShardStore:
    """Hydrated shards keyed ``(rank, epoch)``, with one put/retire/close rule.

    The in-process executors and every :class:`~repro.cluster.tcp.WorkerHost`
    (one host may serve several ranks) keep their shards here.  Hydrating
    ``(rank, epoch)`` replaces a same-key predecessor and retires the rank's
    epochs below ``retire_below``; replaced and retired shards are closed
    outside the lock (closing may detach a shared-memory mapping).
    """

    def __init__(self) -> None:
        self._shards: Dict[Tuple[int, int], Any] = {}
        self._lock = threading.Lock()

    def hydrate(
        self,
        rank: int,
        epoch: int,
        blob: Any,
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        shard, seconds = _timed_call(lambda: _resolve_loader(loader)(blob))
        retired = []
        with self._lock:
            previous = self._shards.get((rank, epoch))
            if previous is not None and previous is not shard:
                retired.append(previous)
            self._shards[(rank, epoch)] = shard
            if retire_below is not None:
                for key in [k for k in self._shards if k[0] == rank and k[1] < retire_below]:
                    retired.append(self._shards.pop(key))
        for old in retired:
            _close_shard(old)
        _record_hydration(seconds)

    def get(self, rank: int, epoch: Optional[int]) -> Any:
        """The shard for ``(rank, epoch)``; ``None`` for epoch-less tasks."""
        if epoch is None:
            return None
        with self._lock:
            try:
                return self._shards[(rank, epoch)]
            except KeyError:
                available = sorted(e for r, e in self._shards if r == rank)
                raise StaleEpochError(rank, epoch, available) from None

    def run(self, rank: int, task: str, epoch: Optional[int], payload: Any) -> Tuple[Any, float]:
        """Run a registered shard task; returns ``(result, seconds)``."""
        fn = _resolve_task(task)
        shard = self.get(rank, epoch)
        result, seconds = _timed_call(lambda: fn(shard, payload))
        _record_shard_task(task, seconds)
        return result, seconds

    def epochs_held(self) -> Dict[int, Tuple[int, ...]]:
        """``{rank: epochs}`` currently hydrated."""
        held: Dict[int, list] = {}
        with self._lock:
            for rank, epoch in self._shards:
                held.setdefault(rank, []).append(epoch)
        return {rank: tuple(sorted(epochs)) for rank, epochs in held.items()}

    def close(self) -> None:
        """Release every shard."""
        with self._lock:
            shards, self._shards = list(self._shards.values()), {}
        for shard in shards:
            _close_shard(shard)


class _InProcessExecutor(ExecutorBackend):
    """Shard storage + hydration for the in-process executors."""

    def __init__(self) -> None:
        self._store = ShardStore()

    def hydrate(
        self,
        rank: int,
        epoch: int,
        blob: Any,
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        self._store.hydrate(rank, epoch, blob, loader, retire_below)

    def run_shard_phase(
        self, task: str, epoch: Optional[int], payloads: Mapping[int, Any]
    ) -> Dict[int, Tuple[Any, float]]:
        return self.run_phase(
            {
                rank: (lambda r=rank, p=payload: self._store.run(r, task, epoch, p)[0])
                for rank, payload in payloads.items()
            }
        )

    def close(self) -> None:
        self._store.close()


class SerialExecutor(_InProcessExecutor):
    """Workers run one after another on the calling thread."""

    name = "serial"

    def run_phase(self, fns: Mapping[int, Callable[[], Any]]) -> Dict[int, Tuple[Any, float]]:
        return {rank: _timed_call(fn) for rank, fn in fns.items()}


class ThreadExecutor(_InProcessExecutor):
    """Workers run on a persistent thread pool (one slot per worker)."""

    name = "threads"

    def __init__(self) -> None:
        super().__init__()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                workers = max(2, getattr(self, "num_workers", 2))
                self._pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="cluster-worker"
                )
            return self._pool

    def run_phase(self, fns: Mapping[int, Callable[[], Any]]) -> Dict[int, Tuple[Any, float]]:
        if len(fns) <= 1:
            return {rank: _timed_call(fn) for rank, fn in fns.items()}
        pool = self._ensure_pool()
        futures = {rank: pool.submit(_timed_call, fn) for rank, fn in fns.items()}
        return {rank: future.result() for rank, future in futures.items()}

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
        super().close()


def _make_process_executor() -> ExecutorBackend:
    # Imported lazily: repro.cluster.tcp imports from this module.
    from repro.cluster.tcp import ProcessExecutor

    return ProcessExecutor()


def _make_tcp_executor() -> ExecutorBackend:
    from repro.cluster.tcp import TcpExecutor

    return TcpExecutor()


_FACTORIES: Dict[str, Callable[[], ExecutorBackend]] = {
    "serial": SerialExecutor,
    "threads": ThreadExecutor,
    "processes": _make_process_executor,
    "tcp": _make_tcp_executor,
}

def make_executor(name: str) -> ExecutorBackend:
    """Instantiate an executor backend by name (not yet started)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; available: {', '.join(EXECUTOR_NAMES)}"
        ) from None
    return factory()


__all__ = [
    "DEFAULT_TASK_MODULES",
    "EXECUTOR_NAMES",
    "ExecutorBackend",
    "SerialExecutor",
    "ShardStore",
    "ShardTaskError",
    "StaleEpochError",
    "ThreadExecutor",
    "make_executor",
    "register_shard_loader",
    "register_shard_task",
]
