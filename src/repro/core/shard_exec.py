"""Worker-side DSR execution over hydrated CSR shards.

When the cluster runs on the ``processes`` executor, the per-slave steps of
the one-round query protocol (:mod:`repro.core.query`) execute inside
long-lived worker processes.  Workers never see the engine's Python object
graph; instead each is *hydrated once per epoch* with a
:class:`WorkerShard` — the immutable, self-contained slice of the index that
slave ``i`` needs to answer its part of any query:

* the CSR snapshot of its **condensed compound graph** (the same DAG the
  in-process path queries through), shipped via the compact
  :meth:`repro.graph.csr.CSRGraph.to_bytes` serialisation;
* the vertex → SCC-component mapping of that condensation;
* the forward entry handles of every remote partition (so step-1 payloads
  stay small: the parent names partitions, the worker knows their handles);
* its own summary's handle → representative expansion table for step 3.

Reachability inside a worker is evaluated directly with the bitset
multi-source BFS kernel (:mod:`repro.reachability.bitset_msbfs`) over the
condensation CSR — stateless per query, nothing to keep in sync.

The task functions are registered with the executor registry
(:mod:`repro.cluster.executors`) under ``dsr.local_step`` / ``dsr.remote_step``
and must stay pure reads of the shard: one hydrated epoch serves every
in-flight query of that epoch concurrently.

.. warning::
   :func:`local_step` / :func:`remote_step` deliberately mirror
   ``DistributedQueryExecutor._local_step`` / ``_remote_step`` (the
   in-process path keeps the *configured* local strategy; workers always
   use the stateless bitset kernel).  Any semantic change to the pair logic
   in :mod:`repro.core.query` must be applied here too — the cross-executor
   parity tests (``tests/core/test_epochs.py::TestExecutorParity``) are the
   tripwire.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster import shm as cluster_shm
from repro.cluster.executors import (
    StaleEpochError,
    register_shard_loader,
    register_shard_task,
)
from repro.core.packed_steps import (
    build_member_masks,
    condensation_rows,
    local_step_groups,
    remote_step_groups,
)
from repro.graph.csr import CSRGraph
from repro.obs.runtime import global_registry
from repro.reachability.bitset_msbfs import (
    set_reachability as _bitset_set_reachability,
    set_reachability_rows as _bitset_set_reachability_rows,
)
from repro.reachability.packed import VertexRank, handle_positions, row_from_bytes

#: Registry name of the hydration loader used for DSR shards.
DSR_SHARD_LOADER = "dsr.load_shard"
LOCAL_STEP_TASK = "dsr.local_step"
REMOTE_STEP_TASK = "dsr.remote_step"


@dataclass
class WorkerShardBlob:
    """Picklable hydration payload for one ``(rank, epoch)`` shard.

    In the zero-copy mode, ``shm_segment`` names a shared-memory segment
    written by the master's :class:`~repro.cluster.shm.ShmLedger` and every
    bulk field — ``dag_csr_bytes``, ``component_of``, ``vertex_ids``, the
    handle tables and the expansion table — travels *inside the segment*
    instead of the blob, so the worker socket carries essentially just the name.
    With ``shm_segment=None`` the blob is self-contained (the pickled
    fallback).
    """

    rank: int
    epoch: int
    dag_csr_bytes: bytes
    component_of: Dict[int, int]
    remote_forward_handles: Dict[int, Tuple[int, ...]]
    expand_members: Dict[int, Tuple[int, ...]]
    #: The epoch's vertex-rank id order of this partition's compound graph —
    #: the numbering every packed mask/row in step payloads is addressed in.
    #: Shipped verbatim so worker and parent can never disagree on a rank.
    vertex_ids: Tuple[int, ...] = ()
    #: Name of the shared-memory segment holding the bulk payload, or None.
    shm_segment: Optional[str] = None


@dataclass
class WorkerShard:
    """The materialised shard a worker queries against (immutable)."""

    rank: int
    epoch: int
    dag_csr: CSRGraph
    component_of: Dict[int, int]
    remote_forward_handles: Dict[int, Tuple[int, ...]]
    expand_members: Dict[int, Tuple[int, ...]]
    #: Packed-pipeline structures, derived once at hydration.
    vertex_rank: Optional[VertexRank] = None
    member_masks: Tuple[int, ...] = ()
    _handle_positions: Dict[int, Dict[int, int]] = field(default_factory=dict)

    def handle_positions_of(self, pid: int) -> Dict[int, int]:
        """Handle id → canonical wire position for remote partition ``pid``.

        Derived through the shared
        :func:`repro.reachability.packed.handle_positions`, so positions
        agree with every other slave's
        :meth:`~repro.core.summary.PartitionSummary.forward_handle_order`.
        """
        positions = self._handle_positions.get(pid)
        if positions is None:
            positions = handle_positions(self.remote_forward_handles.get(pid, ()))
            self._handle_positions[pid] = positions
        return positions

    def close(self) -> None:
        """Detach from the shard's shared-memory segment, if any.

        Called when the executor retires the epoch holding this shard; a
        closed shard must not serve further tasks.
        """
        if self.dag_csr is not None:
            self.dag_csr.release_shared()


# ---------------------------------------------------------------------- #
# shared-memory segment layout
# ---------------------------------------------------------------------- #
# [u64 n_members][member ids: n*8 int64][component ids: n*8 int64, aligned
# to the member order][handle table][expansion table][CSR wire image
# (CSRGraph.write_shared format)].  Each *table* serialises one
# ``Dict[int, Tuple[int, ...]]`` as
# [u64 n_entries][(key, len) pairs: n*16 int64][values: total*8 int64].
_SHM_COUNT = struct.Struct("<Q")


def _table_size(mapping: Dict[int, Tuple[int, ...]]) -> int:
    return (
        _SHM_COUNT.size
        + 16 * len(mapping)
        + 8 * sum(len(values) for values in mapping.values())
    )


def _write_table(buf, cursor: int, mapping: Dict[int, Tuple[int, ...]]) -> int:
    _SHM_COUNT.pack_into(buf, cursor, len(mapping))
    cursor += _SHM_COUNT.size
    header = array("q")
    values = array("q")
    for key, vals in mapping.items():
        header.append(key)
        header.append(len(vals))
        values.extend(vals)
    for chunk in (header, values):
        raw = chunk.tobytes()
        buf[cursor : cursor + len(raw)] = raw
        cursor += len(raw)
    return cursor


def _read_table(buf, cursor: int):
    (count,) = _SHM_COUNT.unpack_from(buf, cursor)
    cursor += _SHM_COUNT.size
    header = buf[cursor : cursor + 16 * count].cast("q")
    cursor += 16 * count
    total = sum(header[2 * index + 1] for index in range(count))
    values = buf[cursor : cursor + 8 * total].cast("q")
    cursor += 8 * total
    mapping: Dict[int, Tuple[int, ...]] = {}
    position = 0
    for index in range(count):
        length = header[2 * index + 1]
        mapping[header[2 * index]] = tuple(values[position : position + length])
        position += length
    header.release()
    values.release()
    return mapping, cursor


def _write_shard_segment(
    ledger, epoch: int, rank: int, csr, vertex_ids, component_of, handles, expand
):
    """Write one shard's bulk payload into a fresh ledger segment.

    Returns the segment name.  Raises ``KeyError`` when ``component_of``
    does not cover ``vertex_ids`` (caller falls back to the pickled blob).
    """
    comps = array("q", (component_of[vertex] for vertex in vertex_ids))
    ids = array("q", vertex_ids)
    n = len(vertex_ids)
    nbytes = (
        _SHM_COUNT.size
        + 16 * n
        + _table_size(handles)
        + _table_size(expand)
        + csr.shared_size()
    )
    segment = ledger.create(epoch, rank, nbytes)
    buf = segment.buf
    _SHM_COUNT.pack_into(buf, 0, n)
    cursor = _SHM_COUNT.size
    for chunk in (ids, comps):
        raw = chunk.tobytes()
        buf[cursor : cursor + len(raw)] = raw
        cursor += len(raw)
    cursor = _write_table(buf, cursor, handles)
    cursor = _write_table(buf, cursor, expand)
    csr.write_shared(buf, cursor)
    return segment.name


def _read_shard_segment(name: str):
    """Attach to a shard segment; returns
    ``(vertex_ids, component_of, handles, expand, csr)``.

    The CSR's adjacency buffers stay zero-copy views into the mapping (the
    attachment is pinned on the snapshot); the id tuple, component dict and
    the two tables are materialised per process — they are Python object
    structures.
    """
    segment = cluster_shm.attach(name)
    buf = segment.buf
    (n,) = _SHM_COUNT.unpack_from(buf, 0)
    cursor = _SHM_COUNT.size
    ids_view = buf[cursor : cursor + 8 * n].cast("q")
    comps_view = buf[cursor + 8 * n : cursor + 16 * n].cast("q")
    vertex_ids = tuple(ids_view)
    component_of = dict(zip(vertex_ids, comps_view))
    ids_view.release()
    comps_view.release()
    cursor += 16 * n
    handles, cursor = _read_table(buf, cursor)
    expand, cursor = _read_table(buf, cursor)
    from repro.graph.csr import CSRGraph as _CSR

    csr = _CSR.from_shared(buf, offset=cursor, keepalive=segment)
    return vertex_ids, component_of, handles, expand, csr


def build_shard_blob(
    rank: int, epoch: int, compound, summary, ledger=None
) -> WorkerShardBlob:
    """Derive the shard blob for one partition from its epoch state.

    ``compound`` is the partition's :class:`~repro.core.compound_graph.
    CompoundGraph` (its condensed reachability is built if missing) and
    ``summary`` its :class:`~repro.core.summary.PartitionSummary`.

    With a :class:`~repro.cluster.shm.ShmLedger`, the bulk payload (CSR
    image, vertex-rank order, component mapping, handle tables, expansion
    table) is written into a shared segment once and the blob ships only
    its name — workers hydrate by attaching, not by deserializing.  Any
    failure to build the segment falls back to the self-contained pickled
    form.
    """
    if compound.reachability is None:
        compound.build_reachability()
    reach = compound.reachability
    csr = reach.dag.csr()
    vertex_ids = reach.vertex_rank.ids
    component_of = reach.vertex_to_component
    remote_forward_handles = {
        pid: tuple(sorted(handles))
        for pid, handles in compound.remote_forward_handles.items()
    }
    # The single expansion contract, shared with the in-process path.
    expand_members = dict(summary.expand_table())
    shm_segment: Optional[str] = None
    if ledger is not None:
        try:
            shm_segment = _write_shard_segment(
                ledger,
                epoch,
                rank,
                csr,
                vertex_ids,
                component_of,
                remote_forward_handles,
                expand_members,
            )
        except (KeyError, OSError, RuntimeError):
            shm_segment = None
    return WorkerShardBlob(
        rank=rank,
        epoch=epoch,
        dag_csr_bytes=b"" if shm_segment else csr.to_bytes(),
        component_of={} if shm_segment else dict(component_of),
        remote_forward_handles={} if shm_segment else remote_forward_handles,
        expand_members={} if shm_segment else expand_members,
        vertex_ids=() if shm_segment else vertex_ids,
        shm_segment=shm_segment,
    )


@register_shard_loader(DSR_SHARD_LOADER)
def load_shard(blob: WorkerShardBlob) -> WorkerShard:
    """Hydrate a blob into the worker's queryable shard.

    A blob naming a shared segment hydrates by *attach*: the CSR adjacency
    stays a zero-copy view into the master-owned mapping (pointer flip, no
    ``from_bytes`` pass).  A self-contained blob re-inflates the CSR from
    its pickled bytes.  Either way the packed-pipeline structures — the
    vertex rank and the per-component member masks — are derived here, once
    per epoch, so every query of the epoch expands component rows with
    plain ORs.
    """
    if blob.shm_segment is not None:
        vertex_ids, component_map, handles, expand, dag_csr = _read_shard_segment(
            blob.shm_segment
        )
        blob = WorkerShardBlob(
            rank=blob.rank,
            epoch=blob.epoch,
            dag_csr_bytes=b"",
            component_of=component_map,
            remote_forward_handles=handles,
            expand_members=expand,
            vertex_ids=vertex_ids,
            shm_segment=blob.shm_segment,
        )
        registry = global_registry()
        if registry.enabled:
            registry.inc("dsr_shard_shm_attach_total")
    else:
        dag_csr = CSRGraph.from_bytes(blob.dag_csr_bytes)
    vertex_ids = blob.vertex_ids or tuple(sorted(blob.component_of))
    vertex_rank = VertexRank(vertex_ids)
    masks = build_member_masks(
        vertex_ids,
        blob.component_of,
        VertexRank.from_csr(dag_csr).rank_of,
        dag_csr.num_vertices,
    )
    return WorkerShard(
        rank=blob.rank,
        epoch=blob.epoch,
        dag_csr=dag_csr,
        component_of=blob.component_of,
        remote_forward_handles=blob.remote_forward_handles,
        expand_members=blob.expand_members,
        vertex_rank=vertex_rank,
        member_masks=tuple(masks),
    )


def _check_rank_cardinality(shard: WorkerShard, payload: Dict[str, Any]) -> None:
    """Reject packed payloads addressed in a different rank numbering.

    An in-place isolated-vertex insert shifts the vertex-rank numbering
    without bumping the epoch (it always changes the cardinality), and
    :meth:`repro.core.index.DSRIndex.rehydrate_partition` reships this
    shard under the *same* epoch — so a bits payload packed on the other
    side of that window must not be decoded here.  Raising
    :class:`StaleEpochError` routes it into the query's existing
    re-capture-and-retry path.
    """
    expected = payload.get("num_ranks")
    if expected is not None and expected != len(shard.vertex_rank.ids):
        raise StaleEpochError(shard.rank, shard.epoch, (shard.epoch,))


def _record_payload(step: str, payload: Dict[str, Any]) -> None:
    """Account the request payload that crossed (or would cross) the IPC
    boundary for one step: packed target bytes in bits form, an 8-byte-per-id
    estimate in set form.  Recorded in whichever process runs the task, so
    worker totals ship back via the executor's delta piggybacking."""
    registry = global_registry()
    if not registry.enabled:
        return
    bits = payload.get("targets_bits")
    if bits is not None:
        nbytes = len(bits)
        form = "bits"
    else:
        targets = payload.get("targets") or payload.get("interior_targets") or ()
        nbytes = 8 * len(targets)
        form = "sets"
    registry.inc("dsr_shard_payload_bytes_total", nbytes, step=step, form=form)


# ---------------------------------------------------------------------- #
# reachability over the hydrated condensation
# ---------------------------------------------------------------------- #
def _shard_set_reachability(
    shard: WorkerShard, sources: Iterable[int], targets: Iterable[int]
) -> Dict[int, Set[int]]:
    """``{source: reachable targets}`` over the shard's condensation CSR.

    Mirrors :meth:`repro.core.compound_graph.CondensedReachability.
    set_reachability`: translate to component ids, run the batched bitset
    kernel over the DAG, translate back.  Ids unknown to the shard (e.g. a
    vertex inserted after this epoch) yield empty results.
    """
    sources = list(sources)
    result: Dict[int, Set[int]] = {source: set() for source in sources}
    component_of = shard.component_of
    source_comps = {
        source: component_of[source] for source in sources if source in component_of
    }
    target_comps: Dict[int, List[int]] = {}
    for target in set(targets):
        comp = component_of.get(target)
        if comp is not None:
            target_comps.setdefault(comp, []).append(target)
    if not source_comps or not target_comps:
        return result
    comp_result = _bitset_set_reachability(
        shard.dag_csr, set(source_comps.values()), set(target_comps)
    )
    for source, comp in source_comps.items():
        reached: Set[int] = set()
        for reached_comp in comp_result.get(comp, ()):
            reached.update(target_comps[reached_comp])
        result[source] = reached
    return result


def _shard_set_reachability_rows(
    shard: WorkerShard, sources: Iterable[int], target_mask: int
) -> Dict[int, int]:
    """Packed ``{source: row}`` over the shard's vertex rank.

    Mirrors :meth:`repro.core.compound_graph.CondensedReachability.
    set_reachability_rows`: translate the mask to DAG components, run the
    packed bitset kernel, expand reached components through the hydrated
    member masks with single ORs.
    """
    dag_csr = shard.dag_csr
    return condensation_rows(
        sources,
        shard.component_of,
        lambda comps, dag_mask: _bitset_set_reachability_rows(
            dag_csr, comps, dag_mask
        ),
        shard.member_masks,
        shard.vertex_rank.ids,
        VertexRank.from_csr(dag_csr).rank_of,
        target_mask,
    )


# ---------------------------------------------------------------------- #
# the two per-slave query steps (Algorithms 1 and 2)
# ---------------------------------------------------------------------- #
@register_shard_task(LOCAL_STEP_TASK)
def local_step(shard: WorkerShard, payload: Dict[str, Any]):
    """Step 1 at this slave: local pairs + handles to ship per partition.

    Payload: ``{"sources": [...], "interior_pids": [...]}`` plus the targets
    in one of two wire forms — ``"targets_bits"`` (packed bytes over this
    shard's vertex rank; the bits-native pipeline) or ``"targets"`` (sorted
    id list; the set pipeline).  ``targets`` already bundles local targets
    with remote *boundary* targets (resolvable here without communication)
    and ``interior_pids`` names the remote partitions whose interior targets
    need handle shipping.  Returns ``(pairs, outgoing)`` with
    ``outgoing[pid] = {source: packed handle bytes}`` in bits form and
    ``{source: [handles]}`` in set form.
    """
    _record_payload("local", payload)
    if "targets_bits" in payload:
        return _local_step_bits(shard, payload)
    pairs: Set[Tuple[int, int]] = set()
    outgoing: Dict[int, Dict[int, List[int]]] = {}
    sources = payload["sources"]
    if not sources:
        return pairs, outgoing
    handle_targets = {
        pid: set(shard.remote_forward_handles.get(pid, ()))
        for pid in payload["interior_pids"]
        if pid != shard.rank
    }
    all_targets = set(payload["targets"])
    all_handles: Set[int] = set()
    for handles in handle_targets.values():
        all_handles |= handles

    reach = _shard_set_reachability(shard, sources, all_targets | all_handles)
    for source in sources:
        reached = reach.get(source, set())
        for target in reached & all_targets:
            pairs.add((source, target))
        if not all_handles:
            continue
        reached_handles = reached & all_handles
        if not reached_handles:
            continue
        for pid, handles in handle_targets.items():
            hit = sorted(reached_handles & handles)
            if hit:
                outgoing.setdefault(pid, {})[source] = hit
    return pairs, outgoing


def _local_step_bits(shard: WorkerShard, payload: Dict[str, Any]):
    """Bits-native step 1: masks in, product groups + packed bytes out.

    The row-grouping/decoding/packing core is the same
    :func:`repro.core.packed_steps.local_step_groups` the in-process path
    runs — only the mask plumbing differs.  The answer ships as
    ``(sources, targets)`` product groups (the parent materialises the
    tuples once) and the handle traffic as ``{packed handle bytes:
    [sources]}`` per destination partition.
    """
    sources = payload["sources"]
    if not sources:
        return [], {}
    _check_rank_cardinality(shard, payload)
    vrank = shard.vertex_rank
    interior_pids = [pid for pid in payload["interior_pids"] if pid != shard.rank]

    target_mask = row_from_bytes(payload["targets_bits"])
    pid_masks = [
        (pid, vrank.pack(shard.remote_forward_handles.get(pid, ())))
        for pid in interior_pids
    ]
    all_handle_mask = 0
    for _, pid_mask in pid_masks:
        all_handle_mask |= pid_mask

    rows = _shard_set_reachability_rows(
        shard, sources, target_mask | all_handle_mask
    )
    return local_step_groups(
        vrank,
        rows,
        sources,
        target_mask,
        all_handle_mask,
        pid_masks,
        shard.handle_positions_of,
    )


@register_shard_task(REMOTE_STEP_TASK)
def remote_step(shard: WorkerShard, payload: Dict[str, Any]):
    """Step 3 at this slave: expand received handles, finish locally.

    Payload: ``{"sources_by_handle": {handle: [sources]}}`` plus the
    remaining interior targets as either ``"targets_bits"`` (packed bytes
    over this shard's vertex rank) or ``"interior_targets"`` (sorted list) —
    the parent has already drained and inverted this slave's inbox.
    Returns the resolved ``(s, t)`` pairs.
    """
    pairs: Set[Tuple[int, int]] = set()
    sources_by_handle: Dict[int, List[int]] = payload["sources_by_handle"]
    if not sources_by_handle:
        return pairs
    _record_payload("remote", payload)
    if "targets_bits" in payload:
        return _remote_step_bits(shard, payload)
    interior_targets = payload["interior_targets"]
    if not interior_targets:
        return pairs

    members_by_handle = {
        handle: shard.expand_members.get(handle, (handle,))
        for handle in sources_by_handle
    }
    all_members = {
        member for members in members_by_handle.values() for member in members
    }
    reach = _shard_set_reachability(shard, all_members, interior_targets)
    for handle, sources in sources_by_handle.items():
        reached: Set[int] = set()
        for member in members_by_handle[handle]:
            reached |= reach.get(member, set())
        for source in sources:
            for target in reached:
                pairs.add((source, target))
    return pairs


def _remote_step_bits(shard: WorkerShard, payload: Dict[str, Any]):
    """Bits-native step 3: expand handles, AND rows against the target mask.

    The row-ORing/regrouping core is the same
    :func:`repro.core.packed_steps.remote_step_groups` the in-process path
    runs.  Returns product-form ``(sources, targets)`` groups; the parent
    materialises the tuples.
    """
    sources_by_handle: Dict[int, List[int]] = payload["sources_by_handle"]
    _check_rank_cardinality(shard, payload)
    interior_mask = row_from_bytes(payload["targets_bits"])
    if not interior_mask:
        return []

    members_by_handle = {
        handle: shard.expand_members.get(handle, (handle,))
        for handle in sources_by_handle
    }
    all_members = {
        member for members in members_by_handle.values() for member in members
    }
    rows = _shard_set_reachability_rows(shard, all_members, interior_mask)
    return remote_step_groups(
        shard.vertex_rank, rows, sources_by_handle, members_by_handle
    )


__all__ = [
    "DSR_SHARD_LOADER",
    "LOCAL_STEP_TASK",
    "REMOTE_STEP_TASK",
    "WorkerShard",
    "WorkerShardBlob",
    "build_shard_blob",
    "load_shard",
]
