"""The three workloads: what the program serves and what the client sends.

Each workload serves one fixed dataset, generated with the dataset seed
:data:`DATASET_SEED` like the paper's fixed graphs.  The workload seed drives
everything asked of it: the query working sets, the query stream and the
update stream.  The program only ever sees the generated inputs, never the
seed.  ``WORKLOADS.md`` in this directory explains why each workload exists.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

Query = Tuple[Tuple[int, ...], Tuple[int, ...]]
Update = Tuple[str, int, int]


@dataclass(frozen=True)
class QueryClass:
    """One query shape of a mix: ``|S| x |T|`` drawn with ``weight``."""

    name: str
    sources: int
    targets: int
    weight: float
    #: Distinct queries in this class's working set (None: a fresh stream).
    working_set: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    executor: str
    classes: Tuple[QueryClass, ...]
    cache_capacity: Optional[int] = None
    #: Open-loop query rate (queries/s) — fixed, so two commits see the
    #: same offered load.
    query_rate: float = 0.0
    #: Closed-loop phase: requests kept in flight per connection.
    window: int = 0
    #: Write cycles: one update, a flush, then this many queries; 0 for
    #: read-only workloads.
    cycle_reads: int = 0


#: Every workload serves 4 partitions with the msbfs local index and the
#: default inline epoch flush, and the front-door workloads use 2
#: connections (one per core of a 2-core host).
NUM_PARTITIONS = 4
LOCAL_INDEX = "msbfs"
CONNECTIONS = 2
#: Builds per run; set-up time is their median.
SETUPS = 5

WORKLOADS: Dict[str, Workload] = {
    "serve-mixed": Workload(
        name="serve-mixed",
        dataset="freebase",
        scale=1.0,
        executor="processes",
        classes=(
            QueryClass("lookup", 1, 1, 0.70, working_set=400),
            QueryClass("small", 8, 8, 0.15, working_set=200),
            QueryClass("wide", 64, 16, 0.15, working_set=360),
        ),
        # 960 distinct queries against 640 entries: misses never stop.  At
        # a quarter of these sizes the tail was set by the few heaviest of
        # 90 wide queries, and query_p99_ms spread by a quarter over seeds.
        cache_capacity=640,
        query_rate=150.0,
        window=8,
    ),
    "batch-ladder": Workload(
        name="batch-ladder",
        dataset="livej68",
        scale=0.6,
        executor="tcp",
        classes=(
            QueryClass("s8", 8, 8, 0.60),
            QueryClass("s64", 64, 64, 0.30),
            QueryClass("s256", 256, 256, 0.10),
        ),
    ),
    "ingest-rw": Workload(
        name="ingest-rw",
        dataset="amazon",
        scale=1.0,
        executor="serial",
        classes=(
            # Fresh streams: the cache is emptied at every update anyway,
            # and each percentile is spread over thousands of distinct
            # queries, not set by a few of a small working set.
            QueryClass("lookup", 1, 1, 0.70),
            QueryClass("small", 8, 8, 0.30),
        ),
        cycle_reads=100,
    ),
}


#: Generator seed of every dataset.  Seeding the graph with the workload seed
#: made ``freebase``'s reachability, and with it every timing, change by a
#: quarter from seed to seed.
DATASET_SEED = 0


def build_graph(workload: Workload):
    from repro.bench.datasets import load_dataset

    return load_dataset(workload.dataset, workload.scale, seed=DATASET_SEED)


def engine_config(workload: Workload):
    from repro.api import DSRConfig

    return DSRConfig(
        num_partitions=NUM_PARTITIONS,
        local_index=LOCAL_INDEX,
        executor=workload.executor,
    )


def _draw(rng: random.Random, vertices: Sequence[int], count: int) -> Tuple[int, ...]:
    return tuple(sorted(rng.sample(vertices, count)))


def working_sets(
    workload: Workload, vertices: Sequence[int], seed: int
) -> Dict[str, List[Query]]:
    """Each class's distinct queries (classes with a working set only)."""
    rng = random.Random(f"{workload.name}/working-set/{seed}")
    sets: Dict[str, List[Query]] = {}
    seen = set()
    for query_class in workload.classes:
        if query_class.working_set is None:
            continue
        queries: List[Query] = []
        while len(queries) < query_class.working_set:
            query = (
                _draw(rng, vertices, query_class.sources),
                _draw(rng, vertices, query_class.targets),
            )
            if query not in seen:
                seen.add(query)
                queries.append(query)
        sets[query_class.name] = queries
    return sets


#: Classes are dealt from shuffled decks of this many draws, so every
#: stretch of a run holds each class in its exact share; drawn one by one,
#: the count of rare heavy queries in a run varied from seed to seed.
DECK = 20


class MixSampler:
    """Seeded draws of ``(class, query)`` from a workload's mix."""

    def __init__(
        self,
        workload: Workload,
        vertices: Sequence[int],
        seed: int,
        stream: str = "mix",
    ) -> None:
        self._deck: List[QueryClass] = []
        self._suit = [
            query_class
            for query_class in workload.classes
            for _ in range(round(query_class.weight * DECK))
        ]
        assert len(self._suit) == DECK, "class weights must be multiples of 1/DECK"
        self._sets = working_sets(workload, vertices, seed)
        self._vertices = list(vertices)
        self._rng = random.Random(f"{workload.name}/{stream}/{seed}")
        self._seen: set = set()

    def next(self) -> Tuple[QueryClass, Query]:
        if not self._deck:
            self._deck = list(self._suit)
            self._rng.shuffle(self._deck)
        query_class = self._deck.pop()
        working_set = self._sets.get(query_class.name)
        if working_set is not None:
            return query_class, self._rng.choice(working_set)
        # Fresh stream: every query distinct, so nothing downstream can reuse
        # an earlier answer.
        while True:
            query = (
                _draw(self._rng, self._vertices, query_class.sources),
                _draw(self._rng, self._vertices, query_class.targets),
            )
            if query not in self._seen:
                self._seen.add(query)
                return query_class, query


#: Inserted edges kept in the graph at once by :func:`update_stream`.
CHURN_POOL = 8


def update_stream(graph, seed: int) -> Iterator[Update]:
    """Endless edge updates: inserts of random absent edges, and deletes of
    the oldest edge inserted, about half each.

    The dataset's own edges are never deleted, so the graph stays within a
    few edges of the dataset however long the stream runs; deleting random
    original edges instead splits strongly connected components, and how
    many it splits varies from seed to seed.
    """
    rng = random.Random(f"updates/{seed}")
    model = graph.copy()
    vertices = list(model.vertices())
    pool: Deque[Tuple[int, int]] = deque()
    while True:
        if len(pool) >= CHURN_POOL or (pool and rng.random() < 0.5):
            u, v = pool.popleft()
            model.remove_edge(u, v)
            yield ("delete-edge", u, v)
            continue
        u, v = rng.choice(vertices), rng.choice(vertices)
        if u == v or model.has_edge(u, v):
            continue
        model.add_edge(u, v)
        pool.append((u, v))
        yield ("insert-edge", u, v)


def apply_updates(graph, updates: Sequence[Update]):
    """The model graph after ``updates`` (a copy; ``graph`` is untouched)."""
    model = graph.copy()
    for op, u, v in updates:
        if op == "insert-edge":
            model.add_edge(u, v)
        else:
            model.remove_edge(u, v)
    return model
