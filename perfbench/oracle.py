"""Ground truth for every answer the benchmark checks.

The oracle is :func:`repro.graph.traversal.reachable_pairs` on the same
seeded graph the program serves.  It is evaluated once per distinct source
and kept as a bitmask over vertex ids, so a workload precomputes everything
it compares against before timing starts, holds it in little memory, and a
check after the timed call is integer arithmetic.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Sequence, Set, Tuple

from repro.graph.digraph import DiGraph
from repro.graph.traversal import reachable_pairs

Pairs = Set[Tuple[int, int]]


def _mask(vertices: Iterable[int]) -> int:
    mask = 0
    for vertex in vertices:
        mask |= 1 << vertex
    return mask


class Oracle:
    """Memoised ``reachable_pairs`` over one fixed graph."""

    def __init__(self, graph: DiGraph) -> None:
        self.graph = graph
        self._vertices = list(graph.vertices())
        self._reach: Dict[int, int] = {}

    def reach(self, source: int) -> int:
        """Bitmask of every vertex ``source`` reaches."""
        found = self._reach.get(source)
        if found is None:
            found = _mask(
                target for _, target in reachable_pairs(self.graph, [source], self._vertices)
            )
            self._reach[source] = found
        return found

    def prepare(self, sources: Iterable[int]) -> None:
        """Evaluate every source up front (outside any timed region)."""
        for source in sources:
            self.reach(source)

    def expected(self, sources: Iterable[int], targets: Iterable[int]) -> Pairs:
        """The exact answer of ``S ⇝ T``."""
        target_list = sorted(set(targets))
        pairs: Pairs = set()
        for source in set(sources):
            reached = self.reach(source)
            pairs.update((source, target) for target in target_list if reached >> target & 1)
        return pairs

    def matches(self, sources, targets, pairs: Iterable[Tuple[int, int]]) -> bool:
        """True when ``pairs`` is exactly the reachable part of ``S × T``:
        every pair is in ``S × T``, reachable and given once, and none is
        missing."""
        target_mask = _mask(targets)
        missing = {source: self.reach(source) & target_mask for source in set(sources)}
        for source, target in pairs:
            left = missing.get(source)
            # Outside S × T, unreachable, or given twice.
            if left is None or not left >> target & 1:
                return False
            missing[source] = left & ~(1 << target)
        return not any(missing.values())


def same_pairs(pairs: Sequence[Tuple[int, int]], expected: FrozenSet[Tuple[int, int]]) -> bool:
    """True when ``pairs`` holds every pair of ``expected`` once, and no other."""
    return len(pairs) == len(expected) and frozenset(pairs) == expected
