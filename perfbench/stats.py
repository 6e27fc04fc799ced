"""Order statistics and counter arithmetic shared by every workload.

Latency percentiles are exact nearest-rank order statistics over the raw
samples.  A tail percentile is only reported where the sample supports it:
:func:`tail` lowers the requested percentile to the highest one that still
has at least ``MIN_BEYOND`` samples beyond it, and says which one it used.

The program's own counters arrive as Prometheus text; :func:`parse_prometheus`
reads it into a flat ``{series: value}`` map so two scrapes can be
subtracted, and :func:`histogram_percentile` estimates a percentile from the
bucket deltas of one histogram the same way the program's registry does.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 when there are none)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(samples: Sequence[float], percent: float = 99.0) -> Tuple[float, float]:
    """``(value, percent_used)`` for a tail percentile the sample supports.

    The percentile is lowered until at least :data:`MIN_BEYOND` samples lie
    beyond it; with fewer than ``MIN_BEYOND + 1`` samples the median is used.
    """
    count = len(samples)
    if count <= MIN_BEYOND:
        return percentile(samples, 50.0), 50.0
    supported = 100.0 * (count - MIN_BEYOND) / count
    used = max(50.0, min(percent, math.floor(supported * 10.0) / 10.0))
    return percentile(samples, used), used


def median(samples: Sequence[float]) -> float:
    """The middle value; the mean of the middle two for an even count."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def max_overlap(intervals: Iterable[Tuple[float, float]]) -> int:
    """Largest number of ``[start, end)`` intervals open at one instant."""
    events: List[Tuple[float, int]] = []
    for start, end in intervals:
        events.append((start, 1))
        events.append((end, -1))
    events.sort(key=lambda event: (event[0], event[1]))
    depth = best = 0
    for _, step in events:
        depth += step
        best = max(best, depth)
    return best


# ---------------------------------------------------------------------- #
# Prometheus text
# ---------------------------------------------------------------------- #
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_prometheus(text: str) -> Dict[str, float]:
    """Every sample line of a text exposition as ``{series: value}``.

    Series keep their label block verbatim (``name{a="1"}``), so a value is
    found again in a later scrape by the same key.
    """
    series: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line.strip())
        if match is None:
            continue
        name, labels, value = match.groups()
        series[name + (labels or "")] = float(value)
    return series


def counter_delta(
    before: Dict[str, float], after: Dict[str, float], name: str, **labels: str
) -> float:
    """Increase of every series of ``name`` whose labels include ``labels``."""
    total = 0.0
    for key, value in after.items():
        if _series_name(key) != name or not _has_labels(key, labels):
            continue
        total += value - before.get(key, 0.0)
    return total


def histogram_percentile(
    before: Dict[str, float],
    after: Dict[str, float],
    name: str,
    percent: float,
) -> Optional[float]:
    """Percentile of one histogram over the observations between two scrapes.

    Buckets of every label set of ``name`` are summed; the value is linearly
    interpolated inside the bucket the rank falls into (the registry's own
    estimator).  ``None`` when nothing was observed in between.
    """
    edges: Dict[float, float] = {}
    bucket = name + "_bucket"
    for key, value in after.items():
        if _series_name(key) != bucket:
            continue
        edge_text = _label(key, "le")
        edge = math.inf if edge_text == "+Inf" else float(edge_text)
        edges[edge] = edges.get(edge, 0.0) + value - before.get(key, 0.0)
    ordered = sorted(edges.items())
    if not ordered or ordered[-1][1] <= 0:
        return None
    count = ordered[-1][1]
    rank = max(1.0, math.ceil(percent / 100.0 * count))
    previous_edge, previous_cumulative = 0.0, 0.0
    for edge, cumulative in ordered:
        if cumulative >= rank:
            if math.isinf(edge):
                return previous_edge
            in_bucket = cumulative - previous_cumulative
            fraction = (rank - previous_cumulative) / in_bucket if in_bucket else 1.0
            return previous_edge + (edge - previous_edge) * fraction
        previous_edge, previous_cumulative = edge, cumulative
    return previous_edge


def _series_name(key: str) -> str:
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


def _label(key: str, label: str) -> Optional[str]:
    match = re.search(r'(?:\{|,)' + re.escape(label) + r'="([^"]*)"', key)
    return match.group(1) if match else None


def _has_labels(key: str, labels: Dict[str, str]) -> bool:
    return all(_label(key, label) == str(value) for label, value in labels.items())
