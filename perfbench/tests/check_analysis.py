"""Unit checks of the benchmark's own arithmetic: self time, statistics,
the oracle, and the agreement of BENCHMARK.json with the metric catalogue."""

import json
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.oracle import Oracle, same_pairs
from perfbench.stats import (
    counter_delta,
    histogram_percentile,
    max_overlap,
    median,
    parse_prometheus,
    percentile,
    tail,
)
from perfbench.tracing import Span, SpanRecorder, instrument, self_time_by_layer, self_times
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------- #
# self time on a synthetic span tree
# ---------------------------------------------------------------------- #
def _tree():
    # request 1: handle [0, 10] with children plan [1, 2], run [3, 9];
    # run has children phase [4, 6] and phase [5, 8] (overlapping).
    # A hand-off child [9.5, 12] outlives its parent and only covers 0.5.
    return [
        Span(1, None, 1, "service.handle", 0.0, 10.0),
        Span(2, 1, 1, "planner.plan", 1.0, 2.0),
        Span(3, 1, 1, "engine.run", 3.0, 9.0),
        Span(4, 3, 1, "cluster.run_phase", 4.0, 6.0),
        Span(5, 3, 1, "cluster.run_phase", 5.0, 8.0),
        Span(6, 1, 1, "service.worker", 9.5, 12.0),
    ]


def test_self_time_subtracts_the_union_of_children():
    own = self_times(_tree())
    # handle: 10 - (1 + 6 + 0.5 clipped hand-off) = 2.5
    assert own[1] == pytest.approx(2.5)
    assert own[2] == pytest.approx(1.0)
    # run: 6 - union([4, 6], [5, 8]) = 6 - 4 = 2
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(2.0)
    assert own[5] == pytest.approx(3.0)
    assert own[6] == pytest.approx(2.5)


def test_self_times_sum_to_the_root_duration_when_children_nest():
    spans = [s for s in _tree() if s.sid != 6]
    own = self_times(spans)
    # Overlapping siblings double-count their overlap, nested ones do not.
    overlap = 1.0
    assert sum(own.values()) == pytest.approx(10.0 + overlap)
    by_layer = self_time_by_layer(spans)
    assert by_layer["cluster.run_phase"] == pytest.approx([2.0, 3.0])


def test_recorder_nests_within_a_thread_and_adopts_across_threads():
    import threading

    recorder = SpanRecorder()

    class Layer:
        def outer(self, request):
            return self.inner(request)

        def inner(self, request):
            return request

        def later(self, request):
            return request

    layer = Layer()
    undo = [
        instrument(recorder, layer, "inner", "inner"),
        instrument(recorder, layer, "outer", "outer", carried=True, park_when=lambda r: True),
        instrument(recorder, layer, "later", "later", carried=True),
    ]
    request = object()
    layer.outer(request)
    worker = threading.Thread(target=layer.later, args=(request,))
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    for restore in undo:
        restore()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)
    spans = {span.name: span for span in recorder.spans}
    assert spans["inner"].parent == spans["outer"].sid
    assert spans["later"].parent == spans["outer"].sid
    assert len({span.rid for span in recorder.spans}) == 1


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def test_tail_keeps_ten_samples_beyond_the_percentile():
    samples = list(range(1, 1001))
    assert tail(samples) == (990, 99.0)
    value, used = tail(list(range(1, 101)))
    assert used == 90.0 and value == 90
    assert tail([5.0, 1.0, 3.0]) == (3.0, 50.0)
    assert percentile([], 50) == 0.0


def test_median_of_an_even_count_is_the_mean_of_the_middle_two():
    assert median([4.0, 1.0]) == 2.5
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([]) == 0.0


def test_max_overlap_counts_concurrent_intervals():
    assert max_overlap([(0, 2), (1, 3), (2.5, 4), (5, 6)]) == 2
    assert max_overlap([(0, 1), (1, 2)]) == 1


def test_prometheus_deltas_and_histogram_percentile():
    before = parse_prometheus(
        '# TYPE dsr_queries_total counter\n'
        'dsr_queries_total{representation="bits"} 10\n'
        'dsr_t_bucket{task="a",le="0.001"} 1\n'
        'dsr_t_bucket{task="a",le="0.01"} 1\n'
        'dsr_t_bucket{task="a",le="+Inf"} 1\n'
    )
    after = parse_prometheus(
        'dsr_queries_total{representation="bits"} 25\n'
        'dsr_queries_total{representation="sets"} 5\n'
        'dsr_t_bucket{task="a",le="0.001"} 1\n'
        'dsr_t_bucket{task="a",le="0.01"} 11\n'
        'dsr_t_bucket{task="a",le="+Inf"} 11\n'
    )
    assert counter_delta(before, after, "dsr_queries_total") == 20
    assert counter_delta(before, after, "dsr_queries_total", representation="sets") == 5
    # Ten new observations, all in (0.001, 0.01]: the median interpolates to
    # the middle of that bucket.
    assert histogram_percentile(before, after, "dsr_t", 50) == pytest.approx(0.0055)
    assert histogram_percentile(after, after, "dsr_t", 50) is None


# ---------------------------------------------------------------------- #
# the oracle catches a corrupted answer
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def answered():
    from repro.api import DSRConfig, ReachQuery, open_engine
    from repro.graph import generators

    graph = generators.social_graph(300, avg_degree=5, seed=3)
    sources, targets = tuple(range(0, 40, 3)), tuple(range(100, 300, 7))
    with open_engine(graph, DSRConfig(num_partitions=4, local_index="msbfs")) as engine:
        pairs = set(engine.run(ReachQuery(sources, targets)).pairs)
    return Oracle(graph), sources, targets, pairs


def test_oracle_accepts_the_engine_answer(answered):
    oracle, sources, targets, pairs = answered
    assert pairs, "the query should reach something"
    assert oracle.matches(sources, targets, pairs)
    assert oracle.expected(sources, targets) == pairs


def test_oracle_rejects_a_missing_pair(answered):
    oracle, sources, targets, pairs = answered
    corrupted = set(pairs)
    corrupted.pop()
    assert not oracle.matches(sources, targets, corrupted)
    assert oracle.expected(sources, targets) != corrupted


def test_oracle_rejects_an_extra_pair(answered):
    oracle, sources, targets, pairs = answered
    unreachable = next(
        (s, t) for s in sources for t in targets if (s, t) not in pairs
    )
    assert not oracle.matches(sources, targets, pairs | {unreachable})
    # A pair outside S x T is wrong even if it is reachable.
    outside = (sources[0], next(v for v in range(300) if v not in targets))
    assert not oracle.matches(sources, targets, pairs | {outside})


def test_oracle_rejects_a_duplicated_pair(answered):
    oracle, sources, targets, pairs = answered
    # As many pairs as the answer has, but one given twice and one missing.
    listed = sorted(pairs)
    assert not oracle.matches(sources, targets, listed[:-1] + listed[:1])
    assert not oracle.matches(sources, targets, listed + listed[:1])
    expected = frozenset(oracle.expected(sources, targets))
    assert same_pairs(listed, expected)
    assert not same_pairs(listed[:-1] + listed[:1], expected)
    assert not same_pairs(listed + listed[:1], expected)


# ---------------------------------------------------------------------- #
# BENCHMARK.json names exactly the metrics the benchmark reports
# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) <= 0.25
