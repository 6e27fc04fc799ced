"""Self-healing fleet: probe → breaker → ejection → failover → re-admission.

Pins the acceptance criterion: an ejected replica receives **zero** routed
queries while its breaker is open, and a recovered probe re-admits it
automatically.  All backoff windows run on an injected fake clock.
"""

import os
import random

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.graph import generators
from repro.obs import use_registry
from repro.resilience import (
    BREAKER_OPEN,
    BackoffPolicy,
    FailPointSpec,
    HealthSupervisor,
    use_failpoints,
)
from repro.service.server import DSRService

FAST = BackoffPolicy(base_seconds=1.0, multiplier=2.0, cap_seconds=60.0, jitter=0.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _queries(graph, count=20, seed=11):
    rng = random.Random(seed)
    verts = sorted(graph.vertices())
    for _ in range(count):
        yield ReachQuery(
            tuple(rng.sample(verts, rng.choice([1, 4, 8]))),
            tuple(rng.sample(verts, rng.choice([1, 4, 8]))),
        )


@pytest.fixture
def graph():
    return generators.social_graph(120, avg_degree=3, seed=4)


# Default serial, but honour REPRO_TEST_EXECUTORS (first entry) so the CI
# chaos job runs ejection/re-admission against replicas owning real process
# pools.
FLEET_EXECUTOR = (
    os.environ.get("REPRO_TEST_EXECUTORS", "serial").split(",")[0].strip()
)


@pytest.fixture
def fleet(graph):
    fleet = open_engine(
        graph,
        DSRConfig(
            num_partitions=2, replicas=2, seed=2, executor=FLEET_EXECUTOR
        ),
    )
    yield fleet
    fleet.close()


class TestEjectionAndReadmission:
    def _supervise(self, fleet, clock, failure_threshold=2):
        supervisor = HealthSupervisor(
            probe_interval_seconds=60.0,
            failure_threshold=failure_threshold,
            backoff=FAST,
            clock=clock,
        )
        fleet.enable_health(supervisor=supervisor, start=False)
        return supervisor

    def test_failed_replica_is_ejected_and_gets_zero_routes(self, graph, fleet):
        clock = FakeClock()
        supervisor = self._supervise(fleet, clock)
        assert supervisor.target_names() == ["replica:0", "replica:1"]
        with use_registry() as registry:
            # Sabotage replica 1: its probe reports the failed rebuild.
            fleet.replicas[1].rebuild_error = RuntimeError("wedged rebuild")
            supervisor.probe_now()
            supervisor.probe_now()
            assert fleet.router.ejected_ids() == (1,)
            assert (
                registry.counter_value("dsr_replica_ejections_total", replica="1")
                == 1
            )
        # THE acceptance pin: while open, replica 1 receives zero routed
        # queries — every decision lands on the healthy replica.
        before = fleet.router.route_counts()[1]
        for query in _queries(graph):
            assert fleet.route(query).replica.replica_id == 0
        assert fleet.router.route_counts()[1] == before
        assert fleet.stats()["ejected"] == [1]

        # Recovery: clear the fault, let the backoff window elapse, probe.
        fleet.replicas[1].rebuild_error = None
        clock.advance(FAST.delay(1))
        assert supervisor.probe_now()["replica:1"] is True
        assert fleet.router.ejected_ids() == ()
        routed = {fleet.route(q).replica.replica_id for q in _queries(graph)}
        assert 1 in routed  # re-admitted replica serves traffic again

    def test_ejected_replica_keeps_answering_correctly_elsewhere(self, graph, fleet):
        clock = FakeClock()
        supervisor = self._supervise(fleet, clock, failure_threshold=1)
        verts = sorted(graph.vertices())
        query = ReachQuery(tuple(verts[:5]), tuple(verts[-5:]))
        expected = set(fleet.replicas[0].engine.run(query).pairs)
        fleet.replicas[1].rebuild_error = RuntimeError("boom")
        supervisor.probe_now()
        decision = fleet.route(query)
        assert decision.replica.replica_id == 0
        assert set(decision.replica.engine.run(query).pairs) == expected

    def test_all_ejected_falls_back_to_serving(self, graph, fleet):
        # Availability over purity: with every replica ejected the router
        # still answers (on a suspect replica) instead of failing closed.
        fleet.router.eject(0)
        fleet.router.eject(1)
        verts = sorted(graph.vertices())
        decision = fleet.route(ReachQuery((verts[0],), (verts[-1],)))
        assert decision.replica is not None

    def test_pinned_table_entry_bypassed_while_ejected(self, graph, fleet):
        verts = sorted(graph.vertices())
        query = ReachQuery(tuple(verts[:4]), tuple(verts[-4:]))
        fingerprint_decision = fleet.route(query, record=False)
        # Pin the query's class to replica 1, then eject replica 1: the
        # pin must be bypassed, failing over to the healthy replica.
        fleet.router.install_table({fingerprint_decision.fingerprint: 1})
        assert fleet.route(query, record=False).replica.replica_id == 1
        fleet.router.eject(1)
        failover = fleet.route(query, record=False)
        assert failover.replica.replica_id == 0
        assert failover.table_hit is False
        fleet.router.readmit(1)
        assert fleet.route(query, record=False).replica.replica_id == 1

    def test_rebuild_failpoint_marks_replica_unhealthy(self, fleet):
        clock = FakeClock()
        supervisor = self._supervise(fleet, clock, failure_threshold=1)
        replica = fleet.replicas[0]
        with use_failpoints(
            [FailPointSpec("fleet.rebuild", value="RuntimeError")]
        ) as registry:
            other = "closure" if replica.strategy != "closure" else "msbfs"
            assert replica.rebuild_to(other, background=False)
            assert registry.fired("fleet.rebuild") == 1
        assert replica.rebuild_error is not None
        assert replica.probe() is False
        supervisor.probe_now()
        assert supervisor.breaker("replica:0").state == BREAKER_OPEN
        assert fleet.router.ejected_ids() == (0,)
        # A later clean rebuild clears the error and the probe recovers.
        assert replica.rebuild_to(other, background=False)
        assert replica.probe() is True


class TestServiceIntegration:
    def test_service_supervises_fleet_replicas(self, fleet):
        # A long interval keeps the background loop quiet: the test drives
        # probes synchronously, the service only owns the lifecycle.
        service = DSRService(
            fleet, num_workers=1, health_probe_interval_seconds=300.0
        )
        # Socket executors also expose the primary's worker hosts (ping).
        expected = ["replica:0", "replica:1"]
        if FLEET_EXECUTOR in ("processes", "tcp"):
            expected += ["worker:0", "worker:1"]
        try:
            assert service.health is not None
            assert service.health.target_names() == expected
            assert service.health.running
            health = service.stats()["health"]
            assert set(health["targets"]) == set(expected)
            assert all(
                row["state"] == "closed" for row in health["targets"].values()
            )
        finally:
            service.close()
        assert not service.health.running

    def test_service_supervises_tcp_worker_hosts(self, graph):
        from repro.core.engine import DSREngine

        engine = DSREngine.from_config(
            graph.copy(),
            DSRConfig(num_partitions=2, local_index="msbfs", seed=2, executor="tcp"),
        )
        engine.build_index()
        service = DSRService(
            engine, num_workers=1, health_probe_interval_seconds=300.0
        )
        try:
            assert service.health is not None
            assert service.health.target_names() == ["worker:0", "worker:1"]
            # ping() round-trips through the live hosts.
            assert service.health.probe_now() == {
                "worker:0": True,
                "worker:1": True,
            }
        finally:
            service.close()
            engine.close()

    def test_health_disabled_by_default(self, fleet):
        service = DSRService(fleet, num_workers=1)
        try:
            assert service.health is None
            assert "health" not in service.stats()
        finally:
            service.close()
