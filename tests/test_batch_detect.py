"""Deadlock detection over batches of wait-for snapshots.

There is one cycle search, :func:`~repro.ptest.waitgraph.find_cycle_edges`,
and a batch of edge sets — the ``wait_deltas`` a run records when
``record_wait_deltas`` is on — is checked by running it on each set in
turn.  These tests sweep that search over seeded random digraphs and
the degenerate shapes (empty sets, self-loops, disjoint multi-cycles)
against the networkx reference of :mod:`repro.automata.reference`,
pin its order-independence and the detector's cycle → tids reduction,
then cover the recording path end to end: snapshots taken during a
real deadlocking run, the snapshot-order contract, and a reported
deadlock checked against the snapshots that support it.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.automata.reference import networkx_cycle_tids
from repro.ptest.detector import AnomalyKind
from repro.ptest.waitgraph import IncrementalWaitForGraph, find_cycle_edges
from repro.workloads.scenarios import philosophers_case2


def random_edge_sets(seed: int, count: int) -> list[list[tuple[int, int]]]:
    """``count`` small random digraphs, cyclic and acyclic mixed."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        nodes = rng.randrange(0, 9)
        edges = [
            (rng.randrange(nodes), rng.randrange(nodes))
            for _ in range(rng.randrange(0, 2 * nodes + 1))
        ] if nodes else []
        sets.append(edges)
    return sets


def cycle_tids(edges) -> tuple[int, ...] | None:
    """The detector's reduction: sorted waiter tids of the first cycle."""
    cycle = find_cycle_edges(edges)
    if cycle is None:
        return None
    return tuple(sorted({waiter for waiter, _owner in cycle}))


def reference_has_cycle(edges) -> bool:
    rows = [(waiter, owner, "r") for waiter, owner in edges]
    return networkx_cycle_tids(rows) is not None


def assert_is_cycle_of(cycle, edges) -> None:
    """``cycle`` is a closed walk made only of edges from ``edges``."""
    assert cycle
    assert set(cycle) <= set(edges)
    for (_, owner), (waiter, _) in zip(cycle, cycle[1:] + cycle[:1]):
        assert owner == waiter


def supporting_snapshots(tids, wait_deltas) -> list[int]:
    """Ticks of the recorded snapshots whose cycle is exactly ``tids``."""
    return [
        tick for tick, edges in wait_deltas if cycle_tids(edges) == tids
    ]


class TestFindCyclesBatch:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2026])
    def test_matches_scalar_on_random_digraphs(self, seed):
        sets = random_edge_sets(seed, 120)
        found = [find_cycle_edges(edges) for edges in sets]
        for edges, cycle in zip(sets, found):
            assert (cycle is not None) == reference_has_cycle(edges)
            if cycle is not None:
                assert_is_cycle_of(cycle, edges)
        # The sweep must meet both verdicts to mean much.
        assert any(cycle is not None for cycle in found)
        assert any(cycle is None for cycle in found)

    def test_degenerate_shapes(self):
        sets = [
            [],  # no edges at all
            [(3, 3)],  # self-loop: a one-edge cycle
            [(0, 1), (1, 2)],  # plain chain
            [(0, 1), (1, 0), (5, 6), (6, 5)],  # two disjoint cycles
            [(2, 1), (1, 2), (0, 1)],  # tail feeding a cycle
            [(-4, -3), (-3, -4)],  # negative node ids
        ]
        found = [find_cycle_edges(edges) for edges in sets]
        assert found == [
            None,
            [(3, 3)],
            None,
            [(0, 1), (1, 0)],  # lowest root first
            [(1, 2), (2, 1)],
            [(-4, -3), (-3, -4)],
        ]
        for edges, cycle in zip(sets, found):
            assert (cycle is not None) == reference_has_cycle(edges)

    def test_empty_batch_and_all_empty_sets(self):
        assert [find_cycle_edges(edges) for edges in []] == []
        assert [find_cycle_edges(edges) for edges in ([], [], [])] == [
            None,
            None,
            None,
        ]
        assert find_cycle_edges(iter(())) is None

    def test_scalar_fallback_is_identical(self):
        """The search is a function of the edge *set*: any input order
        yields the same cycle, so a snapshot recorded in another order
        replays to the detector's verdict."""
        rng = random.Random(42)
        for edges in random_edge_sets(42, 60):
            shuffled = list(edges)
            rng.shuffle(shuffled)
            assert find_cycle_edges(shuffled) == find_cycle_edges(edges)

    def test_cycle_tids_reduction(self):
        sets = [
            [(0, 1), (1, 2)],
            [(7, 3), (3, 7), (1, 7)],
            [(5, 5)],
        ]
        assert [cycle_tids(edges) for edges in sets] == [None, (3, 7), (5,)]
        for edges in sets:
            rows = [(waiter, owner, "r") for waiter, owner in edges]
            assert cycle_tids(edges) == networkx_cycle_tids(rows)


class TestSnapshotContract:
    def test_snapshot_feeds_the_scalar_search_in_order(self):
        graph = IncrementalWaitForGraph()
        # Two resources holding a cycle plus a tail; the snapshot must
        # replay through find_cycle_edges to the cached cycle exactly.
        graph._edges_by_resource = {
            "m1": ((1, 2),),
            "m0": ((2, 1), (3, 1)),
        }
        graph._dirty = True
        snapshot = graph.snapshot()
        assert snapshot == ((1, 2), (2, 1), (3, 1))
        assert find_cycle_edges(snapshot) == graph.find_cycle()
        assert graph.searches == 1


class TestAuditDeadlocks:
    """A reported deadlock checked against recorded snapshots."""

    def test_confirmed_when_a_snapshot_supports_the_report(self):
        wait_deltas = (
            (10, ((1, 2),)),
            (20, ((1, 2), (2, 1))),
        )
        # Only the snapshot that closes the cycle supports the report.
        assert supporting_snapshots((1, 2), wait_deltas) == [20]

    def test_unsupported_report_is_an_inconsistency(self):
        wait_deltas = ((10, ((1, 2), (2, 1))),)
        # The search names the tasks really in the cycle, never a
        # report the snapshots do not hold.
        assert supporting_snapshots((5, 6), wait_deltas) == []
        assert supporting_snapshots((1, 2), wait_deltas) == [10]

    def test_scalar_fallback_audit_is_identical(self):
        snapshots = [
            ((1, 2), (2, 1)),
            ((0, 1), (1, 2)),
            ((4, 4),),
            (),
        ]
        for edges in snapshots:
            rows = [(waiter, owner, "r") for waiter, owner in edges]
            assert cycle_tids(edges) == networkx_cycle_tids(rows)


class TestEndToEndRecording:
    @pytest.fixture(scope="class")
    def deadlocked_run(self):
        test = philosophers_case2(seed=0, op="cyclic")
        test.config = replace(test.config, record_wait_deltas=True)
        return test.run()

    def test_deltas_recorded_only_when_asked(self, deadlocked_run):
        assert deadlocked_run.found_bug
        assert deadlocked_run.wait_deltas
        for tick, edges in deadlocked_run.wait_deltas:
            assert isinstance(tick, int)
            assert all(len(edge) == 2 for edge in edges)
        # Off by default: the same scenario records nothing.
        plain = philosophers_case2(seed=0, op="cyclic").run()
        assert plain.found_bug
        assert plain.wait_deltas == ()

    def test_recording_does_not_perturb_the_run(self, deadlocked_run):
        plain = philosophers_case2(seed=0, op="cyclic").run()
        assert plain.ticks == deadlocked_run.ticks
        assert plain.patterns == deadlocked_run.patterns
        assert [a.kind for a in plain.anomalies] == [
            a.kind for a in deadlocked_run.anomalies
        ]

    def test_audit_confirms_the_reported_deadlock(self, deadlocked_run):
        reported = [
            anomaly.tids
            for anomaly in deadlocked_run.anomalies
            if anomaly.kind is AnomalyKind.DEADLOCK
        ]
        assert len(reported) == 1
        support = supporting_snapshots(
            reported[0], deadlocked_run.wait_deltas
        )
        assert support
        # The report comes after the snapshot that first holds its cycle.
        detected_at = next(
            anomaly.detected_at
            for anomaly in deadlocked_run.anomalies
            if anomaly.kind is AnomalyKind.DEADLOCK
        )
        assert support[0] <= detected_at

    def test_sweep_batch_replays_the_recorded_deltas(self, deadlocked_run):
        snapshots = [edges for _tick, edges in deadlocked_run.wait_deltas]
        tids = [cycle_tids(edges) for edges in snapshots]
        for edges, cycle in zip(snapshots, tids):
            rows = [(waiter, owner, "r") for waiter, owner in edges]
            assert (cycle is not None) == (
                networkx_cycle_tids(rows) is not None
            )
        reported = {
            anomaly.tids
            for anomaly in deadlocked_run.anomalies
            if anomaly.kind is AnomalyKind.DEADLOCK
        }
        found = {cycle for cycle in tids if cycle is not None}
        assert reported and reported <= found
