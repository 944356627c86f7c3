"""Tests for DataSourceServer, CentralSource, updaters and transactions."""

import pytest

from repro.relational.delta import Delta
from repro.relational.incremental import PartialView
from repro.simulation.channel import Channel, Message
from repro.simulation.kernel import Simulator
from repro.simulation.latency import ConstantLatency
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector
from repro.simulation.trace import TraceLog
from repro.sources.central import CentralSource, evaluate_eca_term
from repro.sources.memory import MemoryBackend
from repro.sources.messages import (
    EcaQuery,
    EcaQueryTerm,
    MultiQueryRequest,
    PositionRequest,
    QueryRequest,
    next_request_id,
)
from repro.sources.server import DataSourceServer
from repro.sources.transactions import Transaction, TransactionOp
from repro.sources.updater import ScheduledUpdate, ScheduledUpdater

from tests.conftest import R1_SCHEMA, R2_SCHEMA


def wire_source(paper_view, paper_states, index=1, latency=1.0, service_time=0.0):
    sim = Simulator()
    wh_inbox = Mailbox(sim, "wh-inbox")
    metrics = MetricsCollector()
    name = paper_view.name_of(index)
    channel = Channel(sim, f"{name}->wh", wh_inbox, ConstantLatency(latency), metrics)
    backend = MemoryBackend(paper_view, index, paper_states[name])
    server = DataSourceServer(
        sim, name, index, backend, {"wh": channel},
        query_service_time=service_time, trace=TraceLog(),
    )
    return sim, wh_inbox, server, metrics


class TestDataSourceServer:
    def test_local_update_applies_and_forwards(self, paper_view, paper_states):
        sim, inbox, server, _ = wire_source(paper_view, paper_states)
        received = []

        def warehouse():
            msg = yield inbox.get()
            received.append(msg)

        sim.spawn("wh", warehouse())
        server.local_update(Delta.insert(R1_SCHEMA, (9, 9)))
        sim.run()

        assert server.snapshot().count((9, 9)) == 1
        (msg,) = received
        assert msg.kind == "update"
        notice = msg.payload
        assert notice.source_index == 1
        assert notice.seq == 1
        assert notice.delta.count((9, 9)) == 1

    def test_sequence_numbers_increment(self, paper_view, paper_states):
        sim, _, server, _ = wire_source(paper_view, paper_states)
        applied = []
        server.add_update_listener(applied.append)
        n1 = server.local_update(Delta.insert(R1_SCHEMA, (8, 8)))
        n2 = server.local_update(Delta.insert(R1_SCHEMA, (9, 9)))
        assert (n1.seq, n2.seq) == (1, 2)
        assert len(applied) == 2

    def test_update_listener_fires(self, paper_view, paper_states):
        sim, _, server, _ = wire_source(paper_view, paper_states)
        seen = []
        server.add_update_listener(seen.append)
        server.local_update(Delta.insert(R1_SCHEMA, (9, 9)))
        assert len(seen) == 1

    def test_notice_takes_ownership_of_delta(self, paper_view, paper_states):
        # local_update is zero-copy on the hot path: the committed delta is
        # referenced by the notice, not duplicated.  Ownership transfers to
        # the server; committing code must not touch the delta afterwards.
        sim, _, server, _ = wire_source(paper_view, paper_states)
        delta = Delta.insert(R1_SCHEMA, (9, 9))
        notice = server.local_update(delta)
        assert notice.delta is delta

    def test_backend_state_is_not_aliased_by_commit(
        self, paper_view, paper_states
    ):
        # The backend folds the delta's counts into its own storage; even a
        # caller violating ownership transfer cannot reach backend rows.
        sim, _, server, _ = wire_source(paper_view, paper_states)
        delta = Delta.insert(R1_SCHEMA, (9, 9))
        server.local_update(delta)
        delta.add((8, 8), 3)
        snap = server.snapshot()
        assert snap.count((9, 9)) == 1
        assert (8, 8) not in snap

    def test_query_answered(self, paper_view, paper_states):
        sim, inbox, server, _ = wire_source(paper_view, paper_states)
        answers = []

        def warehouse():
            msg = yield inbox.get()
            answers.append(msg)

        sim.spawn("wh", warehouse())
        partial = PartialView.initial(paper_view, 2, Delta.insert(R2_SCHEMA, (3, 5)))
        server.query_inboxes["wh"].put(
            Message(
                kind="query",
                sender="wh",
                payload=QueryRequest(next_request_id(), partial, 1),
            )
        )
        sim.run()
        (msg,) = answers
        assert msg.kind == "answer"
        assert msg.payload.partial.delta.total_count == 2

    def test_update_before_answer_arrives_first(self, paper_view, paper_states):
        """The FIFO linchpin: an update applied during query service must be
        delivered to the warehouse before the answer."""
        sim, inbox, server, _ = wire_source(
            paper_view, paper_states, service_time=5.0
        )
        order = []

        def warehouse():
            while True:
                msg = yield inbox.get()
                order.append(msg.kind)

        sim.spawn("wh", warehouse())
        partial = PartialView.initial(paper_view, 2, Delta.insert(R2_SCHEMA, (3, 5)))
        server.query_inboxes["wh"].put(
            Message(
                kind="query", sender="wh",
                payload=QueryRequest(next_request_id(), partial, 1),
            )
        )
        # update commits at t=2, mid-service (service ends t=5)
        sim.schedule(2.0, lambda: server.local_update(Delta.delete(R1_SCHEMA, (2, 3))))
        sim.run()
        assert order == ["update", "answer"]

    def test_answer_includes_concurrent_update_effect(self, paper_view, paper_states):
        """With service time, the join reflects updates applied mid-service."""
        sim, inbox, server, _ = wire_source(
            paper_view, paper_states, service_time=5.0
        )
        answers = []

        def warehouse():
            while True:
                msg = yield inbox.get()
                if msg.kind == "answer":
                    answers.append(msg.payload)

        sim.spawn("wh", warehouse())
        partial = PartialView.initial(paper_view, 2, Delta.insert(R2_SCHEMA, (3, 5)))
        server.query_inboxes["wh"].put(
            Message(
                kind="query", sender="wh",
                payload=QueryRequest(next_request_id(), partial, 1),
            )
        )
        sim.schedule(2.0, lambda: server.local_update(Delta.delete(R1_SCHEMA, (2, 3))))
        sim.run()
        (answer,) = answers
        # (2,3) was deleted before evaluation: only one derivation remains
        assert answer.partial.delta.count((1, 3, 3, 5)) == 1
        assert answer.partial.delta.count((2, 3, 3, 5)) == 0

    def test_queries_serviced_sequentially(self, paper_view, paper_states):
        sim, inbox, server, _ = wire_source(
            paper_view, paper_states, service_time=3.0
        )
        times = []

        def warehouse():
            while True:
                msg = yield inbox.get()
                times.append(msg.sent_at)

        sim.spawn("wh", warehouse())
        partial = PartialView.initial(paper_view, 2, Delta.insert(R2_SCHEMA, (3, 5)))
        for _ in range(2):
            server.query_inboxes["wh"].put(
                Message(
                    kind="query", sender="wh",
                    payload=QueryRequest(next_request_id(), partial, 1),
                )
            )
        sim.run()
        assert times == [3.0, 6.0]


@pytest.mark.parametrize("destinations", [("wh",), ("sh0", "sh1")])
@pytest.mark.parametrize(
    "request_of, joins",
    [
        (lambda partial: QueryRequest(next_request_id(), partial, 1), 1),
        (
            lambda partial: MultiQueryRequest(
                next_request_id(), [partial, partial, partial], 1
            ),
            3,
        ),
        (lambda partial: PositionRequest(next_request_id()), 0),
    ],
    ids=["query", "multi-query-of-3", "position"],
)
def test_service_time_is_charged_per_join(
    paper_view, paper_states, destinations, request_of, joins
):
    """A request waits ``query_service_time`` once per ComputeJoin it
    carries, whatever the number of destinations the server feeds."""
    sim = Simulator()
    backend = MemoryBackend(paper_view, 1, paper_states["R1"])
    inboxes = {key: Mailbox(sim, f"{key}-inbox") for key in destinations}
    server = DataSourceServer(
        sim,
        "R1",
        1,
        backend,
        {
            key: Channel(sim, f"R1->{key}", inbox, ConstantLatency(0.0))
            for key, inbox in inboxes.items()
        },
        query_service_time=2.5,
    )
    partial = PartialView.initial(paper_view, 2, Delta.insert(R2_SCHEMA, (3, 5)))
    for key in destinations:
        server.query_inboxes[key].put(
            Message(kind="query", sender=key, payload=request_of(partial))
        )
    sim.run()
    for inbox in inboxes.values():
        (answer,) = inbox.peek_all()
        assert answer.kind == "answer"
        assert answer.sent_at == 2.5 * joins


class TestCentralSource:
    def wire(self, paper_view, paper_states):
        sim = Simulator()
        inbox = Mailbox(sim, "wh-inbox")
        channel = Channel(sim, "central->wh", inbox, ConstantLatency(1.0))
        central = CentralSource(sim, paper_view, channel, initial=paper_states)
        return sim, inbox, central

    def test_update_and_snapshot(self, paper_view, paper_states):
        sim, _, central = self.wire(paper_view, paper_states)
        central.local_update(2, Delta.insert(R2_SCHEMA, (3, 5)))
        assert central.snapshot(2).count((3, 5)) == 1
        assert central.snapshot_all()["R1"] == paper_states["R1"]

    def test_per_relation_sequences(self, paper_view, paper_states):
        sim, _, central = self.wire(paper_view, paper_states)
        a = central.local_update(2, Delta.insert(R2_SCHEMA, (3, 5)))
        b = central.local_update(2, Delta.delete(R2_SCHEMA, (3, 5)))
        c = central.local_update(1, Delta.delete(R1_SCHEMA, (2, 3)))
        assert (a.seq, b.seq, c.seq) == (1, 2, 1)

    def test_evaluate_eca_term_full_view(self, paper_view, paper_states):
        term = EcaQueryTerm(substitutions={})
        wide = evaluate_eca_term(paper_view, paper_states, term)
        assert wide.total_count == 2  # the two derivations of (7,8)

    def test_evaluate_eca_term_with_substitution(self, paper_view, paper_states):
        term = EcaQueryTerm(
            substitutions={2: Delta.insert(R2_SCHEMA, (3, 5))}
        )
        wide = evaluate_eca_term(paper_view, paper_states, term)
        assert wide.count((1, 3, 3, 5, 5, 6)) == 1
        assert wide.count((2, 3, 3, 5, 5, 6)) == 1

    def test_evaluate_eca_term_negative_sign(self, paper_view, paper_states):
        term = EcaQueryTerm(
            substitutions={2: Delta.insert(R2_SCHEMA, (3, 5))}, sign=-1
        )
        wide = evaluate_eca_term(paper_view, paper_states, term)
        assert wide.count((1, 3, 3, 5, 5, 6)) == -1

    def test_evaluate_eca_term_bad_sign(self, paper_view, paper_states):
        with pytest.raises(ValueError):
            evaluate_eca_term(paper_view, paper_states, EcaQueryTerm({}, sign=2))

    def test_query_evaluation(self, paper_view, paper_states):
        sim, inbox, central = self.wire(paper_view, paper_states)
        answers = []

        def warehouse():
            while True:
                msg = yield inbox.get()
                if msg.kind == "answer":
                    answers.append(msg.payload)

        sim.spawn("wh", warehouse())
        query = EcaQuery(
            request_id=next_request_id(),
            terms=[
                EcaQueryTerm({2: Delta.insert(R2_SCHEMA, (3, 5))}, sign=1),
                EcaQueryTerm({2: Delta.insert(R2_SCHEMA, (3, 5))}, sign=-1),
            ],
        )
        central.query_inbox.put(Message(kind="query", sender="wh", payload=query))
        sim.run()
        (answer,) = answers
        assert len(answer.delta) == 0  # the terms cancel


class TestScheduledUpdater:
    def test_schedule_replayed_in_time_order(self, paper_view, paper_states):
        sim, _, server, _ = wire_source(paper_view, paper_states)
        notices = []
        server.add_update_listener(notices.append)
        updater = ScheduledUpdater(
            sim,
            "R1",
            server.local_update,
            [
                ScheduledUpdate(5.0, Delta.insert(R1_SCHEMA, (9, 9))),
                ScheduledUpdate(2.0, Delta.insert(R1_SCHEMA, (8, 8))),
            ],
        )
        sim.run()
        assert updater.done
        applied = [(n.applied_at, n.delta) for n in notices]
        assert applied[0][0] == 2.0
        assert applied[1][0] == 5.0

    def test_empty_schedule(self, paper_view, paper_states):
        sim, _, server, _ = wire_source(paper_view, paper_states)
        updater = ScheduledUpdater(sim, "R1", server.local_update, [])
        sim.run()
        assert updater.done


class TestTransactions:
    def test_ops_validate_kind(self):
        with pytest.raises(ValueError):
            TransactionOp("upsert", (1, 2))

    def test_as_delta_nets_out(self):
        txn = Transaction().insert((1, 2)).insert((3, 4)).delete((1, 2))
        delta = txn.as_delta(R1_SCHEMA)
        assert delta.count((3, 4)) == 1
        assert (1, 2) not in delta

    def test_modify(self):
        txn = Transaction().modify((1, 2), (1, 3))
        delta = txn.as_delta(R1_SCHEMA)
        assert delta.count((1, 2)) == -1
        assert delta.count((1, 3)) == 1
        assert len(txn) == 2

    def test_transaction_applied_atomically(self, paper_view, paper_states):
        sim, inbox, server, _ = wire_source(paper_view, paper_states)
        txn = Transaction().delete((1, 3)).insert((1, 4))
        notice = server.local_update(txn.as_delta(R1_SCHEMA))
        assert notice.delta.distinct_count == 2
        snap = server.snapshot()
        assert (1, 3) not in snap and snap.count((1, 4)) == 1
