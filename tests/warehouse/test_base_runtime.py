"""Edge-case tests for the warehouse runtime plumbing (base.py)."""

import pytest

from repro.relational.delta import Delta
from repro.simulation.channel import Channel, Message
from repro.simulation.kernel import Simulator
from repro.simulation.latency import ConstantLatency
from repro.simulation.mailbox import Mailbox
from repro.sources.memory import MemoryBackend
from repro.sources.messages import QueryAnswer, UpdateNotice, next_request_id
from repro.sources.server import DataSourceServer
from repro.warehouse.errors import ProtocolError
from repro.warehouse.sweep import SweepWarehouse

from tests.conftest import R1_SCHEMA, R2_SCHEMA


def wire(paper_view, paper_states):
    """Manual wiring of a 3-source SWEEP warehouse (no harness)."""
    sim = Simulator()
    inbox = Mailbox(sim, "wh-inbox")
    query_channels = {}
    servers = {}
    for index in range(1, 4):
        name = paper_view.name_of(index)
        backend = MemoryBackend(paper_view, index, paper_states[name])
        to_wh = Channel(sim, f"{name}->wh", inbox, ConstantLatency(1.0))
        server = DataSourceServer(sim, name, index, backend, {"wh": to_wh})
        query_channels[index] = Channel(
            sim, f"wh->{name}", server.query_inboxes["wh"], ConstantLatency(1.0)
        )
        servers[index] = server
    warehouse = SweepWarehouse(
        sim,
        paper_view,
        query_channels,
        initial_view=paper_view.evaluate(paper_states),
        inbox=inbox,
    )
    return sim, warehouse, servers


class TestManualWiring:
    def test_end_to_end_without_harness(self, paper_view, paper_states):
        sim, warehouse, servers = wire(paper_view, paper_states)
        servers[2].local_update(Delta.insert(R2_SCHEMA, (3, 5)))
        sim.run()
        assert warehouse.current_view().count((5, 6)) == 2
        assert warehouse.store.installs == 1

    def test_applied_counts_track_installs(self, paper_view, paper_states):
        sim, warehouse, servers = wire(paper_view, paper_states)
        servers[2].local_update(Delta.insert(R2_SCHEMA, (3, 5)))
        servers[1].local_update(Delta.delete(R1_SCHEMA, (2, 3)))
        sim.run()
        assert warehouse.applied_counts == {2: 1, 1: 1}

    def test_default_inbox_created_when_not_given(self, paper_view):
        sim = Simulator()
        warehouse = SweepWarehouse(sim, paper_view, query_channels={})
        assert warehouse.inbox.name == "warehouse-inbox"

    def test_unexpected_answer_id_raises(self, paper_view, paper_states):
        sim, warehouse, servers = wire(paper_view, paper_states)
        # an answer nobody asked for, racing a real update's sweep
        stray = QueryAnswer(
            request_id=next_request_id(),
            partial=None,
        )
        servers[2].local_update(Delta.insert(R2_SCHEMA, (3, 5)))
        sim.schedule(1.5, lambda: warehouse.inbox.put(
            Message(kind="answer", sender="evil", payload=stray)
        ))
        with pytest.raises(ProtocolError):
            sim.run()

    def test_note_delivery_without_recorder_stamps_seq(self, paper_view):
        sim = Simulator()
        warehouse = SweepWarehouse(sim, paper_view, query_channels={})
        notice = UpdateNotice(1, 1, Delta(R1_SCHEMA))
        warehouse.note_delivery(notice)
        assert notice.delivery_seq == 1
        assert warehouse.updates_delivered == 1

    def test_install_without_recorder(self, paper_view, paper_states):
        sim = Simulator()
        warehouse = SweepWarehouse(
            sim, paper_view, query_channels={},
            initial_view=paper_view.evaluate(paper_states),
        )
        wide = Delta(paper_view.wide_schema, {(1, 3, 3, 5, 5, 6): 1})
        warehouse.install_wide(wide, note="manual")
        assert warehouse.current_view().count((5, 6)) == 1
        assert warehouse.metrics.counters["installs"] == 1

    def test_repr(self, paper_view):
        sim = Simulator()
        warehouse = SweepWarehouse(sim, paper_view, query_channels={})
        assert "SweepWarehouse" in repr(warehouse)


class TestPendingSnapshotSemantics:
    def test_pending_updates_empty_before_any_answer(self, paper_view):
        sim = Simulator()
        warehouse = SweepWarehouse(sim, paper_view, query_channels={})
        assert warehouse.pending_updates_from(1) == []

    def test_merged_pending_delta(self, paper_view):
        sim = Simulator()
        warehouse = SweepWarehouse(sim, paper_view, query_channels={})
        notices = [
            UpdateNotice(1, 1, Delta.insert(R1_SCHEMA, (9, 9))),
            UpdateNotice(1, 2, Delta.delete(R1_SCHEMA, (9, 9))),
        ]
        merged = warehouse.merged_pending_delta(notices)
        assert len(merged) == 0  # nets out
