"""Regression: warehouse-internal backlogs must block quiescence.

The distributed driver's quiescence poll can only see inboxes and
transport channels; anything an algorithm parks in its own mailboxes
(the UpdateMessageQueue, buffered answers mid-sweep) is invisible from
outside.  A saturated run used to be declared finished while such a
backlog still existed, truncating the tail of the update stream.  The
fix is :meth:`WarehouseBase.pending_work`, consulted by both quiescence
checks -- these tests pin the visibility rule and replay the original
saturated-arrival scenario end to end.
"""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.runtime import run_distributed
from repro.runtime.distributed import _System
from repro.runtime.nodes import WarehouseSite
from repro.simulation.channel import Message
from repro.simulation.kernel import Simulator
from repro.simulation.mailbox import Mailbox
from repro.sources.memory import MemoryBackend
from repro.warehouse.base import WarehouseBase
from repro.warehouse.sweep import SweepWarehouse


# ---------------------------------------------------------------------------
# Unit: what counts as pending work
# ---------------------------------------------------------------------------

def make_warehouse(paper_view, paper_states):
    sim = Simulator()
    inbox = Mailbox(sim, "wh-inbox")
    return SweepWarehouse(
        sim,
        paper_view,
        query_channels={},
        initial_view=paper_view.evaluate(paper_states),
        inbox=inbox,
    )


class TestPendingWorkVisibility:
    def test_idle_warehouse_reports_none(self, paper_view, paper_states):
        warehouse = make_warehouse(paper_view, paper_states)
        assert not warehouse.pending_work()

    def test_queued_update_is_pending_work(self, paper_view, paper_states):
        warehouse = make_warehouse(paper_view, paper_states)
        warehouse.update_queue.put(Message("update", "R1", object()))
        assert warehouse.pending_work()

    def test_buffered_answer_is_pending_work(self, paper_view, paper_states):
        warehouse = make_warehouse(paper_view, paper_states)
        warehouse._answer_box.put((Message("answer", "R1", object()), ()))
        assert warehouse.pending_work()

    def test_base_warehouse_defaults_to_no_internal_state(
        self, paper_view, paper_states
    ):
        sim = Simulator()
        # construction must not require an internal queue
        MemoryBackend(paper_view, 1, paper_states["R1"])

        class Minimal(WarehouseBase):
            pass

        warehouse = Minimal(
            sim,
            paper_view,
            query_channels={},
            initial_view=paper_view.evaluate(paper_states),
            inbox=Mailbox(sim, "wh-inbox"),
        )
        assert not warehouse.pending_work()


def test_driver_quiescence_consults_pending_work():
    """The distributed driver must refuse quiescence on internal backlog
    even when every channel and mailbox it *can* see is drained."""

    class StubWarehouse:
        def __init__(self):
            self.pending = True

        def pending_work(self):
            return self.pending

    site = WarehouseSite(Simulator(), "warehouse", [], durable_dir=None)
    site.warehouse = StubWarehouse()
    system = _System(site, sources=[], updaters=[])
    assert not system.quiescent()
    site.warehouse.pending = False
    assert system.quiescent()


# ---------------------------------------------------------------------------
# End to end: the original race -- saturated arrivals, batching scheduler
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["sweep", "batched-sweep"])
@pytest.mark.parametrize("seed", [0, 1])
def test_saturated_run_installs_every_update(algorithm, seed):
    """Arrivals far faster than a sweep's round trip keep the internal
    queue non-empty almost continuously; before pending_work() the driver
    could declare this run finished mid-backlog."""
    config = ExperimentConfig(
        algorithm=algorithm,
        n_sources=3,
        n_updates=16,
        seed=seed,
        mean_interarrival=0.5,  # saturated: >> sweep round-trip rate
        check_consistency=True,
    )
    result = run_distributed(
        config, transport="local", time_scale=0.001, timeout=120.0
    )
    assert result.updates_delivered == 16
    # every delivered update made it into an install: nothing truncated
    final_vector = result.recorder.snapshots.snapshots[-1].claimed_vector
    assert sum(final_vector.values()) == 16
    verdict = result.recorder.check_batched()
    assert verdict.ok, verdict.detail
    claimed = result.info.claimed_consistency
    assert result.classified_level >= min(claimed, ConsistencyLevel.STRONG)
