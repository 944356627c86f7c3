"""Online initial load: building the view while updates already stream.

The paper side-steps initialization: *"We assume that the view V is
initialized to the correct value"* (Section 5.1).  A real warehouse has to
*bootstrap* -- and doing it naively (snapshot every source, join) is wrong
for exactly the reason incremental queries are wrong: the snapshots are
taken at different times while updates race.

SWEEP's own machinery solves this.  Treat source 1's full snapshot as the
"update delta" of a sweep: request the snapshot, seed the partial view
change with it, and sweep right across sources ``2..n`` with the standard
on-line error correction.  Bookkeeping mirrors ViewChange:

* source-1 updates delivered *before* the snapshot answer are already
  inside the snapshot (FIFO!) -- they are absorbed (removed from the
  update queue and counted into the installed state's vector);
* updates from later sources queued when their answer arrives are
  compensated out, so the installed view reflects those sources' states
  *before* the queued updates -- which are then replayed normally, each
  producing its own consistent install.

The result: the first installed state is exactly ``V`` at a well-defined
source state vector, and every subsequent install is maintained by plain
SWEEP -- no quiescence, no cold-start downtime.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.relational.delta import Delta
from repro.sources.messages import SnapshotRequest, next_request_id
from repro.warehouse.errors import ProtocolError
from repro.warehouse.sweep import SweepWarehouse


class BootstrapSweepWarehouse(SweepWarehouse):
    """SWEEP that starts from an **empty** view and loads itself online.

    Any ``initial_view`` passed in is ignored -- the point is to build it.
    """

    algorithm_name = "bootstrap-sweep"

    def __init__(self, *args, **kwargs):
        kwargs["initial_view"] = None
        super().__init__(*args, **kwargs)
        self.bootstrapped = False

    # ------------------------------------------------------------------
    def _update_view(self) -> Generator:
        yield from self._bootstrap()
        # continue with the normal SWEEP loop
        yield from super()._update_view()

    def _bootstrap(self) -> Generator:
        """The initial-load sweep."""
        request = SnapshotRequest(request_id=next_request_id())
        self.send_query(1, request)
        msg, pending = yield self._answer_box.get()
        self._pending_at_answer = pending
        answer = msg.payload
        if answer.request_id != request.request_id:
            raise ProtocolError(
                f"snapshot answer {answer.request_id} does not match"
                f" request {request.request_id}"
            )

        # Source-1 updates delivered before the snapshot are inside it:
        # absorb them so they are not replayed later.
        absorbed = [n for n in pending if n.source_index == 1]
        for queued in list(self.update_queue.peek_all()):
            if queued.payload in absorbed:
                self.update_queue.remove(queued)
        self.metrics.increment("bootstrap_absorbed", len(absorbed))

        # Sweep straight from the snapshot, as source 1's insertion delta.
        (partial,) = yield from self._sweep(
            1, Delta.from_relation(answer.relation), [self.view]
        )

        self.mark_applied(absorbed)
        self.install_wide(
            partial.delta,
            note=f"bootstrap load ({len(absorbed)} update(s) absorbed)",
        )
        self.bootstrapped = True
        if self.trace:
            self.trace.record(
                self.sim.now, "warehouse", "bootstrap-done",
                f"{self.store.relation.distinct_count} view rows",
            )


__all__ = ["BootstrapSweepWarehouse"]
