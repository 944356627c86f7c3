"""Full recomputation per update: the expensive end of the spectrum.

Section 3 dismisses recomputing the view for every update as unrealistic;
this baseline makes the cost measurable.  For each dequeued update the
warehouse requests a *full snapshot* from every source, recomputes the view
from scratch and installs the difference.  Message count is O(n) per
update, but payloads carry entire base relations -- the `rows` metric of
the message accounting shows the gap from SWEEP's delta-sized traffic.

Consistency: each snapshot reflects that source's state at its own
evaluation time, so every install corresponds to a valid, monotonically
advancing state vector (strong consistency), though not to the delivery
prefix SWEEP materializes.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.relational.delta import Delta
from repro.relational.relation import Relation
from repro.sources.messages import SnapshotRequest, UpdateNotice, next_request_id
from repro.warehouse.base import QueueDrivenWarehouse
from repro.warehouse.errors import ProtocolError


class RecomputeWarehouse(QueueDrivenWarehouse):
    """Recompute the whole view from source snapshots on every update."""

    algorithm_name = "recompute"

    def view_change(self, notice: UpdateNotice) -> Generator:
        raise NotImplementedError("recompute overrides process_update")

    def process_update(self, notice: UpdateNotice) -> Generator:
        states: dict[str, Relation] = {}
        for j in range(1, self.view.n_relations + 1):
            request = SnapshotRequest(request_id=next_request_id())
            self.send_query(j, request)
            msg, _pending = yield self._answer_box.get()
            answer = msg.payload
            if answer.request_id != request.request_id:
                raise ProtocolError(
                    f"snapshot answer {answer.request_id} does not match"
                    f" request {request.request_id}"
                )
            states[self.view.name_of(answer.source_index)] = answer.relation

        fresh = self.view.evaluate(states)
        delta = Delta(self.store.relation.schema)
        for row, count in fresh.items():
            delta.add(row, count)
        for row, count in self.store.relation.items():
            delta.add(row, -count)

        self.mark_applied([notice])
        self.install_view_delta(
            delta,
            note=f"recompute after src={notice.source_index} seq={notice.seq}",
        )


__all__ = ["RecomputeWarehouse"]
