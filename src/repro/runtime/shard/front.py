"""The source-side router: one backend, one FIFO channel pair per member."""

from __future__ import annotations

from repro.relational.view import ViewDefinition
from repro.simulation.channel import Message
from repro.simulation.mailbox import Mailbox
from repro.simulation.process import Delay
from repro.simulation.trace import TraceLog
from repro.sources.messages import (
    MultiQueryRequest,
    PositionRequest,
    UpdateNotice,
)
from repro.sources.server import build_answer
from repro.warehouse.sharding import ShardMember


class ShardedSourceFront:
    """One data source serving several warehouse shards.

    Owns the single authoritative backend.  ``local_update`` applies the
    delta exactly once and fans a fresh copy of the notice to every
    shard's update channel (per-shard delivery stamping must not be
    shared).  Each shard gets its own query inbox and its own ProcessQuery
    loop, so sweep steps of different shards are serviced concurrently;
    within one shard, updates and answers share that shard's FIFO channel
    -- the linchpin of SWEEP's local compensation, preserved per shard.

    ``query_service_time`` models the per-join evaluation cost: a
    MultiQueryRequest carrying ``k`` partial view changes takes
    ``k * query_service_time`` virtual units.  A shard sends one partial
    per *sweep class* (see :mod:`repro.warehouse.multiview`), so ``k`` is
    the number of distinct join sets among the shard's views -- one for a
    ``view_family`` -- not its view count: spreading same-join views over
    more shards shortens no step, it repeats the class's join per shard.
    """

    def __init__(
        self,
        runtime,
        view: ViewDefinition,
        index: int,
        backend,
        update_channels: dict[ShardMember, object],
        query_service_time: float = 0.0,
        trace: TraceLog | None = None,
    ):
        self.sim = runtime
        self.view = view
        self.index = index
        self.name = view.name_of(index)
        self.backend = backend
        self.update_channels = dict(update_channels)
        self.query_service_time = query_service_time
        self.trace = trace
        self.update_seq = 0
        self._listeners: list = []
        # Keyed by ShardMember: each member (primary or standby) gets its
        # own FIFO channel pair, so the per-(source, member) ordering
        # argument is the per-(source, shard) one.
        self.query_inboxes: dict = {}
        for key in sorted(self.update_channels):
            self.query_inboxes[key] = Mailbox(
                runtime, f"{self.name}-{key.label}-queries"
            )
        for key in sorted(self.update_channels):
            runtime.spawn(
                f"{self.name}-{key.label}-ProcessQuery",
                self._process_queries(key),
            )

    # ------------------------------------------------------------------
    def local_update(self, delta, txn_id: str | None = None, txn_total: int = 0):
        """Commit one update and route it to every subscribed shard."""
        self.backend.apply(delta)
        self.update_seq += 1
        notice = UpdateNotice(
            source_index=self.index,
            seq=self.update_seq,
            delta=delta,
            applied_at=self.sim.now,
            txn_id=txn_id,
            txn_total=txn_total,
        )
        for listener in self._listeners:
            listener(notice)
        if self.trace:
            self.trace.record(self.sim.now, self.name, "local-update", notice)
        for key in sorted(self.update_channels):
            # Fresh notice per member: each warehouse stamps its own
            # delivery order; the (immutable) delta is shared by reference.
            self.update_channels[key].send(
                Message(
                    kind="update",
                    sender=self.name,
                    payload=notice.delivery_copy(),
                )
            )
        return notice

    def add_update_listener(self, listener) -> None:
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    def _process_queries(self, key):
        """ProcessQuery loop for one member."""
        inbox = self.query_inboxes[key]
        channel = self.update_channels[key]
        while True:
            msg = yield inbox.get()
            request = msg.payload
            # Per join evaluated (class docstring); why DataSourceServer
            # charges per request instead is said in its loop.
            if self.query_service_time > 0 and not isinstance(
                request, PositionRequest
            ):
                joins = (
                    max(1, len(request.partials))
                    if isinstance(request, MultiQueryRequest)
                    else 1
                )
                yield Delay(self.query_service_time * joins)
            answer = build_answer(
                request, self.backend, self.index, self.update_seq
            )
            channel.send(
                Message(kind="answer", sender=self.name, payload=answer)
            )

    def drop_member(self, key) -> None:
        """Stop serving a dead member: no more updates, queries sealed.

        Its ProcessQuery loop stays blocked on the sealed inbox forever,
        which the kernel counts as settled; queued queries are discarded
        (answers to a dead member would be dropped at its end anyway).
        """
        self.update_channels.pop(key, None)
        inbox = self.query_inboxes.get(key)
        if inbox is not None:
            inbox.seal()

    def quiescent(self) -> bool:
        return all(len(box) == 0 for box in self.query_inboxes.values())

    def __repr__(self) -> str:
        return (
            f"ShardedSourceFront({self.name!r},"
            f" members={[k.label for k in sorted(self.update_channels)]})"
        )


__all__ = ["ShardedSourceFront"]
