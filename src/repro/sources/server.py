"""The update & query server at a data source (paper Figure 3).

The server plays two roles:

* **SendUpdates** -- when a local update transaction commits
  (:meth:`DataSourceServer.local_update`), it is applied atomically to the
  backend and forwarded to every destination warehouse as a single
  :class:`~repro.sources.messages.UpdateNotice`.
* **ProcessQuery** -- a simulated process per destination that services
  its :class:`~repro.sources.messages.QueryRequest` messages
  sequentially: each request joins the carried partial view change with
  the local base relation and the answer is sent back.

A destination's updates and answers share the *same* FIFO channel.  That
is the linchpin of SWEEP's exactness: an update applied before a query was
evaluated is forwarded before the answer, hence delivered before it.  A
single-warehouse fleet has one destination (``"wh"``); a sharded fleet
one per shard member it feeds, each with its own channel, inbox and
ProcessQuery loop, so the argument holds per (source, member).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping

from repro.relational.delta import Delta
from repro.simulation.channel import Channel, Message
from repro.simulation.kernel import Simulator
from repro.simulation.mailbox import Mailbox
from repro.simulation.process import Delay
from repro.simulation.trace import TraceLog
from repro.sources.base import SourceBackend
from repro.sources.messages import (
    MultiQueryAnswer,
    MultiQueryRequest,
    PositionAnswer,
    PositionRequest,
    QueryAnswer,
    SnapshotAnswer,
    SnapshotRequest,
    UpdateNotice,
)

UpdateListener = Callable[[UpdateNotice], None]


def destination_label(key: Hashable) -> str:
    """A destination's wire name: ``"wh"`` for the single warehouse, a
    shard member's label (``"sh0"``, ``"sh0r1"``) otherwise."""
    return getattr(key, "label", key)


def joins_in(request) -> int:
    """How many ComputeJoins answering ``request`` evaluates: one per
    partial of a :class:`MultiQueryRequest` (at least one), none for a
    position probe, one otherwise.  ``query_service_time`` is charged
    per join."""
    if isinstance(request, PositionRequest):
        return 0
    if isinstance(request, MultiQueryRequest):
        return max(1, len(request.partials))
    return 1


def build_answer(request, backend: SourceBackend, index: int, update_seq: int):
    """The answer to one warehouse request, evaluated against ``backend``
    as it stands now (the caller has already waited out any service time).

    The caller sends the answer on the same FIFO channel as the source's
    update notices, so it orders correctly against them.
    """
    if isinstance(request, PositionRequest):
        # Recovery probe: just the current seq, no join.
        return PositionAnswer(
            request_id=request.request_id,
            source_index=index,
            position=update_seq,
            epoch=request.epoch,
        )
    if isinstance(request, SnapshotRequest):
        # A point-in-time view of the relation (O(1) on the memory
        # backend); the wire codec packs it as one row block.
        return SnapshotAnswer(
            request_id=request.request_id,
            source_index=index,
            relation=backend.snapshot(),
            epoch=request.epoch,
        )
    if isinstance(request, MultiQueryRequest):
        # One batched sweep step for several views: all joins are
        # evaluated against the same atomic relation state.
        return MultiQueryAnswer(
            request_id=request.request_id,
            partials=[backend.compute_join(p) for p in request.partials],
            epoch=request.epoch,
        )
    return QueryAnswer(
        request_id=request.request_id,
        partial=backend.compute_join(request.partial),
        epoch=request.epoch,
    )


class DataSourceServer:
    """One data-source site: backend storage plus the Figure 3 server.

    Parameters
    ----------
    sim:
        The simulator (or runtime) this site lives in.
    name:
        Site name (usually the relation name, e.g. ``"R2"``).
    index:
        1-based position in the view's relation chain.
    backend:
        Storage (:class:`MemoryBackend` or :class:`SqliteBackend`).
    destinations:
        Destination -> the FIFO channel its update notices and query
        answers share: ``{"wh": channel}`` for the single warehouse, one
        entry per :class:`~repro.warehouse.sharding.ShardMember` for a
        sharded fleet.  Each destination gets its own query inbox
        (:attr:`query_inboxes`) and ProcessQuery process, spawned in key
        order and named ``<name>-ProcessQuery`` -- with the
        destination's label inserted when there are several.
    query_service_time:
        Simulated time to evaluate one ComputeJoin at this source (see
        :func:`joins_in`).  A wider service time widens the window in
        which updates interfere.  A destination sends one partial per
        *sweep class* (see :mod:`repro.warehouse.multiview`), so spreading
        same-join views over more shards shortens no step: it repeats
        the class's join per shard.
    trace:
        Optional trace log.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        index: int,
        backend: SourceBackend,
        destinations: Mapping[Hashable, Channel],
        query_service_time: float = 0.0,
        trace: TraceLog | None = None,
    ):
        self.sim = sim
        self.name = name
        self.index = index
        self.backend = backend
        self.channels = dict(destinations)
        self.query_service_time = query_service_time
        self.trace = trace
        self.update_seq = 0
        self._listeners: list[UpdateListener] = []
        keys = sorted(self.channels)
        self._fanout = tuple(self.channels[key] for key in keys)
        prefixes = {
            key: name if len(keys) == 1 else f"{name}-{destination_label(key)}"
            for key in keys
        }
        self.query_inboxes = {
            key: Mailbox(sim, f"{prefixes[key]}-queries") for key in keys
        }
        for key in keys:
            sim.spawn(f"{prefixes[key]}-ProcessQuery", self._process_queries(key))

    # ------------------------------------------------------------------
    # SendUpdates role
    # ------------------------------------------------------------------
    def local_update(
        self,
        delta: Delta,
        txn_id: str | None = None,
        txn_total: int = 0,
    ) -> UpdateNotice:
        """Commit a local update transaction and forward it.

        The delta may contain several rows (a source-local transaction,
        update type 2 of Section 2); it is applied atomically and travels
        as one message.  ``txn_id``/``txn_total`` tag this update as one
        part of a *global* transaction (type 3) spanning several sources.

        Ownership of ``delta`` transfers to the server: it is referenced
        by the forwarded notices rather than copied, so the committing
        transaction must not mutate it afterwards.
        """
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
        for channel in self._fanout:
            # A fresh notice per destination: each warehouse stamps its
            # own delivery order.
            channel.send(
                Message(
                    kind="update",
                    sender=self.name,
                    payload=notice.delivery_copy(),
                )
            )
        return notice

    def add_update_listener(self, listener: UpdateListener) -> None:
        """Register a callback fired on each committed local update.

        The consistency oracle records source histories through this hook.
        """
        self._listeners.append(listener)

    def drop_member(self, key: Hashable) -> None:
        """Stop serving a dead destination: no more updates, queries sealed.

        Its ProcessQuery loop stays blocked on the sealed inbox forever,
        which the kernel counts as settled; queued queries are discarded
        (answers to a dead member would be dropped at its end anyway).
        """
        self.channels.pop(key, None)
        self._fanout = tuple(self.channels[k] for k in sorted(self.channels))
        inbox = self.query_inboxes.get(key)
        if inbox is not None:
            inbox.seal()

    # ------------------------------------------------------------------
    # ProcessQuery role
    # ------------------------------------------------------------------
    def _process_queries(self, key: Hashable):
        inbox, channel = self.query_inboxes[key], self.channels[key]
        while True:
            msg = yield inbox.get()
            request = msg.payload
            if self.query_service_time > 0:
                joins = joins_in(request)
                if joins:
                    yield Delay(self.query_service_time * joins)
            answer = build_answer(
                request, self.backend, self.index, self.update_seq
            )
            if self.trace and isinstance(answer, (QueryAnswer, MultiQueryAnswer)):
                partials = (
                    answer.partials
                    if isinstance(answer, MultiQueryAnswer)
                    else [answer.partial]
                )
                rows = sum(partial.delta.distinct_count for partial in partials)
                self.trace.record(
                    self.sim.now,
                    self.name,
                    "compute-join",
                    f"req={request.request_id} -> {rows} rows",
                )
            channel.send(Message(kind="answer", sender=self.name, payload=answer))

    # ------------------------------------------------------------------
    def snapshot(self):
        """Current base relation contents (delegates to the backend)."""
        return self.backend.snapshot()

    def __repr__(self) -> str:
        return f"DataSourceServer({self.name!r}, index={self.index})"


__all__ = ["DataSourceServer", "build_answer", "destination_label", "joins_in"]
