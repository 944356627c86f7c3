"""The update & query server at a data source (paper Figure 3).

The server plays two roles:

* **SendUpdates** -- when a local update transaction commits
  (:meth:`DataSourceServer.local_update`), it is applied atomically to the
  backend and forwarded to the warehouse as a single
  :class:`~repro.sources.messages.UpdateNotice`.
* **ProcessQuery** -- a simulated process that services
  :class:`~repro.sources.messages.QueryRequest` messages sequentially:
  each request joins the carried partial view change with the local base
  relation and the answer is sent back.

Updates and answers share the *same* FIFO channel to the warehouse.  That
is the linchpin of SWEEP's exactness: an update applied before a query was
evaluated is forwarded before the answer, hence delivered before it.
"""

from __future__ import annotations

from collections.abc import Callable

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
    QueryRequest,
    SnapshotAnswer,
    SnapshotRequest,
    UpdateNotice,
)

UpdateListener = Callable[[UpdateNotice], None]


def build_answer(request, backend: SourceBackend, index: int, update_seq: int):
    """The answer to one warehouse request, evaluated against ``backend``
    as it stands now (the caller has already waited out any service time).

    Shared by every ProcessQuery loop -- :class:`DataSourceServer` and the
    sharded front -- which keep only their channel, trace line and
    service-time policy.  The caller sends the answer on the same FIFO
    channel as the source's update notices, so it orders correctly
    against them.
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
        The simulator this site lives in.
    name:
        Site name (usually the relation name, e.g. ``"R2"``).
    index:
        1-based position in the view's relation chain.
    backend:
        Storage (:class:`MemoryBackend` or :class:`SqliteBackend`).
    to_warehouse:
        FIFO channel shared by update notices and query answers.
    query_service_time:
        Simulated time to evaluate one ComputeJoin at this source.  A wider
        service time widens the window in which updates interfere.
    trace:
        Optional trace log.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        index: int,
        backend: SourceBackend,
        to_warehouse: Channel,
        query_service_time: float = 0.0,
        trace: TraceLog | None = None,
    ):
        self.sim = sim
        self.name = name
        self.index = index
        self.backend = backend
        self.to_warehouse = to_warehouse
        self.query_service_time = query_service_time
        self.trace = trace
        self.query_inbox = Mailbox(sim, f"{name}-queries")
        self.update_seq = 0
        self.updates_applied: list[UpdateNotice] = []
        self._listeners: list[UpdateListener] = []
        sim.spawn(f"{name}-ProcessQuery", self._process_queries())

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
        by the forwarded notice rather than copied, so the committing
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
        self.updates_applied.append(notice)
        for listener in self._listeners:
            listener(notice)
        if self.trace:
            self.trace.record(self.sim.now, self.name, "local-update", notice)
        self.to_warehouse.send(Message(kind="update", sender=self.name, payload=notice))
        return notice

    def add_update_listener(self, listener: UpdateListener) -> None:
        """Register a callback fired on each committed local update.

        The consistency oracle records source histories through this hook.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # ProcessQuery role
    # ------------------------------------------------------------------
    def _process_queries(self):
        while True:
            msg = yield self.query_inbox.get()
            request = msg.payload
            # Service-time policy, the one thing the two ProcessQuery
            # loops do not share: here it is the *window* in which updates
            # interfere with a request (what the simulator experiments
            # vary), so a request waits once whatever it carries; the
            # sharded front charges once per join in the request, because
            # its runs compare join work across shard counts.  A position
            # probe joins nothing and is charged by neither.
            if self.query_service_time > 0 and not isinstance(
                request, PositionRequest
            ):
                yield Delay(self.query_service_time)
            answer = build_answer(
                request, self.backend, self.index, self.update_seq
            )
            if self.trace and isinstance(answer, QueryAnswer):
                self.trace.record(
                    self.sim.now,
                    self.name,
                    "compute-join",
                    f"req={request.request_id} ->"
                    f" {answer.partial.delta.distinct_count} rows",
                )
            self.to_warehouse.send(
                Message(kind="answer", sender=self.name, payload=answer)
            )

    # ------------------------------------------------------------------
    def snapshot(self):
        """Current base relation contents (delegates to the backend)."""
        return self.backend.snapshot()

    def __repr__(self) -> str:
        return f"DataSourceServer({self.name!r}, index={self.index})"


__all__ = ["DataSourceServer", "build_answer"]
