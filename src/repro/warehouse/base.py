"""Warehouse runtime plumbing (the paper's Figure 4 module).

:class:`WarehouseBase` owns everything every algorithm needs:

* the single **inbox** into which all source channels deliver -- update
  notices and query answers share each source's FIFO channel, which is what
  makes concurrency detection exact;
* per-source **query channels** back to the sources;
* the :class:`~repro.warehouse.view_store.MaterializedView` plus install
  instrumentation (consistency recorder, metrics, trace);
* ``applied_counts``, the per-source count of updates whose effects are in
  the view -- each install's *claimed vector*.

:class:`QueueDrivenWarehouse` adds the paper's two modules: *LogUpdates*
(routing updates into the ``UpdateMessageQueue`` and answers to the waiting
sweep) and *UpdateView* (a process: pop an update, run the
algorithm-specific ``view_change`` coroutine, install the result).
LogUpdates never blocks, so it is not a process but the inbox's routing
callback (:meth:`~repro.simulation.mailbox.Mailbox.route`).
ECA and Strobe are event-driven instead and subclass ``WarehouseBase``
directly.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Generator

from repro.consistency.oracle import RunRecorder
from repro.relational.delta import Delta, merge_deltas
from repro.relational.incremental import PartialView
from repro.relational.relation import BagBase, Relation
from repro.relational.view import ViewDefinition
from repro.simulation.channel import Channel, Message
from repro.simulation.kernel import Simulator
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector
from repro.simulation.trace import TraceLog
from repro.sources.messages import (
    PositionAnswer,
    QueryRequest,
    UpdateNotice,
    is_rebalance_fence,
    next_request_id,
)
from repro.warehouse.errors import ProtocolError
from repro.warehouse.view_store import MaterializedView


class WarehouseBase:
    """Shared state and helpers for every maintenance algorithm."""

    #: Registry name; subclasses override.
    algorithm_name = "abstract"

    def __init__(
        self,
        sim: Simulator,
        view: ViewDefinition,
        query_channels: dict[int, Channel],
        initial_view: Relation | None = None,
        recorder: RunRecorder | None = None,
        metrics: MetricsCollector | None = None,
        trace: TraceLog | None = None,
        strict_view: bool = True,
        inbox: Mailbox | None = None,
        locality=None,
    ):
        self.sim = sim
        self.view = view
        self.query_channels = query_channels
        # The inbox may be pre-created by the harness so source channels can
        # be wired before the warehouse object exists.
        self.inbox = inbox if inbox is not None else Mailbox(sim, "warehouse-inbox")
        self.store = MaterializedView(view, initial_view, strict=strict_view)
        self.recorder = recorder
        self.metrics = metrics if metrics is not None else MetricsCollector()
        #: query-locality layer (aux copies + answer cache); None = remote.
        self.locality = locality
        if locality is not None:
            locality.bind(self.metrics)
        self.trace = trace
        #: updates whose effects the view currently reflects, per source.
        self.applied_counts: dict[int, int] = defaultdict(int)
        self.updates_delivered = 0
        #: attached by repro.durability (checkpoint + WAL); None = volatile.
        self.durability = None
        #: answers with request ids at or below this are pre-crash strays.
        self.stale_answer_floor = 0
        if recorder is not None:
            recorder.set_initial_view(self.store.relation)

    # ------------------------------------------------------------------
    # Outgoing queries
    # ------------------------------------------------------------------
    def send_query(self, index: int, payload: object) -> None:
        """Ship a query payload to source ``index`` over its channel."""
        if self.durability is not None and hasattr(payload, "epoch"):
            # Stamp the incarnation so answers can be fenced after a
            # restart; sources echo it back (see messages.QueryRequest).
            payload.epoch = self.durability.incarnation
        if self.locality is not None:
            # Remember cacheable queries so the dispatcher can insert the
            # answer at routing time (the delivered position).
            self.locality.register(payload)
        self.metrics.increment("queries_sent")
        self.query_channels[index].send(
            Message(kind="query", sender="warehouse", payload=payload)
        )

    def make_sweep_query(self, index: int, partial: PartialView) -> QueryRequest:
        """Build the Figure 3 ComputeJoin request for one sweep step."""
        return QueryRequest(
            request_id=next_request_id(), partial=partial, target_index=index
        )

    # ------------------------------------------------------------------
    # Delivery accounting
    # ------------------------------------------------------------------
    def note_delivery(self, notice: UpdateNotice) -> None:
        """Stamp and record an update's arrival in the warehouse queue."""
        self.updates_delivered += 1
        notice.delivered_at = self.sim.now
        if self.recorder is not None:
            self.recorder.on_delivery(notice)
        else:
            notice.delivery_seq = self.updates_delivered
        if self.locality is not None:
            self.locality.on_delivered(notice)
        self.metrics.increment("updates_delivered")
        if self.trace:
            self.trace.record(self.sim.now, "warehouse", "delivered", notice)

    # ------------------------------------------------------------------
    # Installing view changes
    # ------------------------------------------------------------------
    def mark_applied(self, notices: list[UpdateNotice]) -> None:
        """Record that these updates' effects are now (being) installed."""
        for notice in notices:
            self.applied_counts[notice.source_index] += 1
            if self.locality is not None:
                self.locality.on_installed(notice)
            self.metrics.increment("updates_installed")
            self.metrics.observe(
                "install_delay", self.sim.now - notice.delivered_at
            )

    def install_wide(self, wide_delta: Delta, note: str = "") -> None:
        """Finalize and install a full-width view change, then snapshot."""
        self._after_install(note, self.store.install_wide(wide_delta))

    def install_view_delta(self, delta: Delta, note: str = "") -> None:
        """Install a view-schema delta directly (Strobe-family local ops).

        ``delta`` is the caller's to build and the log's to keep: it must
        not be mutated after this call (see ``MaterializedView.apply``).
        """
        self._after_install(note, self.store.apply(delta))

    def _after_install(self, note: str, delta: BagBase | None = None) -> None:
        """Account for an install; ``delta`` is what the store installed
        (None logs the store's full current state instead)."""
        self.metrics.increment("installs")
        if self.durability is not None:
            self.durability.on_install()
        if self.recorder is not None:
            self.recorder.on_install(
                self.sim.now, self.store.relation, self.applied_counts, note, delta
            )
        if self.trace:
            self.trace.record(
                self.sim.now,
                "warehouse",
                "install",
                f"{note} -> {self.store.relation.distinct_count} rows",
            )

    # ------------------------------------------------------------------
    def pending_work(self) -> bool:
        """True while this site buffers undone work in *internal* state.

        Quiescence detection sees the inbox and the transport channels;
        anything an algorithm parks in its own mailboxes or staging
        structures is invisible from outside and must be reported here,
        or a fast run can be declared finished mid-flight.
        """
        return False

    def current_view(self) -> Relation:
        """Copy of the current materialized view contents."""
        return self.store.snapshot()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(view={self.view.name},"
            f" installs={self.store.installs})"
        )


class QueueDrivenWarehouse(WarehouseBase):
    """Figure 4 runtime: LogUpdates + UpdateMessageQueue + UpdateView.

    LogUpdates is :meth:`_log_update`, the inbox's router; UpdateView is
    the one process.

    Subclasses implement :meth:`view_change`, a generator receiving one
    update notice and returning the full-width :class:`PartialView` to
    install -- or install internally and return None (C-Strobe's local
    delete path) -- or replace :meth:`process_update` altogether (the
    SWEEP family's view-family schedulers).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.update_queue = Mailbox(self.sim, "UpdateMessageQueue")
        self._answer_box = Mailbox(self.sim, "warehouse-answers")
        #: queued updates latched when the most recent answer was routed.
        self._pending_at_answer: tuple[UpdateNotice, ...] = ()
        self.sim.spawn("wh-UpdateView", self._update_view())
        # LogUpdates is no process of its own: the inbox hands it each
        # message in the kernel event that would have woken one.  Routing
        # starts after UpdateView's start is scheduled, the order in
        # which a dispatcher process started and first woke.
        self.inbox.route(self._log_update)

    # ------------------------------------------------------------------
    def pending_work(self) -> bool:
        return (
            len(self.update_queue) != 0
            or len(self._answer_box) != 0
            or (
                self.durability is not None
                and self.durability.parked_count() != 0
            )
        )

    # ------------------------------------------------------------------
    # LogUpdates (and answer routing)
    # ------------------------------------------------------------------
    def _log_update(self, msg: Message) -> None:
        """Route one inbox message (the inbox's router, see ``__init__``)."""
        if msg.kind == "update":
            if self._intercept_update(msg):
                return
            if self.durability is not None:
                # Fences redeliveries, logs new deliveries, and holds
                # recovered pending parked until the source's position
                # covers them (see DurabilityManager.ingest_update).
                self.durability.ingest_update(msg)
            else:
                self.note_delivery(msg.payload)
                self.update_queue.put(msg)
        elif msg.kind == "answer":
            if (
                self.durability is not None
                and getattr(msg.payload, "epoch", 0)
                != self.durability.incarnation
            ):
                # Answer to a query issued by an earlier incarnation.
                # The request-id floor below cannot fence these: ids
                # issued *after* the last checkpoint never reached
                # durable state, so only the epoch tag identifies
                # them.  The restarted protocol re-issues its own.
                self.metrics.increment("recovery_stale_answers_dropped")
                return
            if self.durability is not None and isinstance(
                msg.payload, PositionAnswer
            ):
                self.durability.on_position(
                    msg.payload.source_index, msg.payload.position
                )
                return
            if (
                self.stale_answer_floor
                and msg.payload.request_id <= self.stale_answer_floor
            ):
                # Answer to a query a pre-crash incarnation issued;
                # the restarted sweep re-issued its own.
                self.metrics.increment("recovery_stale_answers_dropped")
                return
            if self.locality is not None:
                # Cache insertion must happen here, not when the sweep
                # consumes the answer: the same-instant delivery window
                # the pending snapshot below closes would otherwise
                # shift the entry off the delivered position.
                self.locality.on_answer_routed(msg.payload)
            # Snapshot the queue contents *now*: an update delivered at
            # the same virtual instant but after this answer must not be
            # compensated against it (it was applied after the query was
            # evaluated), yet its delivery event may fire before the
            # sweep process wakes up.  The snapshot closes that window.
            pending = self._queued_update_payloads()
            self._answer_box.put((msg, pending))
        elif msg.kind == "rebalance":
            self._on_rebalance_message(msg)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unexpected message kind {msg.kind!r}")

    # ------------------------------------------------------------------
    # Rebalance hooks (overridden by the view family's migration state,
    # repro.warehouse.multiview.MultiViewStateMixin)
    # ------------------------------------------------------------------
    def _intercept_update(self, msg: Message) -> bool:
        """Claim an incoming update frame before normal dispatch.

        Return True to swallow the frame (it is neither counted as a
        delivery nor queued by the default path).  A view family routes
        rebalance fences through here so they keep their FIFO slot in the
        update queue without perturbing delivery accounting.
        """
        return False

    def _on_rebalance_message(self, msg: Message) -> None:
        """Handle a rebalance control frame (handoff / gap / complete)."""
        raise ProtocolError(
            f"rebalance frame at a warehouse with no view family: {msg.payload!r}"
        )

    def _queued_update_payloads(self) -> tuple[UpdateNotice, ...]:
        """The real updates currently queued, in FIFO order.

        Control frames sharing the queue (rebalance fences, handoff
        state) are not source updates and never participate in
        compensation.
        """
        return tuple(
            m.payload
            for m in self.update_queue.peek_all()
            if isinstance(m.payload, UpdateNotice)
            and not is_rebalance_fence(m.payload)
        )

    # ------------------------------------------------------------------
    # UpdateView
    # ------------------------------------------------------------------
    def _update_view(self) -> Generator:
        while True:
            self._stable_point()
            msg = yield self.update_queue.get()
            self._before_unit()
            if self._is_control(msg):
                yield from self._handle_control(msg)
                continue
            notice: UpdateNotice = msg.payload
            if self.trace:
                self.trace.record(self.sim.now, "warehouse", "process", notice)
            yield from self.process_update(notice)

    def _before_unit(self) -> None:
        """Entry of one unit of work, right after the head-of-queue pop.

        Installs are complete and no sweep is in flight -- a donor view
        family seals its migrating view here.
        """

    def _is_control(self, msg: Message) -> bool:
        """True when a queued message is a protocol control frame (a
        rebalance fence or handoff) rather than a source update."""
        return False

    def _handle_control(self, msg: Message) -> Generator:
        """Consume one control frame as its own unit of work."""
        raise ProtocolError(f"unexpected control frame {msg.payload!r}")
        yield  # pragma: no cover - generator shape

    def _stable_point(self) -> None:
        """Between units of work: every install complete, no sweep in
        flight.  The only place a checkpoint may be taken."""
        if self.durability is not None:
            self.durability.maybe_checkpoint()

    def process_update(self, notice: UpdateNotice) -> Generator:
        """Handle one dequeued update; default = view_change + install."""
        result = yield from self.view_change(notice)
        if result is not None:
            self.mark_applied([notice])
            self.install_wide(
                result.delta,
                note=f"update src={notice.source_index} seq={notice.seq}",
            )

    def view_change(self, notice: UpdateNotice) -> Generator:
        """Algorithm-specific: compute the wide view change for ``notice``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Sweep-step helpers shared by the single-view sweeps
    # ------------------------------------------------------------------
    def query_and_await(self, index: int, partial: PartialView) -> Generator:
        """Send one ComputeJoin to source ``index`` and await its answer.

        Also latches the set of updates that were queued when the answer
        was routed (see ``_log_update``), which
        :meth:`pending_updates_from` consults.
        """
        request = self.make_sweep_query(index, partial)
        self.send_query(index, request)
        msg, pending = yield self._answer_box.get()
        self._pending_at_answer = pending
        answer = msg.payload
        if answer.request_id != request.request_id:
            raise ProtocolError(
                f"answer {answer.request_id} does not match request"
                f" {request.request_id}"
            )
        return answer.partial

    def pending_updates_from(self, index: int) -> list[UpdateNotice]:
        """Updates from source ``index`` queued when the last answer arrived.

        By the FIFO argument of Section 4, exactly these interfere with
        that answer.
        """
        return [
            notice
            for notice in self._pending_at_answer
            if notice.source_index == index
        ]

    def merged_pending_delta(self, notices: list[UpdateNotice]) -> Delta:
        """Coalesce several queued updates from one source into one delta."""
        schema = self.view.schema_of(notices[0].source_index)
        return merge_deltas(schema, [n.delta for n in notices])


__all__ = ["QueueDrivenWarehouse", "WarehouseBase"]
