"""Durability hooks for a running warehouse.

:class:`DurabilityManager` owns the durable directory of one warehouse:
it logs every delivered update to the open WAL, counts installs, and
rolls a new checkpoint generation when the policy says so -- always at a
*stable point* (between units of work, see
:func:`repro.durability.checkpoint.capture_checkpoint`), which is why
the warehouse loop calls :meth:`maybe_checkpoint` rather than the
manager checkpointing asynchronously.

:class:`CrashPlan` is the deterministic crash injector used by the
crash-restart sweep: it kills the warehouse after the N-th delivery or
the N-th install, which -- deliveries interleaving freely with sweep
steps -- lands crash points mid-batch, mid-compensation and mid
multi-view install as N varies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.durability.checkpoint import (
    ViewCheckpoint,
    capture_checkpoint,
    checkpoint_generations,
    checkpoint_path,
)
from repro.durability.encoding import encode_notice, record_codec
from repro.durability.errors import SimulatedCrash
from repro.durability.wal import UpdateLog, wal_generations, wal_path
from repro.simulation.channel import Message
from repro.simulation.mailbox import Mailbox
from repro.sources.messages import (
    PositionRequest,
    UpdateNotice,
    next_request_id,
)

import os


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to roll a new checkpoint generation.

    ``every_installs`` rolls after that many installs since the last
    checkpoint; 0 disables it, and then only the attach-time checkpoint
    is ever written (the WAL then carries the whole run).
    """

    every_installs: int = 25


class CrashPlan:
    """Deterministic kill switch: crash after N deliveries, or at the
    install that makes the view reflect N updates -- updates, not install
    units, which a batched scheduler folds by arrival timing."""

    def __init__(
        self,
        after_deliveries: int | None = None,
        after_installs: int | None = None,
    ):
        self.after_deliveries = after_deliveries
        self.after_installs = after_installs
        self.deliveries = 0
        self.fired = False

    def tick_delivery(self) -> None:
        self.deliveries += 1
        self._maybe_fire("delivery", self.deliveries, self.after_deliveries)

    def tick_install(self, reflected: int) -> None:
        """An install after which the view reflects ``reflected`` updates."""
        self._maybe_fire("installed update", reflected, self.after_installs)

    def _maybe_fire(self, what: str, count: int, after: int | None) -> None:
        if not self.fired and after is not None and count >= after:
            self.fired = True
            raise SimulatedCrash(f"crash plan fired after {what} #{count}")


class LoggingMailbox(Mailbox):
    """A warehouse inbox that logs updates *before* accepting them.

    The TCP listener acknowledges a frame only after ``destination.put``
    returns (see :mod:`repro.runtime.tcp`), so routing the listener's
    deliveries through this mailbox yields log-before-ack: a SIGKILL
    between ack and dispatch cannot lose an update, because the append
    happened first and the unacked frame would have been retransmitted
    anyway.  ``manager`` is attached later by
    :meth:`DurabilityManager.attach`; puts before that (recovery replay)
    are deliberately not logged -- they are already durable.
    """

    def __init__(self, sim, name: str = "warehouse-inbox"):
        super().__init__(sim, name)
        self.manager: DurabilityManager | None = None

    def put(self, message) -> None:
        if self.manager is not None and message.kind == "update":
            self.manager.log_delivery(message.payload, crash_ok=False)
        super().put(message)


class DurabilityManager:
    """Checkpoint + WAL lifecycle for one warehouse."""

    def __init__(
        self,
        directory: str,
        policy: CheckpointPolicy | None = None,
        fsync_batch: int = 8,
        crash_plan: CrashPlan | None = None,
    ):
        self.directory = directory
        self.policy = policy if policy is not None else CheckpointPolicy()
        self.fsync_batch = fsync_batch
        self.crash_plan = crash_plan
        os.makedirs(directory, exist_ok=True)
        self.warehouse = None
        self.codec = None  # writes the update records (set by attach)
        self.generation = 0
        #: which incarnation of the warehouse this is (the attach-time
        #: base generation): stamped into every outgoing query and echoed
        #: by sources, so the dispatcher can drop answers addressed to a
        #: pre-crash incarnation.  Strictly increases across restarts.
        self.incarnation = 0
        self.wal: UpdateLog | None = None
        #: highest seq delivered in a *previous* incarnation, per source;
        #: redeliveries at or below are duplicates and must be dropped.
        self.resume_marks: dict[int, int] = {}
        #: highest seq made durable (checkpointed or WAL-logged), per source.
        self.logged_marks: dict[int, int] = {}
        #: recovered (logged-but-uninstalled) updates, parked per source
        #: until that source's position provably covers them -- see
        #: :meth:`ingest_update` for why they cannot be replayed eagerly.
        self._parked: dict[int, deque] = {}
        #: highest source position observed this incarnation (live update
        #: seqs and :class:`PositionAnswer` probes both advance it).
        self._source_pos: dict[int, int] = {}
        self._probes_sent = False
        self.checkpoints_written = 0
        self._installs_since = 0

    # ------------------------------------------------------------------
    def attach(self, warehouse, state=None) -> None:
        """Bind to a warehouse (already resumed, if ``state`` is given) and
        write the incarnation's base checkpoint."""
        self.warehouse = warehouse
        self.codec = record_codec(warehouse.view)
        warehouse.durability = self
        if isinstance(warehouse.inbox, LoggingMailbox):
            warehouse.inbox.manager = self
        if state is not None:
            self.resume_marks = dict(state.delivered_marks)
            self.generation = state.generation + 1
            for notice in state.pending:
                self._parked.setdefault(
                    notice.source_index, deque()
                ).append(notice)
        self.incarnation = self.generation
        self.logged_marks = dict(self.resume_marks)
        self._write_checkpoint()

    # ------------------------------------------------------------------
    # Hooks called from the warehouse loops
    # ------------------------------------------------------------------
    def parked_count(self) -> int:
        """Recovered updates still awaiting source-position confirmation."""
        return sum(len(parked) for parked in self._parked.values())

    def ingest_update(self, msg) -> None:
        """The dispatcher's delivery path for one live update message.

        Recovered pending updates cannot simply be replayed into the
        queue at attach time: SWEEP's compensation is exact only when
        every update reflected in a query answer is accounted for by the
        view state, the batch, or the update queue.  A replayed update's
        *source* may not have re-reached that state yet (the whole world
        restarting deterministically re-runs the source schedules), so a
        sweep driven by an eagerly replayed update would subtract its
        delta from answers that never contained it.  Instead the
        recovered updates stay parked per source and are released -- in
        their original per-source order -- only once the source's
        observed position covers them: any live update with seq ``s``
        proves the source applied everything up to ``s`` (redelivered
        twins of parked updates are absorbed, newer updates park behind
        the recovered prefix to preserve FIFO), and a
        :class:`~repro.sources.messages.PositionAnswer` probe covers
        sources that kept their state across the crash and therefore
        never resend acknowledged updates.  Because updates, answers and
        probe replies share one FIFO channel per source, every release
        lands in the queue before any answer whose evaluation saw the
        released update -- which is exactly the compensation invariant.
        """
        notice = msg.payload
        index, seq = notice.source_index, notice.seq
        warehouse = self.warehouse
        if seq > self._source_pos.get(index, 0):
            self._source_pos[index] = seq
        parked = self._parked.get(index)
        if parked:
            if seq > self.resume_marks.get(index, 0):
                self.log_delivery(notice)
                parked.append(notice)
                warehouse.metrics.increment("recovery_parked_live")
            else:
                warehouse.metrics.increment("recovery_duplicates_dropped")
            self._drain_parked(index)
            return
        if seq <= self.resume_marks.get(index, 0):
            warehouse.metrics.increment("recovery_duplicates_dropped")
            return
        warehouse.note_delivery(notice)
        self.log_delivery(notice)
        warehouse.update_queue.put(msg)

    def on_position(self, index: int, position: int) -> None:
        """A probe answer: the source has applied ``position`` updates."""
        if position > self._source_pos.get(index, 0):
            self._source_pos[index] = position
        self._drain_parked(index)

    def _drain_parked(self, index: int) -> None:
        parked = self._parked.get(index)
        if not parked:
            return
        warehouse = self.warehouse
        position = self._source_pos.get(index, 0)
        while parked and parked[0].seq <= position:
            notice = parked.popleft()
            warehouse.note_delivery(notice)
            warehouse.update_queue.put(
                Message(kind="update", sender="recovery", payload=notice)
            )
            warehouse.metrics.increment("recovery_replayed")
        if not parked:
            del self._parked[index]

    def _maybe_send_probes(self) -> None:
        """Once, at the first stable point: probe every parked source.

        Sent before the first sweep query of this incarnation, so by
        channel FIFO the probe's answer (and the releases it triggers)
        precedes any sweep answer the source evaluates afterwards.
        """
        if self._probes_sent:
            return
        self._probes_sent = True
        for index in sorted(self._parked):
            self.warehouse.send_query(
                index, PositionRequest(request_id=next_request_id())
            )

    def log_delivery(self, notice: UpdateNotice, crash_ok: bool = True) -> None:
        """Append a newly delivered update to the WAL (idempotent per seq).

        ``crash_ok`` gates crash injection to the dispatcher path so a
        plan never fires inside a transport callback, where the exception
        could be swallowed instead of killing the warehouse.
        """
        mark = self.logged_marks.get(notice.source_index, 0)
        if notice.seq > mark:
            self.wal.append(encode_notice(notice, self.codec))
            self.logged_marks[notice.source_index] = notice.seq
        if crash_ok and self.crash_plan is not None:
            self.crash_plan.tick_delivery()

    def on_install(self) -> None:
        self._installs_since += 1
        if self.crash_plan is not None:
            self.crash_plan.tick_install(
                sum(self.warehouse.applied_counts.values())
            )

    def maybe_checkpoint(self) -> bool:
        """Roll a generation if the policy is due.  Stable points only."""
        self._maybe_send_probes()
        every = self.policy.every_installs
        if not every or self._installs_since < every:
            return False
        if len(self.warehouse._answer_box):  # pragma: no cover - defensive
            return False  # not actually stable; defer to the next boundary
        self.generation += 1
        self._write_checkpoint()
        return True

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    # ------------------------------------------------------------------
    def _write_checkpoint(self) -> ViewCheckpoint:
        warehouse = self.warehouse
        checkpoint = capture_checkpoint(
            warehouse,
            self.generation,
            self.logged_marks,
            self.codec,
            parked=[
                notice
                for index in sorted(self._parked)
                for notice in self._parked[index]
            ],
        )
        checkpoint.write(self.directory)
        if self.wal is not None:
            # The durable checkpoint subsumes this log, which is about to
            # be pruned: syncing it would buy nothing.
            self.wal.close(sync=False)
        self.wal = UpdateLog(self.directory, self.generation, self.fsync_batch)
        self._prune_before(self.generation)
        self.checkpoints_written += 1
        self._installs_since = 0
        warehouse.metrics.increment("checkpoints_written")
        if warehouse.trace:
            warehouse.trace.record(
                warehouse.sim.now,
                "warehouse",
                "checkpoint",
                f"generation {self.generation}",
            )
        return checkpoint

    def _prune_before(self, generation: int) -> None:
        """Older generations are fully subsumed by the new checkpoint."""
        for gen in checkpoint_generations(self.directory):
            if gen < generation:
                os.unlink(checkpoint_path(self.directory, gen))
        for gen in wal_generations(self.directory):
            if gen < generation:
                os.unlink(wal_path(self.directory, gen))


__all__ = [
    "CheckpointPolicy",
    "CrashPlan",
    "DurabilityManager",
    "LoggingMailbox",
]
