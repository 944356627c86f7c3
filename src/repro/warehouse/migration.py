"""Live view migration between shards ("eager seal + donor gap forwarding").

Moving one view ``V`` between two shards of a running deployment must not
break the invariant every consistency claim in this repo rests on: each
view's installs form claimed-vector snapshots of a per-source FIFO prefix
of the update stream.  The migration protocol here preserves it with
three moving parts (the coordinator lives in :mod:`repro.runtime.shard`;
this module is the per-warehouse protocol logic):

1. **Fences.**  When the rebalance fires, the coordinator posts one fence
   frame per source down the *same* per-(source, member) update channels
   real updates travel, to every donor and recipient member.  A fence is
   an empty :class:`~repro.sources.messages.UpdateNotice` whose ``seq``
   is the source's boundary position ``B_i`` at fire time, so channel
   FIFO pins it exactly between the pre- and post-boundary updates.
   Because every active shard already receives every source's stream
   (same-chain view families have total fanout), migrating ``V`` changes
   no fanout set -- only which member applies ``V``.

2. **Donor seal + handoff.**  At its next unit-of-work boundary (a
   stable point: installs complete, no sweep in flight) the donor drops
   ``V`` from its view set, snapshots ``V``'s position ``P`` (its own
   ``applied_counts``) and hands off ``V``'s contents, ``P``, and its
   auxiliary source copies as one CRC'd binwire blob (see
   :func:`repro.durability.checkpoint.encode_view_handoff`).

3. **Gap forwarding.**  The recipient's own channels deliver everything
   after the fences; everything at or before ``P`` is inside the
   handoff.  The genuine straggler window is ``(P_i, B_i]`` per source:
   pre-fence updates only the donor still holds queued.  The donor keeps
   processing them for its remaining views and *forwards a copy* of each
   to the recipient, then signals completion once it has dequeued every
   fence.  The recipient replays the forwarded gap, then its own *pen*
   (post-fence updates it processed for its other views while ``V`` was
   still in flight), each through a ``V``-only restricted sweep with
   SWEEP's compensation rule -- deduplicating queued stragglers against
   un-replayed gap entries by sequence number, since a late pre-fence
   update can be visible both ways.  After catch-up ``V`` participates
   in normal units again, guarded per update by its own position vector
   (duplicate sequences are dropped, holes are protocol errors), until
   its position provably rejoins the shard's and the guard becomes a
   no-op.

The ``skip_straggler_forwarding`` mutation (for the equivalence harness)
drops step 3's forwarding while keeping the completion signal, and
relaxes the hole check to a high-water mark -- the run then finishes
with ``V`` silently missing ``(P_i, B_i]``, which the consistency oracle
and the byte-equality baseline comparison must both catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Generator

from repro.durability.checkpoint import decode_view_handoff, encode_view_handoff
from repro.durability.encoding import decode_relation
from repro.relational.delta import merge_deltas
from repro.relational.incremental import PartialView
from repro.relational.view import ViewDefinition
from repro.simulation.channel import Message
from repro.sources.messages import (
    MultiQueryRequest,
    UpdateNotice,
    is_rebalance_fence,
    next_request_id,
)
from repro.warehouse.errors import ProtocolError
from repro.warehouse.view_store import MaterializedView


# ----------------------------------------------------------------------
# Control payloads (injected by the coordinator as kind="rebalance")
# ----------------------------------------------------------------------
@dataclass(slots=True)
class HandoffState:
    """Donor -> recipient: the sealed view's encoded state.

    ``blob`` is the wire-format payload (CRC'd binwire envelope);
    ``view_def`` and ``recorder`` ride alongside in-process -- the view
    definition is launch-time configuration both sides already share in
    a real deployment, and the recorder is harness instrumentation.
    """

    view: str
    epoch: int
    blob: bytes
    view_def: ViewDefinition
    recorder: object | None = None


@dataclass(slots=True)
class GapFrame:
    """Donor -> recipient: one straggler update from the gap ``(P, B]``."""

    epoch: int
    notice: UpdateNotice


@dataclass(slots=True)
class GapComplete:
    """Donor -> recipient: every fence dequeued; the gap is closed."""

    epoch: int


def _zero_stats() -> dict[str, int]:
    return {
        "gap_forwarded": 0,
        "gap_skipped": 0,
        "pen_retained": 0,
        "dup_dropped": 0,
        "catchup_installs": 0,
        "aux_adopted": 0,
        "aux_adopt_skipped": 0,
    }


@dataclass
class MigrationMemberState:
    """One member's view of an in-flight migration (donor or recipient)."""

    role: str  # "donor" | "recipient"
    view_def: ViewDefinition
    epoch: int
    coordinator: object
    member: object  # opaque key echoed back on coordinator callbacks
    n_sources: int
    skip_forwarding: bool = False
    relaxed: bool = False
    # -- donor side --
    seal_requested: bool = False
    sealed: bool = False
    complete_sent: bool = False
    fences_seen: set[int] = field(default_factory=set)
    boundaries: dict[int, int] = field(default_factory=dict)
    seal_position: dict[int, int] = field(default_factory=dict)
    # -- recipient side --
    fenced: dict[int, int] = field(default_factory=dict)
    handoff: HandoffState | None = None
    gap: list[UpdateNotice] = field(default_factory=list)
    pen: list[UpdateNotice] = field(default_factory=list)
    adopted: bool = False
    catchup_done: bool = False
    suspended: bool = False
    pos: dict[int, int] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=_zero_stats)

    def maybe_unsuspend(self) -> None:
        """Locality answers become usable again once ``V``'s position has
        provably rejoined the shard's: catch-up done and every fence
        dequeued (no pre-boundary update can still be queued)."""
        if (
            self.suspended
            and self.catchup_done
            and len(self.fenced) >= self.n_sources
        ):
            self.suspended = False


class ViewMigrationMixin:
    """Protocol behaviour for a shard warehouse that can donate or adopt a
    migrating view.  Mixed in *before* the multi-view warehouse classes;
    inert (all hooks fall through to the defaults) until
    :meth:`attach_migration` is called by the rebalance coordinator.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._mig: MigrationMemberState | None = None

    # ------------------------------------------------------------------
    def attach_migration(self, state: MigrationMemberState) -> None:
        if self._mig is not None:
            raise ProtocolError(
                f"migration already attached (epoch {self._mig.epoch})"
            )
        self._mig = state

    def migration_stats(self) -> dict | None:
        """Structured per-member protocol counters (None if not attached)."""
        st = self._mig
        if st is None:
            return None
        out = dict(st.stats)
        out["role"] = st.role
        out["sealed"] = st.sealed
        out["complete_sent"] = st.complete_sent
        out["adopted"] = st.adopted
        out["catchup_done"] = st.catchup_done
        out["boundaries"] = dict(st.boundaries or st.fenced)
        out["seal_position"] = dict(st.seal_position)
        out["position"] = dict(st.pos)
        return out

    # ------------------------------------------------------------------
    # Dispatcher-side hooks
    # ------------------------------------------------------------------
    def _intercept_update(self, msg: Message) -> bool:
        if not is_rebalance_fence(msg.payload):
            return False
        # Fences keep their FIFO slot in the update queue but are not
        # deliveries: no recorder stamp, no delivered-count advance.
        self.update_queue.put(msg)
        return True

    def _on_rebalance_message(self, msg: Message) -> None:
        if self._mig is None:
            raise ProtocolError(
                f"rebalance frame at non-participating member: {msg.payload!r}"
            )
        self.update_queue.put(msg)

    def _is_control(self, msg: Message) -> bool:
        return msg.kind == "rebalance" or is_rebalance_fence(msg.payload)

    def pending_work(self) -> bool:
        if super().pending_work():
            return True
        st = self._mig
        if st is None:
            return False
        # A recipient holding an un-caught-up handoff (or buffered gap/pen
        # frames) is mid-protocol even with every queue momentarily empty.
        return st.role == "recipient" and not st.catchup_done and (
            st.handoff is not None or bool(st.gap) or bool(st.pen)
        )

    # ------------------------------------------------------------------
    # Unit-of-work hooks
    # ------------------------------------------------------------------
    def _before_unit(self) -> None:
        st = self._mig
        if st is not None and st.role == "donor" and st.seal_requested and (
            not st.sealed
        ):
            self._donor_seal()

    def process_update(self, notice: UpdateNotice) -> Generator:
        self._mig_observe([notice])
        yield from super().process_update(notice)

    def process_batch(self, batch: list[UpdateNotice]) -> Generator:
        self._mig_observe(batch)
        yield from super().process_batch(batch)

    def _mig_observe(self, notices: list[UpdateNotice]) -> None:
        """Straggler bookkeeping for one unit of work's updates.

        Donor (sealed): every pre-fence update it dequeues lies in the
        gap ``(P_i, B_i]`` -- forward a clean copy.  Recipient (fence
        seen, not yet caught up): post-fence updates it processes for its
        own views are penned for ``V``'s later replay.
        """
        st = self._mig
        if st is None:
            return
        if st.role == "donor" and st.sealed:
            for notice in notices:
                if notice.source_index in st.fences_seen:
                    continue  # post-fence: recipient's own channel has it
                if st.skip_forwarding:
                    st.stats["gap_skipped"] += 1
                    continue
                st.stats["gap_forwarded"] += 1
                st.coordinator.forward_gap(
                    st.member, replace(notice, delivery_seq=None)
                )
        elif st.role == "recipient" and st.fenced and not st.catchup_done:
            for notice in notices:
                if notice.source_index in st.fenced:
                    st.pen.append(replace(notice, delivery_seq=None))
                    st.stats["pen_retained"] += 1

    # ------------------------------------------------------------------
    # Donor: seal + handoff
    # ------------------------------------------------------------------
    def _donor_seal(self) -> None:
        st = self._mig
        vdef = st.view_def
        if vdef.name not in self.stores:
            raise ProtocolError(f"cannot seal unknown view {vdef.name!r}")
        if vdef.name == self.view.name:
            raise ProtocolError("cannot migrate a shard's primary view")
        n = self.view.n_relations
        position = {
            i: self.applied_counts.get(i, 0) for i in range(1, n + 1)
        }
        st.seal_position = dict(position)
        # The applied set is an exact prefix of the delivery order
        # (dequeue order == delivery order), so V's recorder keeps
        # exactly that prefix; later deliveries belong to the recipient.
        vrec = self.extra_recorders.get(vdef.name)
        if vrec is not None and self.recorder is not None:
            applied_total = sum(position.values())
            vrec.deliveries = list(self.recorder.deliveries[:applied_total])
        relation = self.stores[vdef.name].relation
        aux = (
            self.locality.aux_relations() if self.locality is not None else {}
        )
        blob = encode_view_handoff(
            vdef.name, position, relation, aux=aux, epoch=st.epoch
        )
        self.views = [v for v in self.views if v.name != vdef.name]
        del self.stores[vdef.name]
        self.extra_recorders.pop(vdef.name, None)
        self._views_changed()
        st.sealed = True
        if self.trace:
            self.trace.record(
                self.sim.now,
                "warehouse",
                "rebalance-seal",
                f"{vdef.name} at {sorted(position.items())}",
            )
        st.coordinator.handoff(
            st.member,
            HandoffState(
                view=vdef.name,
                epoch=st.epoch,
                blob=blob,
                view_def=vdef,
                recorder=vrec,
            ),
        )
        if st.skip_forwarding and not st.complete_sent:
            # Mutation: pretend the gap is empty.  The completion signal
            # still fires so the run terminates; the oracle must notice.
            st.complete_sent = True
            st.coordinator.gap_complete(st.member)

    # ------------------------------------------------------------------
    # Control-frame consumption (both roles)
    # ------------------------------------------------------------------
    def _handle_control(self, msg: Message) -> Generator:
        st = self._mig
        if st is None:
            raise ProtocolError(f"control frame without migration: {msg!r}")
        payload = msg.payload
        if msg.kind == "update" and is_rebalance_fence(payload):
            self._on_fence(payload)
            return
        if isinstance(payload, HandoffState):
            st.handoff = payload
            return
        if isinstance(payload, GapFrame):
            st.gap.append(payload.notice)
            return
        if isinstance(payload, GapComplete):
            yield from self._mig_catchup()
            return
        raise ProtocolError(f"unexpected control frame {payload!r}")

    def _on_fence(self, fence: UpdateNotice) -> None:
        st = self._mig
        index, boundary = fence.source_index, fence.seq
        if st.role == "donor":
            st.fences_seen.add(index)
            st.boundaries[index] = boundary
            if (
                st.sealed
                and not st.complete_sent
                and len(st.fences_seen) >= st.n_sources
            ):
                st.complete_sent = True
                st.coordinator.gap_complete(st.member)
        else:
            st.fenced[index] = boundary
            st.maybe_unsuspend()

    # ------------------------------------------------------------------
    # Recipient: adoption + catch-up
    # ------------------------------------------------------------------
    def _mig_catchup(self) -> Generator:
        st = self._mig
        if st.catchup_done:
            raise ProtocolError("duplicate gap-complete")
        if st.handoff is None:
            raise ProtocolError("gap-complete before handoff state")
        vdef = st.handoff.view_def
        decoded = decode_view_handoff(st.handoff.blob)
        if decoded["view"] != vdef.name or decoded["epoch"] != st.epoch:
            raise ProtocolError(
                f"handoff identity mismatch: {decoded['view']!r}"
                f" epoch {decoded['epoch']}"
            )
        relation = decode_relation(decoded["rows"], vdef.view_schema)
        st.pos = {
            i: decoded["position"].get(i, 0)
            for i in range(1, vdef.n_relations + 1)
        }
        self.stores[vdef.name] = MaterializedView(
            vdef, relation, strict=self.store.strict
        )
        self.views.append(vdef)
        self._views_changed()
        vrec = st.handoff.recorder
        if vrec is not None:
            self.extra_recorders[vdef.name] = vrec
        st.adopted = True
        st.suspended = True
        self._mig_adopt_aux(vdef, decoded)
        if self.trace:
            self.trace.record(
                self.sim.now,
                "warehouse",
                "rebalance-adopt",
                f"{vdef.name} at {sorted(st.pos.items())},"
                f" gap={len(st.gap)} pen={len(st.pen)}",
            )

        # Replay: forwarded gap first (pre-fence seqs), then the pen
        # (post-fence seqs) -- per source this is ascending-seq order.
        replay = [*st.gap, *st.pen]
        st.gap = []
        st.pen = []
        while replay:
            notice = replay.pop(0)
            i, seq = notice.source_index, notice.seq
            at = st.pos.get(i, 0)
            if seq <= at:
                st.stats["dup_dropped"] += 1
                continue
            if seq != at + 1 and not st.relaxed:
                raise ProtocolError(
                    f"migration hole: src {i} seq {seq} after {at}"
                )
            yield from self._mig_apply_one(vdef, vrec, notice, replay)
        st.catchup_done = True
        self._views_changed()
        st.maybe_unsuspend()

    def _mig_adopt_aux(self, vdef: ViewDefinition, decoded: dict) -> None:
        """Adopt the donor's auxiliary copies -- only when provably safe.

        The locality layer is shard-wide state pinned to the *shard's*
        installed position, so a donor copy (at the donor's seal
        position) is only usable if that position happens to equal this
        shard's installed count and the source isn't covered already.
        In practice the positions differ and every copy is skipped; the
        counters document the decision and the handoff still exercises
        the encode/decode path.
        """
        if self.locality is None or not decoded["aux"]:
            return
        names = {vdef.name_of(i): i for i in range(1, vdef.n_relations + 1)}
        installed = {
            i: self.applied_counts.get(i, 0)
            for i in range(1, vdef.n_relations + 1)
        }
        donor_position = {
            i: decoded["position"].get(i, 0)
            for i in range(1, vdef.n_relations + 1)
        }
        for name, rows in decoded["aux"].items():
            index = names.get(name)
            if (
                index is None
                or self.locality.covers(index)
                or donor_position != installed
            ):
                self._mig.stats["aux_adopt_skipped"] += 1
                continue
            self.locality.adopt(
                index, decode_relation(rows, vdef.schema_of(index))
            )
            self._mig.stats["aux_adopted"] += 1

    def _mig_apply_one(
        self,
        vdef: ViewDefinition,
        vrec,
        notice: UpdateNotice,
        remaining: list[UpdateNotice],
    ) -> Generator:
        """Apply one replayed update to ``V`` via a V-only restricted sweep.

        Compensation at step ``j`` deduplicates by sequence number over
        the un-replayed remainder and the queued-updates snapshot: a late
        pre-fence update can be in both (forwarded by the donor *and*
        still queued here), and must be subtracted exactly once.
        """
        st = self._mig
        i = notice.source_index
        n = vdef.n_relations
        if vrec is not None:
            vrec.on_delivery(notice)
        partial = PartialView.initial(vdef, i, notice.delta)
        sweep_order = list(range(i - 1, 0, -1)) + list(range(i + 1, n + 1))
        for j in sweep_order:
            temp = partial
            request = MultiQueryRequest(
                request_id=next_request_id(),
                partials=[partial],
                target_index=j,
            )
            self.send_query(j, request)
            msg, pending = yield self._answer_box.get()
            self._pending_at_answer = pending
            answer = msg.payload
            if answer.request_id != request.request_id:
                raise ProtocolError(
                    f"answer {answer.request_id} does not match request"
                    f" {request.request_id}"
                )
            partial = answer.partials[0]
            candidates: dict[int, UpdateNotice] = {}
            for other in remaining:
                if other.source_index == j:
                    candidates.setdefault(other.seq, other)
            for queued in self.pending_updates_from(j):
                candidates.setdefault(queued.seq, queued)
            floor = st.pos.get(j, 0)
            usable = sorted(
                (seq, cand)
                for seq, cand in candidates.items()
                if seq > floor
            )
            if usable:
                self.metrics.increment("compensations")
                merged = merge_deltas(
                    vdef.schema_of(j), [cand.delta for _, cand in usable]
                )
                partial = partial.compensate(temp.extend(j, merged))
        st.pos[i] = max(st.pos.get(i, 0), notice.seq)
        st.stats["catchup_installs"] += 1
        self._install_extra(
            vdef,
            partial.delta,
            note=f"rebalance-catchup src={i} seq={notice.seq}",
        )

    # ------------------------------------------------------------------
    # Per-view participation overrides (post-catch-up steady state)
    # ------------------------------------------------------------------
    def _mig_active_view(self) -> MigrationMemberState | None:
        st = self._mig
        if st is not None and st.role == "recipient" and st.catchup_done:
            return st
        return None

    def _positions_differ(self) -> bool:
        # From catch-up on, ``V`` keeps its own position guard (and may
        # sit at its own floor), so the classes are keyed per unit.
        return self._mig_active_view() is not None or super()._positions_differ()

    def _partition_batch(
        self, batch: list[UpdateNotice]
    ) -> dict[str, list[UpdateNotice]]:
        assignment = super()._partition_batch(batch)
        st = self._mig_active_view()
        if st is None:
            return assignment
        mine: list[UpdateNotice] = []
        tentative = dict(st.pos)
        for notice in batch:
            i, seq = notice.source_index, notice.seq
            at = tentative.get(i, 0)
            if seq <= at:
                st.stats["dup_dropped"] += 1
                continue
            if seq != at + 1 and not st.relaxed:
                raise ProtocolError(
                    f"migration hole: src {i} seq {seq} after {at}"
                )
            mine.append(notice)
            tentative[i] = seq
        assignment[st.view_def.name] = mine
        return assignment

    def _claimed_vector_for(self, view: ViewDefinition) -> dict[int, int]:
        st = self._mig
        if (
            st is not None
            and st.role == "recipient"
            and st.adopted
            and view.name == st.view_def.name
        ):
            return st.pos
        return super()._claimed_vector_for(view)

    def _pending_floor(
        self,
        view: ViewDefinition,
        index: int,
        *,
        after_batch: bool,
        batch_count: int,
    ) -> int | None:
        st = self._mig_active_view()
        if st is None or view.name != st.view_def.name:
            return super()._pending_floor(
                view, index, after_batch=after_batch, batch_count=batch_count
            )
        floor = st.pos.get(index, 0)
        if floor == self.applied_counts.get(index, 0):
            # The floor filter is a no-op here, so answer like the default
            # and let ``V`` share its shard's sweep class again.  ``floor``
            # is a seq and ``applied_counts`` a count; what makes the
            # filter idle is the *shard's* stream, not ``V``'s: channels
            # deliver each source hole-free, so every update still queued
            # (or in the batch in flight) has a seq above the shard's
            # applied count -- the FIFO prefix property the default relies
            # on -- hence above ``floor``, for both ``after_batch`` values
            # and even when a ``relaxed`` ``V`` reached this seq over a hole.
            return None
        if after_batch:
            floor += batch_count
        return floor

    def _note_applied_for_views(
        self, assignment: dict[str, list[UpdateNotice]]
    ) -> None:
        super()._note_applied_for_views(assignment)
        st = self._mig_active_view()
        if st is None:
            return
        vrec = self.extra_recorders.get(st.view_def.name)
        for notice in assignment.get(st.view_def.name, ()):
            if vrec is not None:
                vrec.on_delivery(replace(notice, delivery_seq=None))
            st.pos[notice.source_index] = max(
                st.pos.get(notice.source_index, 0), notice.seq
            )

    def _live_locality(self):
        st = self._mig
        if st is not None and st.suspended:
            return None
        return super()._live_locality()


from repro.warehouse.multiview import (  # noqa: E402 (mixin must exist first)
    MultiViewBatchedSweepWarehouse,
    MultiViewSweepWarehouse,
)


class MigratingMultiViewSweepWarehouse(
    ViewMigrationMixin, MultiViewSweepWarehouse
):
    """Multi-view SWEEP that can donate or adopt a migrating view."""


class MigratingMultiViewBatchedSweepWarehouse(
    ViewMigrationMixin, MultiViewBatchedSweepWarehouse
):
    """Multi-view batched SWEEP that can donate or adopt a migrating view."""


__all__ = [
    "GapComplete",
    "GapFrame",
    "HandoffState",
    "MigratingMultiViewBatchedSweepWarehouse",
    "MigratingMultiViewSweepWarehouse",
    "MigrationMemberState",
    "ViewMigrationMixin",
]
