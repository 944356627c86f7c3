"""Multi-view maintenance: many SPJ views, one update stream, shared sweeps.

A production warehouse rarely materializes a single view.  This module
maintains **any number of views over the same source chain** with SWEEP
semantics, at the paper's per-*update* cost: the message count per update
stays ``2(n-1)`` however many views are maintained, and so does the join
count for every set of views that share their join conditions.

All views must agree on the relation chain (names and schemas, in order);
they are free to differ in join conditions, selections and projections.
A sweep never looks at a view's selection or projection -- the partial
view change it carries is the *wide* join -- so views with equal
``join_conditions`` that apply the same updates from the same position
form one **sweep class** and share one partial view change through the
:class:`~repro.sources.messages.MultiQueryRequest`, the source's
``ComputeJoin``, the answer cache and the compensation.  Only at install
does each member finalize (its own selection + projection) the class's
shared wide delta.  A family with ``k`` distinct join sets sweeps ``k``
partials per step; payload rows grow with the classes, not the views.

Each view gets its own :class:`~repro.warehouse.view_store.MaterializedView`
and (optionally) its own consistency recorder; every view is maintained
with complete consistency, exactly as if it ran its own SWEEP -- sharing
changes the envelope and who computes the join, not the algebra, because
every class's join inside one step is evaluated against the same atomic
source state and compensated against the same queued updates its members
would each have used.

:class:`MultiViewStateMixin` is that family's state, and it is the only
copy: the per-view stores, the sweep classes, the remote sweep step and
its compensation, and live migration of one member between shards (the
protocol is described in :mod:`repro.warehouse.migration`).  Two
schedulers hold it: :class:`~repro.warehouse.sweep.SweepWarehouse` (one
sweep per update) and :class:`~repro.warehouse.batched.BatchedSweepWarehouse`
(one composite sweep per drained batch).  A single view is the one-view
family.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence
from dataclasses import dataclass, replace

from repro.consistency.oracle import RunRecorder
from repro.durability.checkpoint import decode_view_handoff, encode_view_handoff
from repro.durability.encoding import decode_relation
from repro.relational.delta import Delta, merge_deltas
from repro.relational.errors import SchemaError
from repro.relational.incremental import PartialView
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition
from repro.simulation.channel import Message
from repro.sources.messages import (
    MultiQueryRequest,
    UpdateNotice,
    is_rebalance_fence,
    next_request_id,
)
from repro.warehouse.errors import ProtocolError
from repro.warehouse.migration import (
    GapComplete,
    GapFrame,
    HandoffState,
    MigrationMemberState,
)
from repro.warehouse.view_store import MaterializedView


def validate_same_chain(views: Sequence[ViewDefinition]) -> None:
    """All views must share relation names and schemas, in order."""
    if not views:
        raise SchemaError("need at least one view")
    first = views[0]
    for view in views[1:]:
        if view.relation_names != first.relation_names:
            raise SchemaError(
                f"view {view.name!r} has relations"
                f" {list(view.relation_names)!r}, expected"
                f" {list(first.relation_names)!r}"
            )
        for i in range(1, first.n_relations + 1):
            if view.schema_of(i).attributes != first.schema_of(i).attributes:
                raise SchemaError(
                    f"view {view.name!r} disagrees on schema of relation"
                    f" {first.name_of(i)!r}"
                )


@dataclass(frozen=True, slots=True)
class _ClassPlan:
    """A shard's static sweep classes and their member install order."""

    classes: list[list[ViewDefinition]]
    installs: list[tuple[int, ViewDefinition]]


class MultiViewStateMixin:
    """A view family's state: per-view stores, sweep classes, migration.

    Mixed in before :class:`~repro.warehouse.base.QueueDrivenWarehouse`.
    Keyword arguments beyond the host's:

    extra_views:
        Additional view definitions; the primary ``view`` is maintained
        too, as views[0].
    initial_views:
        View name -> initial contents of each extra view's store (the
        primary's is ``initial_view``), e.g. from ``evaluate_views``.
    extra_recorders:
        Optional ``{view_name: RunRecorder}`` for per-view consistency
        verification of the extra views.

    Every family can donate or adopt a migrating view: the migration
    state is inert -- every hook answers as for a family at one position
    -- until the rebalance coordinator calls :meth:`attach_migration`.
    """

    #: Section 5.3: one compensation term for a source's queued updates.
    merge_queue_updates = True
    #: trace each compensation as ``compensate src=j xK``.
    trace_compensations = False

    def __init__(
        self,
        *args,
        extra_views: Sequence[ViewDefinition] = (),
        initial_views: dict[str, Relation] | None = None,
        extra_recorders: dict[str, RunRecorder] | None = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.views: list[ViewDefinition] = [self.view, *extra_views]
        validate_same_chain(self.views)
        names = [v.name for v in self.views]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate view names: {names!r}")
        self.stores: dict[str, MaterializedView] = {self.view.name: self.store}
        self.extra_recorders = dict(extra_recorders or {})
        for view in self.views[1:]:
            if view.name not in (initial_views or {}):
                raise SchemaError(f"no initial contents for view {view.name!r}")
            self.stores[view.name] = MaterializedView(view, initial_views[view.name])
            recorder = self.extra_recorders.get(view.name)
            if recorder is not None:
                recorder.set_initial_view(self.stores[view.name].relation)
        #: the migration this member takes part in (None = none attached).
        self._mig: MigrationMemberState | None = None
        self._views_changed()

    def _views_changed(self) -> None:
        """The membership hook: construction, a migration's adoption and
        catch-up, and a donor's seal call it whenever ``self.views`` or a
        view's position changes.  It drops the static sweep classes (the
        next unit of work regroups) and indexes the auxiliary copies for
        the join columns of any view the locality layer has not served
        before."""
        self._static_plan: _ClassPlan | None = None
        locality = self.locality
        if locality is not None:
            locality.aux.extend_family(self.views)

    def _install_extra(self, view: ViewDefinition, wide_delta, note: str) -> None:
        """Install one extra view's change and snapshot it for its oracle."""
        store = self.stores[view.name]
        delta = store.install_wide(wide_delta)
        recorder = self.extra_recorders.get(view.name)
        if recorder is not None:
            recorder.on_install(
                self.sim.now,
                store.relation,
                self._claimed_vector_for(view),
                note,
                delta,
            )

    def view_contents(self, name: str) -> Relation:
        """Current contents of the named view."""
        return self.stores[name].snapshot()

    def pending_work(self) -> bool:
        if super().pending_work():
            return True
        st = self._mig
        # A recipient holding an un-caught-up handoff (or buffered gap/pen
        # frames) is mid-protocol even with every queue momentarily empty.
        return (
            st is not None
            and st.role == "recipient"
            and not st.catchup_done
            and (st.handoff is not None or bool(st.gap) or bool(st.pen))
        )

    # ------------------------------------------------------------------
    # Per-view participation.
    #
    # Normally every view of the shard participates in every unit of work
    # at the shard's shared position.  A view adopted by migration lags or
    # leads that position from catch-up on, until it provably rejoins it:
    # these hooks steer exactly which updates it applies and which queued
    # updates its compensation may subtract.
    # ------------------------------------------------------------------
    def _mig_active_view(self) -> MigrationMemberState | None:
        """The recipient's migration state once ``V`` has caught up (from
        then on ``V`` keeps its own position guard), else None."""
        st = self._mig
        if st is not None and st.role == "recipient" and st.catchup_done:
            return st
        return None

    def _partition_batch(
        self, batch: list[UpdateNotice]
    ) -> dict[str, list[UpdateNotice]] | None:
        """Which of ``batch`` each view applies in this unit of work
        (read-only lists: views at the shard's position share ``batch``),
        or None while every view sits at the shard's position and
        applies all of it -- the per-unit keying of
        :meth:`_sweep_classes` is needed only otherwise.

        A caught-up migrated view drops the duplicates of updates its
        catch-up already applied; a hole is a protocol error.
        """
        st = self._mig_active_view()
        if st is None:
            return None
        assignment = dict.fromkeys([view.name for view in self.views], batch)
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
        """The per-source position vector ``view``'s next install claims
        (the live mapping: the snapshot log takes its own copy)."""
        st = self._mig
        if (
            st is not None
            and st.role == "recipient"
            and st.adopted
            and view.name == st.view_def.name
        ):
            return st.pos
        return self.applied_counts

    def _pending_floor(
        self,
        view: ViewDefinition,
        index: int,
        *,
        after_batch: bool,
        batch_count: int,
    ) -> int | None:
        """Smallest queued ``seq`` from ``index`` that may be compensated.

        ``None`` means no floor: every queued update interferes (the
        shard-position case -- queued seqs always exceed the applied
        count plus the in-flight batch, by the FIFO prefix property).
        A migrated view whose position differs from the shard's returns
        its own position (plus its ``batch_count`` participating updates
        when the wave targets the post-batch state, ``after_batch``).
        """
        st = self._mig_active_view()
        if st is None or view.name != st.view_def.name:
            return None
        floor = st.pos.get(index, 0)
        if floor == self.applied_counts.get(index, 0):
            # The floor filter is a no-op here, so answer like the shard
            # and let ``V`` share its shard's sweep class again.  ``floor``
            # is a seq and ``applied_counts`` a count; what makes the
            # filter idle is the *shard's* stream, not ``V``'s: channels
            # deliver each source hole-free, so every update still queued
            # (or in the batch in flight) has a seq above the shard's
            # applied count -- the FIFO prefix property -- hence above
            # ``floor``, for both ``after_batch`` values and even when a
            # ``relaxed`` ``V`` reached this seq over a hole.
            return None
        if after_batch:
            floor += batch_count
        return floor

    def _note_applied_for_views(
        self, assignment: dict[str, list[UpdateNotice]] | None
    ) -> None:
        """Per-view position accounting, after ``mark_applied`` and before
        the installs of a unit of work: a caught-up migrated view advances
        its own position and its recorder's delivery log."""
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

    # ------------------------------------------------------------------
    # Sweep classes: one partial view change per distinct sweep.
    # ------------------------------------------------------------------
    def _sweep_classes(
        self, assignment: dict[str, list[UpdateNotice]] | None
    ) -> list[list[ViewDefinition]]:
        """Group the participating views by the sweep they need.

        Two views need the *same* sweep -- identical partials at every
        step, identical error terms -- exactly when they join alike,
        apply the same notices and compensate from the same per-source
        floor.  A view mid-migration differs from its shard in the last
        two and so lands in a class of its own.  Classes and their
        members keep ``self.views`` order; a class's first member is its
        representative (the ``view`` its partials are tagged with).

        When every view sits at the shard's position (no migration in
        progress) the grouping depends on the view set alone: it is
        shard state, built once by :meth:`_static_classes` and rebuilt
        only after :meth:`_views_changed`.
        """
        if assignment is None:
            plan = self._static_plan
            if plan is None:
                plan = self._static_plan = self._static_classes()
            return plan.classes
        sources = range(1, self.view.n_relations + 1)
        classes: dict[tuple, list[ViewDefinition]] = {}
        for view in self.views:
            notices = assignment[view.name]
            if not notices:
                # Skips this unit of work (migration duplicates).
                continue
            key = (
                view.join_conditions,
                tuple(map(id, notices)),
                tuple(
                    self._pending_floor(
                        view, j, after_batch=False, batch_count=0
                    )
                    for j in sources
                ),
            )
            classes.setdefault(key, []).append(view)
        return list(classes.values())

    def _static_classes(self) -> _ClassPlan:
        """The grouping when every view takes the whole unit of work at
        the shard's floor: classes are the distinct join conditions."""
        classes: dict[tuple, list[ViewDefinition]] = {}
        for view in self.views:
            classes.setdefault(view.join_conditions, []).append(view)
        grouped = list(classes.values())
        return _ClassPlan(grouped, self._install_order(grouped))

    def _install_order(
        self, classes: list[list[ViewDefinition]]
    ) -> list[tuple[int, ViewDefinition]]:
        """``(class index, member)`` for every member, in ``self.views``
        order."""
        class_of = {
            view.name: c for c, members in enumerate(classes) for view in members
        }
        return [
            (class_of[view.name], view)
            for view in self.views
            if view.name in class_of
        ]

    def _install_classes(
        self,
        classes: list[list[ViewDefinition]],
        wide_deltas: list[Delta],
        note: str,
    ) -> None:
        """Install each class's wide delta into every member, in
        ``self.views`` order; each member finalizes (selects + projects)
        the shared delta for itself."""
        plan = self._static_plan
        if plan is not None and classes is plan.classes:
            order = plan.installs
        else:
            order = self._install_order(classes)
        primary = self.view
        for c, view in order:
            if view is primary:
                self.install_wide(wide_deltas[c], note=note)
            else:
                self._install_extra(view, wide_deltas[c], note)

    # ------------------------------------------------------------------
    # The remote sweep step and its local compensation
    # ------------------------------------------------------------------
    def _issue_query(
        self, index: int, partials: list[PartialView]
    ) -> tuple[list[PartialView] | None, tuple | None]:
        """Start one sweep step: every partial visits source ``index`` at
        once, in one :class:`MultiQueryRequest` -- ``(None, issued)``,
        for :meth:`_query_answers` to read the answer by.

        With a locality layer, fingerprint-equal partials are sent once
        (multi-query sharing), and cached answers satisfy the whole step
        locally when every unique partial hits: ``(answers, None)``.
        """
        send, mapping = partials, None
        locality = self._live_locality()
        if locality is not None:
            send, mapping = locality.dedupe(send)
            hits = locality.cache_lookup_many(index, send)
            if hits is not None:
                # A full cache hit is an answer routed this instant.
                self._pending_at_answer = self._queued_update_payloads()
                return locality.expand(hits, mapping), None
        request = MultiQueryRequest(
            request_id=next_request_id(),
            partials=send,
            target_index=index,
        )
        self.send_query(index, request)
        return None, (request, mapping)

    def _query_answers(self, answer, issued: tuple) -> list[PartialView]:
        """The per-partial answers of ``answer`` to an issued step."""
        request, mapping = issued
        if answer.request_id != request.request_id:
            raise ProtocolError(
                f"answer {answer.request_id} does not match request"
                f" {request.request_id}"
            )
        if len(answer.partials) != len(request.partials):
            raise ProtocolError(
                f"multi-query answer carries {len(answer.partials)} partials,"
                f" expected {len(request.partials)}"
            )
        if mapping is None:
            return answer.partials
        return self.locality.expand(answer.partials, mapping)

    def _multi_query(
        self, index: int, partials: list[PartialView]
    ) -> Generator:
        """One sweep step, awaited: the answers of every partial."""
        hits, issued = self._issue_query(index, partials)
        if issued is None:
            return hits
        msg, pending = yield self._answer_box.get()
        self._pending_at_answer = pending
        return self._query_answers(msg.payload, issued)

    def _compensate_queued(
        self,
        index: int,
        answer: PartialView,
        temp: PartialView,
        floor: int | None = None,
    ) -> PartialView:
        """SWEEP's local compensation: any update from ``index`` still
        queued when the answer was routed was -- by FIFO -- applied
        before the query was evaluated, so its error term is rolled back
        locally: one term for all of them (:attr:`merge_queue_updates`),
        or one per queued update.

        ``floor`` (a class's :meth:`_pending_floor`) restricts the
        subtraction to queued seqs above it: lower seqs are already in
        that class's views.
        """
        pending = self.pending_updates_from(index)
        if floor is not None:
            pending = [p for p in pending if p.seq > floor]
        if not pending:
            return answer
        self.metrics.increment("compensations")
        if self.trace and self.trace_compensations:
            detail = f"src={index} x{len(pending)}"
            self.trace.record(self.sim.now, "warehouse", "compensate", detail)
        if self.merge_queue_updates:
            error = temp.extend(index, self.merged_pending_delta(pending))
            return answer.compensate(error)
        for notice in pending:
            answer = answer.compensate(temp.extend(index, notice.delta))
            self.metrics.increment("compensation_terms")
        return answer

    # ------------------------------------------------------------------
    # Queue hooks: rebalance frames share the update queue.  Only a member
    # with a migration attached is sent fences and control frames, so the
    # family is inert (no frame is control) until then.
    # ------------------------------------------------------------------
    def _intercept_update(self, msg: Message) -> bool:
        if self._mig is None or not is_rebalance_fence(msg.payload):
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
        return self._mig is not None and (
            msg.kind == "rebalance" or is_rebalance_fence(msg.payload)
        )

    def _before_unit(self) -> None:
        # A stable point: the donor seals its migrating view here.
        st = self._mig
        if (
            st is not None
            and st.role == "donor"
            and st.seal_requested
            and not st.sealed
        ):
            self._donor_seal()

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

    def _live_locality(self):
        """The locality layer, or None while its answers are unusable: a
        recipient mid-migration has one view whose position lags the
        shard's, so no sweep may consume answers pinned to the shared
        one."""
        st = self._mig
        if st is not None and st.suspended:
            return None
        return self.locality

    # ------------------------------------------------------------------
    # Live migration (repro.warehouse.migration describes the protocol)
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

    def _mig_observe(self, notices: list[UpdateNotice]) -> None:
        """Straggler bookkeeping for one unit of work's updates; each
        scheduler calls it first thing in its unit.

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

    def _donor_seal(self) -> None:
        """Drop ``V`` from the family and hand off its state."""
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

    def _mig_catchup(self) -> Generator:
        """Recipient: adopt ``V`` from the handoff, then replay the gap
        and the pen through ``V``-only sweeps."""
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

        Every step goes to the source (locality is suspended during
        catch-up).  Compensation at step ``j`` deduplicates by sequence
        number over the un-replayed remainder and the queued-updates
        snapshot: a late pre-fence update can be in both (forwarded by
        the donor *and* still queued here), and must be subtracted
        exactly once.
        """
        st = self._mig
        i = notice.source_index
        n = vdef.n_relations
        if vrec is not None:
            vrec.on_delivery(notice)
        partial = PartialView.initial(vdef, i, notice.delta)
        for j in [*range(i - 1, 0, -1), *range(i + 1, n + 1)]:
            temp = partial
            (partial,) = yield from self._multi_query(j, [partial])
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


__all__ = [
    "MultiViewStateMixin",
    "validate_same_chain",
]
