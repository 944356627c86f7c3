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
"""

from __future__ import annotations

from collections.abc import Generator, Sequence
from dataclasses import dataclass

from repro.consistency.oracle import RunRecorder
from repro.relational.delta import Delta
from repro.relational.errors import SchemaError
from repro.relational.incremental import PartialView
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition
from repro.sources.messages import MultiQueryRequest, UpdateNotice, next_request_id
from repro.warehouse.base import QueueDrivenWarehouse
from repro.warehouse.batched import BatchedSweepWarehouse
from repro.warehouse.errors import ProtocolError
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
    """Per-view stores and install plumbing shared by multi-view warehouses.

    Mixed into a :class:`~repro.warehouse.base.QueueDrivenWarehouse`
    subclass *after* its ``__init__`` ran (so ``self.view``/``self.store``
    exist); the host calls :meth:`_init_extra_views` once.
    """

    def _init_extra_views(
        self,
        extra_views: Sequence[ViewDefinition],
        initial_views: dict[str, Relation] | None,
        extra_recorders: dict[str, RunRecorder] | None,
    ) -> None:
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

    # ------------------------------------------------------------------
    # Per-view participation hooks.
    #
    # Normally every view of the shard participates in every unit of work
    # at the shard's shared position, so the defaults are trivial.  A view
    # mid-migration (see repro.warehouse.migration) lags or leads the
    # shard's position while it catches up from the donor's handoff, and
    # overrides these to steer exactly which updates it applies and which
    # queued updates its compensation may subtract.
    # ------------------------------------------------------------------
    def _partition_batch(
        self, batch: list[UpdateNotice]
    ) -> dict[str, list[UpdateNotice]]:
        """Which of ``batch`` each view applies in this unit of work
        (read-only lists: the default shares ``batch`` itself)."""
        return dict.fromkeys([view.name for view in self.views], batch)

    def _positions_differ(self) -> bool:
        """True while some view may apply other updates, or compensate
        from another floor, than its shard -- the per-unit keying of
        :meth:`_sweep_classes` is needed only then."""
        return False

    def _claimed_vector_for(self, view: ViewDefinition) -> dict[int, int]:
        """The per-source position vector ``view``'s next install claims
        (the live mapping: the snapshot log takes its own copy)."""
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
        shard-position default -- queued seqs always exceed the applied
        count plus the in-flight batch, by the FIFO prefix property).
        A migrating view whose position differs from the shard's returns
        its own position (plus its ``batch_count`` participating updates
        when the wave targets the post-batch state, ``after_batch``).
        """
        return None

    def _note_applied_for_views(
        self, assignment: dict[str, list[UpdateNotice]]
    ) -> None:
        """Per-view position accounting, after ``mark_applied`` and before
        the installs of a unit of work."""

    # ------------------------------------------------------------------
    # Sweep classes: one partial view change per distinct sweep.
    # ------------------------------------------------------------------
    def _sweep_classes(
        self, assignment: dict[str, list[UpdateNotice]]
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
        if not self._positions_differ():
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


class MultiViewSweepWarehouse(MultiViewStateMixin, QueueDrivenWarehouse):
    """SWEEP maintaining several views with batched sweep steps.

    Parameters (beyond :class:`QueueDrivenWarehouse`'s):

    extra_views:
        Additional view definitions; the primary ``view`` is maintained
        too, as views[0].
    initial_views:
        View name -> initial contents of each extra view's store (the
        primary's is ``initial_view``), e.g. from ``evaluate_views``.
    extra_recorders:
        Optional ``{view_name: RunRecorder}`` for per-view consistency
        verification of the extra views.
    """

    algorithm_name = "multi-view-sweep"

    def __init__(
        self,
        *args,
        extra_views: Sequence[ViewDefinition] = (),
        initial_views: dict[str, Relation] | None = None,
        extra_recorders: dict[str, RunRecorder] | None = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self._init_extra_views(extra_views, initial_views, extra_recorders)

    # ------------------------------------------------------------------
    def view_change(self, notice: UpdateNotice) -> Generator:
        raise NotImplementedError("multi-view overrides process_update")

    def process_update(self, notice: UpdateNotice) -> Generator:
        i = notice.source_index
        n = self.view.n_relations
        assignment = self._partition_batch([notice])
        classes = self._sweep_classes(assignment)
        if not classes:
            # Every view skipped this update (migration duplicate); the
            # shard position still advances past it.
            self.mark_applied([notice])
            self._note_applied_for_views(assignment)
            return
        reps = [members[0] for members in classes]
        partials = [PartialView.initial(rep, i, notice.delta) for rep in reps]
        sweep_order = list(range(i - 1, 0, -1)) + list(range(i + 1, n + 1))
        for j in sweep_order:
            locality = self._live_locality()
            if locality is not None and locality.covers(j):
                # Covered source: every class's step is answered from the
                # same local copy, compensation-free (sequential install
                # order makes the copy exactly this update's position).
                partials = [locality.aux_answer(j, p) for p in partials]
                continue
            answers = None
            if locality is not None:
                answers = locality.cache_lookup_many(j, partials)
            if answers is not None:
                self._pending_at_answer = self._queued_update_payloads()
            else:
                request = MultiQueryRequest(
                    request_id=next_request_id(),
                    partials=partials,
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
                answers = answer.partials
            partials = [
                self._compensate_one(j, got, temp, rep)
                for rep, got, temp in zip(reps, answers, partials)
            ]

        self.mark_applied([notice])
        self._note_applied_for_views(assignment)
        self._install_classes(
            classes,
            [partial.delta for partial in partials],
            f"update src={notice.source_index} seq={notice.seq}",
        )
        self.metrics.increment("multiview_installs")

    # ------------------------------------------------------------------
    def _compensate_one(
        self,
        index: int,
        answer: PartialView,
        temp: PartialView,
        rep: ViewDefinition,
    ) -> PartialView:
        """SWEEP's local compensation for one class (``rep`` stands for
        every member: a class shares its floor by construction)."""
        pending = self.pending_updates_from(index)
        floor = self._pending_floor(rep, index, after_batch=False, batch_count=0)
        if floor is not None:
            pending = [p for p in pending if p.seq > floor]
        if not pending:
            return answer
        self.metrics.increment("compensations")
        merged = self.merged_pending_delta(pending)
        error = temp.extend(index, merged)
        return answer.compensate(error)


class MultiViewBatchedSweepWarehouse(MultiViewStateMixin, BatchedSweepWarehouse):
    """Batched sweep scheduler generalized to a family of same-chain views.

    One drained batch is maintained for *all* views with one pair of
    wavefronts: at each wave step the active terms of every sweep class
    are packed into a single :class:`MultiQueryRequest`, so the message
    count per batch stays ``<= 4(n-1)`` regardless of how many views the
    shard hosts, and same-join views share their terms -- the same
    sharing as :class:`MultiViewSweepWarehouse`, applied to
    :class:`~repro.warehouse.batched.BatchedSweepWarehouse`'s composite
    sweep.  Every view receives one install per batch with the identical
    claimed vector, so each view independently satisfies the batched
    (strong) consistency the single-view scheduler guarantees.

    Accepts both sets of knobs: ``max_batch``/``adaptive`` from the
    batched scheduler and ``extra_views``/``initial_views``/
    ``extra_recorders`` from the multi-view warehouse.
    """

    algorithm_name = "multi-view-batched-sweep"

    def __init__(
        self,
        *args,
        extra_views: Sequence[ViewDefinition] = (),
        initial_views: dict[str, Relation] | None = None,
        extra_recorders: dict[str, RunRecorder] | None = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self._init_extra_views(extra_views, initial_views, extra_recorders)

    # ------------------------------------------------------------------
    def process_batch(self, batch: list[UpdateNotice]) -> Generator:
        n = self.view.n_relations
        self.batches_processed += 1
        self.metrics.increment("batched_sweeps")
        self.metrics.observe("batch_size", len(batch))

        # One composite sweep per class: merge same-source deltas over the
        # class's participating prefix of the batch (normally the whole
        # batch, and one class) and seed one term per touched source.
        assignment = self._partition_batch(batch)
        classes = self._sweep_classes(assignment)
        reps = [members[0] for members in classes]
        merged: list[dict[int, Delta]] = []
        counts: list[dict[int, int]] = []
        for rep in reps:
            deltas: dict[int, Delta] = {}
            count: dict[int, int] = {}
            for notice in assignment[rep.name]:
                seen = deltas.get(notice.source_index)
                if seen is None:
                    deltas[notice.source_index] = notice.delta.copy()
                else:
                    seen.merge_in_place(notice.delta)
                count[notice.source_index] = count.get(notice.source_index, 0) + 1
            merged.append(deltas)
            counts.append(count)
        # terms[c][i]: class c's term seeded with its Delta-R_i.
        terms: list[dict[int, PartialView]] = [
            {
                index: PartialView.initial(rep, index, delta)
                for index, delta in deltas.items()
            }
            for rep, deltas in zip(reps, merged)
        ]

        # Leftward wave: every class's term i wants R_j^new for j < i.
        for j in range(n - 1, 0, -1):
            slots = [
                (c, i)
                for c, deltas in enumerate(merged)
                for i in sorted(deltas)
                if i > j
            ]
            if not slots:
                continue
            locality = self._live_locality()
            if locality is not None and locality.covers(j):
                for c, i in slots:
                    terms[c][i] = self._local_wave_answer(
                        j, terms[c][i], merged[c].get(j)
                    )
                continue
            answers = yield from self._multi_query(
                j, [terms[c][i] for c, i in slots]
            )
            floors = [
                self._pending_floor(
                    rep, j, after_batch=True, batch_count=count.get(j, 0)
                )
                for rep, count in zip(reps, counts)
            ]
            for (c, i), answer in zip(slots, answers):
                terms[c][i] = self._compensate_queued(
                    j, answer, terms[c][i], floor=floors[c]
                )

        # Rightward wave: term i wants R_j^old for j > i; subtract the
        # class's own batch delta at j on top of the queued-update
        # compensation.
        for j in range(2, n + 1):
            slots = [
                (c, i)
                for c, deltas in enumerate(merged)
                for i in sorted(deltas)
                if i < j
            ]
            if not slots:
                continue
            locality = self._live_locality()
            if locality is not None and locality.covers(j):
                # The covered copy is R_j^old for every class alike.
                for c, i in slots:
                    terms[c][i] = locality.aux_answer(j, terms[c][i])
                continue
            answers = yield from self._multi_query(
                j, [terms[c][i] for c, i in slots]
            )
            floors = [
                self._pending_floor(rep, j, after_batch=False, batch_count=0)
                for rep in reps
            ]
            for (c, i), answer in zip(slots, answers):
                temp = terms[c][i]
                answer = self._compensate_queued(
                    j, answer, temp, floor=floors[c]
                )
                batch_delta = merged[c].get(j)
                if batch_delta is not None:
                    answer = answer.compensate(temp.extend(j, batch_delta))
                terms[c][i] = answer

        self.mark_applied(batch)
        self._note_applied_for_views(assignment)
        self.metrics.observe("updates_per_install", len(batch))
        union_sources = sorted({i for deltas in merged for i in deltas})
        composites: list[Delta] = []
        for class_terms in terms:
            # Sum the class's terms into one composite wide delta.
            composite: PartialView | None = None
            for index in sorted(class_terms):
                term = class_terms[index]
                composite = (
                    term if composite is None else composite.add_in_place(term)
                )
            composites.append(composite.delta)
        self._install_classes(
            classes,
            composites,
            f"batch of {len(batch)} update(s), sources {union_sources}",
        )
        self.metrics.increment("multiview_installs")


__all__ = [
    "MultiViewBatchedSweepWarehouse",
    "MultiViewStateMixin",
    "MultiViewSweepWarehouse",
    "validate_same_chain",
]
