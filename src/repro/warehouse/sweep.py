"""SWEEP (paper Section 5): complete consistency with local compensation.

``ViewChange`` processes one update at a time.  Starting from the update
delta it sweeps left (sources ``i-1 .. 1``) and then right (``i+1 .. n``),
shipping the partial view change to each source and receiving back the
join with that source's current relation.  When the answer from source
``j`` returns, any update from ``j`` still sitting in the update message
queue must -- by the FIFO channel property -- have been applied before the
query was evaluated, so its error term ``Delta-Rj |><| TempView`` is
computed *locally* and subtracted.  No compensation queries are ever sent:
message cost is exactly ``2(n-1)`` (query + answer per other source).

Options reproduce the Section 5.3 optimizations:

* ``parallel`` -- run the left and right sweeps concurrently and merge the
  two half-results at the warehouse (halves the sweep's critical path);
* ``merge_queue_updates`` -- coalesce multiple interfering updates from one
  source into a single compensation term (on by default, as in the paper).

The warehouse hosts a view family
(:class:`~repro.warehouse.multiview.MultiViewStateMixin`): each step
carries one partial per *sweep class* -- the views that join alike share
one -- and each class is compensated on its own.  The registered
single-view ``sweep`` is the one-view, one-class case; a shard hosting
many views, or adopting one by live migration, runs the same sweep, and
the options above apply to every family.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.relational.delta import Delta
from repro.relational.incremental import PartialView
from repro.sources.messages import UpdateNotice
from repro.warehouse.base import QueueDrivenWarehouse
from repro.warehouse.errors import ProtocolError
from repro.warehouse.multiview import MultiViewStateMixin


@dataclass(frozen=True)
class SweepOptions:
    """Tunable SWEEP variants (Section 5.3)."""

    parallel: bool = False
    merge_queue_updates: bool = True


def merge_halves(
    left: PartialView, right: PartialView, seed: Delta
) -> PartialView:
    """Combine parallel sweep halves: ``Delta-V = Delta-V_left |><| Delta-V_right``.

    Both halves contain the seed relation's columns (left covers ``1..i``,
    right covers ``i..n``).  Rows are glued on equal seed tuples; since each
    half's count already includes the seed tuple's (possibly negative)
    multiplicity, the product is divided by it once.
    """
    view = left.view
    if left.lo != 1 or right.hi != view.n_relations or left.hi != right.lo:
        raise ProtocolError(
            f"halves cover {left.lo}..{left.hi} and {right.lo}..{right.hi};"
            " expected 1..i and i..n"
        )
    i = left.hi
    width = len(view.schema_of(i))
    out = Delta(view.wide_schema)

    by_seed: dict[tuple, list[tuple[tuple, int]]] = {}
    for rrow, rcount in right.delta.items():
        by_seed.setdefault(rrow[:width], []).append((rrow, rcount))

    for lrow, lcount in left.delta.items():
        seed_row = lrow[len(lrow) - width:]
        seed_count = seed.count(seed_row)
        if seed_count == 0:
            raise ProtocolError(
                f"half-result row {lrow!r} has no seed tuple {seed_row!r}"
            )
        for rrow, rcount in by_seed.get(seed_row, ()):
            numerator = lcount * rcount
            quotient = numerator // seed_count
            if quotient * seed_count != numerator:
                raise ProtocolError(
                    f"count {numerator} of glued row not divisible by seed"
                    f" multiplicity {seed_count}"
                )
            out.add(lrow + rrow[width:], quotient)
    return PartialView(view, 1, view.n_relations, out)


class SweepWarehouse(MultiViewStateMixin, QueueDrivenWarehouse):
    """The SWEEP algorithm of Figure 4 over a view family: one sweep per
    update, each step one :class:`MultiQueryRequest` carrying one partial
    per sweep class (a single view is the one-view, one-class family)."""

    algorithm_name = "sweep"
    trace_compensations = True

    def __init__(self, *args, options: SweepOptions | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.options = options if options is not None else SweepOptions()
        self.merge_queue_updates = self.options.merge_queue_updates

    def process_update(self, notice: UpdateNotice) -> Generator:
        self._mig_observe([notice])
        assignment = self._partition_batch([notice])
        classes = self._sweep_classes(assignment)
        if classes:
            partials = yield from self._sweep(
                notice.source_index,
                notice.delta,
                [members[0] for members in classes],
            )
        # With no classes every view skipped this update (a migration
        # duplicate); the shard position still advances past it.
        self.mark_applied([notice])
        self._note_applied_for_views(assignment)
        if classes:
            self._install_classes(
                classes,
                [partial.delta for partial in partials],
                f"update src={notice.source_index} seq={notice.seq}",
            )

    # ------------------------------------------------------------------
    # ViewChange: the sequential sweep, or its two halves in parallel
    # ------------------------------------------------------------------
    def _sweep(self, i: int, delta: Delta, reps: list) -> Generator:
        """Every class's full-width view change for ``delta`` at source
        ``i`` (one per representative in ``reps``): left across
        ``i-1 .. 1``, then right across ``i+1 .. n``."""
        n = self.view.n_relations
        partials = [PartialView.initial(rep, i, delta) for rep in reps]
        if self.options.parallel and 1 < i < n:
            return (yield from self._sweep_parallel(i, partials, reps))
        for j in [*range(i - 1, 0, -1), *range(i + 1, n + 1)]:
            locality = self._live_locality()
            if locality is not None and locality.covers(j):
                # Covered source: every class's step is answered from the
                # same local copy, compensation-free (sequential install
                # order makes the copy exactly this update's position).
                partials = [locality.aux_answer(j, p) for p in partials]
                continue
            answers = yield from self._multi_query(j, partials)
            partials = self._compensate_step(j, reps, answers, partials)
        return partials

    def _sweep_parallel(
        self, i: int, seeds: list[PartialView], reps: list
    ) -> Generator:
        """Section 5.3: the left (``i-1 .. 1``) and right (``i+1 .. n``)
        halves each keep their step in flight at once, and their results
        are merged per class (``1 < i < n``)."""
        halves = [
            [seeds, list(range(i - 1, 0, -1))],
            [seeds, list(range(i + 1, self.view.n_relations + 1))],
        ]
        outstanding: dict[int, tuple] = {}

        def advance(half: list) -> None:
            # Take the half's steps the warehouse answers itself, up to
            # the first that must wait for its source; local steps never
            # yield, so no install can interleave mid-sweep.
            partials, sources = half
            while sources:
                j = sources.pop(0)
                locality = self._live_locality()
                if locality is not None and locality.covers(j):
                    partials = [locality.aux_answer(j, p) for p in partials]
                    continue
                hits, issued = self._issue_query(j, partials)
                if issued is not None:
                    outstanding[issued[0].request_id] = (half, j, issued)
                    break
                partials = self._compensate_step(j, reps, hits, partials)
            half[0] = partials

        for half in halves:
            advance(half)
        while outstanding:
            msg, pending = yield self._answer_box.get()
            self._pending_at_answer = pending
            answer = msg.payload
            entry = outstanding.pop(answer.request_id, None)
            if entry is None:
                raise ProtocolError(
                    f"unexpected answer for request {answer.request_id}"
                )
            half, j, issued = entry
            half[0] = self._compensate_step(
                j, reps, self._query_answers(answer, issued), half[0]
            )
            advance(half)
        (left, _), (right, _) = halves
        return [
            merge_halves(lhalf, rhalf, seed.delta)
            for lhalf, rhalf, seed in zip(left, right, seeds)
        ]

    def _compensate_step(
        self,
        index: int,
        reps: list,
        answers: list[PartialView],
        temps: list[PartialView],
    ) -> list[PartialView]:
        """Every class's answer from source ``index``, compensated for the
        updates queued from it (above the class's floor)."""
        if self._mig is None:  # every class compensates from the shard's floor
            return [
                self._compensate_queued(index, answer, temp)
                for answer, temp in zip(answers, temps)
            ]
        return [
            self._compensate_queued(
                index,
                answer,
                temp,
                self._pending_floor(rep, index, after_batch=False, batch_count=0),
            )
            for rep, answer, temp in zip(reps, answers, temps)
        ]


__all__ = ["SweepOptions", "SweepWarehouse", "merge_halves"]
