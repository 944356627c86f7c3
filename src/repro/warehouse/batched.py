"""Batched SWEEP: one composite sweep per drained batch of queued updates.

Per-update SWEEP pays ``2(n-1)`` messages and a full left-then-right
round-trip chain for *every* update.  The paper's own Nested SWEEP
(Section 6) shows the win from amortizing concurrent updates into one
composite view change; this module turns that observation into a
*scheduler*: instead of absorbing interference reactively as a sweep
discovers it, the warehouse drains its whole ``UpdateMessageQueue`` up
front and maintains the batch with a single composite sweep.

Correctness rests on the telescoping expansion of the view difference.
For a batch whose per-source merged deltas are ``Delta-R_i`` (i in S):

    V(new) - V(old) = sum over i of
        R_1^new |><| ... |><| R_{i-1}^new |><| Delta-R_i
                |><| R_{i+1}^old |><| ... |><| R_n^old

Each summand is one *term*, seeded with ``Delta-R_i``.  The terms are
evaluated by two source-order wavefronts so that every source is queried
at most twice per batch, with the partials of all terms that need it
packed into one :class:`~repro.sources.messages.MultiQueryRequest`:

* **leftward wave** (j = n-1 .. 1): extends every term ``i > j`` by
  source ``j``.  These terms want ``R_j^new`` -- and by the FIFO channel
  property the source has applied exactly the batch's updates (delivered
  before the drain) plus any updates still sitting in the queue *now*,
  whose error terms are compensated locally exactly as in SWEEP.
* **rightward wave** (j = 2 .. n): extends every term ``i < j`` by
  source ``j``.  These terms want ``R_j^old``, so in addition to the
  queued-update compensation the batch's *own* merged delta at ``j`` is
  subtracted: ``answer - Temp |><| Delta-R_j``.

Message cost per batch of ``k`` updates is at most ``4(n-1)`` (one
query+answer per wave per source), versus ``2(n-1) * k`` for per-update
SWEEP -- O(n)+k rather than O(n)*k, counting the k update notices.

The batch is installed as **one** composite view change, so complete
consistency (a snapshot per update) is traded for strong consistency (a
snapshot per batch, batches being prefixes of the delivery order) --
the same trade Nested SWEEP makes, at strictly lower message cost.
Per-update SWEEP remains the default algorithm and is unchanged.

The scheduler holds a view family
(:class:`~repro.warehouse.multiview.MultiViewStateMixin`): every term
above is kept once per *sweep class* of the family, and the terms of all
classes ride the same per-step request.  The registered single-view
``batched-sweep`` is the one-view, one-class case; a shard hosting many
views, or adopting one by live migration, runs the same wave.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.relational.delta import Delta
from repro.relational.incremental import PartialView
from repro.simulation.process import Delay
from repro.sources.messages import UpdateNotice
from repro.warehouse.base import QueueDrivenWarehouse
from repro.warehouse.multiview import MultiViewStateMixin


class AdaptiveBatchCap:
    """Drain-cap controller: grow under pressure, shrink when drained.

    The static ``max_batch`` knob trades staleness (big batches) against
    message cost (small batches) once, at configuration time.  This
    controller re-makes that trade continuously from two observed
    signals, sampled once per batch at drain time:

    * **queue depth** -- how many updates are waiting right now, and
    * **install lag** -- how long the batch's oldest update sat queued
      (virtual time units), the per-update staleness actually being paid.

    Both are smoothed with an EWMA so one bursty arrival does not whip
    the cap around.  The cap doubles after ``patience`` consecutive
    *pressured* observations (smoothed depth exceeding the current cap,
    or smoothed lag exceeding ``lag_threshold``), halves after
    ``patience`` consecutive *drained* observations (smoothed depth under
    half the cap and lag under threshold), and is always clamped to
    ``[floor, ceiling]`` (``ceiling=0`` means unbounded).  Multiplicative
    moves keep the controller's reaction time logarithmic in the cap, so
    a shard hit by skewed load reaches a deep drain cap within a few
    batches and returns to small, low-staleness batches when the backlog
    clears.

    The controller is pure bookkeeping -- no clocks, no randomness --
    so identical observation sequences produce identical cap sequences.
    """

    def __init__(
        self,
        floor: int = 1,
        ceiling: int = 0,
        alpha: float = 0.5,
        patience: int = 2,
        lag_threshold: float = 50.0,
        initial: int | None = None,
    ):
        if floor < 1:
            raise ValueError(f"floor must be >= 1, got {floor}")
        if ceiling and ceiling < floor:
            raise ValueError(f"ceiling {ceiling} is below floor {floor}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.floor = floor
        self.ceiling = ceiling
        self.alpha = alpha
        self.patience = patience
        self.lag_threshold = lag_threshold
        self.cap = min(initial, ceiling) if initial and ceiling else (
            initial if initial else floor
        )
        self.cap = max(self.floor, self.cap)
        self.depth_ewma = 0.0
        self.lag_ewma = 0.0
        self._pressured = 0
        self._drained = 0

    def observe(self, queue_depth: int, install_lag: float = 0.0) -> int:
        """Fold in one observation and return the cap for the next drain."""
        a = self.alpha
        self.depth_ewma = a * queue_depth + (1.0 - a) * self.depth_ewma
        self.lag_ewma = a * install_lag + (1.0 - a) * self.lag_ewma
        lagging = self.lag_threshold > 0 and self.lag_ewma > self.lag_threshold
        if self.depth_ewma > self.cap or lagging:
            self._pressured += 1
            self._drained = 0
            if self._pressured >= self.patience:
                self._pressured = 0
                grown = self.cap * 2
                self.cap = min(grown, self.ceiling) if self.ceiling else grown
        elif self.depth_ewma < self.cap / 2 and not lagging:
            self._drained += 1
            self._pressured = 0
            if self._drained >= self.patience:
                self._drained = 0
                self.cap = max(self.floor, self.cap // 2)
        else:
            self._pressured = 0
            self._drained = 0
        return self.cap


class BatchedSweepWarehouse(MultiViewStateMixin, QueueDrivenWarehouse):
    """SWEEP with a batch-draining scheduler and wavefront composite sweeps,
    over a view family (a single view is the one-view family).

    One drained batch is maintained for *all* views with one pair of
    wavefronts: at each wave step the active terms of every sweep class
    are packed into a single :class:`MultiQueryRequest`, so the message
    count per batch stays ``<= 4(n-1)`` regardless of how many views the
    warehouse hosts, and same-join views share their terms.  Every view
    receives one install per batch with the identical claimed vector, so
    each view independently satisfies batched (strong) consistency.

    Parameters (beyond :class:`MultiViewStateMixin`'s and
    :class:`QueueDrivenWarehouse`'s):

    max_batch:
        Largest number of queued updates coalesced into one composite
        sweep; ``0`` (the default) drains the whole queue.  With
        ``max_batch=1`` every batch is a singleton and the algorithm
        degenerates to per-update SWEEP message behaviour (and complete
        consistency).
    adaptive:
        Derive the drain cap per batch from observed queue depth and
        install lag (see :class:`AdaptiveBatchCap`) instead of using
        ``max_batch`` statically; ``max_batch`` then acts as the
        controller's hard ceiling (``0`` = no ceiling).
    """

    algorithm_name = "batched-sweep"

    def __init__(self, *args, max_batch: int = 0, adaptive: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        if max_batch < 0:
            raise ValueError(f"max_batch must be >= 0, got {max_batch}")
        self.max_batch = max_batch
        self.batch_cap = AdaptiveBatchCap(ceiling=max_batch) if adaptive else None
        #: True while a popped head waits out the settle turns below.
        self._settling = False

    def pending_work(self) -> bool:
        return self._settling or super().pending_work()

    # ------------------------------------------------------------------
    # The batch-draining UpdateView process (replaces one-at-a-time pop)
    # ------------------------------------------------------------------
    def _drain_cap(self, head: UpdateNotice) -> int:
        """Batch-size cap for the drain about to happen (0 = unbounded)."""
        if self.batch_cap is None:
            return self.max_batch
        depth = len(self.update_queue) + 1
        lag = max(0.0, self.sim.now - head.delivered_at)
        cap = self.batch_cap.observe(depth, lag)
        self.metrics.observe("adaptive_cap", cap)
        return cap

    def _update_view(self) -> Generator:
        while True:
            self._stable_point()
            msg = yield self.update_queue.get()
            self._before_unit()
            if self._is_control(msg):
                yield from self._handle_control(msg)
                continue
            batch: list[UpdateNotice] = [msg.payload]
            locality = self._live_locality()
            if locality is not None and locality.covers_all():
                # A plan that leaves the site yields at its first query,
                # and the rest of a burst queues up behind that round
                # trip.  An all-covered batch never yields, so it would
                # install the burst's first notice alone and meet the
                # others one scheduler turn later, one by one: let the
                # zero-delay deliveries already in flight land first.
                self._settling = True
                depth = -1
                while len(self.update_queue) > depth and (
                    not self.max_batch
                    or len(self.update_queue) + 1 < self.max_batch
                ):
                    depth = len(self.update_queue)
                    yield Delay(0.0)
                self._settling = False
            cap = self._drain_cap(msg.payload)
            # Drain everything already queued into this batch.  Updates
            # delivered *after* this point stay queued; the wavefront
            # compensates their interference and the next batch applies
            # them -- exactly SWEEP's treatment of concurrent updates.
            # Control frames (rebalance fences) end the drain: per-source
            # FIFO means nothing behind a fence may share a batch with
            # the pre-fence prefix.
            for queued in list(self.update_queue.peek_all()):
                if cap and len(batch) >= cap:
                    break
                if self._is_control(queued):
                    break
                self.update_queue.remove(queued)
                batch.append(queued.payload)
            if self.trace:
                self.trace.record(
                    self.sim.now, "warehouse", "batch", f"{len(batch)} update(s)"
                )
            yield from self.process_batch(batch)

    # ------------------------------------------------------------------
    # One composite sweep per batch, per sweep class
    # ------------------------------------------------------------------
    def process_batch(self, batch: list[UpdateNotice]) -> Generator:
        self._mig_observe(batch)
        n = self.view.n_relations
        self.metrics.increment("batched_sweeps")
        self.metrics.observe("batch_size", len(batch))

        # One composite sweep per class: merge same-source deltas over the
        # class's participating prefix of the batch (normally the whole
        # batch, and one class) and seed one term per touched source.
        # Delivery order is preserved by summing -- bag addition commutes.
        assignment = self._partition_batch(batch)
        classes = self._sweep_classes(assignment)
        reps = [members[0] for members in classes]
        merged: list[dict[int, Delta]] = []
        counts: list[dict[int, int]] = []
        for rep in reps:
            deltas: dict[int, Delta] = {}
            count: dict[int, int] = {}
            for notice in batch if assignment is None else assignment[rep.name]:
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

        # Rightward wave: term i wants R_j^old for j > i, so the class's
        # own batch delta at j is part of the error to subtract, on top
        # of the queued-update compensation.
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
                # The covered copy *is* R_j^old (pre-batch installed
                # position) for every class alike: no queued-update or
                # batch-delta error terms.
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

    def _local_wave_answer(
        self, index: int, term: PartialView, batch_delta: Delta | None
    ) -> PartialView:
        """Leftward-wave answer from the covered copy: ``R_j^new`` locally.

        The copy holds ``R_j^old`` (the pre-batch installed position);
        the batch's own merged delta at ``j`` is added by bilinearity of
        the join.  Updates queued after the drain are simply absent --
        exactly what remote-path compensation would have subtracted.
        """
        answer = self._live_locality().aux_answer(index, term)
        if batch_delta is not None:
            answer = answer.add_in_place(term.extend(index, batch_delta))
        return answer


__all__ = ["AdaptiveBatchCap", "BatchedSweepWarehouse"]
