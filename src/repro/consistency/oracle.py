"""RunRecorder: one object wiring all consistency instrumentation.

The harness creates a :class:`RunRecorder` per experiment, registers it as

* an update listener on every source (building the
  :class:`~repro.consistency.history.SourceHistory`),
* the warehouse dispatcher's delivery hook (building the delivery order), and
* the warehouse install hook (building the
  :class:`~repro.consistency.snapshots.SnapshotLog`),

then asks it for consistency verdicts after the run.
"""

from __future__ import annotations

from repro.consistency.checker import (
    CheckResult,
    InstallAttribution,
    attribute_installs,
    check_batched_complete,
    check_complete,
    check_convergence,
    check_strong,
    check_weak,
    classify,
    missing_deliveries,
)
from repro.consistency.history import SourceHistory
from repro.consistency.levels import ConsistencyLevel
from repro.consistency.snapshots import SnapshotLog
from repro.relational.relation import BagBase, Relation
from repro.relational.view import ViewDefinition
from repro.sources.messages import UpdateNotice


class RunRecorder:
    """Collects source histories, delivery order and installed snapshots."""

    def __init__(self, view: ViewDefinition):
        self.view = view
        self.history = SourceHistory()
        self.deliveries: list[UpdateNotice] = []
        self.snapshots = SnapshotLog()
        #: recovery base: the checkpoint's claimed vector.  Deliveries and
        #: installs recorded here describe the run *after* that point;
        #: every verdict shifts its prefix arithmetic by this vector.
        self.base_vector: dict[int, int] | None = None

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def register_source(self, index: int, name: str, initial: Relation) -> None:
        """Record a source's initial contents (before the run starts)."""
        self.history.register_source(index, name, initial)

    def on_source_update(self, notice: UpdateNotice) -> None:
        """Source-side listener: an update committed locally."""
        self.history.on_source_update(notice)

    def on_delivery(self, notice: UpdateNotice) -> None:
        """Warehouse-side hook: an update entered the update message queue."""
        notice.delivery_seq = len(self.deliveries) + 1
        self.deliveries.append(notice)

    def set_initial_view(self, view_state: Relation) -> None:
        """Record the warehouse's starting materialized view."""
        self.snapshots.set_initial(view_state)

    def resume_from(
        self, base_vector: dict[int, int], view_state: Relation
    ) -> None:
        """Rebase onto recovered durable state (crash-restart runs).

        ``base_vector`` is the checkpoint's claimed vector; ``view_state``
        the recovered view contents (which become the "initial" view of
        this incarnation).  The source history is unaffected -- sources
        replay their full schedules, so history vectors stay absolute.
        """
        self.base_vector = dict(base_vector)
        self.snapshots.set_initial(view_state)

    def on_install(
        self,
        time: float,
        view_state: Relation,
        claimed_vector: dict[int, int] | None = None,
        note: str = "",
        delta: BagBase | None = None,
    ) -> None:
        """Warehouse-side hook: a view change was installed.  With the
        installed ``delta`` only that is logged and ``view_state`` is not
        read; without one, ``view_state`` is copied as the full state."""
        self.snapshots.record(time, view_state, claimed_vector, note, delta)

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def missing_deliveries(self) -> dict[int, list[int]]:
        """Source updates the history holds but this view never saw.

        Empty for every correct quiesced run; a migration that drops its
        straggler window leaves the skipped sequence numbers here even
        when their deltas join to nothing (snapshot checks can't see
        those).
        """
        return missing_deliveries(
            self.history, self.deliveries, base_vector=self.base_vector
        )

    def check(self, level: ConsistencyLevel, max_vectors: int = 50_000) -> CheckResult:
        """Run one named consistency check over the recorded run."""
        if level == ConsistencyLevel.CONVERGENCE:
            return check_convergence(self.view, self.history, self.snapshots)
        if level == ConsistencyLevel.COMPLETE:
            return check_complete(
                self.view,
                self.history,
                self.deliveries,
                self.snapshots,
                base_vector=self.base_vector,
            )
        if level == ConsistencyLevel.WEAK:
            return check_weak(
                self.view, self.history, self.snapshots, max_vectors=max_vectors
            )
        if level == ConsistencyLevel.STRONG:
            return check_strong(
                self.view,
                self.history,
                self.snapshots,
                max_vectors=max_vectors,
                base_vector=self.base_vector,
            )
        raise ValueError(f"no check for level {level!r}")

    def classify(self, max_vectors: int = 50_000) -> ConsistencyLevel:
        """Strongest level the run satisfies (Table 1's consistency column)."""
        return classify(
            self.view,
            self.history,
            self.deliveries,
            self.snapshots,
            max_vectors=max_vectors,
            base_vector=self.base_vector,
        )

    # ------------------------------------------------------------------
    # Batch-aware accounting
    # ------------------------------------------------------------------
    def attribute_installs(self) -> list[InstallAttribution]:
        """Map each install to its member updates (vector-delta attribution).

        Raises :class:`ValueError` when the claimed vectors are malformed
        (no vector, source regression, over-claim) -- see
        :func:`repro.consistency.checker.attribute_installs`.
        """
        return attribute_installs(
            self.deliveries, self.snapshots, base_vector=self.base_vector
        )

    def check_batched(self) -> CheckResult:
        """Batch-aware completeness: installs partition the delivery order."""
        return check_batched_complete(
            self.view,
            self.history,
            self.deliveries,
            self.snapshots,
            base_vector=self.base_vector,
        )

    def per_update_staleness(self) -> list[float]:
        """Per delivered update: virtual time from delivery to its install.

        A composite install covering ``k`` updates contributes ``k``
        entries -- one per member -- so the metric stays per-update under
        batching instead of collapsing to per-install.  Entries appear in
        delivery order.  Updates never attributed to an install are
        omitted; malformed claimed vectors raise :class:`ValueError`.
        """
        staleness: list[tuple[int, float]] = []
        for attribution in self.attribute_installs():
            for notice in attribution.members:
                staleness.append(
                    (notice.delivery_seq or 0, attribution.staleness_of(notice))
                )
        return [value for _, value in sorted(staleness)]

    # ------------------------------------------------------------------
    @property
    def updates_delivered(self) -> int:
        """Updates that reached the warehouse queue."""
        return len(self.deliveries)

    @property
    def updates_installed(self) -> int:
        """Install events at the warehouse."""
        return len(self.snapshots)

    def __repr__(self) -> str:
        return (
            f"RunRecorder({self.view.name}: {self.updates_delivered} delivered,"
            f" {self.updates_installed} installed)"
        )


__all__ = ["RunRecorder"]
