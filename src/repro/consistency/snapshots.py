"""Installed view states recorded at the warehouse, logged as deltas.

An install appends the delta it applied, chained to the entry before it;
nothing proportional to the view is touched at record time.  A state is
rebuilt only when somebody reads :attr:`ViewSnapshot.view`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.relation import BagBase, Relation


class _Cursor:
    """The one state a log keeps materialised: private, advanced in place."""

    entry = state = None


@dataclass(slots=True, eq=False, repr=False)
class ViewSnapshot:
    """One installed view state.

    Either a *full* state (``delta is None``: the initial view, or a view
    handed to :meth:`SnapshotLog.record`) or the ``delta`` an install
    applied on top of the entry it is chained to.  The chain is by
    reference, so :attr:`view` does not depend on where the entry sits in
    ``SnapshotLog.snapshots``.

    ``claimed_vector`` is the per-source update-count vector the algorithm
    *believes* this state reflects (instrumentation); the independent
    checker ignores it, the instrumented checker validates it.
    """

    time: float
    _state: Relation | None = None
    claimed_vector: dict[int, int] | None = None
    note: str = ""
    delta: BagBase | None = None
    _prev: "ViewSnapshot | None" = None
    _cursor: _Cursor | None = None

    @property
    def view(self) -> Relation:
        """The installed state: the stored one, else a fresh copy.

        Rebuilding walks back to the nearest full state -- or to the log's
        cursor, which an in-order reader finds one entry back, so a pass
        over the log costs one O(|V|) copy per entry, as eager copies did.
        """
        if self._state is not None:
            return self._state
        cursor, node, pending = self._cursor, self, []
        while node.delta is not None and node is not cursor.entry:
            pending.append(node.delta)
            node = node._prev
        state = cursor.state if node.delta is not None else node._state.copy()
        for delta in reversed(pending):
            state.apply_delta(delta)
        cursor.entry, cursor.state = self, state
        return state.copy()

    @view.setter
    def view(self, relation: Relation) -> None:
        # Pins what this entry shows; entries chained to it keep building
        # on its logged delta.
        self._state = relation

    def __repr__(self) -> str:
        size = (
            f"{self._state.distinct_count} rows"
            if self._state is not None
            else f"delta of {len(self.delta)} rows"
        )
        return (
            f"ViewSnapshot(t={self.time:.3f}, {size},"
            f" claims={self.claimed_vector})"
        )


class SnapshotLog:
    """Ordered snapshots: the initial view state plus one per install."""

    def __init__(self):
        self.initial: Relation | None = None
        self.snapshots: list[ViewSnapshot] = []
        self._root: ViewSnapshot | None = None  # ``initial`` as a chain entry
        self._tail: ViewSnapshot | None = None  # what the next delta extends
        self._cursor = _Cursor()

    def set_initial(self, view: Relation) -> None:
        """Record the view state the warehouse started (or resumed) from."""
        self.initial = view.copy()
        self._root = self._tail = ViewSnapshot(0.0, self.initial)

    def record(
        self,
        time: float,
        view: Relation | None,
        claimed_vector: dict[int, int] | None = None,
        note: str = "",
        delta: BagBase | None = None,
    ) -> ViewSnapshot:
        """Append an install: its ``delta`` (kept, never copied -- the
        installer must not mutate it afterwards), or without one a copy
        of the full ``view``."""
        if claimed_vector is not None:  # callers pass their live mapping
            claimed_vector = dict(claimed_vector)
        if delta is None:
            snap = ViewSnapshot(time, view.copy(), claimed_vector, note)
        elif self._tail is None:
            raise ValueError("a delta was logged before any full view state")
        else:
            snap = ViewSnapshot(
                time, None, claimed_vector, note, delta, self._tail, self._cursor
            )
        self.snapshots.append(snap)
        self._tail = snap
        return snap

    @property
    def final_view(self) -> Relation | None:
        """The last installed state (or the initial one if none installed)."""
        if self.snapshots:
            return self.snapshots[-1].view
        return self.initial

    def view_as_of(self, time: float) -> Relation | None:
        """The view a reader would have seen at virtual ``time``.

        Returns the last state installed at or before ``time`` (the initial
        state if nothing was installed yet, None if that is unknown).
        """
        current = None
        for snap in self.snapshots:
            if snap.time > time:
                break
            current = snap
        return self.initial if current is None else current.view

    def distinct_states(self) -> int:
        """Number of snapshots that changed the view vs. their predecessor."""
        count = 0
        prev = self._root
        for snap in self.snapshots:
            chained = snap._state is None and snap._prev is prev is not None
            if chained and (prev.delta is None or prev._state is None):
                count += bool(snap.delta)  # snap.view is prev.view + delta
            elif prev is None or snap.view != prev.view:
                count += 1
            prev = snap
        return count

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self):
        return iter(self.snapshots)


__all__ = ["SnapshotLog", "ViewSnapshot"]
