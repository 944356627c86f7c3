"""Bags of rows with multiplicities -- the storage type of the engine.

:class:`Relation` models a base relation or a materialized view: each row has
a strictly positive integer *count*, the number of distinct derivations of
the row (GMS93 counting).  The paper's Figure 5 example writes this as
``(7,8)[2]``.

The internal representation is a plain dict ``row -> count`` where rows are
Python tuples of hashable values.  Relations are mutated only through
:meth:`insert`, :meth:`delete` and :meth:`apply_delta`; all algebra operators
in :mod:`repro.relational.algebra` are pure and return fresh objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from itertools import repeat
from operator import itemgetter

from repro.relational.errors import (
    ArityError,
    HeterogeneousSchemaError,
    NegativeCountError,
)
from repro.relational.schema import Schema

Row = tuple


class BagBase:
    """Shared plumbing for :class:`Relation` and :class:`~repro.relational.delta.Delta`.

    Subclasses differ only in the sign discipline of counts.  The base class
    never enforces a sign; it provides construction, iteration, equality,
    repr and optional **hash indexes** (attribute positions -> key -> rows)
    that :func:`~repro.relational.algebra.join` probes so a small delta can
    join a large relation without scanning it.
    """

    __slots__ = ("schema", "_counts", "_indexes")

    #: Subclasses set this to reject invalid counts at normalization time.
    _allow_negative = True

    def __init__(
        self,
        schema: Schema,
        rows: Mapping[Row, int] | Iterable[Row] | None = None,
    ):
        self.schema = schema
        self._counts: dict[Row, int] = {}
        self._indexes: dict[tuple[int, ...], dict[tuple, set]] = {}
        if rows is None:
            return
        if isinstance(rows, Mapping):
            items: Iterable[tuple[Row, int]] = rows.items()
        else:
            items = ((row, 1) for row in rows)
        for row, count in items:
            self.add(row, count)

    @classmethod
    def _from_validated(cls, schema: Schema, counts: dict[Row, int]):
        """Adopt ``counts`` without per-row checks (internal fast path).

        The caller guarantees what ``add`` would have enforced: tuple rows
        of the right arity, no zero counts, and the sign discipline of
        ``cls``.  The dict is adopted, not copied -- the caller must hand
        over ownership.
        """
        out = cls.__new__(cls)
        out.schema = schema
        out._counts = counts
        out._indexes = {}
        return out

    # ------------------------------------------------------------------
    # Mutation primitives
    # ------------------------------------------------------------------
    def add(self, row: Row, count: int = 1) -> None:
        """Add ``count`` (possibly negative) occurrences of ``row``.

        Rows whose count reaches zero are dropped; a resulting negative count
        raises :class:`NegativeCountError` unless the subclass is signed.
        """
        row = tuple(row)
        if len(row) != len(self.schema):
            raise ArityError(row, len(self.schema))
        new = self._counts.get(row, 0) + count
        if new == 0:
            removed = self._counts.pop(row, None) is not None
            if removed and self._indexes:
                self._index_remove(row)
        elif new < 0 and not self._allow_negative:
            raise NegativeCountError(row, new)
        else:
            fresh = row not in self._counts
            self._counts[row] = new
            if fresh and self._indexes:
                self._index_add(row)

    # ------------------------------------------------------------------
    # Hash indexes
    # ------------------------------------------------------------------
    def create_index(self, attributes: Iterable[str]) -> None:
        """Maintain a hash index on ``attributes`` (idempotent).

        Sources index their join columns so ComputeJoin probes are O(delta)
        instead of O(relation).
        """
        positions = tuple(self.schema.index_of(a) for a in attributes)
        if positions in self._indexes:
            return
        rows = self._counts
        if len(positions) == 1:
            keys = zip(map(itemgetter(positions[0]), rows))
        elif positions:
            keys = map(itemgetter(*positions), rows)
        else:
            keys = repeat(())
        index: dict[tuple, set] = {}
        for key, row in zip(keys, rows):
            bucket = index.get(key)
            if bucket is None:
                index[key] = {row}
            else:
                bucket.add(row)
        self._indexes[positions] = index

    def get_index(self, positions: tuple[int, ...]):
        """The index on these attribute positions, or None."""
        return self._indexes.get(positions)

    def _index_add(self, row: Row) -> None:
        for positions, index in self._indexes.items():
            index.setdefault(tuple(row[p] for p in positions), set()).add(row)

    def _index_remove(self, row: Row) -> None:
        for positions, index in self._indexes.items():
            key = tuple(row[p] for p in positions)
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del index[key]

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    def count(self, row: Row) -> int:
        """Multiplicity of ``row`` (0 when absent)."""
        return self._counts.get(tuple(row), 0)

    def items(self) -> Iterator[tuple[Row, int]]:
        """Iterate ``(row, count)`` pairs in insertion order."""
        return iter(self._counts.items())

    def rows(self) -> Iterator[Row]:
        """Iterate distinct rows (ignoring multiplicity)."""
        return iter(self._counts)

    def as_dict(self) -> dict[Row, int]:
        """A defensive copy of the row -> count mapping."""
        return dict(self._counts)

    @property
    def distinct_count(self) -> int:
        """Number of distinct rows."""
        return len(self._counts)

    @property
    def total_count(self) -> int:
        """Sum of all counts (can be negative for signed bags)."""
        return sum(self._counts.values())

    def __len__(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._counts

    # ------------------------------------------------------------------
    # Value protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BagBase):
            return NotImplemented
        return self.schema == other.schema and self._counts == other._counts

    def __hash__(self):  # bags are mutable
        raise TypeError(f"{type(self).__name__} objects are unhashable")

    def __repr__(self) -> str:
        shown = sorted(self._counts.items())[:8]
        body = ", ".join(f"{row}[{count}]" for row, count in shown)
        more = "" if len(self._counts) <= 8 else f", ... ({len(self._counts)} rows)"
        return (
            f"{type(self).__name__}"
            f"({list(self.schema.attributes)!r}: {{{body}{more}}})"
        )

    def pretty(self, sort: bool = True) -> str:
        """Multi-line rendering used by examples and experiment reports."""
        header = " | ".join(self.schema.attributes)
        rule = "-" * len(header)
        entries = self._counts.items()
        if sort:
            entries = sorted(entries)
        lines = [header, rule]
        for row, count in entries:
            cells = " | ".join(str(v) for v in row)
            lines.append(
                f"{cells}  [{count:+d}]" if count < 0 else f"{cells}  [{count}]"
            )
        if len(lines) == 2:
            lines.append("(empty)")
        return "\n".join(lines)


class Relation(BagBase):
    """A bag with strictly positive counts (base relation / materialized view).

    >>> r = Relation(Schema(("A", "B")), [(1, 3), (2, 3)])
    >>> r.count((1, 3))
    1
    >>> r.insert((1, 3)); r.count((1, 3))
    2
    """

    __slots__ = ()
    _allow_negative = False

    def insert(self, row: Row, count: int = 1) -> None:
        """Insert ``count`` >= 1 occurrences of ``row``."""
        if count < 1:
            raise ValueError(f"insert count must be >= 1, got {count}")
        self.add(row, count)

    def delete(self, row: Row, count: int = 1) -> None:
        """Delete ``count`` >= 1 occurrences of ``row``.

        Raises :class:`NegativeCountError` if the row is not present with
        sufficient multiplicity -- deleting a non-existent tuple is a
        workload/algorithm bug, not a silent no-op.
        """
        if count < 1:
            raise ValueError(f"delete count must be >= 1, got {count}")
        self.add(row, -count)

    def apply_delta(self, delta: "BagBase") -> None:
        """Apply a signed delta in place (``V = V + Delta-V``).

        The paper installs each Delta-V into the materialized view this way;
        a count driven below zero raises, exposing incorrect maintenance.
        """
        if delta.schema.attributes != self.schema.attributes:
            raise HeterogeneousSchemaError(
                self.schema.attributes, delta.schema.attributes
            )
        # Validate fully before mutating so a failed apply leaves the view
        # untouched (install is atomic, as in the paper's UpdateView process).
        for row, count in delta.items():
            if self._counts.get(row, 0) + count < 0:
                raise NegativeCountError(row, self._counts.get(row, 0) + count)
        for row, count in delta.items():
            self.add(row, count)

    def copy(self) -> "Relation":
        """An independent copy (same schema object, copied counts).

        Hash indexes are **not** copied: the copy answers joins by
        scanning until its holder calls :meth:`create_index` again.
        """
        return Relation._from_validated(self.schema, dict(self._counts))


class FrozenRelation(Relation):
    """A read-only relation, typically *sharing* another bag's counts.

    The copy-on-write ``snapshot()`` of a source backend hands these out:
    the snapshot holder sees an immutable point-in-time state without the
    O(relation) copy, and any attempt to mutate it raises instead of
    silently aliasing into backend state.  Build with :meth:`freeze` (or
    ``_from_validated`` for an owned dict); the shared dict must never be
    mutated afterwards by the sharer -- that is the writer's CoW duty.
    """

    __slots__ = ()

    @classmethod
    def freeze(cls, source: BagBase) -> "FrozenRelation":
        """A frozen view over ``source``'s current counts (no copy)."""
        return cls._from_validated(source.schema, source._counts)

    def add(self, row: Row, count: int = 1) -> None:
        raise TypeError("FrozenRelation is read-only; copy() it to mutate")

    def copy(self) -> "Relation":
        """A mutable, independent copy (escape hatch for holders).

        Like :meth:`Relation.copy`, it carries no hash indexes.
        """
        return Relation._from_validated(self.schema, dict(self._counts))
