"""Signed bags: updates and partial view-change results.

A :class:`Delta` maps rows to *signed* counts.  A source update ``+(3,5)`` is
a Delta with count ``+1``; a delete ``-(7,8)`` has count ``-1``.  The partial
view change carried through a SWEEP (the paper's ``Delta-V``) is also a
Delta: compensation subtracts error terms, which may transiently produce
negative entries even for an insert-driven sweep.

Joins multiply counts, so the sign algebra composes exactly as in the paper:
compensating the answer from source 1 for the concurrent delete
``Delta-R1 = {-(2,3)}`` against ``TempView = {+(3,5)}`` computes
``Delta-R1 |><| TempView = {(2,3,5)[-1]}`` and the subtraction
``Delta-V - {(2,3,5)[-1]}`` *adds* ``(2,3,5)`` back (Section 5.2).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.relational.errors import HeterogeneousSchemaError
from repro.relational.relation import BagBase, Relation, Row
from repro.relational.schema import Schema


class Delta(BagBase):
    """A bag with signed counts; zero-count rows are always dropped.

    >>> d = Delta(Schema(("A", "B")))
    >>> d.add((3, 5), +1)
    >>> d.add((7, 8), -1)
    >>> sorted(d.items())
    [((3, 5), 1), ((7, 8), -1)]
    """

    __slots__ = ()
    _allow_negative = True

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def insert(cls, schema: Schema, row: Row, count: int = 1) -> "Delta":
        """A singleton insert delta ``{+row}``."""
        if count < 1:
            raise ValueError(f"insert count must be >= 1, got {count}")
        return cls(schema, {tuple(row): count})

    @classmethod
    def delete(cls, schema: Schema, row: Row, count: int = 1) -> "Delta":
        """A singleton delete delta ``{-row}``."""
        if count < 1:
            raise ValueError(f"delete count must be >= 1, got {count}")
        return cls(schema, {tuple(row): -count})

    @classmethod
    def from_relation(cls, relation: BagBase) -> "Delta":
        """View any bag as a signed bag (copies counts)."""
        return cls._from_validated(relation.schema, relation.as_dict())

    @classmethod
    def empty(cls, schema: Schema) -> "Delta":
        """The empty delta over ``schema``."""
        return cls(schema)

    # ------------------------------------------------------------------
    # Signed-bag arithmetic (in addition to the pure algebra module)
    # ------------------------------------------------------------------
    def negated(self) -> "Delta":
        """A copy with every count negated."""
        return Delta._from_validated(
            self.schema, {row: -c for row, c in self.items()}
        )

    def merged(self, other: "Delta") -> "Delta":
        """Pointwise sum ``self + other`` (schemas must match).

        SWEEP merges multiple interfering updates from the same source into a
        single compensation delta this way (Section 5.1).
        """
        return self.copy().merge_in_place(other)

    def merge_in_place(self, other: "Delta") -> "Delta":
        """Pointwise add ``other`` into this delta; returns ``self``.

        The accumulation primitive behind batched sweeps: coalescing k
        same-source updates or summing k telescoping terms reuses one
        counts dict instead of allocating k intermediates.
        """
        if other.schema.attributes != self.schema.attributes:
            raise HeterogeneousSchemaError(
                self.schema.attributes, other.schema.attributes
            )
        counts = self._counts
        if self._indexes:
            for row, count in other.items():
                self.add(row, count)
        else:
            for row, count in other.items():
                new = counts.get(row, 0) + count
                if new:
                    counts[row] = new
                else:
                    counts.pop(row, None)
        return self

    def copy(self) -> "Delta":
        """An independent copy."""
        return Delta._from_validated(self.schema, dict(self._counts))

    # ------------------------------------------------------------------
    # Decomposition
    # ------------------------------------------------------------------
    def positive_part(self) -> Relation:
        """The inserted rows as a non-negative bag."""
        return Relation._from_validated(
            self.schema, {r: c for r, c in self.items() if c > 0}
        )

    def negative_part(self) -> Relation:
        """The deleted rows, with counts made positive."""
        return Relation._from_validated(
            self.schema, {r: -c for r, c in self.items() if c < 0}
        )

    @property
    def is_insert_only(self) -> bool:
        """True when every count is positive."""
        return all(c > 0 for _, c in self.items())

    @property
    def is_delete_only(self) -> bool:
        """True when every count is negative."""
        return all(c < 0 for _, c in self.items())


def merge_deltas(schema: Schema, deltas: Iterable[Delta]) -> Delta:
    """Sum an iterable of deltas over ``schema`` into one.

    Used when the warehouse coalesces several queued updates from the same
    source into a single compensation term.
    """
    out = Delta(schema)
    for d in deltas:
        for row, count in d.items():
            out.add(row, count)
    return out


def delta_from_rows(
    schema: Schema,
    inserts: Iterable[Row] = (),
    deletes: Iterable[Row] = (),
) -> Delta:
    """Build a delta from explicit insert/delete row lists (test convenience)."""
    out = Delta(schema)
    for row in inserts:
        out.add(tuple(row), +1)
    for row in deletes:
        out.add(tuple(row), -1)
    return out


__all__ = ["Delta", "merge_deltas", "delta_from_rows"]
