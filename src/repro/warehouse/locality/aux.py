"""Warehouse-local auxiliary copies of source relations.

The paper's maintenance queries exist because the warehouse does *not*
hold the base relations.  An :class:`AuxiliaryStore` removes that
round trip for selected ("covered") sources: it keeps a full local copy
of each covered relation, advanced in-line from the very same FIFO
update stream the maintenance algorithms consume.

The copy is kept at the warehouse's **installed position**: it is
advanced exactly when an update's effects are marked applied to the view
(:meth:`~repro.warehouse.base.WarehouseBase.mark_applied`), never when
the update is merely delivered.  That choice is what makes the local
answer *compensation-free*:

* sequential SWEEP processes one update at a time, so when update ``u``
  sweeps, every update delivered before ``u`` is already installed --
  the copy equals ``R_j`` at exactly the state remote answer +
  local compensation would reconstruct (the anomaly window is empty);
* the batched scheduler installs a whole batch at once, so during the
  waves the copy is exactly ``R_j^old`` (the rightward wave's target)
  and ``R_j^old + Delta-R_j(batch)`` is the leftward wave's target --
  both are local algebra, no messages;
* the pipelined warehouse patches the copy forward with the
  delivered-but-uninstalled prefix of its delivery log (see
  ``PipelinedSweepWarehouse._local_answer``).

Deltas are applied with :meth:`~repro.relational.relation.Relation.
apply_delta`, which validates before applying -- a drifted copy (a
delete of a row the copy does not hold) fails loudly instead of serving
a silently wrong local answer.

Every copy is hash-indexed on the join columns its views use against it
(:meth:`~repro.relational.view.ViewDefinition.join_attributes_of`, the
rule sources apply to themselves), so a covered step costs O(|Delta|)
probes like the ``ComputeJoin`` it replaces, not a scan of the copy.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.relational.delta import Delta
from repro.relational.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition


class AuxiliaryStore:
    """Per-source local relation copies, keyed by 1-based chain index."""

    def __init__(
        self, primary: ViewDefinition, family: Sequence[ViewDefinition] = ()
    ):
        self.primary = primary
        #: every view answered from these copies (the primary included).
        self.family = tuple(family) or (primary,)
        self._copies: dict[int, Relation] = {}

    # ------------------------------------------------------------------
    def seed(self, index: int, relation: Relation) -> None:
        """Install an indexed copy for source ``index`` (never aliased).

        The one entry point for construction, recovery and rebalance
        adoption: ``Relation.copy()`` drops indexes, so they are built
        here and kept current by ``apply_delta`` from then on.
        """
        expected = self.primary.schema_of(index)
        if relation.schema.attributes != expected.attributes:
            raise SchemaError(
                f"auxiliary seed for {self.primary.name_of(index)!r} has"
                f" schema {list(relation.schema.attributes)!r}, expected"
                f" {list(expected.attributes)!r}"
            )
        copy = relation.copy()
        self._index(index, copy, self.family)
        self._copies[index] = copy

    def extend_family(self, views: Sequence[ViewDefinition]) -> None:
        """Serve ``views`` too: index every copy on the join columns of
        each view not yet in the family (one adopted by migration), so
        its sweep steps probe instead of scanning."""
        new = [view for view in views if view not in self.family]
        if not new:
            return
        self.family += tuple(new)
        for index, copy in self._copies.items():
            self._index(index, copy, new)

    @staticmethod
    def _index(
        index: int, copy: Relation, views: Sequence[ViewDefinition]
    ) -> None:
        for view in views:
            for attr in view.join_attributes_of(index):
                copy.create_index((attr,))

    def drop(self, index: int) -> None:
        """Stop covering ``index`` (recovery demotion)."""
        self._copies.pop(index, None)

    # ------------------------------------------------------------------
    def __contains__(self, index: int) -> bool:
        return index in self._copies

    def indexes(self) -> list[int]:
        return sorted(self._copies)

    def contents(self, index: int) -> Relation:
        """The live copy (callers must not mutate it)."""
        return self._copies[index]

    def apply(self, index: int, delta: Delta) -> None:
        """Advance the copy by one installed update's delta."""
        self._copies[index].apply_delta(delta)

    # ------------------------------------------------------------------
    def rows_of(self, index: int) -> int:
        return self._copies[index].distinct_count

    def rows_total(self) -> int:
        return sum(rel.distinct_count for rel in self._copies.values())

    def by_name(self) -> dict[str, Relation]:
        """Copies keyed by source relation name (checkpoint encoding)."""
        return {
            self.primary.name_of(index): rel
            for index, rel in self._copies.items()
        }

    def __repr__(self) -> str:
        return (
            f"AuxiliaryStore(covered={self.indexes()},"
            f" rows={self.rows_total()})"
        )


__all__ = ["AuxiliaryStore"]
