"""In-memory source storage on the bag engine."""

from __future__ import annotations

from repro.relational.delta import Delta
from repro.relational.errors import SchemaError
from repro.relational.incremental import PartialView
from repro.relational.relation import FrozenRelation, Relation
from repro.relational.view import ViewDefinition
from repro.sources.base import SourceBackend


class MemoryBackend(SourceBackend):
    """Stores the base relation as a :class:`Relation`.

    Parameters
    ----------
    view:
        The warehouse view definition (sources know the view so they can
        apply the right join conditions, as in the paper's architecture
        where the view definition is distributed with the monitors).
    index:
        This source's 1-based position in the view's relation chain.
    initial:
        Initial contents; empty when omitted.
    """

    def __init__(
        self, view: ViewDefinition, index: int, initial: Relation | None = None
    ):
        self.view = view
        self.index = index
        schema = view.schema_of(index)
        if initial is not None:
            if initial.schema.attributes != schema.attributes:
                raise SchemaError(
                    f"initial contents schema {list(initial.schema.attributes)!r}"
                    f" does not match relation {view.name_of(index)!r}"
                )
            self._relation = initial.copy()
        else:
            self._relation = Relation(schema)
        # Index the local join columns: ComputeJoin probes become
        # O(|delta|) lookups instead of O(|relation|) scans.
        self._indexed_attrs = [(a,) for a in view.join_attributes_of(index)]
        for attrs in self._indexed_attrs:
            self._relation.create_index(attrs)
        #: True while an outstanding snapshot shares our counts dict.
        self._snapshot_shared = False

    def apply(self, delta: Delta) -> None:
        if self._snapshot_shared:
            # Copy-on-write: the previous snapshot keeps the old counts
            # dict untouched; we move on with a fresh one (indexes rebuilt).
            fresh = Relation._from_validated(
                self._relation.schema, self._relation.as_dict()
            )
            for attrs in self._indexed_attrs:
                fresh.create_index(attrs)
            self._relation = fresh
            self._snapshot_shared = False
        self._relation.apply_delta(delta)

    def snapshot(self) -> Relation:
        """A read-only point-in-time view of the relation, O(1).

        The frozen snapshot shares the backend's counts dict until the next
        :meth:`apply`, which copies before writing.  Holders that need a
        mutable bag call ``.copy()`` on the result; mutating the snapshot
        itself raises, so callers cannot alias-mutate backend state.
        """
        self._snapshot_shared = True
        return FrozenRelation.freeze(self._relation)

    def compute_join(self, partial: PartialView) -> PartialView:
        return partial.extend(self.index, self._relation)

    def __repr__(self) -> str:
        return (
            f"MemoryBackend({self.view.name_of(self.index)!r},"
            f" {self._relation.distinct_count} rows)"
        )


__all__ = ["MemoryBackend"]
