"""The stored materialized view with tuple counts.

Strict mode (the default) raises :class:`NegativeCountError` when an
install would drive a tuple count negative -- i.e. when a maintenance
algorithm computed a wrong view change.  Correct algorithms never trigger
it; the test suite relies on that.

Tolerant mode instead clamps the count at zero and records an *anomaly*.
The naive convergent baseline runs tolerant, turning the update anomalies
of Section 3 into a measurable counter instead of a crash.
"""

from __future__ import annotations

from repro.relational.delta import Delta
from repro.relational.relation import BagBase, Relation
from repro.relational.view import ViewDefinition


class MaterializedView:
    """The warehouse's view contents plus install bookkeeping."""

    def __init__(
        self,
        view: ViewDefinition,
        initial: Relation | None = None,
        strict: bool = True,
    ):
        self.view = view
        self.strict = strict
        self.anomalies = 0
        self.installs = 0
        schema = view.view_schema
        if initial is not None:
            if initial.schema.attributes != schema.attributes:
                from repro.relational.errors import HeterogeneousSchemaError

                raise HeterogeneousSchemaError(
                    schema.attributes, initial.schema.attributes
                )
            self.relation = initial.copy()
        else:
            self.relation = Relation(schema)
        self._aggregates: list = []

    # ------------------------------------------------------------------
    @classmethod
    def from_states(
        cls,
        view: ViewDefinition,
        states: dict[str, Relation],
        strict: bool = True,
    ) -> "MaterializedView":
        """Initialize to the correct view over ``states`` (paper Figure 4:
        'V: RELATION; initialized to the correct view')."""
        return cls(view, view.evaluate(states), strict=strict)

    # ------------------------------------------------------------------
    def attach_aggregate(self, group_by, aggregates) -> "AggregateView":
        """Create and register an aggregate view maintained on install.

        The aggregate is initialized from the current contents and then
        updated incrementally from every installed delta.  Requires strict
        mode (aggregates over anomalous counts would be meaningless).
        """
        from repro.relational.aggregate import AggregateView

        if not self.strict:
            raise ValueError(
                "aggregate views require a strict materialized view"
            )
        agg = AggregateView.over_relation(
            self.relation, tuple(group_by), tuple(aggregates)
        )
        self._aggregates.append(agg)
        return agg

    @property
    def aggregates(self) -> tuple:
        """Attached aggregate views."""
        return tuple(self._aggregates)

    def apply(self, delta: BagBase) -> BagBase:
        """Install a view-schema delta (``V = V + Delta-V``).

        Returns the delta actually installed, which the snapshot log keeps
        by reference: ``delta`` itself when strict (callers build one per
        install and must not mutate it afterwards), the clamped *effective*
        delta when tolerant -- so replaying the returned deltas over the
        state before them always reproduces ``relation``.
        """
        self.installs += 1
        if self.strict:
            self.relation.apply_delta(delta)
            for agg in self._aggregates:
                agg.apply(delta)
            return delta
        effective: dict[tuple, int] = {}
        for row, count in delta.items():
            current = self.relation.count(row)
            new = current + count
            if new < 0:
                self.anomalies += 1
                new = 0
            if new != current:
                self.relation.add(row, new - current)
                effective[row] = new - current
        return Delta._from_validated(self.relation.schema, effective)

    def install_wide(self, wide_delta: Delta) -> BagBase:
        """Finalize (select + project) a wide sweep result and install it.

        A view that does not change costs O(1): an empty wide delta is
        neither finalized nor applied, and one that finalizes to nothing
        is not applied -- the install is still counted and the (empty)
        view delta returned, so the snapshot log is the same either way.
        """
        if wide_delta:
            delta = self.view.finalize(wide_delta)
        else:
            delta = Delta._from_validated(self.relation.schema, {})
        if not delta:
            self.installs += 1
            return delta
        return self.apply(delta)

    def snapshot(self) -> Relation:
        """An independent copy of the current contents."""
        return self.relation.copy()

    # ------------------------------------------------------------------
    def count(self, row: tuple) -> int:
        """Multiplicity of a view row."""
        return self.relation.count(row)

    def __len__(self) -> int:
        return len(self.relation)

    def __repr__(self) -> str:
        mode = "strict" if self.strict else f"tolerant({self.anomalies} anomalies)"
        return (
            f"MaterializedView({self.view.name}, {self.relation.distinct_count}"
            f" rows, {mode})"
        )


__all__ = ["MaterializedView"]
