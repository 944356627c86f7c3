"""Incrementally maintained aggregate views (the paper's Section 2 extension).

The paper restricts the warehouse view to SPJ "for simplicity" and notes
that aggregates are possible.  This module supplies that extension: an
:class:`AggregateView` is a GROUP BY over the maintained SPJ view with
COUNT / SUM / AVG / MIN / MAX aggregates, maintained **incrementally from
the view's own deltas** -- each SWEEP install updates the aggregates in
time proportional to the delta, never rescanning the view.

MIN/MAX are the interesting case: a delete can retract the current
extremum, so each group keeps a multiset of contributing values (value ->
multiplicity), making retraction exact.  Groups whose row count reaches
zero disappear, as in SQL GROUP BY semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.delta import Delta
from repro.relational.errors import NegativeCountError, SchemaError
from repro.relational.relation import BagBase, Relation
from repro.relational.schema import Schema

SUPPORTED_FUNCS = ("count", "sum", "avg", "min", "max", "count_distinct")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate column: ``func`` over ``attribute`` (None for COUNT)."""

    func: str
    attribute: str | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if self.func not in SUPPORTED_FUNCS:
            raise ValueError(
                f"unsupported aggregate {self.func!r}; one of {SUPPORTED_FUNCS}"
            )
        if self.func == "count":
            if self.attribute is not None:
                raise ValueError("count takes no attribute")
        elif self.attribute is None:
            raise ValueError(f"{self.func} requires an attribute")

    @property
    def column_name(self) -> str:
        if self.name is not None:
            return self.name
        if self.func == "count":
            return "count"
        return f"{self.func}_{self.attribute}"


class _GroupState:
    """Per-group accumulators: row count, per-spec sums and value multisets."""

    __slots__ = ("rows", "sums", "values")

    def __init__(self, n_specs: int):
        self.rows = 0
        self.sums = [0] * n_specs
        # value -> multiplicity, per spec (only used by min/max)
        self.values: list[dict[object, int]] = [dict() for _ in range(n_specs)]


class AggregateView:
    """A GROUP BY aggregate maintained from view deltas.

    Parameters
    ----------
    base_schema:
        Schema of the underlying (SPJ) view rows.
    group_by:
        Attributes of ``base_schema`` forming the grouping key (may be
        empty for a single global group).
    aggregates:
        The aggregate columns.

    Examples
    --------
    >>> schema = Schema(("region", "price"))
    >>> agg = AggregateView(schema, ("region",),
    ...                     (AggregateSpec("count"), AggregateSpec("sum", "price")))
    """

    def __init__(
        self,
        base_schema: Schema,
        group_by: tuple[str, ...],
        aggregates: tuple[AggregateSpec, ...],
    ):
        if not aggregates:
            raise ValueError("need at least one aggregate")
        self.base_schema = base_schema
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)
        self._group_idx = base_schema.project_indices(self.group_by)
        self._attr_idx: list[int | None] = []
        for spec in self.aggregates:
            if spec.attribute is None:
                self._attr_idx.append(None)
            else:
                self._attr_idx.append(base_schema.index_of(spec.attribute))
        names = list(self.group_by) + [s.column_name for s in self.aggregates]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate output columns: {names!r}")
        self.schema = Schema(tuple(names), key=self.group_by or None)
        self._groups: dict[tuple, _GroupState] = {}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def apply(self, delta: BagBase) -> None:
        """Fold a view delta (signed row counts) into the aggregates."""
        if delta.schema.attributes != self.base_schema.attributes:
            raise SchemaError(
                f"delta schema {list(delta.schema.attributes)!r} does not"
                f" match aggregate base {list(self.base_schema.attributes)!r}"
            )
        for row, count in delta.items():
            key = tuple(row[i] for i in self._group_idx)
            state = self._groups.get(key)
            if state is None:
                state = self._groups[key] = _GroupState(len(self.aggregates))
            state.rows += count
            if state.rows < 0:
                raise NegativeCountError(row, state.rows)
            for s, (spec, idx) in enumerate(zip(self.aggregates, self._attr_idx)):
                if spec.func == "count":
                    continue
                value = row[idx]
                if spec.func in ("sum", "avg"):
                    state.sums[s] += value * count
                if spec.func in ("min", "max", "count_distinct"):
                    bag = state.values[s]
                    new = bag.get(value, 0) + count
                    if new < 0:
                        raise NegativeCountError(row, new)
                    if new == 0:
                        bag.pop(value, None)
                    else:
                        bag[value] = new
            if state.rows == 0:
                del self._groups[key]

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def value_of(self, key: tuple, spec_index: int):
        """Current value of one aggregate column for group ``key``."""
        state = self._groups[tuple(key)]
        spec = self.aggregates[spec_index]
        if spec.func == "count":
            return state.rows
        if spec.func == "sum":
            return state.sums[spec_index]
        if spec.func == "avg":
            return state.sums[spec_index] / state.rows
        values = state.values[spec_index]
        if spec.func == "count_distinct":
            return len(values)
        return min(values) if spec.func == "min" else max(values)

    def as_relation(self) -> Relation:
        """The aggregate contents as a relation (one row per group)."""
        out = Relation(self.schema)
        for key in self._groups:
            row = key + tuple(
                self.value_of(key, s) for s in range(len(self.aggregates))
            )
            out.insert(row)
        return out

    def group_keys(self) -> list[tuple]:
        """Current group keys (sorted for deterministic output)."""
        return sorted(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    # ------------------------------------------------------------------
    @classmethod
    def over_relation(
        cls,
        relation: Relation,
        group_by: tuple[str, ...],
        aggregates: tuple[AggregateSpec, ...],
    ) -> "AggregateView":
        """Build and initialize from existing view contents."""
        agg = cls(relation.schema, group_by, aggregates)
        agg.apply(Delta.from_relation(relation))
        return agg


def recompute_aggregate(
    relation: Relation,
    group_by: tuple[str, ...],
    aggregates: tuple[AggregateSpec, ...],
) -> Relation:
    """Reference implementation: aggregate ``relation`` from scratch.

    Deliberately independent of :class:`AggregateView` (plain grouping
    loops), so tests can validate incremental maintenance against it.
    """
    group_idx = relation.schema.project_indices(group_by)
    groups: dict[tuple, list[tuple[tuple, int]]] = {}
    for row, count in relation.items():
        key = tuple(row[i] for i in group_idx)
        groups.setdefault(key, []).append((row, count))

    names = list(group_by) + [s.column_name for s in aggregates]
    out = Relation(Schema(tuple(names), key=tuple(group_by) or None))
    for key, rows in sorted(groups.items()):
        cells = []
        for spec in aggregates:
            if spec.func == "count":
                cells.append(sum(c for _, c in rows))
                continue
            idx = relation.schema.index_of(spec.attribute)
            expanded = [r[idx] for r, c in rows for _ in range(c)]
            if spec.func == "sum":
                cells.append(sum(expanded))
            elif spec.func == "avg":
                cells.append(sum(expanded) / len(expanded))
            elif spec.func == "min":
                cells.append(min(expanded))
            elif spec.func == "count_distinct":
                cells.append(len(set(expanded)))
            else:
                cells.append(max(expanded))
        out.insert(key + tuple(cells))
    return out


__all__ = [
    "AggregateSpec",
    "AggregateView",
    "SUPPORTED_FUNCS",
    "recompute_aggregate",
]
