"""SPJ view definitions over a chain of base relations.

The paper's warehouse view is::

    V = pi_ProjAttr sigma_SelectCond (R1 |><| R2 |><| ... |><| Rn)

where each ``Ri`` lives at data source ``i``.  :class:`ViewDefinition`
captures the relation schemas (in chain order), the join conditions, the
optional selection and the optional projection, and knows how to

* fully recompute the view from a snapshot of all base relations (the
  correctness oracle and the naive-recompute baseline use this), and
* determine which join conditions apply when a sweep extends a partial
  result by one more relation (used by :mod:`repro.relational.incremental`).

Relation indices are **1-based** throughout, matching the paper's
``R1 ... Rn`` notation.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.relational.delta import Delta
from repro.relational.errors import SchemaError
from repro.relational.predicate import (
    Predicate,
    TruePredicate,
    conjunction,
)
from repro.relational.relation import BagBase, Relation
from repro.relational.schema import Schema


class ViewDefinition:
    """An SPJ view over ``n`` base relations in chain order.

    Parameters
    ----------
    name:
        Display name of the view (e.g. ``"V"``).
    relation_names:
        Names of the base relations in join order, e.g. ``("R1", "R2", "R3")``.
        Each name identifies the data source that stores the relation.
    schemas:
        One :class:`Schema` per relation, in the same order.  Attribute names
        must be globally unique across all relations.
    join_conditions:
        Predicates (typically :class:`AttrEq`) relating attributes of
        different relations.  Every condition must mention attributes of at
        least two relations.  For the connectivity required by the sweep
        algorithms, conditions normally link adjacent relations in the chain.
    selection:
        Optional selection predicate over the wide (concatenated) schema.
    projection:
        Optional list of attributes retained by the view; ``None`` keeps all.

    Examples
    --------
    The paper's Section 5.2 view::

        ViewDefinition(
            name="V",
            relation_names=("R1", "R2", "R3"),
            schemas=(Schema(("A", "B")), Schema(("C", "D")), Schema(("E", "F"))),
            join_conditions=(AttrEq("B", "C"), AttrEq("D", "E")),
            projection=("D", "F"),
        )
    """

    def __init__(
        self,
        name: str,
        relation_names: Sequence[str],
        schemas: Sequence[Schema],
        join_conditions: Sequence[Predicate] = (),
        selection: Predicate | None = None,
        projection: Sequence[str] | None = None,
    ):
        if len(relation_names) != len(schemas):
            raise SchemaError(
                f"{len(relation_names)} relation names but {len(schemas)} schemas"
            )
        if not schemas:
            raise SchemaError("a view needs at least one base relation")
        if len(set(relation_names)) != len(relation_names):
            raise SchemaError(f"duplicate relation names: {list(relation_names)!r}")

        self.name = name
        self.relation_names = tuple(relation_names)
        self.schemas = tuple(schemas)
        self.join_conditions = tuple(join_conditions)
        self.selection: Predicate = (
            selection if selection is not None else TruePredicate()
        )
        self.projection = tuple(projection) if projection is not None else None

        # Wide schema: concatenation of all base schemas, left to right.
        wide = schemas[0]
        for s in schemas[1:]:
            wide = wide.concat(s)
        self.wide_schema: Schema = wide

        # attribute -> 1-based relation index
        self._attr_owner: dict[str, int] = {}
        for idx, schema in enumerate(self.schemas, start=1):
            for attr in schema.attributes:
                self._attr_owner[attr] = idx

        # Memo for conditions_joining: sweeps ask the same (index, covered)
        # combinations once per step of every update, so cache the plans.
        self._join_plan_cache: dict[tuple[int, frozenset[int]], Predicate] = {}
        self._range_schema_cache: dict[tuple[int, int], Schema] = {}
        # finalize's select/project plan and the wide schema it is bound to.
        self._finalize_schema: Schema | None = None
        self._finalize_plan = None
        # Validate conditions/selection/projection reference known attributes
        # and that each join condition spans at least two relations.
        self._condition_rels: list[frozenset[int]] = []
        for cond in self.join_conditions:
            rels = frozenset(self.relation_index_of_attr(a) for a in cond.attributes())
            if len(rels) < 2:
                raise SchemaError(
                    f"join condition {cond!r} references a single relation"
                )
            self._condition_rels.append(rels)
        for attr in self.selection.attributes():
            self.relation_index_of_attr(attr)
        if self.projection is not None:
            for attr in self.projection:
                self.relation_index_of_attr(attr)
            if not self.projection:
                raise SchemaError("projection must not be empty")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_relations(self) -> int:
        """Number of base relations (the paper's ``n``)."""
        return len(self.schemas)

    def schema_of(self, index: int) -> Schema:
        """Schema of relation ``index`` (1-based)."""
        self._check_index(index)
        return self.schemas[index - 1]

    def name_of(self, index: int) -> str:
        """Relation/source name at ``index`` (1-based)."""
        self._check_index(index)
        return self.relation_names[index - 1]

    def index_of_name(self, name: str) -> int:
        """1-based index of the relation called ``name``."""
        try:
            return self.relation_names.index(name) + 1
        except ValueError:
            raise SchemaError(
                f"unknown relation {name!r}; view has {list(self.relation_names)!r}"
            ) from None

    def relation_index_of_attr(self, attribute: str) -> int:
        """1-based index of the relation owning ``attribute``."""
        try:
            return self._attr_owner[attribute]
        except KeyError:
            raise SchemaError(
                f"attribute {attribute!r} not defined by any relation of view"
                f" {self.name!r}"
            ) from None

    def join_attributes_of(self, index: int) -> tuple[str, ...]:
        """Attributes of relation ``index`` named by some join condition.

        Whoever stores relation ``index`` -- its source, or a warehouse
        auxiliary copy -- hash-indexes exactly these columns, so a sweep
        step probes with the partial's rows instead of scanning.
        """
        schema = self.schema_of(index)
        attrs: list[str] = []
        for cond in self.join_conditions:
            for attr in cond.attributes():
                if attr in schema and attr not in attrs:
                    attrs.append(attr)
        return tuple(attrs)

    def _check_index(self, index: int) -> None:
        if not 1 <= index <= self.n_relations:
            raise IndexError(
                f"relation index {index} out of range 1..{self.n_relations}"
            )

    # ------------------------------------------------------------------
    # Schemas of partial results
    # ------------------------------------------------------------------
    def wide_schema_range(self, lo: int, hi: int) -> Schema:
        """Concatenated schema of relations ``lo..hi`` inclusive (canonical order).

        Memoized: every sweep step of every update asks for the same ranges.
        """
        self._check_index(lo)
        self._check_index(hi)
        if lo > hi:
            raise IndexError(f"empty range {lo}..{hi}")
        cached = self._range_schema_cache.get((lo, hi))
        if cached is not None:
            return cached
        schema = self.schemas[lo - 1]
        for s in self.schemas[lo:hi]:
            schema = schema.concat(s)
        self._range_schema_cache[(lo, hi)] = schema
        return schema

    @property
    def view_schema(self) -> Schema:
        """Schema of the materialized view (after projection)."""
        if self.projection is None:
            return self.wide_schema
        return self.wide_schema.project(self.projection)

    # ------------------------------------------------------------------
    # Join-condition planning for sweeps
    # ------------------------------------------------------------------
    def conditions_joining(self, new_index: int, covered: frozenset[int]) -> Predicate:
        """Conjunction of join conditions that become applicable when
        relation ``new_index`` joins a partial result covering ``covered``.

        A condition applies exactly when it mentions ``new_index`` and all
        its other relations are already covered; since coverage grows by one
        relation at a time, every condition fires exactly once per sweep.
        Plans are memoized: the same step recurs for every update.
        """
        key = (new_index, covered)
        cached = self._join_plan_cache.get(key)
        if cached is not None:
            return cached
        applicable = [
            cond
            for cond, rels in zip(self.join_conditions, self._condition_rels)
            if new_index in rels and rels <= (covered | {new_index})
        ]
        plan = conjunction(applicable)
        self._join_plan_cache[key] = plan
        return plan

    def validate_chain_connectivity(self) -> None:
        """Raise :class:`SchemaError` unless every adjacent pair is linked.

        Sweep evaluation joins relations in chain order; without a condition
        between each adjacent prefix and the next relation, intermediate
        results are cross products.  Workload generators call this to ensure
        benchmarks never accidentally measure cross-product blowup.
        """
        for j in range(2, self.n_relations + 1):
            covered = frozenset(range(1, j))
            cond = self.conditions_joining(j, covered)
            if isinstance(cond, TruePredicate):
                raise SchemaError(
                    f"view {self.name!r}: no join condition links relation"
                    f" {self.name_of(j)!r} to the prefix; chain is disconnected"
                )

    # ------------------------------------------------------------------
    # Strobe-family key assumption
    # ------------------------------------------------------------------
    def projection_keeps_all_keys(self) -> bool:
        """True iff the projection retains a declared key of every relation.

        Strobe and C-Strobe (ZGMW96) require this; SWEEP does not.
        """
        kept = set(self.projection) if self.projection is not None else set(
            self.wide_schema.attributes
        )
        for schema in self.schemas:
            if not schema.key:
                return False
            if not set(schema.key) <= kept:
                return False
        return True

    def key_indices_in_view(self, index: int) -> tuple[int, ...]:
        """Positions of relation ``index``'s key attributes inside view rows.

        Only meaningful when :meth:`projection_keeps_all_keys` holds.
        """
        schema = self.schema_of(index)
        return self.view_schema.project_indices(schema.key)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_wide(self, states: Mapping[str, BagBase]) -> BagBase:
        """The full join chain over ``states`` (no selection/projection).

        ``states`` maps relation names to their current contents.
        """
        from repro.relational.algebra import join, project

        result: BagBase = states[self.relation_names[0]]
        if result.schema.attributes != self.schemas[0].attributes:
            raise SchemaError(
                f"state for {self.relation_names[0]!r} has wrong schema"
            )
        covered = frozenset((1,))
        for idx in range(2, self.n_relations + 1):
            rel = states[self.name_of(idx)]
            cond = self.conditions_joining(idx, covered)
            result = join(result, rel, cond)
            covered = covered | {idx}
        # The left-to-right join already yields canonical attribute order.
        if result.schema.attributes != self.wide_schema.attributes:
            result = project(result, self.wide_schema.attributes)
        return result

    def finalize(self, wide: BagBase) -> BagBase:
        """Apply selection and projection to a wide (full-width) result.

        The plan is bound once per view (and rebound only if a wide
        result arrives with a different schema or key), so an install
        neither builds nor hashes a plan key.
        """
        schema = wide.schema
        bound = self._finalize_schema
        if schema is not bound and (
            bound is None
            or schema.attributes != bound.attributes
            or schema.key != bound.key
        ):
            from repro.relational.algebra import select_project_plan

            self._finalize_plan = select_project_plan(
                self.selection, self.projection, schema
            )
            self._finalize_schema = schema
        return self._finalize_plan(wide)

    def evaluate(self, states: Mapping[str, BagBase]) -> Relation:
        """Recompute the materialized view from scratch over ``states``."""
        return evaluate_views([self], states)[self.name]

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        parts = [
            f"ViewDefinition({self.name!r}",
            f"relations={list(self.relation_names)!r}",
        ]
        if self.join_conditions:
            parts.append(f"on={list(self.join_conditions)!r}")
        if not isinstance(self.selection, TruePredicate):
            parts.append(f"where={self.selection!r}")
        if self.projection is not None:
            parts.append(f"project={list(self.projection)!r}")
        return ", ".join(parts) + ")"


def evaluate_views(
    views: Sequence[ViewDefinition], states: Mapping[str, BagBase]
) -> dict[str, Relation]:
    """Each view recomputed over ``states`` (name -> contents): one
    :meth:`~ViewDefinition.evaluate_wide` per sweep class (distinct
    ``(relation_names, join_conditions)``), then each view's finalize."""
    wide_of: dict[tuple, BagBase] = {}
    contents: dict[str, Relation] = {}
    for view in views:
        key = (view.relation_names, view.join_conditions)
        if key not in wide_of:
            wide_of[key] = view.evaluate_wide(states)
        result = view.finalize(wide_of[key])
        if isinstance(result, Delta):
            result = result.positive_part()
        contents[view.name] = result
    return contents
