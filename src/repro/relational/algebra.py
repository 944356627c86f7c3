"""Pure bag-algebra operators over :class:`Relation` and :class:`Delta`.

Count discipline (GMS93 counting algorithm, which the paper adopts for its
materialized view):

* ``select`` keeps counts unchanged,
* ``project`` sums the counts of rows collapsing onto one projected row,
* ``join`` multiplies counts -- so a signed delta joined with a relation
  yields a signed delta whose signs compose exactly like the paper's error
  terms,
* ``union``/``difference`` add/subtract counts pointwise.

Every operator is pure: inputs are never mutated and results are fresh
objects.  The result type is :class:`Delta` whenever any operand is signed,
otherwise :class:`Relation`.

Joins with at least one equality conjunct across the operands run as hash
joins; anything else falls back to a nested loop with the compiled residual
predicate.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import itemgetter

from repro.relational.delta import Delta
from repro.relational.errors import HeterogeneousSchemaError
from repro.relational.predicate import (
    AttrEq,
    Predicate,
    TruePredicate,
    compile_cached,
    conjunction,
    memo_put,
)
from repro.relational.relation import BagBase, Relation
from repro.relational.schema import Schema


def _result_type(*operands: BagBase) -> type[BagBase]:
    """Delta if any operand is signed, else Relation."""
    if any(isinstance(op, Delta) for op in operands):
        return Delta
    return Relation


def concat_schemas(left: Schema, right: Schema) -> Schema:
    """Schema of the concatenation (convenience re-export of Schema.concat)."""
    return left.concat(right)


# ---------------------------------------------------------------------------
# Operator plans
# ---------------------------------------------------------------------------

#: A maintenance run repeats the same handful of sweep steps and installs
#: for every update, on bags of a few rows each, where re-deriving what
#: does not depend on the rows (output schema, column positions, compiled
#: tests) costs more than the operator itself.  ``join`` and
#: ``select_project`` memoise that part, keyed by value and bounded by
#: the predicate compile cache's own policy (``memo_put``).
_TRUE = TruePredicate()


def _row_key(indices: tuple[int, ...]):
    """``row -> tuple(row[i] for i in indices)`` without a generator per
    row (the key shape :meth:`BagBase.create_index` buckets by)."""
    if len(indices) == 1:
        (only,) = indices
        return lambda row: (row[only],)
    return itemgetter(*indices)


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------

def select(bag: BagBase, predicate: Predicate) -> BagBase:
    """Rows of ``bag`` satisfying ``predicate``, counts unchanged."""
    test = compile_cached(predicate, bag.schema)
    cls = _result_type(bag)
    return cls._from_validated(
        bag.schema, {row: count for row, count in bag.items() if test(row)}
    )


def project(bag: BagBase, attributes: Sequence[str]) -> BagBase:
    """Project onto ``attributes``; counts of collapsing rows are summed.

    This is the step that turns the wide sweep result (full concatenated
    rows) into view rows with multiplicities, e.g. both ``(1,3,5,6)`` and
    ``(2,3,5,6)`` collapsing to ``(5,6)[2]`` in the paper's example.
    """
    return select_project(bag, _TRUE, attributes)


_SELECT_PROJECT_PLANS: dict[tuple, object] = {}


def select_project(
    bag: BagBase, predicate: Predicate, attributes: Sequence[str] | None
) -> BagBase:
    """``project(select(bag, predicate), attributes)`` in one pass.

    The finalize step of every install: no intermediate bag, and the
    compiled test, projection positions and output schema are planned
    once per (predicate, attributes, schema).  ``attributes=None`` keeps
    every column; a TRUE predicate with no projection returns ``bag``.
    """
    if attributes is None:
        if isinstance(predicate, TruePredicate):
            return bag
        return select(bag, predicate)
    schema = bag.schema
    attributes = tuple(attributes)
    # Schema equality ignores keys, but the output schema carries them.
    key = (predicate, attributes, schema.attributes, schema.key)
    plan = _SELECT_PROJECT_PLANS.get(key)
    if plan is None:
        plan = memo_put(
            _SELECT_PROJECT_PLANS,
            key,
            select_project_plan(predicate, attributes, schema),
        )
    return plan(bag)


def select_project_plan(
    predicate: Predicate, attributes: Sequence[str] | None, schema: Schema
):
    """``select_project(bag, predicate, attributes)`` as a function of
    ``bag`` alone, for bags of ``schema`` (keys included): the compiled
    test, projection positions and output schema are bound here, once.
    A :class:`~repro.relational.view.ViewDefinition` binds its finalize
    this way, so an install skips even the memo lookup."""
    if attributes is None:
        if isinstance(predicate, TruePredicate):
            return _identity
        return lambda bag: select(bag, predicate)
    attributes = tuple(attributes)
    test = None
    if not isinstance(predicate, TruePredicate):
        test = compile_cached(predicate, schema)
    # ``Schema.project`` first: it rejects an empty or unknown
    # attribute list with a SchemaError before ``_row_key`` sees it.
    out_schema = schema.project(attributes)
    pick = _row_key(schema.project_indices(attributes))

    def run(bag: BagBase) -> BagBase:
        cls = _result_type(bag)
        counts: dict[tuple, int] = {}
        for row, count in bag.items():
            if test is None or test(row):
                picked = pick(row)
                counts[picked] = counts.get(picked, 0) + count
        # Signed rows collapsing onto one projected row may cancel exactly.
        if cls is Delta:
            counts = {row: c for row, c in counts.items() if c}
        return cls._from_validated(out_schema, counts)

    return run


def _identity(bag: BagBase) -> BagBase:
    return bag


def scale(bag: BagBase, factor: int) -> Delta:
    """Multiply every count by ``factor`` (result is always signed)."""
    out = Delta(bag.schema)
    if factor == 0:
        return out
    for row, count in bag.items():
        out.add(row, count * factor)
    return out


# ---------------------------------------------------------------------------
# Binary set operators
# ---------------------------------------------------------------------------

def _check_same_schema(left: BagBase, right: BagBase) -> None:
    if left.schema.attributes != right.schema.attributes:
        raise HeterogeneousSchemaError(left.schema.attributes, right.schema.attributes)


def union(left: BagBase, right: BagBase) -> BagBase:
    """Pointwise count sum.  Relation + Relation stays a Relation."""
    _check_same_schema(left, right)
    cls = _result_type(left, right)
    counts = left.as_dict()
    for row, count in right.items():
        new = counts.get(row, 0) + count
        if new:
            counts[row] = new
        else:
            counts.pop(row, None)
    return cls._from_validated(left.schema, counts)


def union_in_place(target: Delta, other: BagBase) -> Delta:
    """Pointwise add ``other`` into ``target``; returns ``target``.

    The accumulation form of :func:`union` for loops that fold many bags
    into one signed accumulator (batched sweeps summing telescoping terms).
    ``target`` must be exclusively owned by the caller.
    """
    _check_same_schema(target, other)
    return target.merge_in_place(other)


def difference(left: BagBase, right: BagBase) -> Delta:
    """Pointwise count difference ``left - right`` (always signed).

    This is the compensation operator of SWEEP:
    ``Delta-V = Delta-V - (Delta-Rj |><| TempView)``.
    """
    _check_same_schema(left, right)
    counts = left.as_dict()
    for row, count in right.items():
        new = counts.get(row, 0) - count
        if new:
            counts[row] = new
        else:
            counts.pop(row, None)
    return Delta._from_validated(left.schema, counts)


def difference_in_place(target: Delta, other: BagBase) -> Delta:
    """Pointwise subtract ``other`` from ``target``; returns ``target``.

    The accumulation form of :func:`difference` for compensation loops
    subtracting several error terms from one owned accumulator.
    """
    _check_same_schema(target, other)
    counts = target._counts
    if target._indexes:
        for row, count in other.items():
            target.add(row, -count)
        return target
    for row, count in other.items():
        new = counts.get(row, 0) - count
        if new:
            counts[row] = new
        else:
            counts.pop(row, None)
    return target


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------

def _split_join_condition(
    condition: Predicate,
    left: Schema,
    right: Schema,
) -> tuple[list[tuple[str, str]], Predicate]:
    """Partition ``condition`` into hashable cross equalities and a residual.

    Returns ``(pairs, residual)`` where each pair ``(l_attr, r_attr)`` is an
    equality with one side in each schema, and ``residual`` holds every other
    conjunct (left-only or right-only selections, cross non-equi conditions).
    """
    pairs: list[tuple[str, str]] = []
    residual: list[Predicate] = []
    for conj in condition.conjuncts():
        if isinstance(conj, AttrEq):
            if conj.left in left and conj.right in right:
                pairs.append((conj.left, conj.right))
                continue
            if conj.right in left and conj.left in right:
                pairs.append((conj.right, conj.left))
                continue
        residual.append(conj)
    return pairs, conjunction(residual)


_JOIN_PLANS: dict[tuple, tuple] = {}


def _join_plan(condition: Predicate, left: Schema, right: Schema) -> tuple:
    """``(out_schema, l_idx, r_idx, l_key, r_key, residual_test)``.

    ``l_idx``/``r_idx`` are the positions of the hashable cross equalities
    (empty: nested loop), ``l_key``/``r_key`` extract them from a row, and
    ``residual_test`` is the compiled remainder over the concatenated row
    (``None`` when every conjunct is hashed).
    """
    # Schema equality ignores keys, but the output schema carries them.
    key = (condition, left.attributes, left.key, right.attributes, right.key)
    plan = _JOIN_PLANS.get(key)
    if plan is None:
        out_schema = left.concat(right)
        pairs, residual = _split_join_condition(condition, left, right)
        residual_test = None
        if not isinstance(residual, TruePredicate):
            residual_test = compile_cached(residual, out_schema)
        l_idx = tuple(left.index_of(a) for a, _ in pairs)
        r_idx = tuple(right.index_of(b) for _, b in pairs)
        l_key = _row_key(l_idx) if pairs else None
        r_key = _row_key(r_idx) if pairs else None
        plan = memo_put(
            _JOIN_PLANS,
            key,
            (out_schema, l_idx, r_idx, l_key, r_key, residual_test),
        )
    return plan


def join(
    left: BagBase,
    right: BagBase,
    condition: Predicate | None = None,
) -> BagBase:
    """Theta-join of two bags; counts multiply.

    ``condition`` may mention attributes of either operand; equality
    conjuncts spanning both sides are executed as a hash join.  ``None``
    (or :class:`TruePredicate`) computes the cross product -- view chains
    always pass explicit equalities.
    """
    out_schema, l_idx, r_idx, l_key, r_key, residual_test = _join_plan(
        _TRUE if condition is None else condition, left.schema, right.schema
    )
    cls = _result_type(left, right)
    if not left or not right:
        return cls._from_validated(out_schema, {})

    # Accumulate into a plain dict: concatenated rows need no arity check,
    # and signed counts may cancel, so zero-filtering happens once at the
    # end rather than on every add.
    counts: dict[tuple, int] = {}

    if l_idx:
        # Prebuilt hash indexes (sources index their join columns) let a
        # small operand probe a large one without scanning it.
        r_index = right.get_index(r_idx)
        if r_index is not None and left.distinct_count <= right.distinct_count:
            for lrow, lcount in left.items():
                for rrow in r_index.get(l_key(lrow), ()):
                    combined = lrow + rrow
                    if residual_test is None or residual_test(combined):
                        counts[combined] = counts.get(combined, 0) + (
                            lcount * right.count(rrow)
                        )
        else:
            l_index = left.get_index(l_idx)
            if l_index is not None and right.distinct_count <= left.distinct_count:
                for rrow, rcount in right.items():
                    for lrow in l_index.get(r_key(rrow), ()):
                        combined = lrow + rrow
                        if residual_test is None or residual_test(combined):
                            counts[combined] = counts.get(combined, 0) + (
                                left.count(lrow) * rcount
                            )
            # Hash the smaller side to bound memory.
            elif left.distinct_count <= right.distinct_count:
                table: dict[tuple, list[tuple[tuple, int]]] = {}
                for lrow, lcount in left.items():
                    table.setdefault(l_key(lrow), []).append((lrow, lcount))
                for rrow, rcount in right.items():
                    bucket = table.get(r_key(rrow))
                    if not bucket:
                        continue
                    for lrow, lcount in bucket:
                        combined = lrow + rrow
                        if residual_test is None or residual_test(combined):
                            counts[combined] = counts.get(combined, 0) + (
                                lcount * rcount
                            )
            else:
                table = {}
                for rrow, rcount in right.items():
                    table.setdefault(r_key(rrow), []).append((rrow, rcount))
                for lrow, lcount in left.items():
                    bucket = table.get(l_key(lrow))
                    if not bucket:
                        continue
                    for rrow, rcount in bucket:
                        combined = lrow + rrow
                        if residual_test is None or residual_test(combined):
                            counts[combined] = counts.get(combined, 0) + (
                                lcount * rcount
                            )
    else:
        # No usable equality: nested-loop theta join.
        for lrow, lcount in left.items():
            for rrow, rcount in right.items():
                combined = lrow + rrow
                if residual_test is None or residual_test(combined):
                    counts[combined] = counts.get(combined, 0) + lcount * rcount

    if cls is Delta:
        counts = {row: c for row, c in counts.items() if c}
    return cls._from_validated(out_schema, counts)


__all__ = [
    "concat_schemas",
    "difference",
    "difference_in_place",
    "join",
    "project",
    "scale",
    "select",
    "select_project",
    "select_project_plan",
    "union",
    "union_in_place",
]
