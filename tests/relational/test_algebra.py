"""Unit tests for the bag algebra operators."""

import pytest

from repro.relational.algebra import (
    difference,
    join,
    project,
    scale,
    select,
    union,
)
from repro.relational.delta import Delta, delta_from_rows
from repro.relational.errors import HeterogeneousSchemaError, SchemaError
from repro.relational.predicate import AttrCompare, AttrEq, And
from repro.relational.relation import Relation
from repro.relational.schema import Schema

AB = Schema(("A", "B"))
CD = Schema(("C", "D"))


class TestSelect:
    def test_filters_rows(self):
        r = Relation(AB, [(1, 2), (3, 4)])
        out = select(r, AttrCompare("A", ">", 2))
        assert out == Relation(AB, [(3, 4)])

    def test_preserves_counts(self):
        r = Relation(AB, {(1, 2): 5})
        out = select(r, AttrCompare("A", "==", 1))
        assert out.count((1, 2)) == 5

    def test_delta_in_delta_out(self):
        d = delta_from_rows(AB, deletes=[(1, 2)])
        out = select(d, AttrCompare("A", "==", 1))
        assert isinstance(out, Delta)
        assert out.count((1, 2)) == -1

    def test_pure(self):
        r = Relation(AB, [(1, 2)])
        select(r, AttrCompare("A", ">", 100))
        assert r.count((1, 2)) == 1


class TestProject:
    def test_collapsing_sums_counts(self):
        r = Relation(AB, [(1, 9), (2, 9)])
        out = project(r, ["B"])
        assert out.count((9,)) == 2

    def test_reorder(self):
        r = Relation(AB, [(1, 2)])
        out = project(r, ["B", "A"])
        assert out.count((2, 1)) == 1
        assert out.schema.attributes == ("B", "A")

    def test_signed_cancellation(self):
        d = delta_from_rows(AB, inserts=[(1, 9)], deletes=[(2, 9)])
        out = project(d, ["B"])
        assert len(out) == 0  # +1 and -1 collapse to zero

    def test_empty_projection_is_a_schema_error(self):
        with pytest.raises(SchemaError):
            project(Relation(AB, [(1, 2)]), [])


class TestScale:
    def test_scale_counts(self):
        r = Relation(AB, {(1, 2): 2})
        assert scale(r, 3).count((1, 2)) == 6
        assert scale(r, -1).count((1, 2)) == -2

    def test_scale_zero_empties(self):
        r = Relation(AB, {(1, 2): 2})
        assert len(scale(r, 0)) == 0


class TestUnionDifference:
    def test_union_counts_add(self):
        a = Relation(AB, {(1, 2): 1})
        b = Relation(AB, {(1, 2): 2, (3, 4): 1})
        out = union(a, b)
        assert isinstance(out, Relation)
        assert out.count((1, 2)) == 3

    def test_union_with_delta_is_delta(self):
        a = Relation(AB, {(1, 2): 1})
        d = Delta.delete(AB, (1, 2))
        out = union(a, d)
        assert isinstance(out, Delta)
        assert len(out) == 0

    def test_difference_always_signed(self):
        a = Relation(AB, {(1, 2): 1})
        b = Relation(AB, {(1, 2): 3})
        out = difference(a, b)
        assert isinstance(out, Delta)
        assert out.count((1, 2)) == -2

    def test_schema_mismatch(self):
        with pytest.raises(HeterogeneousSchemaError):
            union(Relation(AB), Relation(CD))
        with pytest.raises(HeterogeneousSchemaError):
            difference(Relation(AB), Relation(CD))


class TestJoin:
    def test_equi_join(self):
        left = Relation(AB, [(1, 3), (2, 3), (5, 9)])
        right = Relation(CD, [(3, 7)])
        out = join(left, right, AttrEq("B", "C"))
        assert out.count((1, 3, 3, 7)) == 1
        assert out.count((2, 3, 3, 7)) == 1
        assert out.distinct_count == 2
        assert out.schema.attributes == ("A", "B", "C", "D")

    def test_counts_multiply(self):
        left = Relation(AB, {(1, 3): 2})
        right = Relation(CD, {(3, 7): 3})
        out = join(left, right, AttrEq("B", "C"))
        assert out.count((1, 3, 3, 7)) == 6

    def test_signs_multiply(self):
        left = Delta.delete(AB, (1, 3))
        right = Delta.delete(CD, (3, 7))
        out = join(left, right, AttrEq("B", "C"))
        assert out.count((1, 3, 3, 7)) == 1  # (-1) * (-1)

    def test_delta_joined_with_relation_is_delta(self):
        left = Delta.delete(AB, (1, 3))
        right = Relation(CD, [(3, 7)])
        out = join(left, right, AttrEq("B", "C"))
        assert isinstance(out, Delta)
        assert out.count((1, 3, 3, 7)) == -1

    def test_cross_product_when_no_condition(self):
        left = Relation(AB, [(1, 1), (2, 2)])
        right = Relation(CD, [(3, 3)])
        out = join(left, right)
        assert out.distinct_count == 2

    def test_residual_condition(self):
        left = Relation(AB, [(1, 3), (2, 3)])
        right = Relation(CD, [(3, 7)])
        cond = And(AttrEq("B", "C"), AttrCompare("A", ">", 1))
        out = join(left, right, cond)
        assert out.distinct_count == 1
        assert out.count((2, 3, 3, 7)) == 1

    def test_non_equi_theta_join(self):
        left = Relation(AB, [(1, 1), (5, 5)])
        right = Relation(CD, [(3, 3)])
        # A < C has no usable equality: nested loop path
        from repro.relational.predicate import Predicate

        class LessThan(Predicate):
            def compile(self, schema):
                ai, ci = schema.index_of("A"), schema.index_of("C")
                return lambda row: row[ai] < row[ci]

            def attributes(self):
                return frozenset({"A", "C"})

        out = join(left, right, LessThan())
        assert out.distinct_count == 1
        assert out.count((1, 1, 3, 3)) == 1

    def test_empty_operand_short_circuit(self):
        out = join(Relation(AB), Relation(CD, [(3, 7)]), AttrEq("B", "C"))
        assert len(out) == 0

    def test_hash_side_choice_is_equivalent(self):
        small = Relation(AB, [(1, 3)])
        big = Relation(CD, [(3, i) for i in range(10)])
        ab = join(small, big, AttrEq("B", "C"))
        # force the other hashing side by swapping operand sizes
        ba = join(big, small, AttrEq("B", "C"))
        assert ab.total_count == ba.total_count == 10

    def test_overlapping_schemas_rejected(self):
        with pytest.raises(SchemaError):
            join(Relation(AB), Relation(AB))


class TestIncrementalIdentity:
    """The algebraic identity incremental maintenance relies on:
    (R1 + dR1) |><| R2 == R1 |><| R2 + dR1 |><| R2 (Section 3)."""

    def test_identity_for_inserts_and_deletes(self):
        r1 = Relation(AB, [(1, 3), (2, 3)])
        r2 = Relation(CD, [(3, 7), (3, 5)])
        d1 = delta_from_rows(AB, inserts=[(4, 3)], deletes=[(2, 3)])

        updated = Relation(AB, r1.as_dict())
        updated.apply_delta(d1)
        full = join(updated, r2, AttrEq("B", "C"))

        base = join(r1, r2, AttrEq("B", "C"))
        incr = join(d1, r2, AttrEq("B", "C"))
        combined = union(Delta.from_relation(base), incr)

        assert combined.positive_part() == full
