"""Selection and join condition trees.

Conditions are small immutable expression trees evaluated against a
``(schema, row)`` pair.  The view definition language of the paper is SPJ
with equi-join chains (``R1.B = R2.C AND R2.D = R3.E``) plus an optional
selection; this module supports that plus constant comparisons and boolean
combinators so workloads can express realistic selections.

Predicates are *compiled* against a schema once (attribute names resolved to
row indices) and then evaluated per row, keeping joins and selections cheap
inside the simulator's hot loop.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator

from repro.relational.schema import Schema

_OPS: dict[str, Callable[[object, object], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Predicate:
    """Abstract base of all condition nodes."""

    __slots__ = ()

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        """Resolve attribute names against ``schema``; return a row test."""
        raise NotImplementedError

    def attributes(self) -> frozenset[str]:
        """All attribute names mentioned by this predicate."""
        raise NotImplementedError

    def conjuncts(self) -> Iterator["Predicate"]:
        """Iterate top-level AND-ed factors (self if not an And)."""
        yield self

    # Convenience combinators -------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


class TruePredicate(Predicate):
    """The always-true condition (used when a view has no selection)."""

    __slots__ = ()

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        return lambda row: True

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return "TRUE"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruePredicate)

    def __hash__(self) -> int:
        return hash("TruePredicate")


class AttrEq(Predicate):
    """Equality between two attributes -- the equi-join condition.

    ``AttrEq("B", "C")`` is the paper's ``R1.B = R2.C``.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: str, right: str):
        self.left = left
        self.right = right

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        li = schema.index_of(self.left)
        ri = schema.index_of(self.right)
        return lambda row: row[li] == row[ri]

    def attributes(self) -> frozenset[str]:
        return frozenset((self.left, self.right))

    def __repr__(self) -> str:
        return f"({self.left} == {self.right})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AttrEq)
            and {self.left, self.right} == {other.left, other.right}
        )

    def __hash__(self) -> int:
        return hash(frozenset((self.left, self.right)))


class AttrCompare(Predicate):
    """Comparison of an attribute with a constant, e.g. ``price >= 10``."""

    __slots__ = ("attribute", "op", "value")

    def __init__(self, attribute: str, op: str, value: object):
        if op not in _OPS:
            raise ValueError(f"unsupported operator {op!r}; one of {sorted(_OPS)}")
        self.attribute = attribute
        self.op = op
        self.value = value

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        idx = schema.index_of(self.attribute)
        fn = _OPS[self.op]
        val = self.value
        return lambda row: fn(row[idx], val)

    def attributes(self) -> frozenset[str]:
        return frozenset((self.attribute,))

    def __repr__(self) -> str:
        return f"({self.attribute} {self.op} {self.value!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AttrCompare)
            and (self.attribute, self.op, self.value)
            == (other.attribute, other.op, other.value)
        )

    def __hash__(self) -> int:
        return hash((self.attribute, self.op, self.value))


class Const(Predicate):
    """A constant boolean (useful in generated workloads and tests)."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = bool(value)

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        val = self.value
        return lambda row: val

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Const", self.value))


class And(Predicate):
    """Conjunction of two or more conditions."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Predicate):
        if len(parts) < 2:
            raise ValueError("And requires at least two parts")
        self.parts = tuple(parts)

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        compiled = [p.compile(schema) for p in self.parts]
        return lambda row: all(fn(row) for fn in compiled)

    def attributes(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.attributes()
        return out

    def conjuncts(self) -> Iterator[Predicate]:
        for p in self.parts:
            yield from p.conjuncts()

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(p) for p in self.parts) + ")"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("And", self.parts))


class Or(Predicate):
    """Disjunction of two or more conditions."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Predicate):
        if len(parts) < 2:
            raise ValueError("Or requires at least two parts")
        self.parts = tuple(parts)

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        compiled = [p.compile(schema) for p in self.parts]
        return lambda row: any(fn(row) for fn in compiled)

    def attributes(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.attributes()
        return out

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(p) for p in self.parts) + ")"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("Or", self.parts))


class Not(Predicate):
    """Negation of a condition."""

    __slots__ = ("part",)

    def __init__(self, part: Predicate):
        self.part = part

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        inner = self.part.compile(schema)
        return lambda row: not inner(row)

    def attributes(self) -> frozenset[str]:
        return self.part.attributes()

    def __repr__(self) -> str:
        return f"(NOT {self.part!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and self.part == other.part

    def __hash__(self) -> int:
        return hash(("Not", self.part))


#: Compiled row tests keyed by (predicate, schema).  Both are immutable
#: value types, and a maintenance run evaluates the same handful of join /
#: selection conditions millions of times, so compilation (attribute-name
#: resolution, closure building) is paid once per condition rather than once
#: per operator call.  Bounded defensively; real runs stay tiny.
_COMPILE_CACHE: dict[tuple[Predicate, Schema], Callable[[tuple], bool]] = {}
_COMPILE_CACHE_MAX = 4096
_COMPILE_HITS = 0
_COMPILE_MISSES = 0


def memo_put(cache: dict, key, value):
    """``cache[key] = value``, clearing the memo outright once it is full.

    The one eviction policy of the compile cache and of the operator-plan
    memos in :mod:`repro.relational.algebra`.
    """
    if len(cache) >= _COMPILE_CACHE_MAX:
        cache.clear()
    cache[key] = value
    return value


def compile_cached(predicate: Predicate, schema: Schema) -> Callable[[tuple], bool]:
    """``predicate.compile(schema)`` memoized on the (predicate, schema) pair."""
    global _COMPILE_HITS, _COMPILE_MISSES
    key = (predicate, schema)
    test = _COMPILE_CACHE.get(key)
    if test is None:
        _COMPILE_MISSES += 1
        test = memo_put(_COMPILE_CACHE, key, predicate.compile(schema))
    else:
        _COMPILE_HITS += 1
    return test


def compile_cache_stats() -> dict[str, int]:
    """Process-lifetime counters of the compile cache.

    The totals are cumulative; harness drivers snapshot them around a
    run and report the difference (see ``RunResult.predicate_cache``).
    """
    return {
        "hits": _COMPILE_HITS,
        "misses": _COMPILE_MISSES,
        "size": len(_COMPILE_CACHE),
        "capacity": _COMPILE_CACHE_MAX,
    }


def conjunction(parts: list[Predicate]) -> Predicate:
    """Build the AND of ``parts``; TRUE when empty, the part itself when one."""
    parts = [p for p in parts if not isinstance(p, TruePredicate)]
    if not parts:
        return TruePredicate()
    if len(parts) == 1:
        return parts[0]
    return And(*parts)


__all__ = [
    "Predicate",
    "TruePredicate",
    "AttrEq",
    "AttrCompare",
    "Const",
    "And",
    "Or",
    "Not",
    "compile_cache_stats",
    "compile_cached",
    "conjunction",
]
