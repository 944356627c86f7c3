"""Initial base-relation contents for generated chain views.

Rows of relation ``i`` are ``(k, f, v)``: a fresh unique key, a foreign
value referencing relation ``i+1``'s key domain, and a random payload.
``match_fraction`` controls join selectivity: that fraction of foreign
values point at live keys of the next relation, the rest miss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition


@dataclass
class GeneratorState:
    """Mutable generation bookkeeping shared with the update stream.

    ``next_key[i]`` is the next unused key of relation ``i`` (keys are never
    reused, satisfying the Strobe family's unique-key assumption), and
    ``live_rows[i]`` tracks rows present after all generated operations so
    deletes are always valid when replayed.
    """

    next_key: dict[int, int] = field(default_factory=dict)
    live_rows: dict[int, list[tuple]] = field(default_factory=dict)

    def fresh_key(self, index: int) -> int:
        key = self.next_key[index]
        self.next_key[index] = key + 1
        return key


def foreign_value(
    state: GeneratorState,
    view: ViewDefinition,
    index: int,
    rng: random.Random,
    match_fraction: float,
) -> int:
    """A foreign value for relation ``index``: usually a live next-key."""
    if index >= view.n_relations:
        return rng.randrange(1_000_000)  # last relation: F is inert payload
    candidates = state.live_rows[index + 1]
    if candidates and rng.random() < match_fraction:
        return rng.choice(candidates)[0]  # a live row's key, no key list built
    return 1_000_000 + rng.randrange(1_000_000)  # guaranteed miss


def generate_initial_states(
    view: ViewDefinition,
    rng: random.Random,
    rows_per_relation: int = 20,
    match_fraction: float = 0.8,
) -> tuple[dict[str, Relation], GeneratorState]:
    """Populate every relation; returns states plus generator bookkeeping.

    Relations are filled right-to-left so foreign values can reference
    already-generated keys of the next relation.
    """
    if rows_per_relation < 0:
        raise ValueError("rows_per_relation must be >= 0")
    if not 0.0 <= match_fraction <= 1.0:
        raise ValueError("match_fraction must be in [0, 1]")
    state = GeneratorState()
    states: dict[str, Relation] = {}
    for index in range(view.n_relations, 0, -1):
        schema = view.schema_of(index)
        state.next_key[index] = 1
        state.live_rows[index] = []
        relation = Relation(schema)
        for _ in range(rows_per_relation):
            row = (
                state.fresh_key(index),
                foreign_value(state, view, index, rng, match_fraction),
                rng.randrange(1000),
            )
            relation.insert(row)
            state.live_rows[index].append(row)
        states[view.name_of(index)] = relation
    return states, state


__all__ = ["GeneratorState", "foreign_value", "generate_initial_states"]
