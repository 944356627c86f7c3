"""Shared fixtures: the paper's Section 5.2 view and initial data."""

import pytest

from repro.relational.predicate import AttrEq
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.view import ViewDefinition
from repro.sources.memory import MemoryBackend
from repro.warehouse.base import WarehouseBase

R1_SCHEMA = Schema(("A", "B"))
R2_SCHEMA = Schema(("C", "D"))
R3_SCHEMA = Schema(("E", "F"))


@pytest.fixture
def paper_view() -> ViewDefinition:
    """V = pi_[D,F] (R1[A,B] |><|_{B=C} R2[C,D] |><|_{D=E} R3[E,F])."""
    return ViewDefinition(
        name="V",
        relation_names=("R1", "R2", "R3"),
        schemas=(R1_SCHEMA, R2_SCHEMA, R3_SCHEMA),
        join_conditions=(AttrEq("B", "C"), AttrEq("D", "E")),
        projection=("D", "F"),
    )


@pytest.fixture
def paper_states() -> dict[str, Relation]:
    """Figure 5's initial relation contents."""
    return {
        "R1": Relation(R1_SCHEMA, [(1, 3), (2, 3)]),
        "R2": Relation(R2_SCHEMA, [(3, 7)]),
        "R3": Relation(R3_SCHEMA, [(5, 6), (7, 8)]),
    }


@pytest.fixture
def sweep_step_spy(monkeypatch):
    """Counts what a run ships and joins: partials per multi-query
    request and source ``compute_join`` calls."""
    seen = {"partials_per_request": [], "compute_join_calls": 0}
    send_query = WarehouseBase.send_query
    compute_join = MemoryBackend.compute_join

    def spying_send(self, index, payload):
        seen["partials_per_request"].append(len(payload.partials))
        return send_query(self, index, payload)

    def spying_join(self, partial):
        seen["compute_join_calls"] += 1
        return compute_join(self, partial)

    monkeypatch.setattr(WarehouseBase, "send_query", spying_send)
    monkeypatch.setattr(MemoryBackend, "compute_join", spying_join)
    return seen
