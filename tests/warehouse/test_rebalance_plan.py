"""RebalancePlan validation and the handoff envelope round trip.

A rebalance is planned against the launch :class:`ShardPlan`; these
tests pin the invariants the migration protocol assumes (non-primary
view, active recipient, donor != recipient) and the byte-level contract
of the handoff blob that carries the sealed view between shards --
same binwire kernel and CRC discipline as a checkpoint, so a torn or
corrupt handoff fails loudly at decode time.
"""

import pytest

from repro.durability import CheckpointCorruptionError
from repro.durability.checkpoint import (
    HANDOFF_FORMAT,
    _seal,
    decode_view_handoff,
    encode_view_handoff,
)
from repro.durability.encoding import decode_relation
from repro.formats import binwire
from repro.formats.errors import UnsupportedFormatError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.warehouse.sharding import (
    RebalancePlan,
    partition_views,
    pick_migration,
    view_family,
)
from repro.workloads.paper_example import paper_example_view
from tests.hostile import check_hostile, lying_varint


@pytest.fixture
def family():
    return view_family(paper_example_view(), 4)


@pytest.fixture
def plan(family):
    # round-robin over 2 shards: shard 0 gets V, V#s2; shard 1 the rest.
    return partition_views(family, 2, strategy="round-robin")


# ---------------------------------------------------------------------------
# RebalancePlan validation
# ---------------------------------------------------------------------------

def test_rebalance_plan_accepts_non_primary_move(plan):
    reb = RebalancePlan(plan, "V#s2", 1)
    assert reb.from_shard == 0
    assert "V#s2" in reb.describe()


def test_rebalance_plan_rejects_unknown_view(plan):
    with pytest.raises(ValueError, match="unknown view"):
        RebalancePlan(plan, "ghost", 1)


def test_rebalance_plan_rejects_shard_primary(plan):
    # views_for(shard)[0] is the shard's identity (recorder, inbox,
    # wire labels); it must stay put.
    with pytest.raises(ValueError, match="primary"):
        RebalancePlan(plan, "V", 1)


def test_rebalance_plan_rejects_inactive_recipient(family):
    explicit = {v.name: 0 if i < 2 else 1 for i, v in enumerate(family)}
    plan = partition_views(family, 3, explicit=explicit)
    assert 2 not in plan.active_shards
    with pytest.raises(ValueError, match="not active"):
        RebalancePlan(plan, "V#s1", 2)


def test_rebalance_plan_rejects_noop_move(plan):
    with pytest.raises(ValueError, match="already lives"):
        RebalancePlan(plan, "V#s2", 0)


def test_pick_migration_default_move(plan):
    assert pick_migration(plan) == ("V#s2", 1)


def test_pick_migration_with_one_active_shard_is_a_value_error(family):
    # Every view on one shard: a donor exists but no recipient does.
    lonely = partition_views(family, 2, explicit={v.name: 1 for v in family})
    assert lonely.active_shards == [1]
    with pytest.raises(ValueError, match="no migratable view under"):
        pick_migration(lonely)


def test_result_plan_moves_exactly_one_view(plan):
    reb = RebalancePlan(plan, "V#s2", 1)
    after = reb.result_plan()
    assert after.shard_of("V#s2") == 1
    for view in plan.views:
        if view.name != "V#s2":
            assert after.shard_of(view.name) == plan.shard_of(view.name)
    assert [v.name for v in after.views] == [v.name for v in plan.views]


# ---------------------------------------------------------------------------
# Handoff envelope: round trip, CRC, format tag
# ---------------------------------------------------------------------------

SCHEMA = Schema(("D", "F"))


def _handoff_blob(**overrides):
    rows = Relation(SCHEMA, {(7, 8): 1, (7, 6): 2})
    kwargs = dict(
        view_name="V#s2",
        position={1: 4, 2: 2, 3: 0},
        relation=rows,
        aux={"R1": Relation(Schema(("A", "B")), {(1, 3): 1})},
        epoch=1,
    )
    kwargs.update(overrides)
    return encode_view_handoff(**kwargs)


def test_handoff_round_trip():
    decoded = decode_view_handoff(_handoff_blob())
    assert decoded["view"] == "V#s2"
    assert decoded["position"] == {1: 4, 2: 2, 3: 0}
    assert decoded["epoch"] == 1
    back = decode_relation(decoded["rows"], SCHEMA)
    assert dict(back.items()) == {(7, 8): 1, (7, 6): 2}
    aux = decode_relation(decoded["aux"]["R1"], Schema(("A", "B")))
    assert dict(aux.items()) == {(1, 3): 1}


def test_handoff_carries_row_blocks():
    decoded = decode_view_handoff(_handoff_blob())
    assert type(decoded["rows"]) is bytes
    assert {type(rows) for rows in decoded["aux"].values()} == {bytes}


def test_format_3_handoff_is_refused():
    """A handoff written before row blocks (v2 flat-row dicts) is refused
    by name, as the corruption error a recipient already handles."""
    blob = _seal(3, {
        "view": "V#s2",
        "position": {"1": 4, "2": 2, "3": 0},
        "rows": {"f": [7, 8, 1, 7, 6, 2], "w": 2},
        "aux": {"R1": {"f": [1, 3, 1], "w": 2}},
        "epoch": 1,
    })
    with pytest.raises(UnsupportedFormatError, match="handoff format 3") as info:
        decode_view_handoff(blob)
    assert isinstance(info.value, CheckpointCorruptionError)
    assert "upgrade the peer" in str(info.value)


def test_handoff_without_aux_decodes_empty_mapping():
    decoded = decode_view_handoff(_handoff_blob(aux=None))
    assert decoded["aux"] == {}


def test_handoff_detects_corrupt_body():
    envelope = binwire.loads(_handoff_blob())
    envelope["body"] = envelope["body"][:-1] + bytes(
        [envelope["body"][-1] ^ 0xFF]
    )
    with pytest.raises(CheckpointCorruptionError, match="CRC"):
        decode_view_handoff(binwire.dumps(envelope))


def test_handoff_rejects_foreign_format_tag():
    envelope = binwire.loads(_handoff_blob())
    envelope["format"] = HANDOFF_FORMAT + 1
    with pytest.raises(CheckpointCorruptionError, match="format"):
        decode_view_handoff(binwire.dumps(envelope))


def test_hostile_handoff_is_corruption():
    """Every truncation and bit flip of a handoff, and a lying body
    length, decodes or raises :class:`CheckpointCorruptionError`.  (A
    bare ``BinwireError``, ``KeyError`` or ``TypeError`` used to escape,
    and the recipient's catch-up crashed untyped.)"""
    blob = _handoff_blob()
    body = binwire.loads(blob)["body"]
    assert blob.endswith(body)  # the body is the envelope's last value
    lie = lying_varint(blob, len(blob) - len(binwire.dumps(body)) + 3)
    decoded = check_hostile(
        blob, decode_view_handoff, CheckpointCorruptionError, [lie]
    )
    assert decoded == []
