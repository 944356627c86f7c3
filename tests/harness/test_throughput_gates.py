"""Throughput-suite acceptance gates, tested on synthetic rows.

The suite itself drives real runs (``python -m repro
bench-throughput``); here we pin the pure arithmetic of the overhead
gates so a regression message fires exactly when a budget is exceeded.
"""

from repro.harness.throughput import (
    BATCHED_PAIR_TOLERANCE,
    DURABLE_OVERHEAD_TARGET,
    REBALANCE_OVERHEAD_TARGET,
    REPLICA_OVERHEAD_TARGET,
    compare_reports,
    durable_overhead,
    locality_problems,
    rebalance_overhead,
    replica_overhead,
    speedups,
)


def shard_row(algorithm, updates_per_sec):
    return {
        "mode": "sharded",
        "transport": "local",
        "algorithm": algorithm,
        "locality": "off",
        "updates": 60,
        "updates_installed": 60,
        "updates_per_sec": updates_per_sec,
        "consistency": "complete",
    }


def test_replica_overhead_is_worst_pair():
    rows = [
        shard_row("sweep@shards=2", 100.0),
        shard_row("sweep@shards=2+r1", 95.0),
        shard_row("sweep@shards=4", 200.0),
        shard_row("sweep@shards=4+r1", 160.0),
    ]
    # shards=2 costs 5%, shards=4 costs 20% -- the gate sees the worst.
    assert replica_overhead(rows) == 0.2


def test_replica_overhead_none_without_replica_rows():
    assert replica_overhead([shard_row("sweep@shards=2", 100.0)]) is None
    assert replica_overhead([]) is None


def test_durable_and_replica_pairs_do_not_cross():
    rows = [
        shard_row("sweep@shards=1", 50.0),
        shard_row("sweep@shards=1+durable", 45.0),
        shard_row("sweep@shards=2", 100.0),
        shard_row("sweep@shards=2+r1", 90.0),
    ]
    assert durable_overhead(rows) == 0.1
    assert replica_overhead(rows) == 0.1


def test_rebalance_overhead_is_worst_pair_and_stays_out_of_replica():
    rows = [
        shard_row("sweep@shards=2+v9", 100.0),
        shard_row("sweep@shards=2+v9+rebal", 95.0),
        shard_row("sweep@shards=4+v9", 200.0),
        shard_row("sweep@shards=4+v9+rebal", 170.0),
    ]
    assert rebalance_overhead(rows) == 0.15
    # A same-join family sweeps one class on any shard count: no
    # shards=N-over-shards=1 ratio is recorded, let alone gated.
    base = shard_row("sweep@shards=1", 50.0)
    assert not any(
        key.startswith("sharded/") for key in speedups([base, *rows])
    )
    # "+rebal" splits on "+r" too; it must never count as a replica row.
    assert replica_overhead(rows) is None


def test_rebalance_overhead_none_without_rebalance_rows():
    assert rebalance_overhead([shard_row("sweep@shards=2", 100.0)]) is None
    assert rebalance_overhead([]) is None


def test_compare_reports_gates_rebalance_budget():
    current = {
        "rebalance_overhead": REBALANCE_OVERHEAD_TARGET + 0.05,
        "speedups": {},
        "rows": [],
    }
    problems = compare_reports(current, {"speedups": {}, "rows": []})
    assert any("rebalance_overhead" in p for p in problems)
    current["rebalance_overhead"] = REBALANCE_OVERHEAD_TARGET - 0.01
    assert compare_reports(current, {"speedups": {}, "rows": []}) == []


def test_compare_reports_gates_replica_budget():
    over = 1.0 - (REPLICA_OVERHEAD_TARGET + 0.05)
    current = {
        "durable_overhead": DURABLE_OVERHEAD_TARGET - 0.01,
        "replica_overhead": round(1.0 - over, 3),
        "speedups": {},
        "rows": [],
    }
    problems = compare_reports(current, {"speedups": {}, "rows": []})
    assert any("replica_overhead" in p for p in problems)
    current["replica_overhead"] = REPLICA_OVERHEAD_TARGET - 0.01
    assert compare_reports(current, {"speedups": {}, "rows": []}) == []


# ---------------------------------------------------------------------------
# Locality gate: a covered batching scheduler may not be slower than remote
# ---------------------------------------------------------------------------


def locality_rows(batched_aux_rate):
    """The tcp sweep / batched-sweep pairs, remote twin first."""

    def row(algorithm, locality, rate, messages, consistency):
        return {
            "mode": "saturated",
            "transport": "tcp",
            "algorithm": algorithm,
            "locality": locality,
            "updates_per_sec": rate,
            "messages_total": messages,
            "consistency": consistency,
        }

    return [
        row("sweep", "off", 1000.0, 1000, "complete"),
        row("sweep", "aux", 5000.0, 200, "complete"),
        row("batched-sweep", "off", 8000.0, 212, "strong"),
        row("batched-sweep", "aux", batched_aux_rate, 200, "strong"),
    ]


def test_locality_gate_rejects_a_slower_covered_batching_scheduler():
    # The pre-coalescing regime: one install per update, 0.5x the twin.
    problems = locality_problems(locality_rows(4000.0))
    assert len(problems) == 1
    assert "locality/tcp/batched-sweep" in problems[0]
    assert "slower than remote" in problems[0]


def test_locality_gate_accepts_parity_within_poll_jitter():
    assert locality_problems(locality_rows(8000.0)) == []
    floor = 8000.0 * (1.0 - BATCHED_PAIR_TOLERANCE)
    assert locality_problems(locality_rows(floor + 100.0)) == []
    assert locality_problems(locality_rows(floor - 100.0)) != []
