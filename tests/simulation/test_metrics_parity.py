"""Simulator/runtime parity for batched message accounting.

The batched sweep scheduler sends one :class:`MultiQueryRequest` per
source per batch.  For the message-complexity claims to be comparable
across hosts, the simulator's :class:`~repro.simulation.channel.Channel`
and the runtime's channels must account such a frame identically: **one**
message whose row size is the *sum* of the partial deltas it carries --
not one message per partial.
"""

import asyncio

from repro.relational.delta import Delta
from repro.relational.incremental import PartialView
from repro.relational.relation import Relation
from repro.runtime import AsyncRuntime, LocalChannel, binwire
from repro.simulation.channel import Channel, Message
from repro.simulation.kernel import Simulator
from repro.simulation.latency import ConstantLatency
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector, estimate_size
from repro.sources.messages import (
    MultiQueryAnswer,
    MultiQueryRequest,
    QueryAnswer,
    QueryRequest,
    UpdateNotice,
)


def _partials(paper_view):
    return [
        PartialView(
            paper_view, 1, 1,
            Delta(paper_view.schema_of(1), {(1, 3): 1, (4, 9): -1}),
        ),
        PartialView(
            paper_view, 1, 2,
            Delta(paper_view.wide_schema_range(1, 2), {(1, 3, 3, 7): 1}),
        ),
    ]


def _expected_rows(partials):
    return sum(p.delta.distinct_count for p in partials)


def test_multi_query_payload_rows_sum_partials(paper_view):
    partials = _partials(paper_view)
    request = Message(
        kind="query", sender="wh",
        payload=MultiQueryRequest(request_id=1, partials=partials, target_index=3),
    )
    answer = Message(
        kind="answer", sender="R3",
        payload=MultiQueryAnswer(request_id=1, partials=partials),
    )
    assert request.payload_rows() == _expected_rows(partials) == 3
    assert answer.payload_rows() == _expected_rows(partials)


def _simulator_metrics(paper_view):
    sim = Simulator()
    metrics = MetricsCollector()
    channel = Channel(
        sim, "wh->R3", Mailbox(sim, "R3"), ConstantLatency(1.0), metrics
    )
    channel.send(
        Message(
            kind="query", sender="wh",
            payload=MultiQueryRequest(
                request_id=1, partials=_partials(paper_view), target_index=3
            ),
        )
    )
    sim.run()
    return metrics


def _runtime_metrics(paper_view):
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        metrics = MetricsCollector()
        sink = []

        class Sink:
            def put(self, message):
                sink.append(message)

        channel = LocalChannel(runtime, "wh->R3", Sink(), metrics)
        channel.send(
            Message(
                kind="query", sender="wh",
                payload=MultiQueryRequest(
                    request_id=1, partials=_partials(paper_view), target_index=3
                ),
            )
        )
        await channel.flush()
        await runtime.aclose()
        return metrics

    return asyncio.run(main())


def test_simulator_and_runtime_account_batched_frames_identically(paper_view):
    """One MultiQueryRequest == one message, rows summed -- on both hosts."""
    sim_metrics = _simulator_metrics(paper_view)
    run_metrics = _runtime_metrics(paper_view)

    for metrics in (sim_metrics, run_metrics):
        assert metrics.messages_total == 1
        assert metrics.messages_of_kind("query") == 1
        assert metrics.rows_of_kind("query") == 3

    assert sim_metrics.summary()["by_kind"] == run_metrics.summary()["by_kind"]
    assert (
        sim_metrics.summary()["by_channel"]
        == run_metrics.summary()["by_channel"]
    )


def test_estimate_size_rows_per_payload_type(paper_view):
    """Row counts per payload type, pinned: the protocol payloads that
    size themselves, the engine's bags, and the serialized forms."""
    two_rows = Delta(paper_view.schema_of(1), {(1, 3): 1, (4, 9): -1})
    partial = _partials(paper_view)[0]
    flat = {"w": 2, "f": [1, 3, 1, 4, 9, -1, 5, 5, 2]}
    cases = [
        (None, 1),
        (two_rows, 2),
        (Relation(paper_view.schema_of(1)), 1),  # empty still travels
        (partial, 2),
        ([two_rows, partial], 4),
        (flat, 3),
        ({"a": two_rows, "b": None}, 3),
        (binwire.dumps(flat), 3),
        (b"not binwire", 1),
        (UpdateNotice(source_index=1, seq=1, delta=two_rows), 2),
        (QueryRequest(request_id=1, partial=partial, target_index=2), 2),
        (QueryAnswer(request_id=1, partial=partial), 2),
        ("scalar", 1),
    ]
    for payload, rows in cases:
        assert estimate_size(payload) == rows, payload
