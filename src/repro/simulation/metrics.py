"""Message and scalar metric accounting for experiments.

The paper's central quantitative claims are about *message complexity*
(Table 1: O(n) for SWEEP vs O(n!) for C-Strobe) and *message size* (ECA's
compensating queries grow quadratically).  The collector therefore counts
messages and payload sizes per message kind and per channel, plus arbitrary
named counters and observations for the harness.

Payload "size" is measured in **rows** (tuples carried), the unit the
paper's size argument is about; a scalar message counts as one row.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from statistics import mean

from repro.relational.incremental import PartialView
from repro.relational.relation import BagBase


def estimate_size(payload: object) -> int:
    """Number of rows a payload would occupy on the wire.

    Understands the engine's bags, partial views and containers; anything
    else counts as one row.
    """
    # Protocol payloads (notices, requests, answers) size themselves and
    # are what nearly every ``send`` carries, so they go first.
    if hasattr(payload, "payload_size"):
        return max(1, int(payload.payload_size()))
    if payload is None:
        return 1
    if isinstance(payload, BagBase):
        return max(1, payload.distinct_count)
    if isinstance(payload, PartialView):
        return max(1, payload.delta.distinct_count)
    if isinstance(payload, (list, tuple, set, frozenset)):
        return max(1, sum(estimate_size(item) for item in payload))
    if isinstance(payload, dict):
        return max(1, sum(estimate_size(v) for v in payload.values()))
    return 1


@dataclass
class MessageStats:
    """Per-kind aggregate: message count and total rows carried."""

    count: int = 0
    rows: int = 0


@dataclass
class MetricsCollector:
    """Counters, per-kind/per-channel message stats and raw observations."""

    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    by_kind: dict[str, MessageStats] = field(
        default_factory=lambda: defaultdict(MessageStats)
    )
    by_channel: dict[str, MessageStats] = field(
        default_factory=lambda: defaultdict(MessageStats)
    )
    observations: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list)
    )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_message(self, channel: str, kind: str, size: int) -> None:
        """Account one message of ``kind`` with ``size`` rows on ``channel``."""
        self.counters["messages_total"] += 1
        stats = self.by_kind[kind]
        stats.count += 1
        stats.rows += size
        stats = self.by_channel[channel]
        stats.count += 1
        stats.rows += size

    def increment(self, name: str, amount: int = 1) -> None:
        """Bump a named counter."""
        self.counters[name] += amount

    def observe(self, name: str, value: float) -> None:
        """Append a raw observation (latency, staleness, queue length...)."""
        self.observations[name].append(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def messages_total(self) -> int:
        """Total messages recorded on all channels."""
        return self.counters["messages_total"]

    def messages_of_kind(self, kind: str) -> int:
        """Message count for one kind (0 when never seen)."""
        return self.by_kind[kind].count if kind in self.by_kind else 0

    def rows_of_kind(self, kind: str) -> int:
        """Total payload rows for one kind."""
        return self.by_kind[kind].rows if kind in self.by_kind else 0

    def mean_observation(self, name: str) -> float | None:
        """Mean of a named observation series (None when empty)."""
        values = self.observations.get(name)
        return mean(values) if values else None

    def max_observation(self, name: str) -> float | None:
        """Max of a named observation series (None when empty)."""
        values = self.observations.get(name)
        return max(values) if values else None

    def summary(self) -> dict[str, object]:
        """A plain-dict snapshot for reports and result records."""
        return {
            "counters": dict(self.counters),
            "by_kind": {
                k: {"count": s.count, "rows": s.rows}
                for k, s in sorted(self.by_kind.items())
            },
            "by_channel": {
                k: {"count": s.count, "rows": s.rows}
                for k, s in sorted(self.by_channel.items())
            },
            "observations": {
                k: {
                    "n": len(v),
                    "mean": mean(v) if v else None,
                    "max": max(v) if v else None,
                }
                for k, v in sorted(self.observations.items())
            },
        }


__all__ = ["MetricsCollector", "MessageStats", "estimate_size"]
