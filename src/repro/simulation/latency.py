"""Pluggable channel latency models.

The paper assumes reliable FIFO channels but says nothing about timing;
concurrency windows (and hence how often compensation triggers) depend
entirely on how long queries and answers are in flight relative to update
inter-arrival times.  Experiments therefore sweep these models.

All models draw from a :class:`random.Random` supplied at construction, so
latencies come from a named seeded stream.
"""

from __future__ import annotations

import random


class LatencyModel:
    """Base class: produces a non-negative delay per message."""

    def sample(self) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        """Expected latency (used by reports to normalize time axes)."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``value`` time units."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError(f"latency must be >= 0, got {value}")
        self.value = value

    def sample(self) -> float:
        return self.value

    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"ConstantLatency({self.value})"


class UniformLatency(LatencyModel):
    """Latency uniform in ``[low, high]``."""

    def __init__(self, low: float, high: float, rng: random.Random):
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high
        self._rng = rng

    def sample(self) -> float:
        return self._rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class ExponentialLatency(LatencyModel):
    """Exponentially distributed latency with the given mean."""

    def __init__(self, mean: float, rng: random.Random):
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        self._mean = mean
        self._rng = rng

    def sample(self) -> float:
        return self._rng.expovariate(1.0 / self._mean)

    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"ExponentialLatency({self._mean})"


def build_latency_model(
    kind: str, mean: float, rng: random.Random
) -> LatencyModel:
    """Instantiate one of the named latency models around ``mean``."""
    if kind == "constant":
        return ConstantLatency(mean)
    if kind == "uniform":
        return UniformLatency(0.5 * mean, 1.5 * mean, rng)
    if kind == "exponential":
        return ExponentialLatency(mean, rng)
    raise ValueError(f"unknown latency model {kind!r}")


__all__ = [
    "ConstantLatency",
    "ExponentialLatency",
    "LatencyModel",
    "UniformLatency",
    "build_latency_model",
]
