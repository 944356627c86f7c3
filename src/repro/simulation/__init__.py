"""Deterministic discrete-event simulation kernel.

The paper's setting -- ``n`` autonomous data sources, one warehouse site,
reliable FIFO channels, updates racing with incremental queries -- is
reproduced on a small SimPy-like kernel:

* :class:`~repro.simulation.kernel.Simulator` -- virtual clock + event heap.
* :class:`~repro.simulation.process.Process` -- generator-based processes
  that ``yield`` effects (:class:`~repro.simulation.process.Delay`,
  :class:`~repro.simulation.mailbox.Mailbox` gets), so protocol code reads
  like the paper's blocking pseudocode (Figures 3, 4 and 6).
* :class:`~repro.simulation.channel.Channel` -- reliable FIFO links with
  pluggable latency models; delivery order per channel is guaranteed even
  under random latencies, exactly the assumption SWEEP's local compensation
  depends on.  :class:`~repro.simulation.links.SimLinks` makes them by
  name for the sites of a fleet.
* :class:`~repro.simulation.metrics.MetricsCollector` and
  :class:`~repro.simulation.trace.TraceLog` -- message/byte accounting and
  structured event traces consumed by the experiment harness.

Everything is seeded and deterministic: the same configuration always
produces the same interleaving.
"""

from repro.simulation.channel import Channel, Message
from repro.simulation.errors import (
    DeadProcessError,
    MailboxOwnershipError,
    SimulationError,
    StalledSimulationError,
)
from repro.simulation.kernel import Simulator
from repro.simulation.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector
from repro.simulation.process import Delay, Process
from repro.simulation.rng import RngRegistry
from repro.simulation.trace import TraceLog, TraceRecord

__all__ = [
    "Channel",
    "ConstantLatency",
    "DeadProcessError",
    "Delay",
    "ExponentialLatency",
    "LatencyModel",
    "Mailbox",
    "MailboxOwnershipError",
    "Message",
    "MetricsCollector",
    "Process",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "StalledSimulationError",
    "TraceLog",
    "TraceRecord",
    "UniformLatency",
]
