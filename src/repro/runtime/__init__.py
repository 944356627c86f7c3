"""Asyncio distributed runtime: the simulator's protocol stack over real I/O.

The simulation kernel and this runtime expose the same contract --
``now``, ``schedule``, ``spawn`` -- so every protocol object in
:mod:`repro.warehouse` and :mod:`repro.sources` runs unchanged on either
host.  The runtime adds what a real deployment needs and a simulator does
not: transports (in-process direct hand-off or loopback/remote TCP with
FIFO sessions, retries and backpressure), wall-clock scheduling with a
configurable virtual-time scale, and quiescence that is *signalled*
where the simulator reads it off an empty event heap (a waiter parks
until no kernel timer is outstanding; see :mod:`repro.runtime.kernel`).

Entry points:

- :func:`run_distributed` / :func:`quick_distributed` -- one-call runs,
  mirroring :func:`repro.harness.runner.run_experiment`.
- :func:`serve_warehouse_async` / :func:`serve_source_async` -- one site
  per process (``repro serve-warehouse`` / ``repro serve-source``); a
  source serves one warehouse or the members of a sharded fleet.
- :func:`run_sharded` and :func:`serve_shard_async` -- the same for a
  view family partitioned across warehouse shards (:mod:`.shard`).

Every fleet, single-warehouse or sharded, on one loop or one site per
process, is built by :func:`repro.harness.sites.build_sites` -- one
:class:`~repro.harness.sites.WarehouseSite` per warehouse member, one
:class:`~repro.harness.sites.SourceSite` per source -- over a *links*
object, :class:`LocalLinks` or :class:`TcpLinks` from :mod:`.nodes`, that
is all a transport is.  The simulator builds the same sites over its own
links (:class:`~repro.simulation.links.SimLinks`).  Both serve paths share
:func:`.nodes.serve_site`, and both judge their views
(:class:`VerificationError`).
"""

# ``bench/trace.py`` imports ``binwire`` from this package and patches
# its ``dumps``/``loads``; every caller goes through the module, so the
# patch reaches them all.
from repro.formats import binwire  # noqa: F401
from repro.formats.codec import WireCodec
from repro.formats.errors import (
    QuiescenceTimeout,
    RuntimeHostError,
    TransportError,
    TransportOverflowError,
    TransportRetriesExceeded,
    WireProtocolError,
)
from repro.harness.sites import SourceSite, WarehouseSite
from repro.runtime.chaos import (
    PROFILES,
    ChaosConfig,
    ChaosLocalChannel,
    ChaosStats,
    ChaosTcpProxy,
    FaultPlan,
)
from repro.runtime.distributed import (
    DistributedRunResult,
    quick_distributed,
    run_distributed,
    run_distributed_async,
    serve_source_async,
    serve_warehouse_async,
)
from repro.runtime.kernel import AsyncRuntime
from repro.runtime.nodes import LocalLinks, TcpLinks, VerificationError
from repro.runtime.shard import (
    CLEAN_FAILURE_EXIT,
    FailoverSpec,
    FleetSpec,
    RebalanceCoordinator,
    RebalanceSpec,
    ShardCrashed,
    ShardSupervisor,
    ShardedRunResult,
    build_sharded_supervisor,
    free_port,
    launch_sharded_processes,
    run_sharded,
    run_sharded_async,
    serve_shard_async,
)
from repro.runtime.tcp import ChannelListener, TcpChannel, TcpChannelConfig, probe_peer
from repro.runtime.transport import LocalChannel, RuntimeChannel

__all__ = [
    "AsyncRuntime",
    "CLEAN_FAILURE_EXIT",
    "FailoverSpec",
    "FleetSpec",
    "RebalanceCoordinator",
    "RebalanceSpec",
    "ChannelListener",
    "ChaosConfig",
    "ChaosLocalChannel",
    "ChaosStats",
    "ChaosTcpProxy",
    "DistributedRunResult",
    "FaultPlan",
    "LocalChannel",
    "LocalLinks",
    "PROFILES",
    "QuiescenceTimeout",
    "RuntimeChannel",
    "RuntimeHostError",
    "ShardCrashed",
    "ShardSupervisor",
    "ShardedRunResult",
    "SourceSite",
    "TcpChannel",
    "TcpChannelConfig",
    "TcpLinks",
    "TransportError",
    "TransportOverflowError",
    "TransportRetriesExceeded",
    "VerificationError",
    "WarehouseSite",
    "WireCodec",
    "WireProtocolError",
    "build_sharded_supervisor",
    "free_port",
    "launch_sharded_processes",
    "probe_peer",
    "quick_distributed",
    "run_distributed",
    "run_distributed_async",
    "run_sharded",
    "run_sharded_async",
    "serve_shard_async",
    "serve_source_async",
    "serve_warehouse_async",
]
