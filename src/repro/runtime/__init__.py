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
  per process (``repro serve-warehouse`` / ``repro serve-source``).
- :func:`run_sharded` and the ``serve_shard*`` twins -- the same for a
  view family partitioned across warehouse shards (:mod:`.shard`).

Every fleet, single-warehouse or sharded, on one loop or one site per
process, is built from the sites of :mod:`.nodes` (and :mod:`.shard.node`)
over a *links* object -- :class:`LocalLinks` or :class:`TcpLinks` -- that
is all a transport is.
"""

from repro.runtime.chaos import (
    PROFILES,
    ChaosConfig,
    ChaosLocalChannel,
    ChaosStats,
    ChaosTcpProxy,
    FaultPlan,
)
from repro.runtime.codec import WireCodec
from repro.runtime.distributed import (
    DistributedRunResult,
    quick_distributed,
    run_distributed,
    run_distributed_async,
    serve_source_async,
    serve_warehouse_async,
)
from repro.runtime.errors import (
    QuiescenceTimeout,
    RuntimeHostError,
    TransportError,
    TransportOverflowError,
    TransportRetriesExceeded,
    WireProtocolError,
)
from repro.runtime.kernel import AsyncRuntime
from repro.runtime.nodes import (
    LocalLinks,
    SourceSite,
    TcpLinks,
    WarehouseNode,
)
from repro.runtime.shard import (
    CLEAN_FAILURE_EXIT,
    FailoverSpec,
    FleetSpec,
    RebalanceCoordinator,
    RebalanceSpec,
    ShardCrashed,
    ShardNode,
    ShardSupervisor,
    ShardVerificationError,
    ShardedRunResult,
    ShardedSourceFront,
    ShardedSourceNode,
    build_sharded_supervisor,
    free_port,
    launch_sharded_processes,
    run_sharded,
    run_sharded_async,
    serve_shard_async,
    serve_sharded_source_async,
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
    "ShardNode",
    "ShardSupervisor",
    "ShardVerificationError",
    "ShardedRunResult",
    "ShardedSourceFront",
    "ShardedSourceNode",
    "SourceSite",
    "TcpChannel",
    "TcpChannelConfig",
    "TcpLinks",
    "TransportError",
    "TransportOverflowError",
    "TransportRetriesExceeded",
    "WarehouseNode",
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
    "serve_sharded_source_async",
    "serve_source_async",
    "serve_warehouse_async",
]
