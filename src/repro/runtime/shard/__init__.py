"""Sharded warehouse runtime: per-view maintenance fanned across shards.

A sharded fleet partitions the maintained view family across ``n_shards``
warehouse shards (see :mod:`repro.warehouse.sharding`).  Each shard is an
ordinary multi-view warehouse -- the unchanged SWEEP or batched-sweep
scheduler over its subset of the views -- so it inherits the single
warehouse's per-view consistency guarantee wholesale.  The only new
moving part is the **fan-out** at each source:

* each source is the single warehouse's source site
  (:class:`~repro.harness.sites.SourceSite` over a
  :class:`~repro.sources.server.DataSourceServer`) with several
  destinations: it applies each local update to the backend exactly
  once, then sends a copy of the notice over a *per-member FIFO
  channel* to exactly the members whose views reference that source;
* each (source, member) pair has its own query channel and its own
  ProcessQuery loop at the source, and the per-member update/answer
  channel is shared FIFO -- so *within one shard* the paper's Section 4
  argument (updates applied before a query's evaluation are delivered
  before its answer) holds verbatim, and SWEEP's local compensation
  stays exact.

There is deliberately **no cross-shard coordination**: views are
independent maintenance problems, and the consistency oracle verifies
each one shard-by-shard.

What a step costs
-----------------
A shard sends one partial view change per *sweep class* -- per distinct
join set among the views taking part in a step -- not per view, and the
source pays one join per partial.  A ``view_family`` shares one join, so
a shard sweeps once per step however many of its views it hosts, and
sharding a same-join family across ``N`` shards shortens no step: it
*repeats* the sweep ``N`` times (see ``docs/sharding.md``).

One description, one way to build
---------------------------------
:class:`FleetSpec` (:mod:`.spec`) is the one description of a fleet: its
fields are the keyword arguments of every entry point, it derives the
workload, family, plan, replica groups and fan-out once, and its
constructor is the only place a fleet shape is rejected.  Its
:meth:`~FleetSpec.site_plan` is what
:func:`~repro.harness.sites.build_sites` builds -- the one builder of
every fleet, the single warehouse being the one-member, one-view case:
a :class:`~repro.harness.sites.WarehouseSite` per member and a
:class:`~repro.harness.sites.SourceSite` per source, over a *links*
object that is all a transport is (the simulator's ``SimLinks`` too).
:func:`run_sharded` (:mod:`.run`) builds every site on one event loop,
:func:`serve_shard_async` (:mod:`.serve`) one member per OS process --
``serve-warehouse``'s path, verdict included -- and
:func:`build_sharded_supervisor` (:mod:`.supervisor`) launches those
processes from command lines the spec derives and checks.  Faults
(:mod:`.faults`, :mod:`.rebalance`) are hooks a spec asks for, armed on
the built fleet; an un-faulted fleet has nothing installed.
"""

# Not used here: tests/runtime/conftest.py replaces this attribute with a
# quiescence-checking subclass, and ``run.new_runtime`` reads it back.
from repro.runtime.kernel import AsyncRuntime  # noqa: F401
from repro.runtime.shard.faults import FailoverSpec, ProtocolTrigger
from repro.runtime.shard.rebalance import RebalanceCoordinator, RebalanceSpec
# ShardedSourceFront is DataSourceServer under the name bench/ traces
# (see run.py); a bench-only change removes it.
from repro.runtime.shard.run import (
    ShardedRunResult,
    ShardedSourceFront,
    run_sharded,
    run_sharded_async,
)
from repro.runtime.shard.serve import serve_shard_async
from repro.runtime.shard.spec import FleetSpec, free_port
from repro.runtime.shard.supervisor import (
    CLEAN_FAILURE_EXIT,
    ShardCrashed,
    ShardSupervisor,
    build_sharded_supervisor,
    launch_sharded_processes,
)

__all__ = [
    "CLEAN_FAILURE_EXIT",
    "FailoverSpec",
    "FleetSpec",
    "ProtocolTrigger",
    "RebalanceCoordinator",
    "RebalanceSpec",
    "ShardCrashed",
    "ShardSupervisor",
    "ShardedRunResult",
    "ShardedSourceFront",
    "build_sharded_supervisor",
    "free_port",
    "launch_sharded_processes",
    "run_sharded",
    "run_sharded_async",
    "serve_shard_async",
]
