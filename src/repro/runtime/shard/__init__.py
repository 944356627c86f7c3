"""Sharded warehouse runtime: per-view maintenance fanned across shards.

A sharded fleet partitions the maintained view family across ``n_shards``
warehouse shards (see :mod:`repro.warehouse.sharding`).  Each shard is an
ordinary multi-view warehouse -- the unchanged SWEEP or batched-sweep
scheduler over its subset of the views -- so it inherits the single
warehouse's per-view consistency guarantee wholesale.  The only new
moving part is the **router** at each source:

* one :class:`ShardedSourceFront` per source applies each local update
  to the backend exactly once, then fans the update notice out over
  *per-member FIFO channels* to exactly the shards whose views reference
  that source;
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
constructor is the only place a fleet shape is rejected.  Two site
builders (:mod:`.node`) host it -- :class:`ShardNode` per member,
:class:`ShardedSourceNode` per source -- over a *links* object that is
all a transport is.  :func:`run_sharded` (:mod:`.run`) builds every site
on one event loop, :func:`serve_shard_async` /
:func:`serve_sharded_source_async` (:mod:`.serve`) one site per OS
process, and :func:`build_sharded_supervisor` (:mod:`.supervisor`)
launches those processes from command lines the spec derives and checks.
Faults (:mod:`.faults`, :mod:`.rebalance`) are hooks a spec asks for,
armed on the built fleet; an un-faulted fleet has nothing installed.
"""

# Not used here: tests/runtime/conftest.py replaces this attribute with a
# quiescence-checking subclass, and ``run.new_runtime`` reads it back.
from repro.runtime.kernel import AsyncRuntime  # noqa: F401
from repro.runtime.shard.faults import FailoverSpec, ProtocolTrigger
from repro.runtime.shard.front import ShardedSourceFront
from repro.runtime.shard.node import (
    ShardedSourceNode,
    ShardNode,
    build_shard_warehouse,
)
from repro.runtime.shard.rebalance import RebalanceCoordinator, RebalanceSpec
from repro.runtime.shard.run import (
    ShardedRunResult,
    run_sharded,
    run_sharded_async,
)
from repro.runtime.shard.serve import (
    ShardVerificationError,
    seed_history_from_workload,
    serve_shard_async,
    serve_sharded_source_async,
)
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
    "ShardNode",
    "ShardSupervisor",
    "ShardVerificationError",
    "ShardedRunResult",
    "ShardedSourceFront",
    "ShardedSourceNode",
    "build_shard_warehouse",
    "build_sharded_supervisor",
    "free_port",
    "launch_sharded_processes",
    "run_sharded",
    "run_sharded_async",
    "seed_history_from_workload",
    "serve_shard_async",
    "serve_sharded_source_async",
]
