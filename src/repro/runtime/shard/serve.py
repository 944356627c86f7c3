"""One member site per OS process: ``repro serve-shard``.

(A sharded fleet's sources are ``repro serve-source --shard``:
:func:`repro.runtime.distributed.serve_source_async`, the one source
entry point.)

Every process derives the identical workload, view family and plan from
the shared :class:`~repro.runtime.shard.spec.FleetSpec` fields (all of
it is pure), so no schema or assignment is exchanged; what a process
cannot derive -- where its peers listen -- it is told.
"""

from __future__ import annotations

import time as _time

from repro.consistency.oracle import RunRecorder
from repro.durability.manager import CheckpointPolicy
from repro.durability.recovery import seed_standby_dir
from repro.harness.config import ExperimentConfig
from repro.formats.errors import RuntimeHostError
from repro.runtime.nodes import TcpLinks, hold_until_delivered
from repro.runtime.shard.node import ShardNode
from repro.runtime.shard.run import (
    ShardedRunResult,
    collect_result,
    new_runtime,
)
from repro.runtime.shard.spec import FleetSpec
from repro.runtime.tcp import TcpChannelConfig, probe_peer
from repro.simulation.metrics import MetricsCollector
from repro.simulation.trace import TraceLog
from repro.sources.messages import UpdateNotice
from repro.warehouse.registry import algorithm_info
from repro.warehouse.sharding import ShardMember
from repro.workloads.scenarios import Workload


class ShardVerificationError(RuntimeHostError):
    """A shard's views failed their claimed consistency level."""


def seed_history_from_workload(
    recorders: dict[str, RunRecorder], workload: Workload
) -> None:
    """Reconstruct every source's update history from the shared schedule.

    A serve-mode shard never observes remote sources' commits directly,
    but the schedule is a pure function of the shared config -- so the
    history the oracle needs (dense per-source sequence of deltas) can be
    derived locally, exactly as the source process will replay it.
    """
    for index, schedule in sorted(workload.schedules.items()):
        ordered = sorted(schedule, key=lambda u: u.time)
        for seq, update in enumerate(ordered, start=1):
            notice = UpdateNotice(
                source_index=index,
                seq=seq,
                delta=update.delta,
                applied_at=update.time,
                txn_id=update.txn_id,
                txn_total=update.txn_total,
            )
            for recorder in recorders.values():
                recorder.history.on_source_update(notice)


async def serve_shard_async(
    config: ExperimentConfig,
    shard_id: int,
    n_shards: int,
    source_addresses: dict[int, tuple[str, int]],
    listen_host: str = "127.0.0.1",
    listen_port: int = 0,
    time_scale: float = 0.01,
    expect_updates: int | None = None,
    timeout: float = 3600.0,
    tcp_config: TcpChannelConfig | None = None,
    strategy: str = "hash",
    probe: bool = True,
    verify: bool = True,
    durable_dir: str | None = None,
    checkpoint_policy: CheckpointPolicy | None = None,
    fsync_batch: int = 8,
    replica: int = 0,
    seed_from: str | None = None,
) -> ShardedRunResult:
    """Host one warehouse shard of a multi-process sharded deployment.

    Source histories are reconstructed locally from the seeded schedule,
    which lets this shard verify its views' consistency in-process; with
    ``verify=True`` a view falling short of its scheduler's claimed level
    raises :class:`ShardVerificationError` (and the CLI exits non-zero)
    -- the supervisor's oracle gate for free.

    ``durable_dir`` is *this member's* directory (a fleet's
    ``FleetSpec.member_dir``): the shard checkpoints and WAL-logs there,
    and a relaunch over the same directory (what ``ShardSupervisor`` does
    under ``restart="on-crash"``) recovers the views and re-enters the
    protocol where the durable state left off.

    ``replica > 0`` hosts the shard as a **hot standby**
    (``repro serve-shard --standby-of N``): the identical warehouse
    under the member label ``sh<N>r<K>``, subscribing to its own copies
    of the per-source channels and verifying its views independently.
    ``seed_from`` bootstraps a fresh standby's durable directory from
    the primary's newest checkpoint (never the WAL -- see
    :func:`repro.durability.recovery.seed_standby_dir`).
    """
    spec = FleetSpec(
        config,
        n_shards=n_shards,
        strategy=strategy,
        transport="tcp",
        time_scale=time_scale,
        timeout=timeout,
        tcp_config=tcp_config,
        checkpoint_policy=checkpoint_policy,
        fsync_batch=fsync_batch,
    )
    member = ShardMember(shard_id, replica)
    if seed_from is not None and durable_dir is not None:
        seeded = seed_standby_dir(seed_from, durable_dir)
        if seeded is not None:
            print(
                f"shard[{member.label}] seeded durable dir from"
                f" {seed_from} at generation {seeded}",
                flush=True,
            )
    node = await _host_shard(
        spec, member, source_addresses, (listen_host, listen_port),
        durable_dir, expect_updates,
    )
    try:
        result = await _until_delivered(
            spec, node, source_addresses if probe else {}
        )
        if verify:
            _require_claimed(spec, shard_id, result)
        return result
    finally:
        await node.aclose()
        await node.runtime.aclose()


def _require_claimed(spec: FleetSpec, shard_id: int, result) -> None:
    claimed = algorithm_info(spec.config.algorithm).claimed_consistency
    failing = {
        name: level.name.lower()
        for name, level in result.levels.items()
        if level < claimed
    }
    if failing:
        raise ShardVerificationError(
            f"shard {shard_id}: views below claimed"
            f" {claimed.name.lower()}: {failing}"
        )


async def _host_shard(
    spec: FleetSpec, member, source_addresses, listen, durable_dir, expect_updates
) -> ShardNode:
    """Build, connect and start one member site; announce where it listens."""
    runtime = new_runtime(spec)
    metrics = MetricsCollector()
    links = TcpLinks(runtime, metrics, tcp_config=spec.tcp_config, listen=listen)
    links.peers.update(
        {
            f"{member.label}->{spec.chain.name_of(index)}": address
            for index, address in source_addresses.items()
        }
    )
    trace = TraceLog(enabled=True) if spec.config.trace else None
    node = ShardNode(
        spec, runtime, member, links, durable_dir, metrics, trace, expect_updates
    )
    seed_history_from_workload(node.recorders, spec.workload)
    node.connect(source_addresses)
    spec.started()
    await links.start()
    recovered = node.recovered_state
    print(
        f"shard[{member.label}/{spec.n_shards}] hosting"
        f" {[v.name for v in node.views]} listening on"
        f" {node.address[0]}:{node.address[1]}"
        + (
            f" (recovered generation {recovered.generation},"
            f" {len(recovered.pending)} pending replayed)"
            if recovered is not None
            else ""
        ),
        flush=True,
    )
    return node


async def _until_delivered(
    spec: FleetSpec, node: ShardNode, probe: dict
) -> ShardedRunResult:
    """Probe the ``probe`` addresses (source index -> address), serve until
    the member is done, and read its result off it."""
    runtime, shard = node.runtime, node.member.shard
    started = _time.perf_counter()
    for index, (host, port) in sorted(probe.items()):
        await probe_peer(host, port, spec.tcp_config, what=f"source R{index}")
    hold_until_delivered(runtime, node.primary_recorder, node.expected)
    await runtime.wait_until(
        lambda: runtime.settled() and node.done(), timeout=spec.timeout
    )
    recovered = node.recovered_state
    return collect_result(
        spec,
        {shard: node},
        _time.perf_counter() - started,
        spec.plan,
        metrics=node.metrics,
        updates_total=node.expected,
        recovered_pending=(
            {shard: len(recovered.pending)} if recovered is not None else None
        ),
    )


__all__ = [
    "ShardVerificationError",
    "seed_history_from_workload",
    "serve_shard_async",
]
