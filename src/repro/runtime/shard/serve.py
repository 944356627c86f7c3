"""One site per OS process: ``repro serve-shard`` / ``serve-source --shard``.

Every process derives the identical workload, view family and plan from
the shared :class:`~repro.runtime.shard.spec.FleetSpec` fields (all of
it is pure), so no schema or assignment is exchanged; what a process
cannot derive -- where its peers listen -- it is told.
"""

from __future__ import annotations

import time as _time
from functools import partial

from repro.consistency.oracle import RunRecorder
from repro.durability.manager import CheckpointPolicy
from repro.durability.recovery import seed_standby_dir
from repro.harness.config import ExperimentConfig
from repro.formats.errors import RuntimeHostError, TransportRetriesExceeded
from repro.runtime.nodes import TcpLinks, drained_for, hold_until_delivered
from repro.runtime.shard.node import ShardedSourceNode, ShardNode
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
from repro.sources.updater import ScheduledUpdater
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


async def _probe_members(node: ShardedSourceNode, shard_addresses, tcp_config):
    """Probe with replica-group tolerance: a member that died before this
    source finished starting up is dropped iff another member of its
    group is reachable -- losing a shard's last member still fails the
    process."""
    unreachable: dict = {}
    reachable_shards: set[int] = set()
    for key, (phost, pport) in sorted(shard_addresses.items()):
        label = key.label
        try:
            await probe_peer(
                phost,
                pport,
                tcp_config,
                what=f"member {label}",
                heard=partial(node.listener.heard, f"{label}->{node.name}"),
            )
            reachable_shards.add(key.shard)
        except TransportRetriesExceeded as exc:
            unreachable[key] = exc
    for key, error in unreachable.items():
        if key.shard not in reachable_shards:
            raise error
        print(
            f"source[{node.name}] member {key.label}"
            " unreachable at probe time; surviving member(s)"
            f" carry shard {key.shard}",
            flush=True,
        )
        await node.drop_member(key)


async def serve_sharded_source_async(
    config: ExperimentConfig,
    index: int,
    shard_addresses: dict[ShardMember, tuple[str, int]],
    listen_host: str = "127.0.0.1",
    listen_port: int = 0,
    time_scale: float = 0.01,
    drive: bool = True,
    exit_when_done: bool = True,
    linger: float = 3.0,
    timeout: float = 3600.0,
    tcp_config: TcpChannelConfig | None = None,
    probe: bool = True,
) -> None:
    """Host one data-source site of a multi-process *sharded* deployment.

    Like :func:`repro.runtime.distributed.serve_source_async`, but the
    site routes updates to several shard listeners (``shard_addresses``)
    through a :class:`ShardedSourceFront` and serves one query channel
    per shard.  With ``probe=True`` every shard address is
    connectivity-checked before any update is replayed.

    ``shard_addresses`` is keyed by :class:`ShardMember` (a replicated
    deployment lists every member).  Dead-peer
    tolerance is always armed: a member whose channel exhausts its
    retry budget mid-run is dropped iff another live member still
    carries its shard; losing a shard's *last* member fails the process
    with :class:`TransportRetriesExceeded`, exactly as before.
    """
    spec = FleetSpec(
        config,
        transport="tcp",
        time_scale=time_scale,
        timeout=timeout,
        tcp_config=tcp_config,
    )
    runtime = new_runtime(spec)
    links = TcpLinks(
        runtime, None, tcp_config=tcp_config, listen=(listen_host, listen_port)
    )
    name = spec.chain.name_of(index)
    links.peers.update(
        {
            f"{name}->{key.label}": address
            for key, address in shard_addresses.items()
        }
    )
    node = ShardedSourceNode(spec, runtime, index, links, shard_addresses)
    await links.start()
    node.tolerate_dead_members()
    print(
        f"source[{node.name}] serving members"
        f" {[k.label for k in sorted(shard_addresses)]}"
        f" listening on {node.listener.address[0]}:{node.listener.address[1]}",
        flush=True,
    )
    try:
        if probe:
            await _probe_members(node, shard_addresses, tcp_config)
        updater = None
        if drive and index in spec.workload.schedules:
            updater = ScheduledUpdater(
                runtime,
                name,
                node.front.local_update,
                spec.workload.schedules[index],
            )
        if updater is not None and exit_when_done:
            await runtime.wait_until(
                drained_for(node, updater, linger), timeout=timeout
            )
        else:
            await runtime.until_failure()  # serve until cancelled (Ctrl-C)
    finally:
        await node.aclose()
        await runtime.aclose()


__all__ = [
    "ShardVerificationError",
    "seed_history_from_workload",
    "serve_shard_async",
    "serve_sharded_source_async",
]
