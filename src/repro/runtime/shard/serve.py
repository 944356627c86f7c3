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

from functools import partial

from repro.durability.manager import CheckpointPolicy
from repro.durability.recovery import seed_standby_dir
from repro.harness.config import ExperimentConfig
from repro.runtime.nodes import require_claimed, serve_site
from repro.runtime.shard.run import (
    ShardedRunResult,
    collect_result,
    new_runtime,
)
from repro.runtime.shard.spec import FleetSpec
from repro.runtime.tcp import TcpChannelConfig
from repro.warehouse.sharding import ShardMember


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

    ``serve-warehouse``'s path (:func:`~repro.runtime.nodes.serve_site`): source
    histories are rebuilt from the seeded schedule, so the shard verifies
    its views in-process; with ``verify=True`` a view below its
    scheduler's claimed level raises :class:`VerificationError` (the CLI
    exits non-zero) -- the supervisor's oracle gate for free.

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
    return await serve_site(
        new_runtime(spec),
        config,
        spec.workload,
        spec.site_plan([member], durable_dirs={member: durable_dir}),
        source_addresses,
        (listen_host, listen_port),
        tcp_config,
        timeout,
        partial(_judged, spec, verify),
        probe=probe,
        expect_updates=expect_updates,
    )


def _judged(spec: FleetSpec, verify: bool, site, wall: float, metrics, trace):
    """The member's result; with ``verify``, its views held to the claim."""
    shard, recovered = site.member.shard, site.recovered_state
    result = collect_result(
        spec,
        {shard: site},
        wall,
        spec.plan,
        metrics=metrics,
        updates_total=site.expected,
        recovered_pending=(
            {shard: len(recovered.pending)} if recovered is not None else None
        ),
    )
    if verify:
        require_claimed(f"shard {shard}", result.levels, spec.config)
    return result


__all__ = ["serve_shard_async"]
