"""Crash-restart recovery: checkpoint + WAL replay back into the protocol.

:func:`load_state` reads the durable directory back into a
:class:`RecoveredState`; :func:`resume_warehouse` re-enters a freshly
constructed warehouse at the exact FIFO position the durable state
records; :func:`attach_durability` resumes a warehouse from a loaded
state under a new :class:`~repro.durability.manager.DurabilityManager`
(sites load first: the state also decides their inbox and session epoch).

Why this is correct (the Section 4 argument, restated for recovery):
SWEEP's only ordering requirement is per-source FIFO between the update
stream and the query answers.  Recovery preserves it because

* the view contents and ``applied_counts`` come from the same stable
  point (a checkpoint is only taken between units of work), so the
  restored view is exactly "the delivery prefix counted by ``V0``";
* every update delivered after that stable point is *parked* in the
  :class:`~repro.durability.manager.DurabilityManager` in its original
  per-source order (checkpoint ``pending`` first, then the WAL records
  -- the WAL for generation ``G`` only ever holds post-checkpoint
  deliveries) and released into the queue only once the source's
  position provably covers it -- a live update with that or a higher
  seq, or a ``PositionAnswer`` probe.  Eager replay would be wrong:
  sweeps over a replayed update query the source's *current* state, and
  compensation is only exact when everything that state reflects is in
  the view, the batch, or the queue;
* redeliveries of already-parked updates (sources replay, or the
  transport retransmits unacked frames) are absorbed by the
  ``delivered_marks`` fence, so the queue never holds an update twice
  and never reorders within a source;
* in-flight sweeps are not resumed but *restarted*: their driving update
  is parked then re-queued, the re-issued queries see the sources'
  current state, and every queued update from a source is -- as always --
  exactly the set whose error terms local compensation subtracts;
* answers to pre-crash queries that the transport redelivers are
  dropped by the dispatcher: ids at or below the checkpoint's
  ``request_watermark`` fall under the id floor, and answers to queries
  issued *after* that checkpoint (whose ids durable state never saw)
  carry the pre-crash incarnation's epoch, which no longer matches.
"""

from __future__ import annotations

import os
import shutil
import struct
from dataclasses import dataclass, field

from repro.durability.checkpoint import (
    ViewCheckpoint,
    checkpoint_generations,
    checkpoint_path,
)
from repro.durability.encoding import decode_notice, decode_relation, record_codec
from repro.durability.errors import (
    CheckpointCorruptionError,
    GenerationMismatchError,
    RecoveryError,
    WalCorruptionError,
)
from repro.durability.manager import CheckpointPolicy, CrashPlan, DurabilityManager
from repro.durability.wal import read_update_log, wal_generations, wal_path
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition
from repro.sources.messages import UpdateNotice, ensure_request_ids_above


@dataclass
class RecoveredState:
    """Everything a restarted warehouse needs to re-enter the protocol."""

    generation: int
    applied_counts: dict[int, int]
    delivered_marks: dict[int, int]
    view_states: dict[str, Relation]
    pending: list[UpdateNotice] = field(default_factory=list)
    #: source name -> checkpointed auxiliary copy (locality layer).
    aux_states: dict[str, Relation] = field(default_factory=dict)
    installs: int = 0
    request_watermark: int = 0
    wal_records: int = 0
    wal_torn_bytes: int = 0

    @property
    def delivered_total(self) -> int:
        """Updates delivered (durably) across all previous incarnations."""
        return sum(self.delivered_marks.values())


def load_state(directory: str, views: list[ViewDefinition]) -> RecoveredState | None:
    """Read durable state back; ``None`` means a fresh (empty) directory.

    Raises loudly on anything that could yield a silently wrong view:
    corrupt checkpoint (an undecodable row block or record included),
    scrambled or undecodable WAL frame, or a WAL whose generation does
    not match the newest checkpoint.
    """
    from repro.relational.errors import RelationalError
    from repro.runtime.errors import WireProtocolError

    # What decoding a damaged row block, record or v2-era dict raises.
    undecodable = (
        WireProtocolError, RelationalError, LookupError, TypeError, ValueError,
        struct.error,
    )
    if not os.path.isdir(directory):
        return None
    latest = ViewCheckpoint.load_latest(directory)
    generations = wal_generations(directory)
    if latest is None:
        if generations:
            raise RecoveryError(
                f"{directory}: update log(s) for generation(s) {generations}"
                " but no checkpoint; cannot establish a base state"
            )
        return None
    generation, checkpoint = latest
    newer = [g for g in generations if g > generation]
    if newer:
        raise GenerationMismatchError(
            f"{directory}: update log generation(s) {newer} are newer than"
            f" the newest checkpoint ({generation}); a checkpoint is missing"
        )

    by_name = {view.name: view for view in views}
    primary = views[0]
    unknown = sorted(set(checkpoint.views) - set(by_name))
    if unknown or set(by_name) - set(checkpoint.views):
        raise RecoveryError(
            f"{directory}: checkpoint views {sorted(checkpoint.views)} do not"
            f" match configured views {sorted(by_name)}"
        )
    source_schemas = {
        primary.name_of(i): primary.schema_of(i)
        for i in range(1, primary.n_relations + 1)
    }
    unknown_aux = sorted(set(checkpoint.aux) - set(source_schemas))
    if unknown_aux:
        raise RecoveryError(
            f"{directory}: checkpoint auxiliary copies for unknown"
            f" source(s) {unknown_aux}"
        )
    codec = record_codec(primary)
    try:
        view_states = {
            name: decode_relation(rows, by_name[name].view_schema)
            for name, rows in checkpoint.views.items()
        }
        aux_states = {
            name: decode_relation(rows, source_schemas[name])
            for name, rows in checkpoint.aux.items()
        }
        pending = [decode_notice(obj, codec) for obj in checkpoint.pending]
    except undecodable as exc:
        raise CheckpointCorruptionError(
            f"{directory}: undecodable checkpoint {generation}: {exc}"
        ) from exc
    wal_records = 0
    torn = 0
    path = wal_path(directory, generation)
    if os.path.exists(path):
        wal_gen, records, torn = read_update_log(path, repair=True)
        if wal_gen is not None and wal_gen != generation:
            raise GenerationMismatchError(
                f"{path}: header claims generation {wal_gen}, checkpoint is"
                f" generation {generation}"
            )
        try:
            pending.extend(decode_notice(obj, codec) for obj in records)
        except undecodable as exc:
            raise WalCorruptionError(f"{path}: undecodable record: {exc}") from exc
        wal_records = len(records)

    delivered = dict(checkpoint.delivered_marks)
    for notice in pending:
        mark = delivered.get(notice.source_index, 0)
        if notice.seq > mark:
            delivered[notice.source_index] = notice.seq
    for index, applied in checkpoint.applied_counts.items():
        if delivered.get(index, 0) < applied:
            raise RecoveryError(
                f"{directory}: source {index} claims {applied} installed"
                f" updates but only {delivered.get(index, 0)} delivered"
            )
    return RecoveredState(
        generation=generation,
        applied_counts=dict(checkpoint.applied_counts),
        delivered_marks=delivered,
        view_states=view_states,
        pending=pending,
        aux_states=aux_states,
        installs=checkpoint.installs,
        request_watermark=checkpoint.request_watermark,
        wal_records=wal_records,
        wal_torn_bytes=torn,
    )


def resume_warehouse(warehouse, state: RecoveredState) -> None:
    """Re-enter a freshly built warehouse at the recovered position.

    The warehouse must have been built over ``state.view_states`` (the
    sites do: a recovering member evaluates no view).  Must run before
    the transports start delivering: claimed vectors are overwritten and
    the recorders are rebased.  The pending updates are *not* enqueued
    here -- the manager parks them at attach and releases each one only
    when its source's position is confirmed (see
    :meth:`DurabilityManager.ingest_update`).
    """
    from repro.warehouse.base import QueueDrivenWarehouse

    if not isinstance(warehouse, QueueDrivenWarehouse):
        raise RecoveryError(
            f"durability supports queue-driven warehouses, not"
            f" {type(warehouse).__name__}"
        )
    warehouse.applied_counts.update(state.applied_counts)
    warehouse.store.installs = state.installs
    #: answers to pre-crash queries are stale at or below this id.
    warehouse.stale_answer_floor = state.request_watermark
    ensure_request_ids_above(state.request_watermark)

    if warehouse.recorder is not None:
        warehouse.recorder.resume_from(
            state.applied_counts, warehouse.store.relation
        )
    for name, recorder in getattr(warehouse, "extra_recorders", {}).items():
        recorder.resume_from(state.applied_counts, warehouse.stores[name].relation)

    locality = getattr(warehouse, "locality", None)
    if locality is not None:
        # Seed covered copies from the checkpoint; demote any copy the
        # durable state does not carry (pre-locality checkpoint, or a
        # mode change across the restart).  The answer cache is always
        # cold after recovery.
        locality.resume_from(state.aux_states)

    warehouse.metrics.observe("recovered_pending", len(state.pending))
    warehouse.metrics.increment("recoveries")


def attach_durability(
    warehouse,
    directory: str,
    state: RecoveredState | None,
    policy: CheckpointPolicy | None = None,
    fsync_batch: int = 8,
    crash_plan: CrashPlan | None = None,
) -> DurabilityManager:
    """Resume ``warehouse`` from ``state`` and start logging.

    ``state`` is what :func:`load_state` read back from ``directory``
    (``None`` on a fresh one); the site loads it *before* building the
    warehouse because it also decides the site's inbox and session
    epoch.  The manager immediately writes this incarnation's base
    checkpoint, so the WAL never straddles a crash boundary.  Reading
    accepts every durable format, so an older directory recovers here
    unchanged (and is upgraded in place by the base checkpoint).
    """
    if state is not None:
        resume_warehouse(warehouse, state)
    manager = DurabilityManager(
        directory,
        policy=policy,
        fsync_batch=fsync_batch,
        crash_plan=crash_plan,
    )
    manager.attach(warehouse, state)
    return manager


def seed_standby_dir(source_dir: str, dest_dir: str) -> int | None:
    """Seed a hot standby's durable directory from a primary's checkpoint.

    Copies only the *newest checkpoint* -- never the WAL.  The WAL
    records the primary's own post-checkpoint deliveries, which the
    standby must NOT inherit: it receives those same updates over its
    own FIFO channels, and replaying the primary's log would double
    them.  The checkpoint alone is a stable prefix (taken between units
    of work), so the seeded standby parks its ``pending`` and catches up
    exactly like a restarted primary whose WAL was empty.

    Returns the seeded generation, or ``None`` when the primary has no
    checkpoint yet (the standby then starts cold from seq 1).  Refuses
    to seed over existing durable state.
    """
    if checkpoint_generations(dest_dir):
        raise RecoveryError(
            f"{dest_dir}: refusing to seed over existing durable state"
        )
    generations = checkpoint_generations(source_dir)
    if not generations:
        return None
    newest = generations[-1]
    os.makedirs(dest_dir, exist_ok=True)
    shutil.copyfile(
        checkpoint_path(source_dir, newest), checkpoint_path(dest_dir, newest)
    )
    return newest


__all__ = [
    "RecoveredState",
    "attach_durability",
    "load_state",
    "resume_warehouse",
    "seed_standby_dir",
]
