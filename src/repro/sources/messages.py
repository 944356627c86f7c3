"""Protocol payloads exchanged between sources and the warehouse.

Three payloads implement the paper's distributed protocol:

* :class:`UpdateNotice` -- a source forwards an atomically applied update.
* :class:`QueryRequest` / :class:`QueryAnswer` -- one sweep step: the
  warehouse ships the partial view change ``Delta-V``; the source returns
  ``ComputeJoin(Delta-V, R)``.

ECA's centralized queries are sums of signed join terms with some relations
replaced by update deltas (:class:`EcaQueryTerm`); their payload size is
what grows quadratically with the number of interfering updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from repro.relational.delta import Delta
from repro.relational.incremental import PartialView

_request_ids = count(1)


def next_request_id() -> int:
    """A process-wide unique id correlating answers with requests."""
    return next(_request_ids)


def ensure_request_ids_above(watermark: int) -> None:
    """Advance the request-id counter past ``watermark`` (never lowers it).

    A recovered warehouse must not reuse ids of pre-crash requests:
    transports may still redeliver the old answers.  The id floor fences
    answers to requests the checkpoint knew about; answers to requests
    issued *after* the checkpoint are fenced by the incarnation epoch
    stamped on every query (see :class:`QueryRequest`).
    """
    current = next(_request_ids)  # burns one id; the counter now exceeds it
    target = max(current + 1, watermark + 1)
    globals()["_request_ids"] = count(target)


@dataclass(slots=True)
class UpdateNotice:
    """An update applied at a source, forwarded to the warehouse.

    ``seq`` is the per-source sequence number (1-based) of the update;
    ``delivery_seq`` is stamped by the warehouse dispatcher with the global
    delivery order, which defines the total order SWEEP materializes.
    """

    source_index: int
    seq: int
    delta: Delta
    applied_at: float = 0.0
    delivery_seq: int | None = None
    delivered_at: float = 0.0
    #: Global-transaction tagging (update type 3 of Section 2): parts of
    #: one transaction share a ``txn_id`` and carry the total part count.
    txn_id: str | None = None
    txn_total: int = 0
    #: The durable record of this update, once
    #: :func:`repro.durability.encoding.encode_notice` wrote it: a cell
    #: shared with every :meth:`delivery_copy`, so the WALs of in-process
    #: shards and a checkpoint's pending list encode one update once.  Not
    #: a protocol field: the wire codec never writes it, equality and
    #: ``repr`` ignore it, and ``dataclasses.replace`` starts without it.
    record_memo: list[bytes] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def delivery_copy(self) -> UpdateNotice:
        """This update for one more recipient: no delivery stamps (each
        warehouse stamps its own order), the delta and the durable-record
        memo shared by reference."""
        memo = self.record_memo
        if memo is None:
            memo = self.record_memo = []
        copy = UpdateNotice(
            self.source_index,
            self.seq,
            self.delta,
            self.applied_at,
            txn_id=self.txn_id,
            txn_total=self.txn_total,
        )
        copy.record_memo = memo
        return copy

    def payload_size(self) -> int:
        return max(1, self.delta.distinct_count)

    def __repr__(self) -> str:
        return (
            f"UpdateNotice(src={self.source_index}, seq={self.seq},"
            f" {self.delta.distinct_count} rows)"
        )


#: ``txn_id`` prefix marking a shard-rebalance fence frame.  A fence is a
#: regular :class:`UpdateNotice` with an **empty** delta whose ``seq`` is
#: the sending source's boundary position -- it rides the per-(source,
#: member) update channel so FIFO places it exactly between the pre- and
#: post-boundary updates, and every wire codec carries it unchanged.
REBALANCE_FENCE_PREFIX = "__rebalance_fence__"


def make_rebalance_fence(
    source_index: int,
    boundary: int,
    delta: Delta,
    epoch: int,
    applied_at: float = 0.0,
) -> UpdateNotice:
    """Build the fence frame posted at a source's boundary ``seq``.

    ``delta`` must be an empty delta of the source's schema (the fence
    changes nothing; it only marks a position in the FIFO stream).
    """
    return UpdateNotice(
        source_index=source_index,
        seq=boundary,
        delta=delta,
        applied_at=applied_at,
        txn_id=f"{REBALANCE_FENCE_PREFIX}:{epoch}",
    )


def is_rebalance_fence(notice: object) -> bool:
    """True when ``notice`` is a rebalance fence frame."""
    txn_id = getattr(notice, "txn_id", None)
    return isinstance(txn_id, str) and txn_id.startswith(
        REBALANCE_FENCE_PREFIX
    )


def rebalance_fence_epoch(notice: UpdateNotice) -> int:
    """The fencing epoch a fence frame was posted under."""
    if not is_rebalance_fence(notice):
        raise ValueError(f"not a rebalance fence: {notice!r}")
    return int(notice.txn_id.rsplit(":", 1)[1])


@dataclass(slots=True)
class QueryRequest:
    """One sweep step: extend ``partial`` with the receiving source's relation.

    ``epoch`` is the warehouse incarnation that issued the request (0 for
    non-durable runs); sources echo it into the answer, and a recovered
    warehouse drops answers from earlier incarnations -- the request-id
    watermark alone cannot fence answers to queries issued *after* the
    last checkpoint, whose ids the durable state never saw.
    """

    request_id: int
    partial: PartialView
    target_index: int
    epoch: int = 0

    def payload_size(self) -> int:
        return max(1, self.partial.delta.distinct_count)


@dataclass(slots=True)
class QueryAnswer:
    """The source's reply to a :class:`QueryRequest`."""

    request_id: int
    partial: PartialView
    epoch: int = 0

    def payload_size(self) -> int:
        return max(1, self.partial.delta.distinct_count)


@dataclass(slots=True)
class MultiQueryRequest:
    """One sweep step on behalf of several views at once.

    The multi-view warehouse batches the partial view changes of all its
    sweep classes (one per distinct join set among its views; batched
    sweeps: one per class and active term) into a single message per
    source per step, keeping message *count* independent of the number
    of maintained views; payload rows scale with the classes.
    """

    request_id: int
    partials: list[PartialView]
    target_index: int
    epoch: int = 0

    def payload_size(self) -> int:
        rows = 0
        for partial in self.partials:
            rows += partial.delta.distinct_count
        return rows or 1


@dataclass(slots=True)
class MultiQueryAnswer:
    """Per-partial answers to a :class:`MultiQueryRequest` (same order)."""

    request_id: int
    partials: list[PartialView]
    epoch: int = 0

    def payload_size(self) -> int:
        rows = 0
        for partial in self.partials:
            rows += partial.delta.distinct_count
        return rows or 1


@dataclass(slots=True)
class SnapshotRequest:
    """Ask a source for its full current contents (recompute baseline)."""

    request_id: int
    epoch: int = 0

    def payload_size(self) -> int:
        return 1


@dataclass(slots=True)
class SnapshotAnswer:
    """Full relation contents in reply to a :class:`SnapshotRequest`.

    ``relation`` is a point-in-time (possibly frozen) view of the source
    relation; receivers only read it.
    """

    request_id: int
    source_index: int
    relation: "object"  # Relation; typed loosely (import cycle)
    epoch: int = 0

    def payload_size(self) -> int:
        return max(1, self.relation.distinct_count)


@dataclass(slots=True)
class PositionRequest:
    """Ask a source how far its update stream has advanced.

    A recovered warehouse holds replayed (WAL-logged but uninstalled)
    updates *parked* until the source's state provably covers them --
    SWEEP's compensation is only exact when every update reflected in a
    query answer is in the view, the batch, or the queue.  The position
    answer is how a source that kept its state across the warehouse's
    crash (and therefore never resends acknowledged updates) confirms
    that coverage.
    """

    request_id: int
    epoch: int = 0

    def payload_size(self) -> int:
        return 1


@dataclass(slots=True)
class PositionAnswer:
    """The source's current update ``seq`` in reply to a :class:`PositionRequest`."""

    request_id: int
    source_index: int
    position: int
    epoch: int = 0

    def payload_size(self) -> int:
        return 1


@dataclass(slots=True)
class EcaQueryTerm:
    """One signed join term of an ECA query.

    ``substitutions`` maps 1-based relation indices to the delta that stands
    in for that relation; unsubstituted relations are read from the central
    source's current state.  ``sign`` is +1 or -1 (compensation subtracts).
    """

    substitutions: dict[int, Delta]
    sign: int = 1

    def payload_size(self) -> int:
        return max(1, sum(d.distinct_count for d in self.substitutions.values()))


@dataclass(slots=True)
class EcaQuery:
    """A (possibly compensating) ECA query: a sum of signed join terms."""

    request_id: int
    terms: list[EcaQueryTerm] = field(default_factory=list)

    def payload_size(self) -> int:
        return max(1, sum(t.payload_size() for t in self.terms))


@dataclass(slots=True)
class EcaAnswer:
    """The central source's evaluation of an :class:`EcaQuery` (wide rows)."""

    request_id: int
    delta: Delta

    def payload_size(self) -> int:
        return max(1, self.delta.distinct_count)


__all__ = [
    "EcaAnswer",
    "EcaQuery",
    "EcaQueryTerm",
    "MultiQueryAnswer",
    "MultiQueryRequest",
    "PositionAnswer",
    "PositionRequest",
    "QueryAnswer",
    "QueryRequest",
    "REBALANCE_FENCE_PREFIX",
    "SnapshotAnswer",
    "SnapshotRequest",
    "UpdateNotice",
    "ensure_request_ids_above",
    "is_rebalance_fence",
    "make_rebalance_fence",
    "next_request_id",
    "rebalance_fence_epoch",
]
