"""JSON wire codec for the protocol payloads.

Both endpoints of a channel share the same :class:`~repro.relational.view.
ViewDefinition` (in deployment it is derived from the same seeded workload
configuration), so rows travel bare: the receiver reattaches the schema
from the view and the ``(lo, hi)`` range or source index carried alongside.
Rows are tuples of JSON scalars; counts are signed integers.

The codec is deliberately symmetric with :func:`repro.simulation.metrics.
estimate_size`: a decoded message reports the same payload row count the
simulator would have accounted, which keeps distributed metrics comparable
with simulator metrics.

Codec versions
--------------
Three codec versions exist, negotiated per channel during the TCP
handshake (see :mod:`repro.runtime.tcp`) and selectable via
``WireCodec(view, version=...)``:

* **v1**: ``[[row values], count]`` per row -- verbose but
  self-describing.  What a bare ``WireCodec(view)`` encodes; no channel
  negotiates it unless pinned to.
* **v2** (``CODEC_VERSION_DEFAULT``, what channels advertise): one flat
  array ``{"f": [v1, v2, ..., count, v1, v2, ...]}`` of
  ``arity + 1`` entries per row.  The receiver re-slices it using the
  schema both endpoints already share; for the small tuples this protocol
  ships, dropping the per-row array nesting roughly halves the JSON byte
  volume and the encode/parse work.
* **v3**: the v2 *object layout* serialized through the binary kernel
  (:mod:`repro.runtime.binwire`) instead of JSON -- type-tagged scalars,
  per-frame string interning, varint counts, and the same batched
  ``arity + 1`` flat row blocks.  v3 changes how a *frame* is serialized,
  not the message objects inside it, so this module's encode path for
  ``version >= 2`` covers it unchanged; the transport picks the frame
  serializer (see ``write_frame``/``read_frame`` in
  :mod:`repro.runtime.tcp`).

Decoding is version-agnostic -- v1/v2 shapes are distinguishable (list
vs. object) and binwire frames are distinguishable from JSON by their
first byte, so a decoder accepts any version regardless of its configured
version.  Only *encoding* follows the negotiated version, which is what
makes the handshake downgrade-safe.
"""

from __future__ import annotations

from typing import Any

from repro.relational.delta import Delta
from repro.relational.incremental import PartialView
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.view import ViewDefinition
from repro.runtime.errors import WireProtocolError
from repro.simulation.channel import Message
from repro.sources.messages import (
    EcaAnswer,
    EcaQuery,
    EcaQueryTerm,
    MultiQueryAnswer,
    MultiQueryRequest,
    PositionAnswer,
    PositionRequest,
    QueryAnswer,
    QueryRequest,
    SnapshotAnswer,
    SnapshotRequest,
    UpdateNotice,
)


#: Highest codec version this runtime implements (and will accept in a
#: handshake).
CODEC_VERSION_MAX = 3

#: Version a channel *advertises* by default.  v3 is implemented but held
#: at opt-in (``--codec-version 3``) until ROADMAP 3-iv's A/B decides
#: whether it pays on the wire; decode accepts all versions regardless.
CODEC_VERSION_DEFAULT = 2


def _encode_rows(bag, version: int = 1):
    if version >= 2:
        flat: list = []
        for row, count in bag.items():
            flat.extend(row)
            flat.append(count)
        return {"f": flat}
    return [[list(row), count] for row, count in bag.items()]


def _decode_counts(rows, arity: int) -> dict[tuple, int]:
    """Row counts from either encoding (v1 list / v2 flat object)."""
    if isinstance(rows, dict):
        flat = rows["f"]
        stride = arity + 1
        if len(flat) % stride:
            raise WireProtocolError(
                f"flat row array of {len(flat)} entries is not a multiple of"
                f" arity+1 ({stride})"
            )
        return {
            tuple(flat[i : i + arity]): int(flat[i + arity])
            for i in range(0, len(flat), stride)
        }
    return {tuple(row): int(count) for row, count in rows}


class WireCodec:
    """Encode/decode :class:`Message` envelopes for one view's channels.

    ``version`` selects the row encoding used by ``encode_*`` (decoding
    always accepts every version); transports override it per call with
    the version negotiated for their channel.
    """

    def __init__(
        self,
        view: ViewDefinition,
        version: int = 1,
        extra_views: tuple[ViewDefinition, ...] = (),
    ):
        if not 1 <= version <= CODEC_VERSION_MAX:
            raise ValueError(
                f"codec version must be 1..{CODEC_VERSION_MAX}, got {version}"
            )
        self.view = view
        self.version = version
        # Multi-view channels (sharded warehouse) carry partials of several
        # same-chain views; each partial is tagged with its view name so
        # the receiver rebinds it to the right definition (the selection
        # predicate lives on the view, and ComputeJoin evaluates it).
        self.views: dict[str, ViewDefinition] = {view.name: view}
        for extra in extra_views:
            self.views[extra.name] = extra

    # ------------------------------------------------------------------
    # Envelope
    # ------------------------------------------------------------------
    def encode_message(self, message: Message, version: int | None = None) -> dict:
        """A JSON-safe dict for one channel envelope."""
        return {
            "kind": message.kind,
            "sender": message.sender,
            "sent_at": message.sent_at,
            "payload": self.encode_payload(message.payload, version),
        }

    def decode_message(self, obj: dict) -> Message:
        try:
            return Message(
                kind=obj["kind"],
                sender=obj["sender"],
                payload=self.decode_payload(obj["payload"]),
                sent_at=float(obj.get("sent_at", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WireProtocolError(f"malformed envelope: {exc}") from exc

    # ------------------------------------------------------------------
    # Payloads
    # ------------------------------------------------------------------
    @staticmethod
    def _epoch_field(payload: Any) -> dict:
        """Incarnation tag for query/answer payloads; omitted when 0 so
        pre-durability wire frames are byte-identical."""
        epoch = getattr(payload, "epoch", 0)
        return {"epoch": epoch} if epoch else {}

    def encode_payload(self, payload: Any, version: int | None = None) -> dict:
        v = self.version if version is None else version
        if isinstance(payload, UpdateNotice):
            return {
                "type": "update_notice",
                "source_index": payload.source_index,
                "seq": payload.seq,
                "applied_at": payload.applied_at,
                "txn_id": payload.txn_id,
                "txn_total": payload.txn_total,
                "rows": _encode_rows(payload.delta, v),
            }
        if isinstance(payload, QueryRequest):
            return {
                "type": "query_request",
                "request_id": payload.request_id,
                "target_index": payload.target_index,
                "partial": self._encode_partial(payload.partial, v),
                **self._epoch_field(payload),
            }
        if isinstance(payload, QueryAnswer):
            return {
                "type": "query_answer",
                "request_id": payload.request_id,
                "partial": self._encode_partial(payload.partial, v),
                **self._epoch_field(payload),
            }
        if isinstance(payload, MultiQueryRequest):
            return {
                "type": "multi_query_request",
                "request_id": payload.request_id,
                "target_index": payload.target_index,
                "partials": [self._encode_partial(p, v) for p in payload.partials],
                **self._epoch_field(payload),
            }
        if isinstance(payload, MultiQueryAnswer):
            return {
                "type": "multi_query_answer",
                "request_id": payload.request_id,
                "partials": [self._encode_partial(p, v) for p in payload.partials],
                **self._epoch_field(payload),
            }
        if isinstance(payload, EcaQuery):
            return {
                "type": "eca_query",
                "request_id": payload.request_id,
                "terms": [
                    {
                        "sign": term.sign,
                        "subs": {
                            str(index): _encode_rows(delta, v)
                            for index, delta in term.substitutions.items()
                        },
                    }
                    for term in payload.terms
                ],
            }
        if isinstance(payload, EcaAnswer):
            return {
                "type": "eca_answer",
                "request_id": payload.request_id,
                "rows": _encode_rows(payload.delta, v),
            }
        if isinstance(payload, PositionRequest):
            return {
                "type": "position_request",
                "request_id": payload.request_id,
                **self._epoch_field(payload),
            }
        if isinstance(payload, PositionAnswer):
            return {
                "type": "position_answer",
                "request_id": payload.request_id,
                "source_index": payload.source_index,
                "position": payload.position,
                **self._epoch_field(payload),
            }
        if isinstance(payload, SnapshotRequest):
            return {
                "type": "snapshot_request",
                "request_id": payload.request_id,
                **self._epoch_field(payload),
            }
        if isinstance(payload, SnapshotAnswer):
            # Delta-encoded answers carry pre-encoded v2 flat rows; pass
            # them through (decoding is version-agnostic, so this is safe
            # even on a v1-negotiated channel).
            return {
                "type": "snapshot_answer",
                "request_id": payload.request_id,
                "source_index": payload.source_index,
                "rows": (
                    payload.rows
                    if payload.relation is None
                    else _encode_rows(payload.relation, v)
                ),
                **self._epoch_field(payload),
            }
        raise WireProtocolError(
            f"no wire encoding for payload type {type(payload).__name__}"
        )

    def decode_payload(self, obj: dict) -> Any:
        kind = obj.get("type")
        if kind == "update_notice":
            index = int(obj["source_index"])
            return UpdateNotice(
                source_index=index,
                seq=int(obj["seq"]),
                delta=self._decode_delta(self.view.schema_of(index), obj["rows"]),
                applied_at=float(obj["applied_at"]),
                txn_id=obj.get("txn_id"),
                txn_total=int(obj.get("txn_total", 0)),
            )
        if kind == "query_request":
            return QueryRequest(
                request_id=int(obj["request_id"]),
                partial=self._decode_partial(obj["partial"]),
                target_index=int(obj["target_index"]),
                epoch=int(obj.get("epoch", 0)),
            )
        if kind == "query_answer":
            return QueryAnswer(
                request_id=int(obj["request_id"]),
                partial=self._decode_partial(obj["partial"]),
                epoch=int(obj.get("epoch", 0)),
            )
        if kind == "multi_query_request":
            return MultiQueryRequest(
                request_id=int(obj["request_id"]),
                partials=[self._decode_partial(p) for p in obj["partials"]],
                target_index=int(obj["target_index"]),
                epoch=int(obj.get("epoch", 0)),
            )
        if kind == "multi_query_answer":
            return MultiQueryAnswer(
                request_id=int(obj["request_id"]),
                partials=[self._decode_partial(p) for p in obj["partials"]],
                epoch=int(obj.get("epoch", 0)),
            )
        if kind == "eca_query":
            return EcaQuery(
                request_id=int(obj["request_id"]),
                terms=[
                    EcaQueryTerm(
                        substitutions={
                            int(index): self._decode_delta(
                                self.view.schema_of(int(index)), rows
                            )
                            for index, rows in term["subs"].items()
                        },
                        sign=int(term["sign"]),
                    )
                    for term in obj["terms"]
                ],
            )
        if kind == "eca_answer":
            return EcaAnswer(
                request_id=int(obj["request_id"]),
                delta=self._decode_delta(self.view.wide_schema, obj["rows"]),
            )
        if kind == "position_request":
            return PositionRequest(
                request_id=int(obj["request_id"]),
                epoch=int(obj.get("epoch", 0)),
            )
        if kind == "position_answer":
            return PositionAnswer(
                request_id=int(obj["request_id"]),
                source_index=int(obj["source_index"]),
                position=int(obj["position"]),
                epoch=int(obj.get("epoch", 0)),
            )
        if kind == "snapshot_request":
            return SnapshotRequest(
                request_id=int(obj["request_id"]),
                epoch=int(obj.get("epoch", 0)),
            )
        if kind == "snapshot_answer":
            index = int(obj["source_index"])
            schema = self.view.schema_of(index)
            return SnapshotAnswer(
                request_id=int(obj["request_id"]),
                source_index=index,
                relation=Relation(
                    schema, _decode_counts(obj["rows"], len(schema))
                ),
                epoch=int(obj.get("epoch", 0)),
            )
        raise WireProtocolError(f"unknown payload type {kind!r}")

    # ------------------------------------------------------------------
    def _encode_partial(self, partial: PartialView, version: int) -> dict:
        obj = {
            "lo": partial.lo,
            "hi": partial.hi,
            "rows": _encode_rows(partial.delta, version),
        }
        # Tag partials of non-primary views; untagged frames keep the
        # pre-family wire shape, so single-view channels are unchanged.
        if partial.view.name != self.view.name:
            obj["view"] = partial.view.name
        return obj

    def _decode_partial(self, obj: dict) -> PartialView:
        lo, hi = int(obj["lo"]), int(obj["hi"])
        name = obj.get("view")
        if name is None:
            view = self.view
        else:
            view = self.views.get(name)
            if view is None:
                raise WireProtocolError(
                    f"partial references unknown view {name!r}"
                    f" (known: {sorted(self.views)})"
                )
        schema = view.wide_schema_range(lo, hi)
        return PartialView(view, lo, hi, self._decode_delta(schema, obj["rows"]))

    @staticmethod
    def _decode_delta(schema: Schema, rows) -> Delta:
        return Delta(schema, _decode_counts(rows, len(schema)))


__all__ = ["CODEC_VERSION_DEFAULT", "CODEC_VERSION_MAX", "WireCodec"]
