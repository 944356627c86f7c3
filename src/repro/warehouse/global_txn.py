"""Transaction-SWEEP: global (multi-source) transactions, atomically.

Section 2 classifies updates; types 1 and 2 are what SWEEP handles, and
the paper notes that type 3 -- *global transactions* whose updates span
several sources -- "can be extended" using the approaches of ZGMW96.
This module supplies that extension on top of SWEEP:

* each source applies and forwards its part of the transaction as usual,
  tagged with ``(txn_id, txn_total)``;
* the warehouse **holds** dequeued parts until the last one arrives; the
  transaction takes effect as one atomic install at that point;
* while a source has a held part, *subsequent updates from that source*
  are **deferred** (per-source FIFO order must be preserved, otherwise an
  installed state could reflect a later update without an earlier one,
  which corresponds to no valid source state).  Updates from other sources
  proceed normally -- their sweeps compensate for held and deferred
  updates exactly like queued ones, since all of them were applied at
  their sources before forwarding and therefore contaminate every later
  answer from those sources;
* once complete, the parts run their ViewChanges back to back -- each part
  compensating the still-held later parts, which telescopes exactly -- and
  the merged view change is installed **atomically**: no installed state
  ever exposes a partial transaction
  (:func:`repro.consistency.atomicity.check_transaction_atomicity`).

Consistency: per-update complete consistency necessarily relaxes (several
updates become one install, and deferral reorders installs *across*
sources); runs remain **strongly consistent** -- every install matches a
monotone per-source prefix vector -- and atomic.

Deadlock freedom: parts of one transaction commit at their sources in a
single global order (same timestamp), so per-source delivery orders can
never disagree about two transactions; a held transaction is always
completable once its remaining parts drain.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.sources.messages import UpdateNotice
from repro.warehouse.sweep import SweepWarehouse


class GlobalSweepWarehouse(SweepWarehouse):
    """SWEEP extended with atomic handling of global transactions."""

    algorithm_name = "global-sweep"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: parts collected per open transaction, in delivery order.
        self._open_txns: dict[str, list[UpdateNotice]] = {}
        #: flat view of all held parts (compensation + blocking lookups).
        self._held: list[UpdateNotice] = []
        #: updates waiting for their source's held part, delivery order.
        self._deferred: list[UpdateNotice] = []

    # ------------------------------------------------------------------
    # Interference bookkeeping
    # ------------------------------------------------------------------
    def pending_updates_from(self, index: int) -> list[UpdateNotice]:
        """Queue snapshot plus held/deferred updates from ``index``.

        Held parts and deferred updates were applied at their sources
        before they were forwarded, so -- unlike queued updates, which can
        race an answer -- they interfere with *every* later answer from
        that source.
        """
        pending = super().pending_updates_from(index)
        extra = [
            n
            for n in self._held + self._deferred
            if n.source_index == index
        ]
        return pending + extra

    def _source_blocked(self, index: int) -> bool:
        return any(n.source_index == index for n in self._held)

    # ------------------------------------------------------------------
    # Update processing
    # ------------------------------------------------------------------
    def process_update(self, notice: UpdateNotice) -> Generator:
        yield from self._handle(notice)
        yield from self._drain_deferred()

    def _handle(self, notice: UpdateNotice) -> Generator:
        if self._source_blocked(notice.source_index):
            self._deferred.append(notice)
            self.metrics.increment("txn_updates_deferred")
            if self.trace:
                self.trace.record(
                    self.sim.now, "warehouse", "txn-defer", notice
                )
            return
        if notice.txn_id is None:
            yield from super().process_update(notice)
            return

        parts = self._open_txns.setdefault(notice.txn_id, [])
        parts.append(notice)
        self._held.append(notice)
        self.metrics.increment("txn_parts_held")
        if len(parts) < notice.txn_total:
            if self.trace:
                self.trace.record(
                    self.sim.now, "warehouse", "txn-hold",
                    f"{notice.txn_id} {len(parts)}/{notice.txn_total}",
                )
            return
        del self._open_txns[notice.txn_id]
        yield from self._install_transaction(notice.txn_id, parts)

    def _install_transaction(
        self, txn_id: str, parts: list[UpdateNotice]
    ) -> Generator:
        """Run all parts' ViewChanges and install the merged delta once."""
        merged = None
        for part in parts:
            # Folded parts stop counting as interference for the remaining
            # parts' sweeps -- their effects now belong in the view change.
            self._held.remove(part)
            (partial,) = yield from self._sweep(
                part.source_index, part.delta, [self.view]
            )
            merged = partial if merged is None else merged.add(partial)
        self.mark_applied(parts)
        self.metrics.increment("txns_installed")
        self.metrics.observe("txn_size", len(parts))
        self.install_wide(
            merged.delta,
            note=f"global txn {txn_id} ({len(parts)} parts)",
        )

    def _drain_deferred(self) -> Generator:
        """Process deferred updates whose sources became unblocked.

        Handling a deferred update can complete another transaction and
        unblock further sources, so loop to a fixed point; relative order
        of deferred updates is preserved.
        """
        progress = True
        while progress:
            progress = False
            for i, notice in enumerate(self._deferred):
                if not self._source_blocked(notice.source_index):
                    del self._deferred[i]
                    yield from self._handle(notice)
                    progress = True
                    break


__all__ = ["GlobalSweepWarehouse"]
