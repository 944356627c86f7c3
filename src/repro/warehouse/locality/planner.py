"""Per-view query planning: covered / cached / remote, plus query dedupe.

:class:`QueryLocality` is the facade the warehouse algorithms talk to.
It owns one :class:`~repro.warehouse.locality.aux.AuxiliaryStore` for
covered sources, one :class:`~repro.warehouse.locality.cache.AnswerCache`
for cached sources, and the per-source decision table the planner made:

* ``aux``    -- a local copy answers the sweep step with zero messages
  and zero compensation (see aux.py for the position argument);
* ``cache``  -- answers are memoized at the delivered position and
  patched from observed deltas; a hit behaves exactly like a remote
  answer routed this instant, so ordinary compensation applies;
* ``remote`` -- the paper's round trip, unchanged.

Planning modes (the CLI's ``--locality`` knob):

``off``    no locality layer at all (``build_locality`` returns None);
``aux``    cover every source whose initial copy fits the row budget
           (smallest relations first; budget 0 = unlimited), rest remote;
``cache``  no copies, every source answer-cached;
``auto``   cover what fits the budget, cache the rest.

The planner also dedupes identical per-view queries inside a composite
multi-query (:meth:`QueryLocality.dedupe`): fingerprint-equal partials
are sent once and the answer is fanned back out, with fresh deltas for
the duplicate uses so downstream in-place algebra never aliases.

One :class:`QueryLocality` serves exactly one warehouse: its auxiliary
position tracks that warehouse's installs.  Build a fresh one per
warehouse/shard (:func:`build_locality`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.relational.incremental import PartialView
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition
from repro.sources.messages import UpdateNotice
from repro.warehouse.locality.aux import AuxiliaryStore
from repro.warehouse.locality.cache import AnswerCache, fingerprint

MODES = ("off", "aux", "cache", "auto")

#: Algorithms whose sweep-step structure the locality layer understands.
#: (ECA/Strobe are event-driven and never issue sweep-step queries;
#: nested SWEEP's recursive interference handling assumes every answer
#: travelled the wire, so it is deliberately excluded.)
SUPPORTED_ALGORITHMS = frozenset({"sweep", "batched-sweep", "pipelined-sweep"})


def plan_coverage(
    primary: ViewDefinition,
    initial_states: dict[str, Relation],
    mode: str,
    budget_rows: int,
) -> dict[int, str]:
    """Decide aux / cache / remote for every source of the chain.

    Coverage is greedy smallest-first under the row budget, measured on
    the initial relation contents (copies grow with inserts afterwards;
    the budget is a planning-time knob, not a hard runtime limit).
    """
    if mode not in MODES:
        raise ValueError(f"unknown locality mode {mode!r}; pick one of {MODES}")
    n = primary.n_relations
    fallback = "cache" if mode in ("cache", "auto") else "remote"
    decisions = {index: fallback for index in range(1, n + 1)}
    if mode in ("aux", "auto"):
        sized = sorted(
            range(1, n + 1),
            key=lambda i: (
                initial_states[primary.name_of(i)].distinct_count,
                i,
            ),
        )
        used = 0
        for index in sized:
            rows = initial_states[primary.name_of(index)].distinct_count
            if budget_rows and used + rows > budget_rows:
                continue
            decisions[index] = "aux"
            used += rows
    return decisions


class QueryLocality:
    """The warehouse-side facade over aux store, answer cache and planner."""

    def __init__(
        self,
        primary: ViewDefinition,
        initial_states: dict[str, Relation],
        mode: str = "auto",
        budget_rows: int = 0,
        family: Sequence[ViewDefinition] = (),
    ):
        self.mode = mode
        self.budget_rows = budget_rows
        self.primary = primary
        self.decisions = plan_coverage(primary, initial_states, mode, budget_rows)
        self.aux = AuxiliaryStore(primary, family)
        for index, decision in self.decisions.items():
            if decision == "aux":
                self.aux.seed(index, initial_states[primary.name_of(index)])
        self.cache: AnswerCache | None = None
        if any(d == "cache" for d in self.decisions.values()):
            self.cache = AnswerCache(
                budget_rows=budget_rows, on_event=self._cache_event
            )
        self.metrics = None

    # ------------------------------------------------------------------
    def bind(self, metrics) -> None:
        """Attach the owning warehouse's metrics collector (ctor-time)."""
        self.metrics = metrics
        metrics.increment(
            "locality_covered_sources",
            sum(1 for d in self.decisions.values() if d == "aux"),
        )

    def _increment(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.increment(name, amount)

    def _cache_event(self, name: str, amount: int) -> None:
        self._increment(f"locality_cache_{name}", amount)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decision(self, index: int) -> str:
        return self.decisions.get(index, "remote")

    def covers(self, index: int) -> bool:
        return self.decisions.get(index) == "aux"

    def covers_all(self) -> bool:
        """True when no sweep step of this warehouse can leave the site."""
        return all(d == "aux" for d in self.decisions.values())

    def cached(self, index: int) -> bool:
        return self.cache is not None and self.decisions.get(index) == "cache"

    def adopt(self, index: int, relation: Relation) -> None:
        """Cover ``index`` with a copy that arrived mid-run (a migration
        handoff): seed it and flip the decision together, so a copy that
        every install advances is also the copy the next sweep step asks.
        ``relation`` must stand at this warehouse's installed position.
        """
        self.aux.seed(index, relation)
        self.decisions[index] = "aux"
        self._increment("locality_covered_sources")

    # ------------------------------------------------------------------
    # Covered path
    # ------------------------------------------------------------------
    def aux_answer(self, index: int, partial: PartialView) -> PartialView | None:
        """Evaluate one sweep step locally against the covered copy."""
        if not self.covers(index):
            return None
        self._increment("locality_aux_hits")
        return partial.extend(index, self.aux.contents(index))

    # ------------------------------------------------------------------
    # Cached path
    # ------------------------------------------------------------------
    def cache_lookup(self, index: int, partial: PartialView) -> PartialView | None:
        if not self.cached(index):
            return None
        return self.cache.lookup(index, partial)

    def cache_lookup_many(
        self, index: int, partials: list[PartialView]
    ) -> list[PartialView] | None:
        if not self.cached(index):
            return None
        return self.cache.lookup_many(index, partials)

    def register(self, request: object) -> None:
        """Hook for every outbound query (see WarehouseBase.send_query)."""
        if self.cache is not None and self.cached(
            getattr(request, "target_index", -1)
        ):
            self.cache.register(request)

    def on_answer_routed(self, payload: object) -> None:
        """Dispatcher hook: cache the answer at the delivered position."""
        if self.cache is not None:
            self.cache.on_answer_routed(payload)

    # ------------------------------------------------------------------
    # Stream hooks (called by WarehouseBase)
    # ------------------------------------------------------------------
    def on_delivered(self, notice: UpdateNotice) -> None:
        """Patch cached answers the moment an update is delivered."""
        if self.cache is not None:
            self.cache.on_delta(notice.source_index, notice.delta)

    def on_installed(self, notice: UpdateNotice) -> None:
        """Advance the covered copy when the update's effects install."""
        if notice.source_index in self.aux:
            self.aux.apply(notice.source_index, notice.delta)

    # ------------------------------------------------------------------
    # Multi-query sharing
    # ------------------------------------------------------------------
    def dedupe(
        self, partials: Sequence[PartialView]
    ) -> tuple[list[PartialView], list[int] | None]:
        """Collapse fingerprint-equal partials of one composite query.

        Returns ``(unique, mapping)``; ``mapping`` is None when nothing
        collapsed.  Use :meth:`expand` to fan the answers back out.
        """
        order: dict[tuple, int] = {}
        unique: list[PartialView] = []
        mapping: list[int] = []
        for partial in partials:
            key = fingerprint(partial)
            slot = order.get(key)
            if slot is None:
                slot = len(unique)
                order[key] = slot
                unique.append(partial)
            mapping.append(slot)
        if len(unique) == len(partials):
            return list(partials), None
        self._increment("locality_dedup_saved", len(partials) - len(unique))
        return unique, mapping

    @staticmethod
    def expand(
        answers: Sequence[PartialView], mapping: list[int] | None
    ) -> list[PartialView]:
        """Fan deduped answers back out; duplicates get fresh deltas so
        downstream in-place algebra never aliases one signed bag."""
        if mapping is None:
            return list(answers)
        used: set[int] = set()
        out: list[PartialView] = []
        for slot in mapping:
            answer = answers[slot]
            if slot in used:
                answer = PartialView(
                    answer.view, answer.lo, answer.hi, answer.delta.copy()
                )
            else:
                used.add(slot)
            out.append(answer)
        return out

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def aux_relations(self) -> dict[str, Relation]:
        """Covered copies keyed by source name (checkpoint capture)."""
        return self.aux.by_name()

    def resume_from(self, aux_states: dict[str, Relation]) -> None:
        """Re-enter at a recovered position.

        Covered copies present in the checkpoint are seeded at the
        checkpoint's installed position (the same stable point the view
        states come from).  Covered sources the checkpoint does not hold
        are *demoted* -- to cached under ``auto``, else to remote -- which
        only costs messages, never correctness.  The answer cache is
        always rebuilt cold: its delivered position died with the crash.
        """
        demote_to = "cache" if self.mode in ("cache", "auto") else "remote"
        for index in list(self.aux.indexes()):
            name = self.primary.name_of(index)
            if name in aux_states:
                self.aux.seed(index, aux_states[name])
            else:
                self.aux.drop(index)
                self.decisions[index] = demote_to
                self._increment("locality_demotions")
                if demote_to == "cache" and self.cache is None:
                    self.cache = AnswerCache(
                        budget_rows=self.budget_rows, on_event=self._cache_event
                    )
        if self.cache is not None:
            self.cache.clear()

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        return {
            "mode": self.mode,
            "budget_rows": self.budget_rows,
            "decisions": {
                self.primary.name_of(i): d for i, d in sorted(self.decisions.items())
            },
            "aux_rows": self.aux.rows_total(),
            "cache": None if self.cache is None else dict(self.cache.stats),
        }

    def __repr__(self) -> str:
        return f"QueryLocality(mode={self.mode}, decisions={self.decisions})"


def build_locality(config, views: Sequence[ViewDefinition], initial_states):
    """Construct the locality layer one warehouse will own, or None.

    ``views`` is the warehouse's view family (the primary first); all
    harness wiring sites call this with the same arguments they pass the
    warehouse constructor, so the planner sees exactly the relations the
    warehouse maintains.
    """
    mode = getattr(config, "locality", "off")
    if mode in (None, "off"):
        return None
    algorithm = getattr(config, "algorithm", None)
    if algorithm not in SUPPORTED_ALGORITHMS:
        raise ValueError(
            f"--locality={mode} supports sweep-family algorithms"
            f" {sorted(SUPPORTED_ALGORITHMS)}, not {algorithm!r}"
        )
    return QueryLocality(
        views[0],
        initial_states,
        mode=mode,
        budget_rows=getattr(config, "locality_budget_rows", 0),
        family=views,
    )


__all__ = [
    "MODES",
    "SUPPORTED_ALGORITHMS",
    "QueryLocality",
    "build_locality",
    "plan_coverage",
]
