"""The centralized source used by ECA (ZGMHW95).

ECA assumes a *single* data source storing every base relation (Section 3:
"the number of data sources is limited to a single data source.  However,
the data source may store several base relations").  :class:`CentralSource`
plays that role: it applies local updates against any of its relations,
forwards them to the warehouse, and evaluates whole ECA queries -- sums of
signed join terms over the current database state -- atomically.
"""

from __future__ import annotations

from collections import defaultdict

from repro.relational.delta import Delta
from repro.relational.incremental import PartialView
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition
from repro.simulation.channel import Channel, Message
from repro.simulation.kernel import Simulator
from repro.simulation.mailbox import Mailbox
from repro.simulation.process import Delay
from repro.simulation.trace import TraceLog
from repro.sources.messages import EcaAnswer, EcaQuery, EcaQueryTerm, UpdateNotice


def evaluate_eca_term(
    view: ViewDefinition,
    states: dict[str, Relation],
    term: EcaQueryTerm,
) -> Delta:
    """Evaluate one signed join term against ``states``.

    Relations listed in ``term.substitutions`` are replaced by the given
    deltas; the rest are read from ``states``.  Returns a wide signed bag.
    """
    def contents(index: int):
        sub = term.substitutions.get(index)
        return sub if sub is not None else states[view.name_of(index)]

    partial = PartialView.initial(view, 1, contents(1))
    for index in range(2, view.n_relations + 1):
        partial = partial.extend(index, contents(index))
    delta = partial.delta
    if term.sign == -1:
        delta = delta.negated()
    elif term.sign != 1:
        raise ValueError(f"term sign must be +1 or -1, got {term.sign}")
    return delta


class CentralSource:
    """A single site storing all base relations of the view.

    The interface intentionally parallels
    :class:`~repro.sources.server.DataSourceServer`: ``local_update``
    commits-and-forwards, a query process services requests sequentially,
    and update notices share the FIFO channel with query answers.
    """

    def __init__(
        self,
        sim: Simulator,
        view: ViewDefinition,
        to_warehouse: Channel,
        initial: dict[str, Relation] | None = None,
        query_service_time: float = 0.0,
        trace: TraceLog | None = None,
    ):
        self.sim = sim
        self.view = view
        self.name = "central"
        self.to_warehouse = to_warehouse
        self.query_service_time = query_service_time
        self.trace = trace
        self.query_inbox = Mailbox(sim, "central-queries")
        self.states: dict[str, Relation] = {}
        for index in range(1, view.n_relations + 1):
            rel_name = view.name_of(index)
            if initial is not None and rel_name in initial:
                self.states[rel_name] = initial[rel_name].copy()
            else:
                self.states[rel_name] = Relation(view.schema_of(index))
        self._seq: dict[int, int] = defaultdict(int)
        self._listeners = []
        sim.spawn("central-ProcessQuery", self._process_queries())

    # ------------------------------------------------------------------
    def local_update(self, index: int, delta: Delta) -> UpdateNotice:
        """Atomically apply ``delta`` to relation ``index`` and forward it."""
        self.states[self.view.name_of(index)].apply_delta(delta)
        self._seq[index] += 1
        notice = UpdateNotice(
            source_index=index,
            seq=self._seq[index],
            delta=delta.copy(),
            applied_at=self.sim.now,
        )
        for listener in self._listeners:
            listener(notice)
        if self.trace:
            self.trace.record(self.sim.now, self.name, "local-update", notice)
        self.to_warehouse.send(Message(kind="update", sender=self.name, payload=notice))
        return notice

    def add_update_listener(self, listener) -> None:
        """Register a per-update callback (consistency recording)."""
        self._listeners.append(listener)

    def snapshot(self, index: int) -> Relation:
        """Copy of relation ``index``'s current contents."""
        return self.states[self.view.name_of(index)].copy()

    def snapshot_all(self) -> dict[str, Relation]:
        """Copies of every relation, keyed by name."""
        return {name: rel.copy() for name, rel in self.states.items()}

    # ------------------------------------------------------------------
    def _process_queries(self):
        while True:
            msg = yield self.query_inbox.get()
            query: EcaQuery = msg.payload
            if self.query_service_time > 0:
                yield Delay(self.query_service_time)
            total = Delta(self.view.wide_schema)
            for term in query.terms:
                total = total.merged(evaluate_eca_term(self.view, self.states, term))
            if self.trace:
                self.trace.record(
                    self.sim.now,
                    self.name,
                    "eca-eval",
                    f"req={query.request_id} {len(query.terms)} terms"
                    f" -> {total.distinct_count} rows",
                )
            self.to_warehouse.send(
                Message(
                    kind="answer",
                    sender=self.name,
                    payload=EcaAnswer(request_id=query.request_id, delta=total),
                )
            )

    def __repr__(self) -> str:
        return f"CentralSource({self.view.n_relations} relations)"


__all__ = ["CentralSource", "evaluate_eca_term"]
