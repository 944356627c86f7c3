"""Seeded inputs: one open-loop update stream per repetition.

The program under test receives only a ready
:class:`~repro.workloads.scenarios.Workload`; everything here is derived
from ``(workload name, seed)``.  The update *contents* come from the
repo's own generator (``make_workload``: always-valid deletes, fresh
keys); the update *times* are rewritten to an open-loop schedule -- each
update gets a due time that does not depend on how fast the warehouse
keeps up.  Due times are virtual units (``seconds / time_scale``), the
unit ``ScheduledUpdate.time`` and every recorder timestamp use.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from dataclasses import dataclass

from repro.relational.relation import Relation
from repro.workloads import UpdateStreamConfig, Workload, make_workload

HERE = os.path.dirname(os.path.abspath(__file__))


def load_specs() -> dict:
    """The checked-in load model and workload specs."""
    with open(os.path.join(HERE, "workloads.json")) as handle:
        return json.load(handle)


@dataclass
class Inputs:
    """One repetition's input: the workload plus what the bench knows."""

    workload: Workload
    #: (source index, per-source seq) -> due time in virtual units.
    due: dict[tuple[int, int], float]
    offered: int

    def states_at(self, vector: dict[int, int]) -> dict[str, Relation]:
        """Source relations after each source's first ``vector[i]``
        updates, recomputed from the generated inputs alone."""
        view = self.workload.view
        states: dict[str, Relation] = {}
        for index in range(1, view.n_relations + 1):
            name = view.name_of(index)
            relation = self.workload.initial_states[name].copy()
            schedule = self.workload.schedules.get(index, [])
            for update in schedule[: vector.get(index, 0)]:
                relation.apply_delta(update.delta)
            states[name] = relation
        return states

    def final_vector(self) -> dict[int, int]:
        return {i: len(s) for i, s in self.workload.schedules.items()}


def due_times_s(arrivals: dict, count: int, rng: random.Random) -> list[float]:
    """Due offsets in seconds from the start of offered load.

    ``poisson``: exponential gaps at ``rate_per_s``.  ``burst``: groups
    of ``burst`` updates due at the same instant, groups spaced so the
    mean rate is ``rate_per_s``.
    """
    rate = float(arrivals["rate_per_s"])
    if arrivals["kind"] == "poisson":
        out, now = [], 0.0
        for _ in range(count):
            now += rng.expovariate(rate)
            out.append(now)
        return out
    if arrivals["kind"] == "burst":
        size = int(arrivals["burst"])
        return [(k // size) * (size / rate) for k in range(count)]
    raise ValueError(f"unknown arrival kind {arrivals['kind']!r}")


def build_inputs(
    name: str, spec: dict, load: dict, seed: int, seconds: float
) -> Inputs:
    """The inputs of one repetition offering ``seconds`` of load."""
    rate = float(spec["arrivals"]["rate_per_s"])
    count = max(10, int(round(rate * seconds)))
    workload = make_workload(
        spec["n_sources"],
        random.Random(f"{name}:{seed}:contents"),
        rows_per_relation=spec["rows_per_relation"],
        # Fixed unit gaps give the generated stream a strict global order;
        # the times themselves are replaced below.
        stream=UpdateStreamConfig(
            n_updates=count,
            mean_interarrival=1.0,
            distribution="fixed",
            insert_fraction=spec["insert_fraction"],
        ),
    )
    order = sorted(
        (update.time, index, position)
        for index, schedule in workload.schedules.items()
        for position, update in enumerate(schedule)
    )
    offsets = due_times_s(
        spec["arrivals"], len(order), random.Random(f"{name}:{seed}:arrivals")
    )
    scale = load["time_scale"]
    due: dict[tuple[int, int], float] = {}
    for (_, index, position), offset in zip(order, offsets):
        when = (load["lead_in_s"] + offset) / scale
        schedule = workload.schedules[index]
        schedule[position] = dataclasses.replace(schedule[position], time=when)
        due[(index, position + 1)] = when
    return Inputs(workload=workload, due=due, offered=len(order))


__all__ = ["Inputs", "build_inputs", "due_times_s", "load_specs"]
