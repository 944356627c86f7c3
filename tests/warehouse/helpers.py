"""Shared helpers for warehouse algorithm tests."""

from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.relational.predicate import AttrCompare, Or
from repro.relational.view import ViewDefinition
from repro.workloads.schema_gen import chain_view
from repro.workloads.paper_example import (
    paper_example_states,
    paper_example_updates,
    paper_example_view,
)
from repro.workloads.scenarios import Workload


def paper_workload(spacing: float = 1.0) -> Workload:
    """The Figure 5 example as a harness workload.

    With ``spacing=1.0`` and the default latency of 5, all three updates
    race each other's sweeps (the concurrent scenario of Section 5.2);
    with a large spacing they run sequentially.
    """
    return Workload(
        view=paper_example_view(),
        initial_states=paper_example_states(),
        schedules=paper_example_updates(spacing=spacing),
        description=f"paper example (spacing={spacing})",
    )


def run(algorithm: str, workload=None, **overrides) -> "RunResult":
    """Run one experiment with test-friendly defaults."""
    defaults = dict(
        algorithm=algorithm,
        seed=overrides.pop("seed", 0),
        latency=5.0,
        latency_model="constant",
    )
    defaults.update(overrides)
    if workload is not None:
        defaults["workload"] = workload
        defaults.setdefault("n_sources", workload.view.n_relations)
    return run_experiment(ExperimentConfig(**defaults))


def trajectory(result) -> list[dict]:
    """Installed view states as row->count dicts (initial state excluded)."""
    return [snap.view.as_dict() for snap in result.recorder.snapshots]


def same_chain_variant(base, name, **overrides):
    """``base`` with a different selection / projection / join set."""
    args = dict(
        name=name,
        relation_names=base.relation_names,
        schemas=base.schemas,
        join_conditions=base.join_conditions,
        selection=None,
        projection=base.projection,
    )
    args.update(overrides)
    return ViewDefinition(**args)


def mixed_family():
    """Four same-join views (different selections *and* projections) plus
    one with an extra cross-relation join condition: two sweep classes.

    ``V#proj`` comes right after the primary, so whichever shard a
    round-robin plan puts it on, some class representative is a
    non-primary view (the one the wire codec tags by name).
    """
    base = chain_view(3, name="V")
    extra = Or(AttrCompare("V1", "<", 500), AttrCompare("V2", "<", 500))
    return [
        base,
        same_chain_variant(base, "V#proj", projection=("V1", "V2", "V3")),
        same_chain_variant(base, "V#sel", selection=AttrCompare("V3", "<", 500)),
        same_chain_variant(
            base, "V#both",
            selection=AttrCompare("V1", ">=", 300), projection=("K1", "V2"),
        ),
        same_chain_variant(
            base, "V#theta", join_conditions=base.join_conditions + (extra,)
        ),
    ]


def final_states(result):
    """Final source contents of a run, from any of its recorders."""
    history = next(iter(result.recorders.values())).history
    return history.states_at_vector(history.final_vector())
