"""Benchmark A6: multi-view maintenance with batched sweeps.

Shape: maintaining 1, 3 or 5 views over the same chain costs the *same
number of messages and the same query rows*: views that join the same
chain form one sweep class, and a class sends one partial per query
whatever the number of its views.  Every view independently verifies
completely consistent.
"""

import random

from benchmarks.conftest import run_once
from repro.consistency.levels import ConsistencyLevel
from repro.harness.multiview_runner import run_multi_view
from repro.harness.report import format_dict_table
from repro.relational.predicate import AttrCompare
from repro.workloads.schema_gen import chain_view
from repro.workloads.scenarios import make_workload
from repro.workloads.stream import UpdateStreamConfig


def _views(count: int):
    views = [chain_view(3, name="full")]
    if count >= 2:
        views.append(chain_view(3, project_keys=False, name="payloads"))
    if count >= 3:
        views.append(
            chain_view(3, name="cheap", selection=AttrCompare("V3", "<", 500))
        )
    for extra in range(3, count):
        views.append(
            chain_view(
                3,
                name=f"band{extra}",
                selection=AttrCompare("V3", ">=", 100 * extra),
            )
        )
    return views[:count]


def run_multiview_rows() -> list[dict]:
    workload = make_workload(
        3,
        random.Random(5),
        rows_per_relation=10,
        match_fraction=1.0,
        stream=UpdateStreamConfig(
            n_updates=16, mean_interarrival=1.0, insert_fraction=0.5,
        ),
    )
    rows = []
    for count in (1, 3, 5):
        result = run_multi_view(
            _views(count), workload, seed=5, latency=6.0
        )
        rows.append(
            {
                "views": count,
                "queries_sent": result.queries_sent,
                "query_rows": result.metrics.rows_of_kind("query"),
                "all_complete": all(
                    lvl == ConsistencyLevel.COMPLETE
                    for lvl in result.levels.values()
                ),
            }
        )
    return rows


def bench_multiview(benchmark, save_result):
    rows = run_once(benchmark, run_multiview_rows)
    save_result(
        "a6_multiview",
        format_dict_table(
            rows,
            columns=["views", "queries_sent", "query_rows", "all_complete"],
            title="A6: multi-view maintenance (batched sweep steps)",
        ),
    )
    by = {r["views"]: r for r in rows}
    # message count is flat in the number of views ...
    assert by[1]["queries_sent"] == by[3]["queries_sent"] == by[5]["queries_sent"]
    # ... and so are query rows: same-join views share one sweep
    assert by[1]["query_rows"] == by[3]["query_rows"] == by[5]["query_rows"]
    # and every view stays completely consistent
    assert all(r["all_complete"] for r in rows)
