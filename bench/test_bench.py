"""Tests of the benchmark itself (``python -m pytest bench -q``).

Not part of the tier-1 suite: ``testpaths`` in pyproject.toml stays
``tests``.  Runs use ``--scale`` so that every workload finishes in a
few seconds; the numbers they print mean nothing, only their shape and
the checks do.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import subprocess
import sys

import pytest

from bench import compare, run
from bench.inputs import build_inputs, load_specs
from bench.measure import Repetition, staleness_from_due
from bench.trace import Tracer, _targets

from repro.consistency.oracle import RunRecorder
from repro.relational.delta import Delta
from repro.relational.relation import Relation
from repro.simulation.process import Process
from repro.sources.messages import UpdateNotice
from repro.workloads import chain_view

CONTRACT = run.load_contract()
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
SCALE = "0.05"


def _run_cli(*args: str) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_scaled_run_emits_every_named_metric(workload, trace):
    code, result = _run_cli(
        "--workload", workload, "--seed", "3", "--seconds",
        str(CONTRACT["run_seconds"]), "--trace", trace, "--scale", SCALE,
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_staleness_is_timed_from_the_due_time():
    """Three updates, two installs, known order: the second install is a
    batch of two, and each member's staleness runs from its *own* due
    time, not from its delivery."""
    view = chain_view(2)
    recorder = RunRecorder(view)
    notices = [
        UpdateNotice(1, 1, Delta(view.schema_of(1)), delivered_at=140.0),
        UpdateNotice(2, 1, Delta(view.schema_of(2)), delivered_at=410.0),
        UpdateNotice(1, 2, Delta(view.schema_of(1)), delivered_at=420.0),
    ]
    for notice in notices:
        recorder.on_delivery(notice)
    state = Relation(view.view_schema)
    recorder.on_install(150.0, state, claimed_vector={1: 1})
    recorder.on_install(450.0, state, claimed_vector={1: 2, 2: 1})
    due = {(1, 1): 100.0, (2, 1): 200.0, (1, 2): 300.0}

    installs = recorder.attribute_installs()
    pairs, wrong = staleness_from_due(installs, due, time_scale=0.001)
    assert wrong == 0
    assert sorted(pairs) == [
        (100.0, pytest.approx(50.0)),
        (200.0, pytest.approx(250.0)),
        (300.0, pytest.approx(150.0)),
    ]

    # An offered update no install reflects counts as not attributed.
    due[(2, 2)] = 400.0
    assert staleness_from_due(installs, due, time_scale=0.001)[1] == 1


def test_times_are_the_lower_quartile_over_the_repetitions():
    """Twenty repetitions, the k-th one k times slower than the first: the
    run reports the 6th smallest of each time and keeps all twenty."""
    reps = [
        Repetition(
            offered=1000, cpu_s=float(k), gen_s=0.1 * k,
            staleness_ms=[1.0 * k, 2.0 * k, 3.0 * k],
        )
        for k in range(20, 0, -1)
    ]
    metrics = run.end_to_end(reps, quantile=0.25)
    assert metrics["cpu_ms_per_update"]["value"] == pytest.approx(6.0)
    assert metrics["cpu_ms_per_update"]["median"] == pytest.approx(10.5)
    assert metrics["setup_s"]["value"] == pytest.approx(0.6)
    assert metrics["staleness_p50_ms"]["value"] == pytest.approx(12.0)
    assert len(metrics["staleness_p50_ms"]["reps"]) == 20
    assert metrics["staleness_p50_ms"]["samples"] == 60
    # pooled over the run, printed beside it and not gated
    assert metrics["staleness_pooled_p50_ms"]["value"] == pytest.approx(18.0)


def test_tracer_self_time_subtracts_children():
    ticks = iter([0, 10, 40, 100])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, tracer.span_id("b", "inner"))
    outer = tracer.wrap(lambda: inner(), tracer.span_id("a", "outer"))
    outer()
    summary = tracer.summary()
    assert summary["outer"]["total_ns"] == 100
    assert summary["outer"]["self_ns"] == 70
    assert summary["inner"]["self_ns"] == 30
    assert tracer.layer_self_ns() == {"a": 70, "b": 30}
    assert tracer.spans == [(1, 0, 100, -1), (0, 10, 40, 0)]


def _wrapped_attributes() -> list[tuple[object, str]]:
    from repro.relational import incremental

    places = [(owner, attr) for owner, attr, *_ in _targets()]
    places += [
        (Process, "_advance"),
        (asyncio.Handle, "_run"),
        (asyncio.BaseEventLoop, "_run_once"),
        (selectors.DefaultSelector, "select"),
        # a by-name import of a wrapped module-level function
        (incremental, "join"),
    ]
    return places


def test_every_wrapper_is_removed_after_the_traced_repetition():
    before = [vars(owner)[attr] for owner, attr in _wrapped_attributes()]
    result = run.run_workload(
        "steady_sweep_local", seed=5, seconds=CONTRACT["run_seconds"],
        trace=True, scale=0.02,
    )
    assert result["correct"], result["problems"]
    after = [vars(owner)[attr] for owner, attr in _wrapped_attributes()]
    assert all(a is b for a, b in zip(before, after))


def _schedule_fingerprint(inputs) -> list:
    return [
        (index, update.time, sorted(update.delta.as_dict().items()))
        for index, schedule in sorted(inputs.workload.schedules.items())
        for update in schedule
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    specs = load_specs()
    spec, load = specs["workloads"][workload], specs["load_model"]
    first = build_inputs(workload, spec, load, seed=7, seconds=0.2)
    again = build_inputs(workload, spec, load, seed=7, seconds=0.2)
    other = build_inputs(workload, spec, load, seed=8, seconds=0.2)
    assert first.due == again.due
    assert _schedule_fingerprint(first) == _schedule_fingerprint(again)
    assert _schedule_fingerprint(first) != _schedule_fingerprint(other)
    assert first.offered == len(first.due)
    # open loop: nothing is due before the lead-in has passed
    assert min(first.due.values()) >= load["lead_in_s"] / load["time_scale"]


def test_same_seed_same_counts_on_steady_sweep_local():
    counts = []
    for _ in range(2):
        result = run.run_workload(
            "steady_sweep_local", seed=9, seconds=CONTRACT["run_seconds"],
            trace=True, scale=0.02,
        )
        counts.append(
            (
                result["attempted"],
                result["metrics"]["warehouse.msgs_per_update"]["value"],
                result["metrics"]["warehouse.installs_per_update"]["value"],
            )
        )
    assert counts[0] == counts[1]
    assert counts[0][1:] == (5.0, 1.0)  # the paper's 2(n-1)+1 at n=3


def test_compare_verdicts():
    contract = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "m", "unit": "ms", "better": "lower", "bound": 0.10}
        ],
        "per_layer": [],
    }

    def result(value, reps, failed=0):
        return {"w": {"failed": failed,
                      "metrics": {"m": {"value": value, "reps": reps}}}}

    steady = [1.0, 1.0, 1.01, 1.0, 0.99]
    noisy = [0.8, 1.0, 1.3, 1.0, 0.7]

    def verdicts(a, b):
        return [r["verdict"] for r in compare.compare(a, b, contract)]

    assert verdicts(result(1.0, steady), result(1.05, steady)) == ["same", "same"]
    assert verdicts(result(1.0, steady), result(1.2, steady)) == ["worse", "same"]
    assert verdicts(result(1.0, steady), result(1.05, noisy)) == ["unresolved", "same"]
    assert verdicts(result(1.0, steady), result(0.5, steady, failed=3)) == [
        "same", "worse",
    ]
