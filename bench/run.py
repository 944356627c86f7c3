"""The benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process: a warm-up repetition, then measured
repetitions of the same seeded input that together offer ``S`` seconds of
open-loop load.  ``--trace 0`` reports the end-to-end metrics (tracing
off); ``--trace 1`` adds one traced repetition and reports the per-layer
metrics.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--workload all`` (the default) runs every workload of ``BENCHMARK.json``
one after another, each in a fresh subprocess, and ``--out FILE`` keeps
the per-repetition values ``bench/compare.py`` needs.

Exit code: 0 when every output was correct, 1 otherwise (wrong output,
a run that raised, or the program's source missing).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(reps: list, quantile: float) -> dict[str, dict]:
    """Every end-to-end number, with the per-repetition values kept for
    the spread.

    A time is taken once per repetition (``staleness_p50_ms``: the median
    over that repetition's updates) and the run reports the value at
    ``quantile`` of the repetitions -- the lower quartile.  Whatever else
    runs on the host only ever adds time, for seconds on end, so the
    slower repetitions say more about the neighbours than about the
    program; the median over the repetitions (and, for staleness, the
    percentiles of the pooled samples) are printed beside it."""
    from bench.measure import percentile

    def by_rep(values):
        return {
            "value": percentile(sorted(values), quantile),
            "median": statistics.median(values),
            "reps": list(values),
        }

    pooled = sorted(ms for rep in reps for ms in rep.staleness_ms)
    per_rep = [sorted(rep.staleness_ms) for rep in reps]
    out = {
        "setup_s": by_rep([rep.setup_s for rep in reps]),
        "cpu_ms_per_update": by_rep([rep.cpu_ms_per_update for rep in reps]),
        "staleness_p50_ms": {
            **by_rep([percentile(one, 0.50) for one in per_rep]),
            "samples": len(pooled),
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "reps": [],
        },
    }
    # not gated: what a reader of the view sees over the whole run
    for name, share in (
        ("staleness_pooled_p50_ms", 0.50),
        ("staleness_p95_ms", 0.95),
        ("staleness_p99_ms", 0.99),
    ):
        out[name] = {
            "value": percentile(pooled, share),
            "reps": [percentile(one, share) for one in per_rep],
            "samples": len(pooled),
        }
    return out


def per_layer(untraced: list, traced, tracer) -> dict[str, dict]:
    """Counts from the untraced repetitions' own counters (median; they
    repeat exactly where the protocol is deterministic), times from the
    traced repetition's spans."""
    from bench.measure import percentile

    def count(fn):
        return statistics.median(fn(rep) for rep in untraced)

    def per_update(counter):
        return count(lambda rep: rep.counters.get(counter, 0) / rep.offered)

    spans = tracer.summary()
    layer_ns = tracer.layer_self_ns()
    n = traced.offered

    def self_ms(layer):
        return layer_ns.get(layer, 0) / 1e6 / n

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    join = spans.get("relational.join", {})
    compute_join = spans.get("sources.MemoryBackend.compute_join", {})
    syncs = sorted(tracer.durations_ns("durability.UpdateLog.sync"))
    lag = sorted(ms for rep in untraced for ms in rep.lag_ms)
    batch = sorted(size for rep in untraced for size in rep.batch_sizes)
    untraced_cpu = statistics.median(rep.cpu_ms_per_update for rep in untraced)
    values = {
        "relational.self_ms_per_update": self_ms("relational"),
        "relational.join_calls_per_update": calls("relational.join") / n,
        "relational.join_rows_out_per_call": (
            join["measured"] / join["calls"] if join.get("calls") else 0.0
        ),
        "sources.self_ms_per_update": self_ms("sources"),
        "sources.compute_join_ms_per_query": (
            compute_join["total_ns"] / 1e6 / compute_join["calls"]
            if compute_join.get("calls")
            else 0.0
        ),
        "warehouse.self_ms_per_update": self_ms("warehouse"),
        "warehouse.installs_per_update": per_update("installs"),
        "warehouse.queries_per_update": per_update("queries_sent"),
        "warehouse.compensations_per_update": per_update("compensations"),
        "warehouse.msgs_per_update": per_update("messages_total"),
        "warehouse.batch_size_p50": percentile(batch, 0.5) if batch else 0.0,
        "warehouse.locality.self_ms_per_update": self_ms("warehouse.locality"),
        # with the joins it makes against the local copies (its children)
        "warehouse.locality.inclusive_ms_per_update": sum(
            row["total_ns"]
            for row in spans.values()
            if row["layer"] == "warehouse.locality"
        ) / 1e6 / n,
        "warehouse.locality.aux_hit_share": count(
            lambda rep: rep.counters.get("locality_aux_hits", 0)
            / max(
                1,
                rep.counters.get("locality_aux_hits", 0)
                + rep.counters.get("queries_sent", 0),
            )
        ),
        "runtime.codec.self_ms_per_update": self_ms("runtime.codec"),
        "runtime.tcp.self_ms_per_update": self_ms("runtime.tcp"),
        "runtime.tcp.wire_bytes_per_update": per_update("wire_bytes_total"),
        "runtime.tcp.precompress_bytes_per_update": per_update(
            "wire_bytes_precompress"
        ),
        "runtime.transport.self_ms_per_update": self_ms("runtime.transport"),
        "runtime.loop.self_ms_per_update": self_ms("runtime.loop"),
        "runtime.shard.self_ms_per_update": self_ms("runtime.shard"),
        "runtime.shard.deliveries_per_update": count(
            lambda rep: rep.deliveries / rep.offered
        ),
        "durability.self_ms_per_update": self_ms("durability"),
        "durability.sync_ms_p95": percentile(syncs, 0.95) / 1e6 if syncs else 0.0,
        "durability.checkpoints_per_kupdate": 1000.0
        * per_update("checkpoints_written"),
        "durability.bytes_per_update": count(
            lambda rep: rep.durable_bytes / rep.offered
        ),
        "durability.recovery_ms": 1000.0 * count(lambda rep: rep.recovery_s),
        "consistency.record_ms_per_update": self_ms("consistency"),
        "consistency.check_s": traced.check_s,
        "simulation.process_self_ms_per_update": self_ms("simulation"),
        # untraced, like every staleness number; not gated (see README.md)
        "bench.staleness_p95_ms": percentile(
            sorted(ms for rep in untraced for ms in rep.staleness_ms), 0.95
        ),
        "bench.generator_lag_p99_ms": percentile(lag, 0.99) if lag else 0.0,
        "bench.loop_busy_share": count(lambda rep: rep.cpu_s / rep.wall_s),
        "bench.trace_overhead_share": traced.cpu_ms_per_update / untraced_cpu - 1.0,
        "bench.trace_coverage_share": sum(layer_ns.values()) / 1e9 / traced.cpu_s,
    }
    return {name: {"value": value, "reps": []} for name, value in values.items()}


def unexercised(spec: dict, tracer) -> list[str]:
    """Wrapped entry points this workload must reach but never called."""
    spans = tracer.summary()
    return [name for name in spec["must_call"] if not spans.get(name, {}).get("calls")]


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------

def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    trace_out: str | None = None,
) -> dict:
    """Run ``name`` and return the detailed result (see module docstring)."""
    from bench.inputs import load_specs
    from bench.measure import run_repetition, unsustainable
    from bench.trace import Tracer

    contract = load_contract()
    specs = load_specs()
    load, spec = specs["load_model"], specs["workloads"][name]
    count = load["traced_untraced_repetitions"] if trace else load["repetitions"]
    each = seconds * scale / load["repetitions"]
    workdir = tempfile.mkdtemp(prefix="run-", dir=_work_root())
    try:
        run_repetition(name, spec, load, seed, load["warmup_s"] * scale, workdir)
        reps = [
            run_repetition(name, spec, load, seed, each, workdir)
            for _ in range(count)
        ]
        measured = list(reps)
        if trace:
            tracer = Tracer()
            traced = run_repetition(name, spec, load, seed, each, workdir, tracer)
            measured.append(traced)
            missing = unexercised(spec, tracer)
            if missing:
                traced.wrong(f"wrapped but never called: {', '.join(missing)}")
            if trace_out:
                tracer.dump(trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(_work_root())

    problems = [
        f"repetition {index}: {problem}"
        for index, rep in enumerate(measured)
        for problem in rep.problems
    ]
    usable = [rep for rep in reps if rep.staleness_ms]
    if not usable:
        raise SystemExit("\n".join(["no repetition completed"] + problems))
    attempted = sum(rep.offered for rep in measured)
    too_slow = unsustainable(measured, load["unsustainable"])
    problems.extend(too_slow)
    if trace:
        values = per_layer(usable, traced, tracer)
        wanted = contract["per_layer"]
    else:
        values = end_to_end(usable, load["repetition_quantile"])
        wanted = contract["end_to_end"]
    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {**values[entry["name"]], "unit": entry["unit"]}
    extras = {k: v for k, v in values.items() if k not in metrics}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds * scale,
        "trace": int(trace),
        "correct": not any(rep.incorrect for rep in measured),
        "attempted": attempted,
        "failed": attempted if too_slow else sum(rep.failed for rep in measured),
        "problems": problems,
        "metrics": metrics,
        "extras": extras,
    }


def _work_root() -> str:
    path = os.path.join(HERE, "_work")
    os.makedirs(path, exist_ok=True)
    return path


def _remove_if_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:
        pass


def contract_line(result: dict) -> str:
    """The one JSON object the builder's contract asks for."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in result["metrics"].items()
            },
        }
    )


def report(result: dict) -> str:
    """Every metric by name with its unit, one per line."""
    lines = [
        f"workload {result['workload']}  seed {result['seed']}"
        f"  {result['seconds']:g} s offered  trace {result['trace']}"
    ]
    shown = {**result["metrics"], **result["extras"]}
    for name, metric in shown.items():
        line = f"  {name:<44} {metric['value']:>12.4f} {metric.get('unit', '')}"
        if metric.get("reps"):
            line += (
                f"   [min {min(metric['reps']):.4f}"
                f" median {statistics.median(metric['reps']):.4f}"
                f" max {max(metric['reps']):.4f}"
                f" over {len(metric['reps'])} repetitions]"
            )
        if metric.get("samples"):
            line += f" ({metric['samples']} samples)"
        lines.append(line)
    lines.append(
        f"  attempted {result['attempted']}  failed {result['failed']}"
        f"  correct {result['correct']}"
    )
    lines.extend(f"  ! {problem}" for problem in result["problems"])
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# All workloads, one subprocess each
# ---------------------------------------------------------------------------

def run_all(args) -> dict:
    """Never concurrently: the program is one event loop and the box is
    small, so each workload gets the machine to itself."""
    results = {}
    for entry in load_contract()["workloads"]:
        with tempfile.TemporaryDirectory(dir=_work_root()) as tmp:
            out = os.path.join(tmp, "result.json")
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", entry["name"],
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--scale", str(args.scale),
                "--out", out,
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            if os.path.exists(out):
                with open(out) as handle:
                    results[entry["name"]] = json.load(handle)
            else:
                results[entry["name"]] = {
                    "correct": False, "attempted": 1, "failed": 1, "metrics": {},
                    "problems": [f"exit code {done.returncode} without a result"],
                }
    _remove_if_empty(_work_root())
    return {
        "seed": args.seed,
        "trace": args.trace,
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: the program (src/repro) is not in this checkout", file=sys.stderr)
        return 1
    contract = load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplies every offered-load duration (tests use 0.05)",
    )
    parser.add_argument("--trace-out", help="write the traced repetition's spans here")
    parser.add_argument("--out", help="write the detailed result (JSON) here")
    args = parser.parse_args(argv)

    if args.workload == "all":
        result = run_all(args)
        line = json.dumps({k: v for k, v in result.items() if k != "workloads"})
    else:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            scale=args.scale, trace_out=args.trace_out,
        )
        print(report(result))
        line = contract_line(result)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
