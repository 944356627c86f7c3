"""Compare two benchmark results, one row per (metric, workload).

    python3 bench/compare.py A.json B.json

``A.json`` and ``B.json`` are files written by ``bench/run.py --out``
(either one workload or ``--workload all``); ``A`` is the baseline.  Each
end-to-end metric is held to the bound ``BENCHMARK.json`` fixes for it:

* ``worse``      -- B is worse than A by more than the bound;
* ``unresolved`` -- not worse, but on either side the spread between
  repetitions (interquartile range over median) is wider than the bound,
  so "no change" cannot be claimed;
* ``same``       -- within the bound, spread narrower than the bound.

Per-layer metrics have no bound and are listed as ``info``.  More failed
updates in B than in A is ``worse`` too.  Exit code 1 on any ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_result(path: str) -> dict[str, dict]:
    """Workload name -> that workload's detailed result."""
    with open(path) as handle:
        doc = json.load(handle)
    if "workloads" in doc:
        return doc["workloads"]
    return {doc["workload"]: doc}


def spread(reps: list[float]) -> float:
    """Interquartile range over median of per-repetition values."""
    if len(reps) < 2:
        return 0.0
    quartiles = statistics.quantiles(reps, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(reps)


def worsening(a: float, b: float, better: str) -> float:
    """By what share of A's value B is worse (negative: B is better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def verdict(metric_a: dict, metric_b: dict, better: str, bound: float | None) -> str:
    if bound is None:
        return "info"
    if worsening(metric_a["value"], metric_b["value"], better) > bound:
        return "worse"
    widest = max(spread(metric_a.get("reps", [])), spread(metric_b.get("reps", [])))
    return "unresolved" if widest > bound else "same"


def compare(a: dict[str, dict], b: dict[str, dict], contract: dict) -> list[dict]:
    """All rows, in contract order."""
    rows = []
    specs = [(m, m["bound"]) for m in contract["end_to_end"]]
    specs += [(m, None) for m in contract["per_layer"]]
    for entry in contract["workloads"]:
        name = entry["name"]
        if name not in a or name not in b:
            continue
        for spec, bound in specs:
            ma = a[name]["metrics"].get(spec["name"])
            mb = b[name]["metrics"].get(spec["name"])
            if ma is None or mb is None:
                continue
            rows.append(
                {
                    "metric": spec["name"],
                    "workload": name,
                    "unit": spec["unit"],
                    "a": ma["value"],
                    "b": mb["value"],
                    "worsening": worsening(ma["value"], mb["value"], spec["better"]),
                    "bound": bound,
                    "spread_a": spread(ma.get("reps", [])),
                    "spread_b": spread(mb.get("reps", [])),
                    "verdict": verdict(ma, mb, spec["better"], bound),
                }
            )
        failed_a, failed_b = a[name]["failed"], b[name]["failed"]
        rows.append(
            {
                "metric": "failed",
                "workload": name,
                "unit": "count",
                "a": failed_a,
                "b": failed_b,
                "worsening": float(failed_b - failed_a),
                "bound": 0,
                "spread_a": 0.0,
                "spread_b": 0.0,
                "verdict": "worse" if failed_b > failed_a else "same",
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'metric':<42} {'workload':<26} {'A':>11} {'B':>11} {'worse by':>9}"
        f" {'bound':>6} {'spread A/B':>13}  verdict"
    ]
    for row in rows:
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        lines.append(
            f"{row['metric']:<42} {row['workload']:<26} {row['a']:>11.4f}"
            f" {row['b']:>11.4f} {row['worsening']:>+9.3f} {bound:>6}"
            f" {row['spread_a']:>6.3f}/{row['spread_b']:<6.3f}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    rows = compare(load_result(argv[0]), load_result(argv[1]), contract)
    print(render(rows))
    counts = {
        v: sum(1 for r in rows if r["verdict"] == v)
        for v in ("worse", "unresolved", "same")
    }
    print(
        f"{counts['worse']} worse, {counts['unresolved']} unresolved,"
        f" {counts['same']} same"
    )
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
