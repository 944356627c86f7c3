"""The end-to-end throughput regression suite (``BENCH_throughput.json``).

One suite run measures sustained update throughput for per-update SWEEP
versus the batched sweep scheduler on both runtime transports, in two
arrival regimes:

* **paced** -- the workload of ``results/runtime_throughput.txt``
  (3 sources, 40 updates, mean interarrival 2.0, time scale 0.001):
  arrivals dominate, so this regime pins protocol behaviour (installs,
  message cost, consistency) rather than raw speed.
* **saturated** -- the same generator time-compressed until the pending
  queue is never empty: this is where batching pays, because every drain
  amortizes one composite sweep over the whole backlog.

The recorded pre-batching baseline is ``BASELINE_UPDATES_PER_SEC`` (the
``local`` row of ``results/runtime_throughput.txt``); the acceptance
floor is ``SPEEDUP_TARGET`` times that, demanded of the batched scheduler
in the saturated regime on the local transport.

:func:`compare_reports` implements the CI gate: any cell of a fresh run
more than ``tolerance`` slower than the same cell of a checked-in
baseline report is a regression.
"""

from __future__ import annotations

import platform
from typing import Any

from repro.harness.config import ExperimentConfig
from repro.harness.report import format_table, load_report, write_report

#: The `local` row of results/runtime_throughput.txt before batching.
BASELINE_UPDATES_PER_SEC = 415.1
#: Required speedup of saturated batched-sweep over that baseline.
SPEEDUP_TARGET = 3.0

#: Arrival regimes: same seeded generator, different replay speeds.
MODES: dict[str, dict[str, Any]] = {
    "paced": {
        "n_updates": 40,
        "mean_interarrival": 2.0,
        "time_scale": 0.001,
    },
    "saturated": {
        "n_updates": 200,
        "mean_interarrival": 0.01,
        "time_scale": 0.0001,
    },
}

ALGORITHMS = ("sweep", "batched-sweep", "pipelined-sweep")
TRANSPORTS = ("local", "tcp")

#: Sharded-runtime bench: a saturated 8-view workload with a per-join
#: ``query_service_time``.  The family shares one join, so every shard
#: sweeps one class and a step costs one service time on *any* shard
#: count: the rows exist as the twins of the durable / replica /
#: rebalance overhead pairs below, not as a shards=N-over-shards=1
#: speedup (what sharding divides and multiplies: docs/sharding.md).
#: The service time is 8 units because the overhead budgets below were
#: set against the 8 serial joins x 1 unit a step used to sleep: one
#: class x 8 units keeps the 32 ms of modelled source work per update
#: they are fractions of (at 1 unit the cells last 0.3 s and the pairs'
#: run-to-run spread alone reaches the 15% budgets).
SHARD_MODE: dict[str, Any] = {
    "n_updates": 60,
    "mean_interarrival": 0.05,
    "time_scale": 0.002,
    "n_views": 8,
    "query_service_time": 8.0,
}
SHARD_COUNTS = (1, 2, 4)
QUICK_SHARD_COUNTS = (1, 2)

#: Maximum fraction of throughput the durability subsystem may cost on
#: the saturated multi-view workload (checkpoints + WAL fsyncs versus the
#: identical run with durability off).
DURABLE_OVERHEAD_TARGET = 0.15

#: Maximum fraction of throughput a hot standby per shard may cost
#: versus the identical replica-less cell.  Standbys ride duplicate
#: fanout of the same channels and never touch the answer path, so the
#: overhead should be the extra install work only.
REPLICA_OVERHEAD_TARGET = 0.15

#: Maximum fraction of throughput one live view migration may cost on
#: the saturated multi-view workload: a ``+rebal`` row re-runs its twin
#: with one mid-run drain/handoff/re-route (seal the donor, ship the
#: handoff blob, replay the gap on the recipient) and must stay within
#: this budget of the static-plan cell.  The pair runs a 9-view family
#: so the move is *load-neutral*: the ninth view joins differently from
#: the other eight and lives on the donor, so the donor sweeps two
#: classes per step before and after it hands off a same-join view.  The
#: recipient sweeps one class plus, once the gap closes, one view-only
#: replay per backlogged update -- two sweeps per update, the donor's
#: load -- so the bottleneck shard does the same join work in both cells
#: and the measured cost is the protocol (seal, handoff, gap replay
#: beyond that one sweep), not placement skew.
REBALANCE_OVERHEAD_TARGET = 0.15
REBALANCE_MODE: dict[str, Any] = {**SHARD_MODE, "n_views": 9}

#: The locality row family re-runs the saturated regime with every source
#: covered by a warehouse-local auxiliary copy (``--locality=aux``): a
#: covered sweep step answers its own query, so the gated quantities are
#: the throughput ratio and the message reduction of each ``+aux`` row
#: over its same-run remote twin (in-run ratios transfer across machines;
#: absolute rates do not).  The recorded reference for the headline cell
#: (saturated/tcp/sweep, locality off) is ``398.9`` upd/s.
LOCALITY_SPEEDUP_TARGET = 2.0
LOCALITY_MESSAGE_REDUCTION_TARGET = 3.0
#: A batching scheduler must not get slower when every source is covered.
#: Its saturated cells last 10-25 ms -- two to five of the driver's 5 ms
#: quiescence polls -- so each twin of that pair is the best of this many
#: runs, and the gate allows one poll's worth of jitter on the ratio.
BATCHED_PAIR_REPEATS = 5
BATCHED_PAIR_TOLERANCE = 0.1

#: The codec row family pins the binary wire codec (v3) against the JSON
#: flat-row codec (v2) on the message-bound saturated sweep workload --
#: same run, same machine, so the ratios transfer to CI.  v3 earns its
#: keep by either delivering updates faster over saturated TCP or by
#: shrinking the pre-compression bytes shipped per update (either arm
#: passes the gate; consistency must be unchanged either way).
CODEC_VERSIONS = (2, 3)
CODEC_SPEEDUP_TARGET = 1.3
CODEC_BYTES_REDUCTION_TARGET = 2.0


def run_cell(
    mode: str,
    transport: str,
    algorithm: str,
    n_updates: int,
    mean_interarrival: float,
    time_scale: float,
    timeout: float = 120.0,
    locality: str = "off",
    codec_version: int | None = None,
) -> dict:
    """One (mode, transport, algorithm) measurement as a flat row dict."""
    from repro.runtime import run_distributed
    from repro.runtime.tcp import TcpChannelConfig

    config = ExperimentConfig(
        algorithm=algorithm,
        n_sources=3,
        n_updates=n_updates,
        seed=7,
        mean_interarrival=mean_interarrival,
        locality=locality,
    )
    tcp_config = (
        None
        if codec_version is None
        else TcpChannelConfig(codec_version=codec_version)
    )
    result = run_distributed(
        config,
        transport=transport,
        time_scale=time_scale,
        timeout=timeout,
        tcp_config=tcp_config,
    )
    counters = result.metrics.counters
    delivered = result.recorder.updates_delivered
    level = result.classified_level
    return {
        "mode": mode,
        "transport": transport,
        "algorithm": algorithm,
        "locality": locality,
        "codec": codec_version,
        "updates": delivered,
        "installs": counters.get("installs", 0),
        "updates_installed": counters.get("updates_installed", 0),
        "messages_total": counters.get("messages_total", 0),
        "aux_hits": counters.get("locality_aux_hits", 0),
        "wall_seconds": round(result.wall_seconds, 4),
        "updates_per_sec": round(delivered / result.wall_seconds, 1),
        **_wire_columns(counters, delivered),
        "consistency": level.name.lower() if level is not None else "none",
    }


def _wire_columns(counters: dict, delivered: int) -> dict:
    """Wire-cost columns from the sender-side channel counters.

    ``bytes_per_update`` divides the *pre-compression* serialized bytes
    by the delivered updates: that is the codec's own footprint, with the
    zlib frame compressor factored out (``wire_bytes_total`` keeps the
    post-compression truth).  All three are zero on the local transport.
    """
    precompress = counters.get("wire_bytes_precompress", 0)
    return {
        "wire_bytes_total": counters.get("wire_bytes_total", 0),
        "bytes_per_update": (
            round(precompress / delivered, 1) if delivered else 0.0
        ),
        "encode_seconds": round(counters.get("encode_ns", 0) / 1e9, 4),
    }


def _with_own_join_views(config: ExperimentConfig, same_join: int) -> list:
    """``view_family`` for the first ``same_join`` views of the config's
    family; every view past them adds a cross-relation join condition of
    its own, i.e. is a sweep class of its own on whichever shard hosts it
    (round-robin puts view ``SHARD_MODE["n_views"]`` on shard 0, the
    ``+rebal`` donor, at shards=1, 2 and 4)."""
    from repro.harness.runner import build_workload
    from repro.relational.predicate import AttrCompare, Or
    from repro.relational.view import ViewDefinition
    from repro.simulation.rng import RngRegistry
    from repro.warehouse.sharding import view_family

    base = build_workload(config, RngRegistry(config.seed)).view
    views = view_family(base, same_join)
    left, right = (base.schema_of(i).attributes[-1] for i in (1, 2))
    for k in range(same_join, config.n_views):
        threshold = 100 + (k * 211) % 800
        extra = Or(
            AttrCompare(left, "<", threshold),
            AttrCompare(right, "<", threshold),
        )
        views.append(
            ViewDefinition(
                name=f"{base.name}#j{k}",
                relation_names=base.relation_names,
                schemas=base.schemas,
                join_conditions=base.join_conditions + (extra,),
                projection=base.projection,
            )
        )
    return views


def run_shard_cell(
    n_shards: int,
    n_updates: int,
    mean_interarrival: float,
    time_scale: float,
    n_views: int,
    query_service_time: float,
    timeout: float = 120.0,
    durable: bool = False,
    replicas: int = 0,
    transport: str = "local",
    codec_version: int | None = None,
    fsync_batch: int = 8,
    rebalance: bool = False,
) -> dict:
    """One sharded-runtime measurement (always the same workload).

    The row only counts if every view passes the oracle: ``consistency``
    records the *weakest* per-view verdict across all shards, and
    :func:`compare_reports` fails the run when it differs from the
    baseline's (``complete``), so a sharded run that trades correctness
    for speed shows up as a regression, not a win.
    """
    from repro.runtime import RebalanceSpec, run_sharded
    from repro.runtime.tcp import TcpChannelConfig

    config = ExperimentConfig(
        algorithm="sweep",
        n_sources=3,
        n_updates=n_updates,
        seed=7,
        mean_interarrival=mean_interarrival,
        n_views=n_views,
        query_service_time=query_service_time,
    )
    kwargs = {}
    if n_views > SHARD_MODE["n_views"]:
        kwargs["views"] = _with_own_join_views(config, SHARD_MODE["n_views"])
    if durable:
        import tempfile

        stack = tempfile.TemporaryDirectory(prefix="repro-bench-durable-")
        kwargs["durable_dir"] = stack.name
    else:
        stack = None
    tcp_config = (
        None
        if codec_version is None
        else TcpChannelConfig(codec_version=codec_version)
    )
    if rebalance:
        # Round-robin places family view ``i`` on shard ``i % n_shards``,
        # so the donor's first non-primary view is ``V#s<n_shards>``;
        # firing at half the workload lands the migration mid-saturation.
        kwargs["rebalance"] = RebalanceSpec(
            view=f"V#s{n_shards}",
            to_shard=1 % n_shards,
            after_deliveries=max(1, n_updates // 2),
        )
    try:
        result = run_sharded(
            config,
            n_shards=n_shards,
            transport=transport,
            time_scale=time_scale,
            timeout=timeout,
            tcp_config=tcp_config,
            strategy="round-robin",
            fsync_batch=fsync_batch,
            replicas=replicas,
            **kwargs,
        )
    finally:
        if stack is not None:
            stack.cleanup()
    counters = result.metrics.counters
    level = result.min_level()
    suffix = (
        ("+durable" if durable else "")
        + (f"+fsync{fsync_batch}" if fsync_batch != 8 else "")
        + (f"+r{replicas}" if replicas else "")
        + (f"+v{n_views}" if n_views != SHARD_MODE["n_views"] else "")
        + ("+rebal" if rebalance else "")
    )
    # Distinct source updates reflected by *every* view.  The raw
    # ``updates_installed`` counter is shared across shards, so an update
    # fanned out to k shards used to count k times (60 updates showed as
    # 240 at shards=4); the per-view recorders are the truthful count.
    installed_per_view = []
    for name, rec in result.recorders.items():
        if name not in result.final_views:
            continue
        snaps = list(rec.snapshots)
        installed_per_view.append(
            sum((snaps[-1].claimed_vector or {}).values()) if snaps else 0
        )
    return {
        "mode": "sharded",
        "transport": transport,
        "algorithm": f"sweep@shards={n_shards}{suffix}",
        "locality": "off",
        "codec": codec_version,
        "updates": result.updates_total,
        "installs": result.installs,
        "updates_installed": min(installed_per_view, default=0),
        "installs_by_shard": {
            str(shard): count
            for shard, count in result.installs_by_shard.items()
        },
        "messages_total": counters.get("messages_total", 0),
        "wall_seconds": round(result.wall_seconds, 4),
        "updates_per_sec": round(result.updates_per_sec, 1),
        **_wire_columns(counters, result.updates_total),
        "consistency": level.name.lower() if result.levels else "unchecked",
        "checkpoints": counters.get("checkpoints_written", 0),
    }


def run_suite(quick: bool = False) -> list[dict]:
    """All suite rows; ``quick`` drops the paced regime and shards=4.

    Quick mode keeps the saturated workload identical to the full suite
    so its rows stay comparable, cell for cell, with a checked-in full
    report.
    """
    rows = []
    for mode, params in MODES.items():
        if quick and mode != "saturated":
            continue
        for transport in TRANSPORTS:
            for algorithm in ALGORITHMS:
                rows.append(_best_cell(mode, transport, algorithm, **params))
    # Locality family: the saturated regime with every source covered.
    for transport in TRANSPORTS:
        for algorithm in ALGORITHMS:
            rows.append(
                _best_cell(
                    "saturated",
                    transport,
                    algorithm,
                    locality="aux",
                    **MODES["saturated"],
                )
            )
    for n_shards in QUICK_SHARD_COUNTS if quick else SHARD_COUNTS:
        rows.append(run_shard_cell(n_shards, **SHARD_MODE))
    # Durable mode re-runs the shards=1 cell with checkpoints + WAL on;
    # the gated quantity is its throughput relative to the plain cell.
    rows.append(run_shard_cell(1, durable=True, **SHARD_MODE))
    # Hot-standby mode re-runs shard cells with one replica per shard;
    # the gated quantity is each ``+r1`` row's throughput relative to
    # its same-run replica-less twin.
    rows.append(run_shard_cell(2, replicas=1, **SHARD_MODE))
    if not quick:
        rows.append(run_shard_cell(4, replicas=1, **SHARD_MODE))
    # Rebalance family: each ``+rebal`` cell performs one mid-run view
    # migration (drain/handoff/re-route) on the load-neutral 9-view
    # workload; the gated quantity is its throughput relative to the
    # same-workload static-plan twin right above it.
    rows.append(run_shard_cell(2, **REBALANCE_MODE))
    rows.append(run_shard_cell(2, rebalance=True, **REBALANCE_MODE))
    if not quick:
        rows.append(run_shard_cell(4, **REBALANCE_MODE))
        rows.append(run_shard_cell(4, rebalance=True, **REBALANCE_MODE))
    # Codec family: v2 (JSON flat rows) vs v3 (binary kernel) on the
    # message-bound saturated sweep, plain on both transports and with
    # the durable path on (checkpoint + WAL share the same kernel, so
    # the durable pair measures the whole single-serialization claim).
    for transport in TRANSPORTS:
        for codec in CODEC_VERSIONS:
            rows.append(
                run_cell(
                    "saturated",
                    transport,
                    "sweep",
                    codec_version=codec,
                    **MODES["saturated"],
                )
            )
    for codec in CODEC_VERSIONS:
        rows.append(
            run_shard_cell(
                1,
                durable=True,
                transport="tcp",
                codec_version=codec,
                **SHARD_MODE,
            )
        )
    # Group commit: the durable shards=1 cell fsyncing once per 32
    # appended updates instead of the default 8.
    rows.append(run_shard_cell(1, durable=True, fsync_batch=32, **SHARD_MODE))
    return rows


def _best_cell(mode: str, transport: str, algorithm: str, **kwargs) -> dict:
    """:func:`run_cell`, repeated for the twins of the batched locality gate."""
    gated = mode == "saturated" and "batched" in algorithm
    return max(
        (
            run_cell(mode, transport, algorithm, **kwargs)
            for _ in range(BATCHED_PAIR_REPEATS if gated else 1)
        ),
        key=lambda row: row["updates_per_sec"],
    )


def _row_key(row: dict) -> str:
    key = f"{row['mode']}/{row['transport']}/{row['algorithm']}"
    if row.get("locality", "off") != "off":
        key += f"+{row['locality']}"
    if row.get("codec"):
        key += f"@codec={row['codec']}"
    return key


def speedups(rows: list[dict]) -> dict[str, float]:
    """Batched-over-per-update throughput ratio per (mode, transport)."""
    by_key = {_row_key(r): r for r in rows}
    out = {}
    for mode in MODES:
        for transport in TRANSPORTS:
            base = by_key.get(f"{mode}/{transport}/sweep")
            fast = by_key.get(f"{mode}/{transport}/batched-sweep")
            if base and fast and base["updates_per_sec"]:
                out[f"{mode}/{transport}"] = round(
                    fast["updates_per_sec"] / base["updates_per_sec"], 2
                )
    for transport in TRANSPORTS:
        for algorithm in ALGORITHMS:
            off = by_key.get(f"saturated/{transport}/{algorithm}")
            aux = by_key.get(f"saturated/{transport}/{algorithm}+aux")
            if off and aux and off["updates_per_sec"]:
                out[f"locality/{transport}/{algorithm}"] = round(
                    aux["updates_per_sec"] / off["updates_per_sec"], 2
                )
    return out


def message_reductions(rows: list[dict]) -> dict[str, float]:
    """messages_total of each remote row over its ``+aux`` twin (>1 is
    fewer messages with locality on)."""
    by_key = {_row_key(r): r for r in rows}
    out = {}
    for transport in TRANSPORTS:
        for algorithm in ALGORITHMS:
            off = by_key.get(f"saturated/{transport}/{algorithm}")
            aux = by_key.get(f"saturated/{transport}/{algorithm}+aux")
            if off and aux and aux["messages_total"]:
                out[f"locality/{transport}/{algorithm}"] = round(
                    off["messages_total"] / aux["messages_total"], 2
                )
    return out


def locality_problems(
    rows: list[dict],
    min_speedup: float = LOCALITY_SPEEDUP_TARGET,
    min_message_reduction: float = LOCALITY_MESSAGE_REDUCTION_TARGET,
) -> list[str]:
    """The locality acceptance gate, as regression messages.

    The headline cell (saturated/tcp/sweep) must be at least
    ``min_speedup`` faster and ``min_message_reduction`` lighter on the
    wire than its same-run remote twin; every per-update ``+aux`` pair
    must cut messages by at least 2x, while batching schedulers -- whose
    remote twin already collapsed the round trips -- must not get
    heavier on the wire **or slower** than that twin (a covered burst is
    one composite install, never singleton installs; best of
    ``BATCHED_PAIR_REPEATS`` runs each, ``BATCHED_PAIR_TOLERANCE`` of
    poll jitter allowed); and no pair may lose its remote twin's
    consistency verdict.
    """
    problems = []
    ratios = speedups(rows)
    reductions = message_reductions(rows)
    head = "locality/tcp/sweep"
    if head not in ratios:
        problems.append(f"{head}: locality rows missing from the suite")
        return problems
    if ratios[head] < min_speedup:
        problems.append(
            f"{head}: {ratios[head]}x throughput is below the"
            f" {min_speedup}x locality floor"
        )
    if reductions.get(head, 0.0) < min_message_reduction:
        problems.append(
            f"{head}: {reductions.get(head)}x message reduction is below"
            f" the {min_message_reduction}x locality floor"
        )
    order = ("none", "convergence", "weak", "strong", "complete")
    by_key = {_row_key(r): r for r in rows}
    for key, reduction in reductions.items():
        _, transport, algorithm = key.split("/")
        floor = 1.0 if "batched" in algorithm else 2.0
        if reduction < floor:
            problems.append(
                f"{key}: only {reduction}x message reduction"
                f" (< {floor:g}x)"
            )
        if "batched" in algorithm and (
            ratios[key] < 1.0 - BATCHED_PAIR_TOLERANCE
        ):
            problems.append(
                f"{key}: {ratios[key]}x throughput -- covering every"
                f" source made the batching scheduler slower than remote"
            )
        off = by_key[f"saturated/{transport}/{algorithm}"]
        aux = by_key[f"saturated/{transport}/{algorithm}+aux"]
        if order.index(aux["consistency"]) < order.index(off["consistency"]):
            problems.append(
                f"{key}: consistency dropped from {off['consistency']!r}"
                f" to {aux['consistency']!r} with locality on"
            )
    return problems


def codec_efficiency(rows: list[dict]) -> dict[str, float]:
    """v3-over-v2 ratios for each codec row pair, from one run.

    ``*/speedup`` is delivered updates/sec of the v3 cell over its v2
    twin; ``*/bytes_reduction`` is the v2 cell's pre-compression bytes
    per update over the v3 cell's (>1 means the binary codec ships fewer
    bytes).  Byte ratios only exist where frames exist, i.e. on TCP.
    """
    by_key = {_row_key(r): r for r in rows}
    pairs = {
        "codec/local/sweep": "saturated/local/sweep@codec={v}",
        "codec/tcp/sweep": "saturated/tcp/sweep@codec={v}",
        "codec/tcp/durable": "sharded/tcp/sweep@shards=1+durable@codec={v}",
    }
    out = {}
    for name, template in pairs.items():
        v2 = by_key.get(template.format(v=2))
        v3 = by_key.get(template.format(v=3))
        if not v2 or not v3:
            continue
        if v2["updates_per_sec"]:
            out[f"{name}/speedup"] = round(
                v3["updates_per_sec"] / v2["updates_per_sec"], 2
            )
        if v3.get("bytes_per_update"):
            out[f"{name}/bytes_reduction"] = round(
                v2["bytes_per_update"] / v3["bytes_per_update"], 2
            )
    return out


def codec_problems(
    rows: list[dict],
    min_speedup: float = CODEC_SPEEDUP_TARGET,
    min_bytes_reduction: float = CODEC_BYTES_REDUCTION_TARGET,
) -> list[str]:
    """The codec acceptance gate, as regression messages.

    The headline pair (saturated/tcp/sweep at codec 2 vs 3) must clear
    *either* arm -- ``min_speedup`` on delivered updates/sec or
    ``min_bytes_reduction`` on pre-compression bytes per update -- and
    no codec pair may trade away its v2 twin's consistency verdict or
    install count.
    """
    problems = []
    ratios = codec_efficiency(rows)
    speedup = ratios.get("codec/tcp/sweep/speedup")
    reduction = ratios.get("codec/tcp/sweep/bytes_reduction")
    if speedup is None or reduction is None:
        problems.append("codec/tcp/sweep: codec rows missing from the suite")
        return problems
    if speedup < min_speedup and reduction < min_bytes_reduction:
        problems.append(
            f"codec/tcp/sweep: v3 clears neither gate arm"
            f" ({speedup}x updates/sec < {min_speedup}x and"
            f" {reduction}x bytes/update reduction < {min_bytes_reduction}x)"
        )
    by_key = {_row_key(r): r for r in rows}
    for key, row in by_key.items():
        if not key.endswith("@codec=3"):
            continue
        twin = by_key.get(key.replace("@codec=3", "@codec=2"))
        if twin is None:
            continue
        if row["consistency"] != twin["consistency"]:
            problems.append(
                f"{key}: consistency {row['consistency']!r} differs from"
                f" the codec-2 twin's {twin['consistency']!r}"
            )
        if row["updates_installed"] != twin["updates_installed"]:
            problems.append(
                f"{key}: installed {row['updates_installed']} updates, the"
                f" codec-2 twin installed {twin['updates_installed']}"
            )
    return problems


def durable_overhead(rows: list[dict]) -> float | None:
    """Fractional throughput lost to durability on the shards=1 cell."""
    by_key = {_row_key(r): r for r in rows}
    plain = by_key.get("sharded/local/sweep@shards=1")
    durable = by_key.get("sharded/local/sweep@shards=1+durable")
    if not plain or not durable or not plain["updates_per_sec"]:
        return None
    return round(1.0 - durable["updates_per_sec"] / plain["updates_per_sec"], 3)


def replica_overhead(rows: list[dict]) -> float | None:
    """Worst fractional throughput lost to hot standbys, over all
    ``+r<K>`` rows versus their same-run replica-less twins."""
    by_key = {_row_key(r): r for r in rows}
    worst = None
    for key, row in by_key.items():
        base_key, sep, count = key.rpartition("+r")
        # ``count`` must be the replica count -- "+rebal" rows also
        # split on "+r" but leave a non-numeric tail.
        if not sep or not count.isdigit() or not base_key.startswith("sharded/"):
            continue
        plain = by_key.get(base_key)
        if not plain or not plain["updates_per_sec"]:
            continue
        cost = round(1.0 - row["updates_per_sec"] / plain["updates_per_sec"], 3)
        if worst is None or cost > worst:
            worst = cost
    return worst


def rebalance_overhead(rows: list[dict]) -> float | None:
    """Worst fractional throughput lost to a live migration, over all
    ``+rebal`` rows versus their same-run static-plan twins."""
    by_key = {_row_key(r): r for r in rows}
    worst = None
    for key, row in by_key.items():
        base_key, sep, _ = key.rpartition("+rebal")
        if not sep or not base_key.startswith("sharded/"):
            continue
        plain = by_key.get(base_key)
        if not plain or not plain["updates_per_sec"]:
            continue
        cost = round(1.0 - row["updates_per_sec"] / plain["updates_per_sec"], 3)
        if worst is None or cost > worst:
            worst = cost
    return worst


def build_report(rows: list[dict], quick: bool = False) -> dict:
    """The JSON document shape written to ``BENCH_throughput.json``."""
    return {
        "suite": "throughput",
        "quick": quick,
        "python": platform.python_version(),
        "baseline_updates_per_sec": BASELINE_UPDATES_PER_SEC,
        "speedup_target": SPEEDUP_TARGET,
        "durable_overhead_target": DURABLE_OVERHEAD_TARGET,
        "replica_overhead_target": REPLICA_OVERHEAD_TARGET,
        "rebalance_overhead_target": REBALANCE_OVERHEAD_TARGET,
        "locality_speedup_target": LOCALITY_SPEEDUP_TARGET,
        "locality_message_reduction_target": LOCALITY_MESSAGE_REDUCTION_TARGET,
        "codec_speedup_target": CODEC_SPEEDUP_TARGET,
        "codec_bytes_reduction_target": CODEC_BYTES_REDUCTION_TARGET,
        "rows": rows,
        "speedups": speedups(rows),
        "message_reductions": message_reductions(rows),
        "codec_efficiency": codec_efficiency(rows),
        "durable_overhead": durable_overhead(rows),
        "replica_overhead": replica_overhead(rows),
        "rebalance_overhead": rebalance_overhead(rows),
    }


def compare_reports(
    current: dict, baseline: dict, tolerance: float = 0.30
) -> list[str]:
    """Regression messages versus a checked-in baseline report.

    The gated quantity is each (mode, transport) *speedup ratio* of
    batched over per-update sweep, not the raw update rates: ratios are
    taken within one run on one machine, so they transfer between the
    machine that produced the baseline and the CI runner, while absolute
    rates do not.  Protocol integrity (every update installed,
    consistency level preserved) is compared cell by cell as well --
    that part is machine-independent by construction.
    """
    problems = []
    overhead = current.get("durable_overhead")
    if overhead is not None and overhead > DURABLE_OVERHEAD_TARGET:
        problems.append(
            f"durable_overhead: {overhead:.1%} throughput cost exceeds the"
            f" {DURABLE_OVERHEAD_TARGET:.0%} budget"
        )
    r_overhead = current.get("replica_overhead")
    if r_overhead is not None and r_overhead > REPLICA_OVERHEAD_TARGET:
        problems.append(
            f"replica_overhead: {r_overhead:.1%} throughput cost exceeds"
            f" the {REPLICA_OVERHEAD_TARGET:.0%} hot-standby budget"
        )
    m_overhead = current.get("rebalance_overhead")
    if m_overhead is not None and m_overhead > REBALANCE_OVERHEAD_TARGET:
        problems.append(
            f"rebalance_overhead: {m_overhead:.1%} throughput cost exceeds"
            f" the {REBALANCE_OVERHEAD_TARGET:.0%} live-migration budget"
        )
    base_speedups = baseline.get("speedups", {})
    for key, ratio in current.get("speedups", {}).items():
        base = base_speedups.get(key)
        if base is None:
            continue
        floor = base * (1.0 - tolerance)
        if ratio < floor:
            problems.append(
                f"speedup[{key}]: {ratio}x is more than {tolerance:.0%}"
                f" below baseline {base}x"
            )
    base_rows = {_row_key(r): r for r in baseline.get("rows", [])}
    for row in current.get("rows", []):
        base = base_rows.get(_row_key(row))
        if base is None:
            continue
        if row["updates_installed"] != base["updates_installed"]:
            problems.append(
                f"{_row_key(row)}: installed {row['updates_installed']}"
                f" updates, baseline installed {base['updates_installed']}"
            )
        if row["consistency"] != base["consistency"]:
            problems.append(
                f"{_row_key(row)}: consistency {row['consistency']!r},"
                f" baseline {base['consistency']!r}"
            )
    return problems


def format_suite(rows: list[dict]) -> str:
    ratio = speedups(rows)
    table = format_table(
        ["mode", "transport", "algorithm", "locality", "codec", "updates",
         "installs", "wall s", "upd/s", "msgs", "B/upd", "consistency"],
        [
            [
                row["mode"],
                row["transport"],
                row["algorithm"],
                row.get("locality", "off"),
                row.get("codec") or "-",
                row["updates"],
                row["installs"],
                row["wall_seconds"],
                row["updates_per_sec"],
                row["messages_total"],
                row.get("bytes_per_update", 0.0) or "-",
                row["consistency"],
            ]
            for row in rows
        ],
        title="Update throughput: per-update SWEEP vs batched sweep",
    )
    lines = [table, ""]
    for key, value in sorted(ratio.items()):
        lines.append(f"speedup[{key}] = {value}x")
    for key, value in sorted(message_reductions(rows).items()):
        lines.append(f"message reduction[{key}] = {value}x")
    for key, value in sorted(codec_efficiency(rows).items()):
        lines.append(f"codec[{key}] = {value}x")
    lines.append(
        f"floor: saturated/local batched >= {SPEEDUP_TARGET}x"
        f" {BASELINE_UPDATES_PER_SEC} upd/s"
        f" = {SPEEDUP_TARGET * BASELINE_UPDATES_PER_SEC:.0f} upd/s"
    )
    overhead = durable_overhead(rows)
    if overhead is not None:
        lines.append(
            f"durable overhead = {overhead:.1%} (budget"
            f" {DURABLE_OVERHEAD_TARGET:.0%} of shards=1 throughput)"
        )
    r_overhead = replica_overhead(rows)
    if r_overhead is not None:
        lines.append(
            f"hot-standby overhead = {r_overhead:.1%} (budget"
            f" {REPLICA_OVERHEAD_TARGET:.0%} of the replica-less twin)"
        )
    m_overhead = rebalance_overhead(rows)
    if m_overhead is not None:
        lines.append(
            f"live-migration overhead = {m_overhead:.1%} (budget"
            f" {REBALANCE_OVERHEAD_TARGET:.0%} of the static-plan twin)"
        )
    if codec_efficiency(rows):
        lines.append(
            f"floor: codec v3 on saturated/tcp/sweep >="
            f" {CODEC_SPEEDUP_TARGET}x updates/sec OR"
            f" {CODEC_BYTES_REDUCTION_TARGET}x bytes/update reduction"
            " over the same-run v2 twin"
        )
    return "\n".join(lines)


__all__ = [
    "ALGORITHMS",
    "BASELINE_UPDATES_PER_SEC",
    "BATCHED_PAIR_REPEATS",
    "BATCHED_PAIR_TOLERANCE",
    "CODEC_BYTES_REDUCTION_TARGET",
    "CODEC_SPEEDUP_TARGET",
    "CODEC_VERSIONS",
    "DURABLE_OVERHEAD_TARGET",
    "LOCALITY_MESSAGE_REDUCTION_TARGET",
    "LOCALITY_SPEEDUP_TARGET",
    "MODES",
    "QUICK_SHARD_COUNTS",
    "REBALANCE_MODE",
    "REBALANCE_OVERHEAD_TARGET",
    "REPLICA_OVERHEAD_TARGET",
    "SHARD_COUNTS",
    "SHARD_MODE",
    "SPEEDUP_TARGET",
    "TRANSPORTS",
    "build_report",
    "codec_efficiency",
    "codec_problems",
    "compare_reports",
    "durable_overhead",
    "format_suite",
    "load_report",
    "locality_problems",
    "message_reductions",
    "rebalance_overhead",
    "replica_overhead",
    "run_cell",
    "run_shard_cell",
    "run_suite",
    "speedups",
    "write_report",
]
