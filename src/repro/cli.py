"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``              one maintenance experiment (all ExperimentConfig knobs)
``run-distributed``  the same experiment on the asyncio runtime (TCP/local)
``run-sharded``      a view family partitioned across warehouse shards
``serve-warehouse``  host the warehouse site of a multi-process deployment
``serve-source``     host one data-source site of a multi-process deployment
``serve-shard``      host one warehouse shard of a sharded deployment
``algorithms``       list registered algorithms with their Table 1 properties
``table1``           regenerate the measured Table 1
``fig5``             replay the paper's Figure 5 example
``experiments``      run every experiment module and print its table
``advise``           recommend an algorithm for a described workload
``conformance``      sweep algorithms x chaos fault profiles against the oracle
``recovery-sweep``   crash + recover each seeded case against its baseline
``failover-sweep``   kill primaries, promote standbys, compare baselines
``rebalance``        host a sharded fleet and migrate one view mid-run
                     (the one command that migrates a view)
``rebalance-sweep``  migrate views at protocol points, compare baselines
"""

from __future__ import annotations

import argparse
import sys


def _add_run_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="run one maintenance experiment")
    _add_shared_args(p)
    p.add_argument("--latency", type=float, default=5.0)
    p.add_argument(
        "--latency-model", choices=("constant", "uniform", "exponential"),
        default="uniform",
    )
    p.add_argument("--global-txn-fraction", type=float, default=0.0)
    p.add_argument("--no-keys", action="store_true",
                   help="project out key attributes (rejected by Strobe family)")
    p.add_argument("--trace", action="store_true", help="print the event trace")
    p.add_argument("--no-check", action="store_true",
                   help="skip consistency verification")
    p.add_argument("--show-view", action="store_true",
                   help="print the final materialized view")


def _run_config(args: argparse.Namespace):
    """``run``'s ExperimentConfig: the shared flags, then its own."""
    return _workload_config(
        args,
        _SHARED_FLAGS,
        latency=args.latency,
        latency_model=args.latency_model,
        global_txn_fraction=args.global_txn_fraction,
        project_keys=not args.no_keys,
        trace=args.trace,
        check_consistency=not args.no_check,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.runner import run_experiment

    result = run_experiment(_run_config(args))
    if args.trace and result.trace is not None:
        print(result.trace.format())
        print()
    print(result.report())
    if args.show_view:
        print()
        print(result.final_view.pretty())
    return 0


def _add_shared_args(p: argparse.ArgumentParser) -> None:
    """Config knobs ``run`` shares with every workload command."""
    p.add_argument("--algorithm", "-a", default="sweep")
    p.add_argument("--sources", "-n", type=int, default=3)
    p.add_argument("--updates", "-u", type=int, default=20)
    p.add_argument("--seed", "-s", type=int, default=0)
    p.add_argument("--backend", choices=("memory", "sqlite"), default="memory")
    p.add_argument("--interarrival", type=float, default=10.0)
    p.add_argument("--insert-fraction", type=float, default=0.6)
    p.add_argument("--rows", type=int, default=20)
    p.add_argument("--locality", choices=("off", "aux", "cache", "auto"),
                   default="off",
                   help="query-locality layer: auxiliary source copies"
                        " and/or delta-patched answer caching")
    p.add_argument("--locality-budget", type=int, default=0,
                   help="row budget for the locality layer (0 = unlimited)")


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    """Config knobs every site of one deployment must agree on."""
    _add_shared_args(p)
    p.add_argument("--time-scale", type=float, default=0.01,
                   help="wall seconds per virtual time unit")
    p.add_argument("--views", type=int, default=1,
                   help="size of the maintained view family (sharded runs)")
    p.add_argument("--batch-max", type=int, default=0,
                   help="batched-sweep drain cap (0 drains the whole queue)")
    p.add_argument("--adaptive-batch", action="store_true",
                   help="derive the batched-sweep drain cap from observed"
                        " queue depth and install lag")


#: argparse destination -> ExperimentConfig field, for the flags of
#: :func:`_add_shared_args`.
_SHARED_FLAGS = {
    "algorithm": "algorithm",
    "sources": "n_sources",
    "updates": "n_updates",
    "seed": "seed",
    "backend": "backend",
    "interarrival": "mean_interarrival",
    "insert_fraction": "insert_fraction",
    "rows": "rows_per_relation",
    "locality": "locality",
    "locality_budget": "locality_budget_rows",
}
#: The same, for the flags of :func:`_add_workload_args` (``--time-scale``
#: is a fleet field).  The process launcher derives child command lines
#: from this table.
_WORKLOAD_FLAGS = {
    **_SHARED_FLAGS,
    "views": "n_views",
    "batch_max": "batch_max",
    "adaptive_batch": "batch_adaptive",
}


def _workload_config(
    args: argparse.Namespace, flags: dict[str, str] = _WORKLOAD_FLAGS, **extra
):
    """An ExperimentConfig from the ``flags`` table's destinations, plus
    the fields in ``extra``."""
    from repro.harness.config import ExperimentConfig

    fields = {field: getattr(args, dest) for dest, field in flags.items()}
    return ExperimentConfig(**fields, **extra)


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def _source_addresses(args: argparse.Namespace) -> dict[int, tuple[str, int]]:
    """``--source INDEX=HOST:PORT`` (repeated) of a warehouse-side site."""
    addresses = {}
    for spec in args.source:
        index, _, addr = spec.partition("=")
        addresses[int(index)] = _parse_address(addr)
    if not addresses:
        raise SystemExit(f"{args.command} needs at least one --source")
    return addresses


def _add_tcp_args(p: argparse.ArgumentParser) -> None:
    """Transport fast-path knobs shared by every TCP-speaking command."""
    p.add_argument(
        "--compress-min", type=int, default=None, metavar="BYTES",
        help="zlib-compress frames whose body is at least BYTES long"
             " (0 disables compression; default: 16384)",
    )
    p.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="connection attempts before a peer is declared dead (default: 8)",
    )
    p.add_argument(
        "--connect-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt TCP connect timeout (default: 5.0)",
    )


#: argparse destination -> TcpChannelConfig field (see _WORKLOAD_FLAGS).
_TCP_FLAGS = {
    "compress_min": "compress_min_bytes",
    "max_retries": "max_retries",
    "connect_timeout": "connect_timeout",
}


def _tcp_config(args: argparse.Namespace):
    """A TcpChannelConfig from CLI knobs, or None for pure defaults."""
    kwargs = {
        field: getattr(args, dest)
        for dest, field in _TCP_FLAGS.items()
        if getattr(args, dest) is not None
    }
    if not kwargs:
        return None
    if "compress_min_bytes" in kwargs:
        # ``--compress-min 0`` disables compression.
        kwargs["compress_min_bytes"] = kwargs["compress_min_bytes"] or None
    from repro.runtime import TcpChannelConfig

    return TcpChannelConfig(**kwargs)


def _add_loop_args(p: argparse.ArgumentParser, transport: str) -> None:
    """What every all-sites-on-one-loop command takes."""
    p.add_argument("--transport", choices=("tcp", "local"), default=transport)
    p.add_argument("--host", default="127.0.0.1",
                   help="interface the TCP listeners bind")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="wall-clock quiescence timeout in seconds")
    p.add_argument("--no-check", action="store_true",
                   help="skip consistency verification")


def _add_fleet_args(p: argparse.ArgumentParser, strategy: str) -> None:
    """The shape of a sharded fleet hosted on one loop."""
    p.add_argument("--shards", type=int, default=2,
                   help="number of warehouse shards")
    p.add_argument("--replicas", type=int, default=0,
                   help="hot standbys per shard (0 = no replication; standbys"
                        " migrate in lockstep with their primaries)")
    p.add_argument("--strategy", choices=("hash", "round-robin"),
                   default=strategy, help="view-to-shard assignment rule")
    _add_loop_args(p, transport="local")


def _add_durable_args(p: argparse.ArgumentParser) -> None:
    """Durability of one warehouse-side site."""
    p.add_argument("--durable-dir", default=None, metavar="DIR",
                   help="persist checkpoints + update log here; on restart"
                        " the site recovers and resumes from DIR")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="N", help="checkpoint every N installed updates"
                                     " (default 25)")
    p.add_argument("--fsync-batch", type=int, default=8, metavar="N",
                   help="fsync the WAL once per N appended updates"
                        " (group commit; default: 8)")


def _add_run_distributed_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "run-distributed",
        help="run one experiment on the asyncio runtime (all sites in-process)",
    )
    _add_workload_args(p)
    _add_tcp_args(p)
    _add_loop_args(p, transport="tcp")
    p.add_argument("--chaos", default=None, metavar="PROFILE",
                   help="inject transport faults from a named chaos profile"
                        " (healthy/delay/dup/drop/crash/hostile/source-stall/"
                        "source-burst/source-reorder/crash-restart)")
    p.add_argument("--show-view", action="store_true",
                   help="print the final materialized view")


def _cmd_run_distributed(args: argparse.Namespace) -> int:
    from repro.runtime import run_distributed

    config = _workload_config(args, check_consistency=not args.no_check)
    result = run_distributed(config, **_site_fields(args))
    print(result.report())
    if args.show_view:
        print()
        print(result.final_view.pretty())
    return 0


def _add_run_sharded_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "run-sharded",
        help="partition a view family across warehouse shards and run to"
             " quiescence",
    )
    _add_workload_args(p)
    _add_tcp_args(p)
    _add_fleet_args(p, strategy="hash")
    p.add_argument("--chaos", default=None, metavar="PROFILE",
                   help="inject transport faults from a named chaos profile")
    p.add_argument("--processes", action="store_true",
                   help="launch every shard and source as its own OS process"
                        " under the shard supervisor (implies TCP)")
    p.add_argument("--durable-dir", default=None, metavar="DIR",
                   help="checkpoint + WAL root; each shard persists to"
                        " DIR/shard<id> and a re-run recovers from it")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="N", help="checkpoint every N installed updates")
    p.add_argument("--fsync-batch", type=int, default=8, metavar="N",
                   help="fsync the WAL once per N appended updates"
                        " (group commit; default: 8)")
    p.add_argument("--restart", choices=("never", "on-crash"),
                   default="never",
                   help="supervisor restart policy for crashed shard"
                        " processes (--processes with --durable-dir only)")
    p.add_argument("--max-restarts", type=int, default=2,
                   help="restart budget per shard process")


def _checkpoint_policy(args: argparse.Namespace):
    """A CheckpointPolicy from ``--checkpoint-every`` when the command has
    it and the user gave it, or None for pure defaults."""
    every = getattr(args, "checkpoint_every", None)
    if every is None:
        return None
    from repro.durability import CheckpointPolicy

    return CheckpointPolicy(every_installs=every)


#: Keyword argument of the ``run_*`` / ``serve_*`` entry points (for the
#: sharded ones: FleetSpec field) -> the argparse destination that
#: carries it, on the commands that have the flag.
_SITE_FLAGS = {
    "n_shards": "shards",
    "strategy": "strategy",
    "replicas": "replicas",
    "transport": "transport",
    "time_scale": "time_scale",
    "host": "host",
    "timeout": "timeout",
    "durable_dir": "durable_dir",
    "fsync_batch": "fsync_batch",
    "chaos": "chaos",
}


def _site_fields(args: argparse.Namespace) -> dict:
    """What a command line says about where and how its sites run."""
    fields = {
        name: getattr(args, dest)
        for name, dest in _SITE_FLAGS.items()
        if hasattr(args, dest)
    }
    fields["tcp_config"] = _tcp_config(args)
    if hasattr(args, "checkpoint_every"):
        fields["checkpoint_policy"] = _checkpoint_policy(args)
    return fields


def _usage_error(problem: ValueError | str) -> int:
    """A deployment the program refuses (a fleet shape, an algorithm a
    serve command cannot host) is operator misconfiguration: a usage
    error, not a crash."""
    print(f"error: {problem}", file=sys.stderr)
    return 2


def _cmd_run_sharded(args: argparse.Namespace) -> int:
    from repro.runtime import launch_sharded_processes, run_sharded

    config = _workload_config(args, check_consistency=not args.no_check)
    try:
        if not args.processes:
            print(run_sharded(config, **_site_fields(args)).report())
            return 0
        outputs = launch_sharded_processes(
            config,
            restart=args.restart,
            max_restarts=args.max_restarts,
            **_site_fields(args),
        )
    except ValueError as exc:
        return _usage_error(exc)
    for name in sorted(outputs):
        text = outputs[name].strip()
        if text:
            print(f"--- {name} ---")
            print(text)
    print(f"\nsharded deployment of {len(outputs)} process(es) exited"
          " cleanly (every shard verified its views)")
    return 0


def _add_rebalance_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "rebalance",
        help="host a live sharded fleet and migrate one view between"
             " shards mid-run (drain, handoff, fenced re-route)",
    )
    _add_workload_args(p)
    _add_tcp_args(p)
    # A one-view family has nothing migratable (the primary is pinned);
    # default to a family worth redistributing.
    p.set_defaults(views=4)
    _add_fleet_args(p, strategy="round-robin")
    p.add_argument("--view", default=None, metavar="NAME",
                   help="view to migrate (default: the first non-primary"
                        " view of the first multi-view shard)")
    p.add_argument("--to-shard", type=int, default=None, metavar="SHARD",
                   help="recipient shard (default: the next active shard)")
    p.add_argument("--after-deliveries", type=int, default=None, metavar="N",
                   help="fire after the donor primary's N-th delivery")
    p.add_argument("--after-installs", type=int, default=None, metavar="N",
                   help="fire after the donor primary's N-th install")


def _cmd_rebalance(args: argparse.Namespace) -> int:
    from repro.runtime import FleetSpec, RebalanceSpec, run_sharded
    from repro.warehouse.sharding import pick_migration

    config = _workload_config(args, check_consistency=not args.no_check)
    fields = _site_fields(args)
    if args.after_installs is not None:
        trigger = {"after_installs": args.after_installs}
    elif args.after_deliveries is not None:
        trigger = {"after_deliveries": args.after_deliveries}
    else:
        trigger = {"after_deliveries": 3}
    try:
        view, to_shard = args.view, args.to_shard
        if view is None or to_shard is None:
            picked = pick_migration(FleetSpec(config, **fields).plan)
            view = view if view is not None else picked[0]
            to_shard = to_shard if to_shard is not None else picked[1]
        move = RebalanceSpec(view=view, to_shard=to_shard, **trigger)
        result = run_sharded(config, rebalance=move, **fields)
    except ValueError as exc:
        return _usage_error(exc)
    print(result.report())
    return 0


def _add_scenario_parser(
    sub: argparse._SubParsersAction,
    name: str,
    perturbation: str | None = None,
    *,
    help: str,
    seeds: int = 30,
    smoke: bool = False,
) -> argparse.ArgumentParser:
    """One fault-scenario command: the seed range, pacing and report
    path every scenario shares (``--runs`` is the older spelling of
    ``--seeds``).  ``perturbation`` is the repro.harness.scenarios
    perturbation a sweep command sweeps; ``None`` is the conformance
    matrix."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(perturbation=perturbation, smoke=False)
    p.add_argument("--seed", "-s", type=int, default=0,
                   help="first workload seed")
    p.add_argument("--seeds", "--runs", dest="seeds", type=int, default=seeds,
                   help="seeds per case: seed, seed+1, ...")
    if perturbation is not None:
        p.add_argument("--tcp-every", type=int, default=5,
                       help="every Nth seed runs over loopback TCP"
                            " (0 = local only)")
    p.add_argument("--time-scale", type=float, default=0.002,
                   help="wall seconds per virtual time unit")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="wall-clock quiescence timeout per run")
    if smoke:
        p.add_argument("--smoke", action="store_true",
                       help="also SIGKILL a serve-shard process of a real"
                            " multiprocess fleet; the supervisor must"
                            " restart (recovery) or promote over (failover)"
                            " it")
    p.add_argument("--json", default=name.removesuffix("-sweep") + "_report.json",
                   metavar="PATH", help="where to write the JSON report")
    return p


def _add_serve_shard_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve-shard",
        help="host one warehouse shard; sources run in other processes",
    )
    _add_workload_args(p)
    _add_tcp_args(p)
    p.add_argument("--shard-id", type=int, default=None,
                   help="which shard of the plan this process hosts")
    p.add_argument("--standby-of", type=int, default=None, metavar="SHARD",
                   help="host this process as SHARD's first hot standby"
                        " (shorthand for --shard-id SHARD --replica 1)")
    p.add_argument("--replica", type=int, default=0,
                   help="replica number within the shard's group"
                        " (0 = primary)")
    p.add_argument("--seed-from", default=None, metavar="DIR",
                   help="bootstrap a fresh standby's --durable-dir from the"
                        " newest checkpoint in the primary's durable dir")
    p.add_argument("--shards", type=int, required=True,
                   help="total number of shards in the plan")
    p.add_argument("--strategy", choices=("hash", "round-robin"),
                   default="hash", help="view-to-shard assignment rule"
                                        " (must match every other process)")
    p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT")
    p.add_argument(
        "--source", action="append", default=[], metavar="INDEX=HOST:PORT",
        help="address of each source's listener (repeat for every source)",
    )
    p.add_argument(
        "--expect-updates", type=int, default=None,
        help="exit with a report after this many updates (default: every"
             " scheduled update)",
    )
    p.add_argument("--timeout", type=float, default=3600.0)
    p.add_argument("--no-verify", action="store_true",
                   help="do not fail the process when a view misses its"
                        " claimed consistency level")
    _add_durable_args(p)


def _cmd_serve_shard(args: argparse.Namespace) -> int:
    from repro.runtime import serve_shard_async

    if (args.shard_id is None) == (args.standby_of is None):
        raise SystemExit(
            "serve-shard needs exactly one of --shard-id or --standby-of"
        )
    shard_id = args.shard_id
    replica = args.replica
    if args.standby_of is not None:
        shard_id = args.standby_of
        replica = max(1, replica)
    return _serve(
        args,
        serve_shard_async,
        shard_id=shard_id,
        expect_updates=args.expect_updates,
        verify=not args.no_verify,
        replica=replica,
        seed_from=args.seed_from,
    )


def _serve(args: argparse.Namespace, serve, **fields) -> int:
    """Host the warehouse site a serve command names, and report its run
    (a warehouse the program refuses to host is a usage error)."""
    from repro.runtime.kernel import run

    listen_host, listen_port = _parse_address(args.listen)
    try:
        result = run(
            serve(
                _workload_config(args),
                source_addresses=_source_addresses(args),
                listen_host=listen_host,
                listen_port=listen_port,
                **fields,
                **_site_fields(args),
            )
        )
    except ValueError as exc:
        return _usage_error(exc)
    print(result.report())
    return 0


def _add_serve_warehouse_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve-warehouse",
        help="host the warehouse site; sources run in other processes",
    )
    _add_workload_args(p)
    p.add_argument("--listen", default="127.0.0.1:7700", metavar="HOST:PORT")
    p.add_argument(
        "--source", action="append", default=[], metavar="INDEX=HOST:PORT",
        help="address of each source's listener (repeat for every source)",
    )
    _add_tcp_args(p)
    p.add_argument(
        "--expect-updates", type=int, default=None,
        help="exit with a report after this many updates (default: all"
             " scheduled updates; 0 serves forever)",
    )
    p.add_argument("--timeout", type=float, default=3600.0)
    _add_durable_args(p)


def _cmd_serve_warehouse(args: argparse.Namespace) -> int:
    from repro.runtime import serve_warehouse_async

    expect = args.expect_updates
    if expect is None:
        expect = args.updates
    return _serve(args, serve_warehouse_async, expect_updates=expect or None)


def _add_serve_source_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve-source",
        help="host one data-source site and replay its update schedule",
    )
    _add_workload_args(p)
    p.add_argument("--index", "-i", type=int, required=True,
                   help="1-based index of the base relation this site owns")
    p.add_argument("--warehouse", default=None, metavar="HOST:PORT",
                   help="address of the warehouse listener")
    p.add_argument(
        "--shard", action="append", default=[], metavar="SHARD=HOST:PORT",
        help="address of one warehouse shard's listener (repeat; serves a"
             " sharded deployment instead of --warehouse)",
    )
    p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT")
    _add_tcp_args(p)
    p.add_argument("--no-drive", action="store_true",
                   help="do not replay the seeded update schedule")
    p.add_argument("--serve-forever", action="store_true",
                   help="keep serving queries after the schedule drains")
    p.add_argument("--linger", type=float, default=3.0,
                   help="wall seconds of query silence before exiting")
    p.add_argument("--timeout", type=float, default=3600.0)


def _cmd_serve_source(args: argparse.Namespace) -> int:
    config = _workload_config(args)
    listen_host, listen_port = _parse_address(args.listen)
    if bool(args.warehouse) == bool(args.shard):
        raise SystemExit(
            "serve-source needs exactly one of --warehouse or --shard"
        )
    if not 1 <= args.index <= config.n_sources:
        return _usage_error(
            f"--index {args.index} is out of range 1..{config.n_sources}"
        )
    if args.shard:
        from repro.warehouse.sharding import parse_member

        # Keys like "0" address a shard's primary; "0r1" its standby.
        destinations = {}
        for spec in args.shard:
            member, _, addr = spec.partition("=")
            destinations[parse_member(member)] = _parse_address(addr)
    else:
        from repro.harness.sites import WAREHOUSE

        destinations = {WAREHOUSE: _parse_address(args.warehouse)}
    from repro.runtime import serve_source_async
    from repro.runtime.kernel import run

    run(
        serve_source_async(
            config,
            args.index,
            destinations,
            listen_host=listen_host,
            listen_port=listen_port,
            drive=not args.no_drive,
            exit_when_done=not args.serve_forever,
            linger=args.linger,
            **_site_fields(args),
        )
    )
    return 0


def _cmd_algorithms(_args: argparse.Namespace) -> int:
    from repro.harness.report import format_table
    from repro.warehouse.registry import ALGORITHMS

    rows = [
        [
            info.name,
            info.architecture,
            info.claimed_consistency.name.lower(),
            info.message_cost,
            "yes" if info.requires_keys else "no",
            "yes" if info.requires_quiescence else "no",
            info.comments,
        ]
        for info in ALGORITHMS.values()
    ]
    print(
        format_table(
            ["name", "architecture", "consistency", "msg cost", "keys?",
             "quiescence?", "comments"],
            rows,
            title="Registered maintenance algorithms",
        )
    )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.harness.experiments.table1 import format_table1, run_table1

    print(
        format_table1(
            run_table1(
                seed=args.seed,
                n_sources=args.sources,
                n_updates=args.updates,
                include_baselines=args.baselines,
            )
        )
    )
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.harness.experiments.fig5 import format_fig5, run_fig5

    rows = run_fig5(spacing=args.spacing)
    print(format_fig5(rows))
    return 0 if all(r["match"] == "yes" for r in rows) else 1


def _experiment_sections() -> list[tuple[str, str, str]]:
    """(tag, description, rendered table) for every experiment module."""
    from repro.harness.experiments import (
        ablation,
        amortization,
        concurrency,
        fig5,
        messagesize,
        scaling,
        staleness,
        table1,
    )

    return [
        ("T1", "Table 1, measured",
         table1.format_table1(table1.run_table1(include_baselines=True))),
        ("F5", "Figure 5 trajectory under SWEEP",
         fig5.format_fig5(fig5.run_fig5())),
        ("S1", "message cost vs number of sources",
         scaling.format_scaling(scaling.run_scaling())),
        ("S2", "message cost vs concurrency",
         concurrency.format_concurrency(concurrency.run_concurrency())),
        ("S3", "staleness under sustained updates",
         staleness.format_staleness(staleness.run_staleness())),
        ("S4", "Nested SWEEP amortization",
         amortization.format_amortization(amortization.run_amortization())),
        ("S5", "ECA query payload growth",
         messagesize.format_messagesize(messagesize.run_messagesize())),
        ("A1", "SWEEP variants ablation",
         ablation.format_sweep_variants(ablation.run_sweep_variants())),
        ("A2", "Nested SWEEP termination ablation",
         ablation.format_nested_depth(ablation.run_nested_depth())),
    ]


def _cmd_experiments(args: argparse.Namespace) -> int:
    sections = _experiment_sections()
    for tag, _desc, text in sections:
        print(f"\n### {tag} ###")
        print(text)
    if getattr(args, "save", None):
        lines = [
            "# Experiment report",
            "",
            "Regenerated with `python -m repro experiments --save ...`;",
            "see EXPERIMENTS.md for paper-vs-measured commentary.",
        ]
        for tag, desc, text in sections:
            lines += ["", f"## {tag} — {desc}", "", "```", text, "```"]
        import pathlib

        path = pathlib.Path(args.save)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"\nreport written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Efficient View Maintenance at Data"
            " Warehouses' (SIGMOD 1997)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_parser(sub)
    _add_run_distributed_parser(sub)
    _add_run_sharded_parser(sub)
    _add_rebalance_parser(sub)
    _add_serve_warehouse_parser(sub)
    _add_serve_source_parser(sub)
    _add_serve_shard_parser(sub)
    sub.add_parser("algorithms", help="list registered algorithms")

    t1 = sub.add_parser("table1", help="regenerate the measured Table 1")
    t1.add_argument("--seed", type=int, default=7)
    t1.add_argument("--sources", type=int, default=4)
    t1.add_argument("--updates", type=int, default=24)
    t1.add_argument("--baselines", action="store_true")

    f5 = sub.add_parser("fig5", help="replay the Figure 5 example")
    f5.add_argument("--spacing", type=float, default=0.5)

    exp = sub.add_parser("experiments", help="run every experiment module")
    exp.add_argument("--save", metavar="PATH",
                     help="also write a markdown report to PATH")

    conf = _add_scenario_parser(
        sub, "conformance", seeds=1,
        help="run every algorithm through chaos fault profiles and check"
             " the consistency oracle's verdict against the claimed level",
    )
    conf.add_argument(
        "--algorithms", default=None, metavar="A,B,...",
        help="comma-separated algorithms (default: every registered one)",
    )
    conf.add_argument(
        "--profiles", default=None, metavar="P,Q,...",
        help="comma-separated chaos profiles (default: healthy,delay,dup,"
             "crash,source-stall,source-reorder)",
    )
    conf.add_argument("--transport", choices=("local", "tcp"), default="local")
    conf.add_argument(
        "--localities", default="off", metavar="M,N,...",
        help="comma-separated locality modes to cross with each case"
             " (off,aux,cache,auto; unsupported algorithm/mode pairs"
             " are skipped)",
    )
    conf.add_argument("--updates", "-u", type=int, default=None)
    conf.add_argument("--sources", "-n", type=int, default=None)
    _add_scenario_parser(
        sub, "recovery-sweep", "crash-restart", smoke=True,
        help="crash one shard per seeded case, recover from checkpoint +"
             " WAL, and compare against the uncrashed baseline",
    )
    _add_scenario_parser(
        sub, "failover-sweep", "primary-kill", smoke=True,
        help="kill a shard's primary at deterministic protocol points,"
             " promote its hot standby, and compare against the uncrashed"
             " baseline",
    )
    _add_scenario_parser(
        sub, "rebalance-sweep", "migrate",
        help="migrate one view between shards at deterministic protocol"
             " points and compare against a never-migrated baseline",
    )

    adv = sub.add_parser(
        "advise", help="recommend an algorithm for a workload"
    )
    adv.add_argument("--sources", "-n", type=int, default=4)
    adv.add_argument("--rate", type=float, default=0.02,
                     help="total update rate (updates per time unit)")
    adv.add_argument("--latency", type=float, default=5.0)
    adv.add_argument(
        "--require", choices=("convergence", "weak", "strong", "complete"),
        default="strong",
    )
    adv.add_argument("--keys", action="store_true",
                     help="the view keeps a key of every relation")
    adv.add_argument("--centralized-ok", action="store_true")
    adv.add_argument("--fresh", action="store_true",
                     help="installs must keep up with the stream")
    adv.add_argument("--global-txns", action="store_true")
    return parser


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.analysis.advisor import WorkloadFacts, explain
    from repro.consistency.levels import ConsistencyLevel

    facts = WorkloadFacts(
        n_sources=args.sources,
        update_rate=args.rate,
        latency=args.latency,
        required_consistency=ConsistencyLevel[args.require.upper()],
        view_has_all_keys=args.keys,
        centralized_ok=args.centralized_ok,
        needs_fresh_view=args.fresh,
        has_global_transactions=args.global_txns,
    )
    print(explain(facts))
    return 0


def _conformance_rows(args: argparse.Namespace, progress) -> list[dict] | None:
    """The conformance matrix, or ``None`` after reporting a usage error."""
    from repro.harness import scenarios
    from repro.runtime.chaos import PROFILES
    from repro.warehouse.locality import MODES

    algorithms = (
        args.algorithms.split(",")
        if args.algorithms
        else scenarios.DEFAULT_ALGORITHMS
    )
    profiles = (
        args.profiles.split(",") if args.profiles
        else scenarios.DEFAULT_PROFILES
    )
    localities = tuple(args.localities.split(","))
    for what, chosen, known in (
        ("algorithm", algorithms,
         (*scenarios.DEFAULT_ALGORITHMS, *scenarios.SHARDED_ALGORITHMS)),
        ("chaos profile", profiles, tuple(PROFILES)),
        ("locality mode", localities, tuple(MODES)),
    ):
        for name in chosen:
            if name not in known:
                print(
                    f"unknown {what} {name!r}; available: {','.join(known)}",
                    file=sys.stderr,
                )
                return None
    case_kwargs = {}
    if args.updates is not None:
        case_kwargs["n_updates"] = args.updates
    if args.sources is not None:
        case_kwargs["n_sources"] = args.sources
    return scenarios.run_matrix(
        algorithms,
        profiles,
        seeds=range(args.seed, args.seed + args.seeds),
        transport=args.transport,
        localities=localities,
        progress=progress,
        time_scale=args.time_scale,
        timeout=args.timeout,
        **case_kwargs,
    )


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """``conformance`` and the three ``*-sweep`` commands."""
    from repro.harness import scenarios

    def progress(row: dict) -> None:
        verdict = "pass" if row["ok"] else f"FAIL ({row['error']})"
        print(
            f"  {row['algorithm']:>16s} x {row['transport']:<5s}"
            f" seed={row['seed']} loc={row['locality']} {row['scenario']}"
            f"{' MUT' if row['mutated'] else ''} ... {verdict}",
            flush=True,
        )

    smoke = None
    if args.perturbation is None:
        suite = "conformance"
        rows = _conformance_rows(args, progress)
        if rows is None:
            return 2
    else:
        perturbation = scenarios.PERTURBATIONS[args.perturbation]()
        suite = perturbation.suite
        rows = scenarios.run_sweep(
            [perturbation],
            seeds=range(args.seed, args.seed + args.seeds),
            tcp_every=args.tcp_every,
            time_scale=args.time_scale,
            timeout=args.timeout,
            progress=progress,
        )
        if args.smoke:
            print(f"  {perturbation.smoke.title} (multiprocess SIGKILL) ...",
                  flush=True)
            smoke = scenarios.sigkill_smoke(perturbation.smoke)
    report = scenarios.build_report(suite, rows, smoke=smoke)
    print()
    print(scenarios.format_report(report))
    path = scenarios.write_report(report, args.json)
    print(f"\nwrote {path}")
    return 0 if report["ok"] else 1


_COMMANDS = {
    "run": _cmd_run,
    "run-distributed": _cmd_run_distributed,
    "run-sharded": _cmd_run_sharded,
    "rebalance": _cmd_rebalance,
    "serve-warehouse": _cmd_serve_warehouse,
    "serve-source": _cmd_serve_source,
    "serve-shard": _cmd_serve_shard,
    "algorithms": _cmd_algorithms,
    "table1": _cmd_table1,
    "fig5": _cmd_fig5,
    "experiments": _cmd_experiments,
    "advise": _cmd_advise,
    "conformance": _cmd_scenarios,
    "recovery-sweep": _cmd_scenarios,
    "failover-sweep": _cmd_scenarios,
    "rebalance-sweep": _cmd_scenarios,
}


#: Commands hosting long-lived sites: runtime failures (dead peer, shard
#: crash, failed verification, quiescence timeout) must surface as a clean
#: message and a non-zero exit, not a traceback -- and never exit 0.
_HOST_COMMANDS = frozenset({
    "run-distributed", "run-sharded", "rebalance", "serve-warehouse",
    "serve-source", "serve-shard",
})


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command in _HOST_COMMANDS:
        from repro.runtime import CLEAN_FAILURE_EXIT, RuntimeHostError

        try:
            return _COMMANDS[args.command](args)
        except RuntimeHostError as exc:
            # A deliberate, reported failure (verification below the
            # claimed level, peer probe exhausted, quiescence timeout):
            # exit 3 so a supervising process can tell it from a crash.
            print(f"error: {exc}", file=sys.stderr)
            return CLEAN_FAILURE_EXIT
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
