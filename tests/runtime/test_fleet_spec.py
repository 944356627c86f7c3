"""FleetSpec: the one place a fleet shape is rejected, and its rendering
as child command lines (carried or refused, never dropped)."""

import dataclasses
import socket
import subprocess

import pytest

from repro import cli
from repro.durability.manager import CheckpointPolicy, CrashPlan
from repro.harness.config import ExperimentConfig
from repro.runtime import (
    FailoverSpec,
    FleetSpec,
    RebalanceSpec,
    TcpChannelConfig,
    launch_sharded_processes,
    shard,
)
from repro.runtime.shard.spec import child_argvs
from repro.runtime.shard.supervisor import (
    ShardSupervisor,
    build_sharded_supervisor,
)
from repro.warehouse.sharding import view_family


def config_for(**overrides):
    base = dict(
        algorithm="sweep", n_sources=3, n_updates=6, seed=5,
        mean_interarrival=2.0, n_views=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


MOVE = RebalanceSpec(view="V#s2", to_shard=1, after_installs=1)
KILL = FailoverSpec(shard=0, after_installs=1)
RR = dict(n_shards=2, strategy="round-robin")


# ---------------------------------------------------------------------------
# (a) every rejected shape is a ValueError from the constructor
# ---------------------------------------------------------------------------

@pytest.fixture
def nothing_is_built(monkeypatch, tmp_path):
    """Constructing a spec starts no runtime, opens no socket, and makes
    no directory."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a FleetSpec constructor built something")

    monkeypatch.setattr(shard, "AsyncRuntime", forbidden)
    monkeypatch.setattr(socket, "socket", forbidden)
    yield tmp_path / "never-created"
    assert not (tmp_path / "never-created").exists()


REJECTED = {
    "unknown transport": (dict(transport="carrier-pigeon"), "transport"),
    "failover without standbys": (dict(failover=KILL, **RR), "replicas"),
    "failover on a shard hosting no views": (
        dict(
            failover=FailoverSpec(shard=5, after_installs=1),
            replicas=1, n_shards=8, strategy="round-robin",
        ),
        "hosts no views",
    ),
    "rebalance x durable_dir": (
        dict(rebalance=MOVE, durable_dir="<scratch>", **RR), "durability"
    ),
    "rebalance x crash_plans": (
        dict(rebalance=MOVE, crash_plans={0: CrashPlan(after_installs=1)}, **RR),
        "durability",
    ),
    "rebalance of a shard's primary view": (
        dict(
            rebalance=RebalanceSpec(view="V", to_shard=1, after_installs=1),
            **RR,
        ),
        "primary",
    ),
}


@pytest.mark.parametrize("shape", REJECTED)
def test_invalid_shape_is_rejected_by_the_constructor(shape, nothing_is_built):
    fields, words = REJECTED[shape]
    if fields.get("durable_dir") == "<scratch>":
        fields = {**fields, "durable_dir": str(nothing_is_built)}
    with pytest.raises(ValueError, match=words):
        FleetSpec(config_for(), **fields)


def test_valid_spec_derives_the_fleet_once(nothing_is_built):
    spec = FleetSpec(config_for(), replicas=1, failover=KILL, **RR)
    assert spec.plan is spec.plan and spec.workload is spec.workload
    assert [m.label for m in spec.rplan.members] == [
        "sh0", "sh0r1", "sh1", "sh1r1"
    ]
    assert {len(members) for members in spec.fanout.values()} == {4}
    assert all(
        spec.expected_deliveries(m) == 6 for m in spec.rplan.members
    )
    assert spec.member_dir(spec.rplan.members[1]) is None
    durable = dataclasses.replace(spec, durable_dir="/d")
    assert [durable.member_dir(m) for m in durable.rplan.members] == [
        "/d/shard0", "/d/shard0r1", "/d/shard1", "/d/shard1r1"
    ]


# ---------------------------------------------------------------------------
# (b) the spec as command lines: round trip, and the refusal list
# ---------------------------------------------------------------------------

def test_child_command_lines_round_trip_the_spec(tmp_path):
    spec = FleetSpec(
        config_for(
            algorithm="batched-sweep", backend="sqlite", batch_max=3,
            batch_adaptive=True, locality="aux", locality_budget_rows=40,
            insert_fraction=0.75, rows_per_relation=12,
        ),
        replicas=1,
        transport="tcp",
        time_scale=0.005,
        timeout=77.0,
        tcp_config=TcpChannelConfig(
            codec_version=3, compress_min_bytes=None, max_retries=4,
            connect_timeout=1.5,
        ),
        durable_dir=str(tmp_path),
        checkpoint_policy=CheckpointPolicy(every_installs=3, every_time=2.5),
        fsync_batch=2,
        **RR,
    )
    argvs = child_argvs(spec, linger=0.5)
    assert sorted(argvs) == [
        "shard0", "shard0r1", "shard1", "shard1r1",
        "source1", "source2", "source3",
    ]
    parser = cli.build_parser()
    for name, argv in argvs.items():
        args = parser.parse_args(argv)
        assert cli._workload_config(args) == spec.config, name
        assert cli._tcp_config(args) == spec.tcp_config, name
        assert (args.time_scale, args.timeout) == (0.005, 77.0)
        if name.startswith("source"):
            assert args.command == "serve-source" and args.linger == 0.5
            assert [s.split("=")[0] for s in args.shard] == [
                "sh0", "sh0r1", "sh1", "sh1r1"
            ]
            continue
        assert args.command == "serve-shard"
        assert cli._checkpoint_policy(args) == spec.checkpoint_policy
        assert args.fsync_batch == 2
        assert (args.shards, args.strategy) == (2, "round-robin")
        assert args.durable_dir == str(tmp_path / name)
        assert len(args.source) == 3
    standby = parser.parse_args(argvs["shard1r1"])
    assert (standby.standby_of, standby.shard_id) == (1, None)
    assert not any(tmp_path.iterdir()), "deriving argv touched the disk"


def prebuilt_workload():
    return FleetSpec(config_for()).workload


NOT_CARRIED = {
    "config.match_fraction": dict(config=dict(match_fraction=0.5)),
    "config.txn_fraction": dict(config=dict(txn_fraction=0.2)),
    "config.global_txn_fraction": dict(config=dict(global_txn_fraction=0.1)),
    "config.project_keys": dict(config=dict(project_keys=False)),
    "config.query_service_time": dict(config=dict(query_service_time=1.0)),
    "config.check_consistency": dict(config=dict(check_consistency=False)),
    "config.workload": dict(config=dict(workload=prebuilt_workload)),
    "views": dict(
        views=lambda: view_family(prebuilt_workload().view, 4)[::-1]
    ),
    "tcp_config": dict(tcp_config=TcpChannelConfig(read_timeout=5.0)),
    "chaos": dict(chaos="dup"),
    "failover": dict(failover=KILL, replicas=1),
    "rebalance": dict(rebalance=MOVE),
    "crash_plans": dict(crash_plans={0: CrashPlan(after_installs=1)}),
}


@pytest.mark.parametrize("lost", NOT_CARRIED)
def test_launcher_refuses_what_no_flag_carries(lost, monkeypatch):
    def spawned(*args, **kwargs):
        raise AssertionError("a process was spawned before the refusal")

    monkeypatch.setattr(subprocess, "Popen", spawned)
    fields = {
        name: value() if callable(value) else value
        for name, value in NOT_CARRIED[lost].items()
    }
    overrides = {
        name: value() if callable(value) else value
        for name, value in fields.pop("config", {}).items()
    }
    with pytest.raises(ValueError, match="cannot carry") as refusal:
        launch_sharded_processes(config_for(**overrides), **fields, **RR)
    assert lost in str(refusal.value).split(": ")[1].split(", ")


def test_launcher_overrides_transport_and_carries_the_rest(monkeypatch):
    launched = {}

    def launch(self, name, argv, **kwargs):
        launched[name] = (argv, kwargs)

    monkeypatch.setattr(ShardSupervisor, "launch", launch)
    spec = FleetSpec(
        config_for(), transport="local", replicas=1, fsync_batch=4, **RR
    )
    build_sharded_supervisor(spec, restart="on-crash")
    assert len(launched) == 7
    argv, kwargs = launched["shard0r1"]
    assert argv[1:3] == ["-m", "repro"] and "--standby-of" in argv
    assert kwargs == {"restartable": False, "standby_for": "shard0"}
    assert argv[argv.index("--fsync-batch") + 1] == "4"
    assert launched["source2"][1] == {}
