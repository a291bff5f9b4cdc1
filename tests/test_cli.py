"""Tests of the command-line interface."""

import argparse
import json
from dataclasses import fields
from pathlib import Path, PurePath

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.config import AdversaryModel, FailureModel, SimulationConfig

#: every subcommand's flag table, captured from the parser before its
#: flags were derived from the config dataclasses
FLAG_SNAPSHOT = Path(__file__).with_name("cli_flags.json")


def _jsonable(value):
    if isinstance(value, PurePath):
        return f"Path:{value}"
    if isinstance(value, tuple):
        return list(value)
    return value


def flag_table(parser, prefix=()):
    """One row per argument of every (nested) subcommand; dest and help
    are left out so that both may change."""
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                rows += flag_table(sub, prefix + (name,))
            continue
        rows.append({
            "command": " ".join(prefix),
            "option_strings": list(action.option_strings) or [action.dest],
            "action": type(action).__name__,
            "type": getattr(action.type, "__name__", None),
            "default": _jsonable(action.default),
            "choices": _jsonable(action.choices),
            "nargs": action.nargs,
            "required": action.required,
            "const": _jsonable(action.const),
            "metavar": action.metavar,
        })
    return rows


class TestFlagSurface:
    def test_matches_snapshot(self):
        def keyed(rows):
            return {(r["command"], *r["option_strings"]): r for r in rows}

        want = keyed(json.loads(FLAG_SNAPSHOT.read_text()))
        got = keyed(flag_table(build_parser()))
        assert len(want) == 124
        assert sorted(got) == sorted(want)
        # the two deliberate changes: --replication parses 'full' | int
        # in argparse, and --field only accepts SimulationConfig fields
        del got[("simulate", "--replication")]["type"]
        del want[("simulate", "--replication")]["type"]
        assert got[("sweep", "--field")].pop("choices") == [
            f.name for f in fields(SimulationConfig)
        ]
        del want[("sweep", "--field")]["choices"]
        for key in want:
            assert got[key] == want[key], key

    def test_defaults_build_the_default_configs(self):
        args = build_parser().parse_args(["simulate"])
        assert cli._from_args(
            SimulationConfig, args, cli._SIM_CORE + cli._SIM_PAPER
        ) == SimulationConfig()
        assert cli._from_args(
            FailureModel, args, cli._FAILURE_FLAGS
        ) == FailureModel()
        assert cli._from_args(
            AdversaryModel, args, cli._ADVERSARY_FLAGS
        ) == AdversaryModel()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.experiment == "table1"
        assert args.scale is None
        assert args.jobs == 1


class TestListCommand:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig13_14" in out


class TestRunCommand:
    def test_run_fig02_03_with_exports(self, capsys, tmp_path):
        csv = tmp_path / "out.csv"
        jsn = tmp_path / "out.json"
        code = main(
            [
                "run",
                "fig02_03",
                "--csv",
                str(csv),
                "--json",
                str(jsn),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig02_03" in out
        assert csv.exists()
        data = json.loads(jsn.read_text())
        assert data["experiment_id"] == "fig02_03"


class TestSimulateCommand:
    def test_small_simulation(self, capsys):
        code = main(
            [
                "simulate",
                "--strategy",
                "random_injection",
                "--nodes",
                "50",
                "--tasks",
                "1000",
                "--trials",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean runtime factor" in out

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--strategy", "bogus"])

    def test_failure_flags(self, capsys):
        code = main(
            [
                "simulate",
                "--strategy", "churn",
                "--nodes", "60",
                "--tasks", "1200",
                "--churn", "0.02",
                "--crash-fraction", "1.0",
                "--replication", "0",
                "--seed", "9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean completed-work factor" in out
        assert "trials with data loss" in out
        assert "avg tasks_lost" in out

    def test_rejects_bad_replication(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--replication", "lots"])


class TestSweepCommand:
    GRID = ["--field", "churn_rate", "--values", "0,0.01", "--nodes", "30",
            "--tasks", "600", "--trials", "2", "--seed", "7"]

    def test_listen_matches_plain_sweep(self, capsys, tmp_path, monkeypatch):
        """``--listen`` runs the same grid under a listening broker: one
        READY line, the plain sweep's ``--out`` bytes, a finished status
        document.  Each run gets its own cache, so both compute."""
        plain, listened = tmp_path / "plain.json", tmp_path / "listen.json"
        status = tmp_path / "status.json"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-a"))
        assert main(["sweep", *self.GRID, "--out", str(plain)]) == 0
        out = capsys.readouterr().out
        assert cli.FABRIC_READY_PREFIX not in out
        assert "4 trials, 0 cached, 4 run" in out
        # without --status-file the document lands in the cache dir
        default = json.loads(
            (tmp_path / "cache-a" / "fabric-status.json").read_text()
        )
        assert default["done"] == default["total"] == 4

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-b"))
        assert main([
            "sweep", *self.GRID, "--listen", "127.0.0.1:0",
            "--status-file", str(status), "--out", str(listened),
        ]) == 0
        out = capsys.readouterr().out
        ready = [
            line for line in out.splitlines()
            if line.startswith(cli.FABRIC_READY_PREFIX)
        ]
        assert len(ready) == 1
        info = json.loads(ready[0][len(cli.FABRIC_READY_PREFIX):])
        assert info["status_file"] == str(status)
        assert info["units"] == 4 and info["port"] > 0
        assert "4 trials, 0 cached, 4 run" in out
        assert listened.read_bytes() == plain.read_bytes()
        doc = json.loads(status.read_text())
        assert doc["done"] == doc["total"] == 4
        assert doc["listen"] == f"{info['host']}:{info['port']}"


class TestUsageErrors:
    """A value the config rejects is a one-line usage error, exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--crash-fraction", "2"], "crash_fraction must be"),
            (["simulate", "--nodes", "0"], "n_nodes must be positive"),
            (
                ["stress", "127.0.0.1:1", "--duration", "0"],
                "duration must be > 0",
            ),
            (
                ["sweep", "--field", "bogus", "--values", "1"],
                "invalid choice: 'bogus'",
            ),
            (
                ["fabric", "run", "--field", "churn_rate", "--values", "0"],
                "invalid choice: 'run'",
            ),
        ],
        ids=[
            "crash-fraction", "nodes", "stress-duration", "sweep-field",
            "fabric-run",
        ],
    )
    def test_reported_as_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [l for l in err.splitlines() if "error:" in l]
        assert message in line


class TestServeRing:
    def test_ring_forwards_every_node_flag(self, monkeypatch):
        import repro.net.cluster as cluster

        spawned = []

        def fake_popen(cmd, **kwargs):
            spawned.append(cmd)
            raise RuntimeError("spawn captured")

        monkeypatch.setattr(cluster.subprocess, "Popen", fake_popen)
        node_flags = {
            "--successors": "7",
            "--decision-interval": "3",
            "--heartbeat-interval": "0.5",
            "--timeout": "2.5",
            "--retries": "4",
            "--seed": "9",
            "--strategy": "invitation",
            "--bits": "32",
            "--sybil-threshold": "1",
            "--max-sybils": "2",
            "--maintenance-interval": "0.1",
        }
        argv = ["serve", "--ring", "2"]
        for flag, value in node_flags.items():
            argv += [flag, value]
        with pytest.raises(RuntimeError, match="spawn captured"):
            main(argv)
        (cmd,) = spawned
        assert "serve" in cmd
        for flag, value in node_flags.items():
            assert cmd[cmd.index(flag) + 1] == value, flag


class TestFiguresCommand:
    def test_writes_svgs(self, capsys, tmp_path):
        code = main(["figures", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig2_hashed_ring.svg").exists()
        assert (tmp_path / "fig3_even_ring.svg").exists()


class TestProfileCommand:
    def test_profile_prints_metrics(self, capsys):
        code = main(
            [
                "profile",
                "--strategy",
                "random_injection",
                "--nodes",
                "60",
                "--tasks",
                "1200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "utilization_auc" in out
        assert "wasted_node_ticks" in out


class TestTheoryCommand:
    def test_theory_table(self, capsys):
        code = main(["theory", "--nodes", "200", "--tasks", "20000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "200 nodes / 20000 tasks" in out
        assert "median workload" in out
        assert "baseline runtime factor" in out
