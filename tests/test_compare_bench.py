"""``benchmarks/compare_bench.py`` on synthetic pytest-benchmark files:
every gated ratio is printed before the check fails."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", _SCRIPT)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)

STORM = "benchmarks/bench_core_ops.py::test_churn_storm_slab[10000]"
ROUND = "benchmarks/bench_core_ops.py::test_round_commit"
TICK = "benchmarks/bench_core_ops.py::test_tick_engine[{}-10000]"


def _bench(fullname, median, **extra):
    return {
        "fullname": fullname,
        "stats": {"min": median, "median": median, "mean": median},
        "extra_info": extra,
    }


def _write(path, benches):
    path.write_text(json.dumps({"benchmarks": benches}))
    return str(path)


def _files(tmp_path, storm, round_commit, slowdown=1.0):
    """(baseline, current) with the given paired ratios; every current
    median is ``slowdown`` times its baseline."""
    base = [
        _bench(STORM, 1.0),
        _bench(ROUND, 1.0),
        _bench(TICK.format("reference"), 8.0),
        _bench(TICK.format("numpy"), 1.0),
    ]
    cur = [
        _bench(STORM, slowdown, speedup_vs_naive=storm),
        _bench(ROUND, slowdown, speedup_vs_sequential=round_commit),
        _bench(TICK.format("reference"), 8.0 * slowdown),
        _bench(TICK.format("numpy"), slowdown),
    ]
    return (
        _write(tmp_path / "base.json", base),
        _write(tmp_path / "cur.json", cur),
    )


def test_a_failing_storm_ratio_still_prints_the_round_commit_ratio(
    tmp_path, capsys
):
    assert compare_bench.main(list(_files(tmp_path, 4.2, 24.0))) == 1
    out, err = capsys.readouterr()
    assert "churn-storm slab speedup vs naive (10k slots): 4.20x" in out
    assert "round-commit speedup vs per-slot replay: 24.00x" in out
    assert "kernel speedup vs reference (10000 slots): 8.00x" in out
    assert "4.20x < required 5.00x" in err
    assert "round-commit" not in err


def test_every_failing_gate_is_listed(tmp_path, capsys):
    files = _files(tmp_path, 4.2, 12.0)
    assert compare_bench.main([*files, "--require-tick-speedup", "9"]) == 1
    err = capsys.readouterr().err
    assert err.count("FAIL:") == 3


def test_ratios_above_their_bars_pass(tmp_path, capsys):
    assert compare_bench.main(list(_files(tmp_path, 5.5, 24.0))) == 0
    assert "OK:" in capsys.readouterr().out


@pytest.mark.parametrize("storm", [5.5, 4.2])
def test_a_slowdown_past_the_threshold_fails(tmp_path, capsys, storm):
    files = _files(tmp_path, storm, 24.0, slowdown=1.25)
    assert compare_bench.main(list(files)) == 1
    out, err = capsys.readouterr()
    assert "round-commit speedup vs per-slot replay: 24.00x" in out
    assert "4 benchmark(s) regressed more than 20%" in err
