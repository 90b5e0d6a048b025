"""Unit tests of the summaries of benchmarks/bench_record.py (spread and
diff) and benchmarks/bench_pair.py (per-pair ratios)."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "benchmarks" / "bench_record.py")
br = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(br)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BOUNDS = {m["name"]: (m["better"], m["bound"]) for m in END_TO_END}


def test_spread_median_and_quartiles():
    assert br.spread([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert br.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def record(ops, wall):
    return {"commit": "0" * 40, "summary": {"w": {
        "ops_per_s": br.spread([ops]), "wall_s": br.spread([wall])}}}


def diff_lines(capsys, new):
    br.print_diff(record(100.0, 1.0), new, BOUNDS, "BENCH_old.json")
    out = capsys.readouterr().out.splitlines()
    return {name: line for line in out for name in ("ops_per_s", "wall_s")
            if f" {name} " in line}


def test_diff_flags_losses_beyond_the_bound(capsys):
    lines = diff_lines(capsys, record(70.0, 1.3))
    assert "-30.0%" in lines["ops_per_s"] and "WORSE" in lines["ops_per_s"]
    assert "+30.0%" in lines["wall_s"] and "WORSE" in lines["wall_s"]


@pytest.mark.parametrize("ops, wall", [(130.0, 0.7), (90.0, 1.1)])
def test_diff_does_not_flag_gains_or_small_losses(capsys, ops, wall):
    lines = diff_lines(capsys, record(ops, wall))
    assert set(lines) == {"ops_per_s", "wall_s"}
    assert not any("WORSE" in line for line in lines.values())


_pspec = importlib.util.spec_from_file_location(
    "bench_pair", ROOT / "benchmarks" / "bench_pair.py")
bp = importlib.util.module_from_spec(_pspec)
_pspec.loader.exec_module(bp)


def line(wall, ops, failed=0):
    return {"attempted": 10, "failed": failed, "metrics": {
        "wall_s": {"value": wall}, "ops_per_s": {"value": ops}}}


WALL_AND_OPS = [m for m in END_TO_END if m["name"] in ("wall_s", "ops_per_s")]


def test_pair_summary_ratios_wins_and_failures():
    pairs = [{"parent": line(1.0, 100.0), "change": line(0.5, 200.0)},
             {"parent": line(2.0, 100.0), "change": line(1.0, 50.0, 1)},
             {"parent": line(1.0, 100.0), "change": line(0.25, 300.0)},
             {"parent": line(1.0, 100.0), "change": line(1.5, 100.0)},
             {"parent": line(4.0, 100.0), "change": line(3.0, 150.0)}]
    s = bp.pair_summary(pairs, WALL_AND_OPS)
    assert s["pairs"] == 5
    assert s["failed"] == {"parent": 0, "change": 1}
    assert s["attempted"] == {"parent": 50, "change": 50}
    assert s["failed_share_higher"]
    # wall ratios 0.5, 0.5, 0.25, 1.5, 0.75: lower won in 4, ties lose
    wall = s["metrics"]["wall_s"]
    assert wall["ratio"] == {"median": 0.5, "q1": 0.5, "q3": 0.75, "n": 5}
    assert wall["ratio_iqr"] == 0.25 and wall["won"] == 4
    assert wall["parent"]["median"] == 1.0 and wall["change"]["median"] == 1.0
    # ops ratios 2, 0.5, 3, 1, 1.5: higher won in 3, the tie at 1 is no win
    ops = s["metrics"]["ops_per_s"]
    assert ops["ratio"]["median"] == 1.5 and ops["won"] == 3
    assert ops["better"] == "higher"
    # the parent's wall times 1, 1, 1, 2, 4 have an IQR of 1, over the
    # bound; the ops gain of 1.5 won only 3 pairs
    assert wall["verdict"] == "unresolved"
    assert ops["verdict"] == "within bound"


def test_pair_summary_verdicts_gain_and_worse():
    # ops 150 against 100..109 (IQR 4.5) in 9 pairs of 10; wall times
    # doubled against a bound of 24%
    pairs = [{"parent": line(1.0 + 0.01 * i, 100.0 + i),
              "change": line(2.0, 150.0 if i else 50.0)} for i in range(10)]
    s = bp.pair_summary(pairs, WALL_AND_OPS)
    assert s["metrics"]["ops_per_s"]["verdict"] == "gain"
    assert s["metrics"]["wall_s"]["verdict"] == "worse"
    assert not s["failed_share_higher"]
    # 8 wins of 10 is no gain, however large the median gap
    pairs[1]["change"] = line(2.0, 50.0)
    s = bp.pair_summary(pairs, WALL_AND_OPS)
    assert s["metrics"]["ops_per_s"]["verdict"] == "within bound"
