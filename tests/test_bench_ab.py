"""tools/bench_ab.py on canned bench/run.py output: no benchmark runs here."""

import argparse
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
RSS = next(m for m in END_TO_END if m["name"] == "peak_rss_mb")           # lower is better
DRAWS = next(m for m in END_TO_END if m["name"] == "draws_per_s")         # higher is better
WALL = next(m for m in END_TO_END if m["name"] == "wall_s")               # lower is better


def canned(metrics: dict[str, float], failed: int = 0,
           unscaled: dict[str, float] | None = None) -> str:
    """stdout of one bench/run.py --trace 0 run, as it prints it."""
    unscaled = unscaled or {}
    lines = [f"curves     {name:<36} {value:>14.6g} u      n=5"
             + (f" unscaled={unscaled[name]:.6g}" if name in unscaled else "")
             for name, value in metrics.items()]
    lines.append(json.dumps({"correct": failed == 0, "attempted": 5, "failed": failed,
                             "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}))
    return "\n".join(lines) + "\n"


def rss_pairs(parent, change):
    return [({"peak_rss_mb": p}, {"peak_rss_mb": c}) for p, c in zip(parent, change)]


def test_parse_run_reads_the_last_json_line():
    metrics = {m["name"]: float(i) for i, m in enumerate(END_TO_END)}
    assert bench_ab.parse_run(0, canned(metrics)) == {**metrics, "unscaled": {}}
    raw = {name: value / 2 for name, value in metrics.items()}
    assert bench_ab.parse_run(0, canned(metrics, unscaled=raw)) == {**metrics, "unscaled": raw}
    assert bench_ab.parse_run(1, canned(metrics)) is None
    assert bench_ab.parse_run(0, canned(metrics, failed=1)) is None
    assert bench_ab.parse_run(0, canned(metrics) + "Traceback (most recent call last):\n") is None
    assert bench_ab.parse_run(0, "") is None


def test_gain_needs_nine_of_ten_pairs_and_a_gap_wider_than_the_parent_iqr():
    parent = [49.0, 49.1, 49.2, 49.2, 49.3, 49.4, 49.5, 49.6, 49.8, 50.6]
    change = [47.0, 47.1, 47.1, 47.2, 47.2, 47.3, 47.0, 47.1, 47.3, 47.2]
    [row] = bench_ab.compare(rss_pairs(parent, change), [RSS])
    assert (row["won"], row["pairs"], row["verdict"]) == (10, 10, "gain")
    assert row["parent_q"][1] == pytest.approx(49.35)
    assert row["ratio"] == pytest.approx(row["change_q"][1] / 49.35)
    # Two lost pairs: 8 of 10 is short of nine tenths.
    [row] = bench_ab.compare(rss_pairs(parent, change[:8] + [51.0, 51.0]), [RSS])
    assert (row["won"], row["verdict"]) == (8, "within bound")
    # Won every pair, but by less than the parent's interquartile range.
    [row] = bench_ab.compare(rss_pairs(parent, [p - 0.05 for p in parent]), [RSS])
    assert (row["won"], row["verdict"]) == (10, "within bound")


def test_direction_comes_from_the_spec():
    pairs = [({"draws_per_s": 100.0 + i}, {"draws_per_s": 200.0 + i}) for i in range(10)]
    [row] = bench_ab.compare(pairs, [DRAWS])
    assert (row["won"], row["verdict"]) == (10, "gain")
    [row] = bench_ab.compare([(c, p) for p, c in pairs], [DRAWS])
    assert (row["won"], row["verdict"]) == (0, "worse")


def test_worse_beyond_the_bound_and_unresolved_within_a_wide_spread():
    parent = [10.0] * 10
    [row] = bench_ab.compare(rss_pairs(parent, [11.5] * 10), [RSS])  # bound 0.1
    assert row["verdict"] == "worse"
    [row] = bench_ab.compare(rss_pairs(parent, [10.5] * 10), [RSS])
    assert row["verdict"] == "within bound"
    # The parent's own runs spread by more than the bound: no verdict either way ...
    wide = [8.0, 9.0, 10.0, 11.0, 12.0] * 2
    [row] = bench_ab.compare(rss_pairs(wide, [10.2] * 10), [RSS])
    assert row["verdict"] == "unresolved"
    # ... unless every change run beats every parent run.
    [row] = bench_ab.compare(rss_pairs(wide, [7.9] * 10), [RSS])
    assert row["verdict"] == "gain"


def test_pairs_alternate_sides_and_a_failed_run_is_listed_never_pooled(capsys):
    calls = []
    runs = {("parent", s): bench_ab.parse_run(0, canned({"peak_rss_mb": 49.0 + s / 10}))
            for s in range(1, 11)}
    runs.update({("change", s): bench_ab.parse_run(0, canned({"peak_rss_mb": 47.0}))
                 for s in range(1, 11)})
    # One change run crashes after its metric lines; another reports a failed operation.
    runs["change", 4] = bench_ab.parse_run(1, canned({"peak_rss_mb": 1.0}))
    runs["change", 7] = bench_ab.parse_run(0, canned({"peak_rss_mb": 1.0}, failed=2))

    def run(side, seed):
        calls.append((side, seed))
        values = runs[side, seed]
        return values, "ok" if values else "FAILED"

    pairs, failed = bench_ab.run_pairs(run, 10, 1)
    assert calls[:6] == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                         ("parent", 3), ("change", 3)]
    assert sorted(calls) == sorted(runs)
    assert failed == ["pair 4 seed 4 change: FAILED", "pair 7 seed 7 change: FAILED"]
    assert "pair 4 seed 4 change: FAILED" in capsys.readouterr().out
    [row] = bench_ab.compare(pairs, [RSS])
    assert row["change"] == [47.0] * 8 and len(row["parent"]) == 10
    # Both failed pairs count as run and lost: 8 of 10 is no gain.
    assert (row["won"], row["pairs"], row["verdict"]) == (8, 10, "within bound")
    table = bench_ab.format_table([row])
    assert "peak_rss_mb" in table and " 8/10 " in table


def test_no_clean_run_on_a_side_gives_no_statistic():
    [row] = bench_ab.compare([({"peak_rss_mb": 49.0}, None)], [RSS])
    assert row["verdict"] == "no clean runs" and "ratio" not in row
    assert "no clean runs" in bench_ab.format_table([row])


def test_unscaled_ratio_is_shown_but_never_judged():
    # Scaled wall_s reads 3% worse while the raw time reads 5% better: the change
    # sped up the reference kernel as well. The verdict reads the scaled values.
    parent = canned({"wall_s": 0.0534, "peak_rss_mb": 43.67}, unscaled={"wall_s": 0.0480})
    change = canned({"wall_s": 0.0550, "peak_rss_mb": 46.46}, unscaled={"wall_s": 0.0456})
    pairs = [(bench_ab.parse_run(0, parent), bench_ab.parse_run(0, change))] * 6
    wall, rss = bench_ab.compare(pairs, [WALL, RSS])
    assert wall["ratio"] == pytest.approx(0.0550 / 0.0534)
    assert wall["unscaled_ratio"] == pytest.approx(0.0456 / 0.0480)
    assert (wall["won"], wall["verdict"]) == (0, "within bound")
    assert "unscaled_ratio" not in rss
    table = bench_ab.format_table([wall, rss]).splitlines()
    assert " 1.0300   0.9500   0/6 " in table[1]
    assert " 1.0639        -   0/6 " in table[2]


def test_json_record_holds_the_rows_both_commits_and_numpy_version():
    parent = canned({"wall_s": 0.0541, "peak_rss_mb": 43.1}, unscaled={"wall_s": 0.0500})
    change = canned({"wall_s": 0.0298, "peak_rss_mb": 43.4}, unscaled={"wall_s": 0.0290})
    pairs = [(bench_ab.parse_run(0, parent), bench_ab.parse_run(0, change))] * 10
    rows = bench_ab.compare(pairs, [WALL, RSS])
    args = argparse.Namespace(workload="tables", pairs=10, seconds=25, seed=1, holdout=False)
    doc = json.loads(json.dumps(bench_ab.record(rows, args, "a" * 40, "b" * 40, True)))
    assert (doc["parent_sha"], doc["change_sha"], doc["change_dirty"]) == ("a" * 40, "b" * 40,
                                                                           True)
    assert doc["numpy"] == np.__version__
    assert (doc["workload"], doc["pairs"], doc["seconds"], doc["seed"]) == ("tables", 10, 25, 1)
    wall, rss = doc["metrics"]
    assert (wall["name"], wall["verdict"], wall["won"]) == ("wall_s", "gain", 10)
    assert wall["ratio"] == pytest.approx(0.0298 / 0.0541)
    assert wall["unscaled_ratio"] == pytest.approx(0.0290 / 0.0500)
    assert wall["parent_q"] == [0.0541] * 3 and wall["change"] == [0.0298] * 10
    assert rss["verdict"] == "within bound"
