"""CLI output must stay byte-identical to CSVs recorded from the scalar engine.

The files under golden/ were written by the per-replication numpy
Generator engine, before the batched engine replaced it. Any change to a
stream, a kernel's arithmetic or the CSV formatting shows up here.
The default 5-place output is checked against the same files: every
float cell is written in shortest round-trip form, so reading it back and
formatting it to 5 places gives exactly the bytes a run without
--full-precision must write.
"""

from pathlib import Path

import pytest

from footrule import simulate
from footrule.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    "moments": (["simulate", "moments", "--reps", "50"], ["moments.csv"]),
    "kstest": (["simulate", "kstest", "--reps", "50"], ["kstest.csv"]),
    "curves": (
        ["simulate", "curves", "--reps", "200", "--n-list", "10,30", "--grid-size", "64"],
        ["curves_density.csv", "curves_cdf.csv"],
    ),
    "exact8": (["exact", "8"], ["exact8.csv"]),
    # The --out report of stat on a seeded 30-row sample, with each p-value.
    "stat30_normal": (["stat", str(GOLDEN / "stat30.csv")], ["stat30_normal.csv"]),
    "stat30_exact": (["stat", str(GOLDEN / "stat30.csv"), "--exact"], ["stat30_exact.csv"]),
}


def run_study(tmp_path, name, *options):
    """{file name: bytes} of one run of RUNS[name] with `options`, written in tmp_path."""
    argv, files = RUNS[name]
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / name
    assert main(argv + [*options, "--out", str(out)]) == 0
    return {f: (tmp_path / f if len(files) > 1 else out).read_bytes() for f in files}


def check_golden(tmp_path, name):
    for filename, written in run_study(tmp_path, name, "--full-precision").items():
        assert written == (GOLDEN / filename).read_bytes(), filename


@pytest.mark.parametrize("name", RUNS)
def test_output_matches_golden(tmp_path, name):
    check_golden(tmp_path, name)


def test_studies_on_one_seed_share_pools(tmp_path):
    # The three studies back to back, pools kept: kstest reads the 50-replication
    # pools moments drew, and curves draws n = 10 and n = 30 again at 200 replications.
    check_golden(tmp_path, "moments")
    drawn = dict(simulate._POOLS)
    check_golden(tmp_path, "kstest")
    assert simulate._POOLS == drawn  # the same pool objects: kstest drew nothing
    pooled = run_study(tmp_path / "pooled", "curves", "--full-precision")
    reps = {n: pool.values.shape[1] for (_, n), pool in simulate._POOLS.items()}
    assert reps == {n: 200 if n in (10, 30) else 50 for n in range(10, 101, 10)}
    assert pooled["curves_cdf.csv"] == (GOLDEN / "curves_cdf.csv").read_bytes()
    # The density's last bits follow the exp kernel numpy picks for this CPU, so it is
    # held to a cold run here; test_output_matches_golden[curves] holds that to its golden.
    simulate._POOLS.clear()
    cold = run_study(tmp_path / "cold", "curves", "--full-precision")
    assert pooled["curves_density.csv"] == cold["curves_density.csv"]


# Columns that hold integers or labels; every other column holds floats.
EXACT_COLUMNS = {"statistic", "n", "combination", "d", "count", "distance", "method"}


def five_places(golden: str) -> str:
    """The golden CSV with every float cell rounded to 5 places."""
    header, *rows = golden.splitlines()
    keep = [name in EXACT_COLUMNS for name in header.split(",")]
    lines = [header]
    for row in rows:
        cells = row.split(",")
        lines.append(",".join(cell if exact else f"{float(cell):.5f}"
                              for cell, exact in zip(cells, keep, strict=True)))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("name", RUNS)
def test_default_precision_matches_rounded_golden(tmp_path, name):
    for filename, written in run_study(tmp_path, name).items():
        golden = (GOLDEN / filename).read_text(encoding="utf-8")
        assert written.decode("utf-8") == five_places(golden), filename
