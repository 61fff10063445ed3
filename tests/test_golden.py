"""CLI output must stay byte-identical to CSVs recorded from the scalar engine.

The files under golden/ were written by the per-replication numpy
Generator engine, before the batched engine replaced it. Any change to a
stream, a kernel's arithmetic or the CSV formatting shows up here.
"""

from pathlib import Path

import pytest

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
}


@pytest.mark.parametrize("name", RUNS)
def test_output_matches_golden(tmp_path, name):
    argv, files = RUNS[name]
    out = tmp_path / name
    assert main(argv + ["--full-precision", "--out", str(out)]) == 0
    for filename in files:
        written = tmp_path / filename if len(files) > 1 else out
        assert written.read_bytes() == (GOLDEN / filename).read_bytes(), filename
