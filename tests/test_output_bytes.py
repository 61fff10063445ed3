"""Output bytes beyond the in-process goldens: with numpy's AVX-512 kernels off,
at paper size in fresh interpreters, and for every benchmark operation."""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from footrule import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PAPER_SIZE = ROOT / "tests" / "golden" / "paper_size.sha256"
PAPER_DIGESTS = {name: digest
                 for digest, name in map(str.split, PAPER_SIZE.read_text().splitlines())}

# Every output but the KDE density rests on IEEE arithmetic and libm only, so these
# goldens must hold whatever SIMD kernels numpy picks; so must the CPU-dispatched sorts
# (ranks, double-sum keys), the batched kernels, the Philox words and the KDE tiles. The
# density's last bits follow numpy's exp kernel, so its golden is deselected.
NO_AVX512 = "AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR X86_V4"
CPU_FREE_TESTS = [
    "tests/test_golden.py", "tests/test_ranks.py", "tests/test_representations.py",
    "tests/test_simulate.py::TestBatchedEngine::test_batched_kernels_equal_scalar_functions",
    "tests/test_simulate.py::TestBatchedEngine::test_streams_match_numpy_philox",
    "tests/test_simulate.py::TestUniformOpen",
    "tests/test_stats.py::TestGaussianKde::test_tiles_match_untiled_bits",
    "--deselect", "tests/test_golden.py::test_output_matches_golden[curves]",
]

# (output, argv...) at the default settings, one fresh interpreter per entry. The first
# study of each order is a cold draw; kstest after moments reads its 10^3 replications
# from moments' pools, and moments after kstest draws each n again. stat --exact on a
# seeded 100-row sample pins the exact p-value's tails at the largest n.
PAPER_RUNS = {
    "moments-then-kstest": [["paper_moments.csv", "simulate", "moments"],
                            ["paper_kstest.csv", "simulate", "kstest"]],
    "kstest-then-moments": [["paper_kstest.csv", "simulate", "kstest"],
                            ["paper_moments.csv", "simulate", "moments"]],
    "exact": [["paper_exact.csv", "exact", "100"]],
    "stat_exact": [["paper_stat_exact.csv", "stat", "stat100.csv", "--exact"]],
}
RUN_MAIN = """
import json, sys
from footrule.cli import main
for out, *argv in json.loads(sys.argv[1]):
    if main(argv + ["--full-precision", "--out", out]):
        sys.exit(f"footrule {' '.join(argv)} failed")
"""


def fresh_env(**extra):
    """The environment of a new interpreter that imports this source tree."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_goldens_without_avx512_kernels():
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *CPU_FREE_TESTS],
        cwd=ROOT, env=fresh_env(NPY_DISABLE_CPU_FEATURES=NO_AVX512),
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]


@pytest.mark.parametrize("runs", PAPER_RUNS.values(), ids=PAPER_RUNS)
def test_paper_size_bytes(tmp_path, runs):
    r = random.Random(100)
    (tmp_path / "stat100.csv").write_text(
        "".join(f"{r.random()!r},{r.random()!r}\n" for _ in range(100)))
    # A RuntimeWarning (say, a uint64 scalar overflowing in the Philox rounds) fails the run.
    run = subprocess.run([sys.executable, "-c", RUN_MAIN, json.dumps(runs)], cwd=tmp_path,
                         env=fresh_env(PYTHONWARNINGS="error::RuntimeWarning"),
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    for name, *_ in runs:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == PAPER_DIGESTS[name]


def test_bench_operations_match_their_digests(tmp_path, monkeypatch):
    # Each operation of both input pools, run once through cli.main, against its recorded
    # digest; curves_density.csv is left out, as its last bits follow numpy's exp kernel.
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)

    def ops(table):
        return {(pool, workload, op): {k: v for k, v in files.items()
                                       if k != "curves_density.csv"}
                for pool, entries in table.items()
                for workload, per_op in entries.items() for op, files in per_op.items()}

    assert ops(workloads.record_digests(cli, tmp_path)) == ops(workloads.load_digests())
