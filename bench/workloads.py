"""Workload definitions, seeded inputs, the operation runner and golden digests.

An operation is one call of ``footrule.cli.main`` with its stdout and
stderr captured in-process. A workload run (an "iteration") is a fixed
list of operations. Every output an operation leaves (stdout, stderr,
each CSV file it writes) is hashed with SHA-256 and compared with the
digest recorded for that operation's input in ``digests.json``.

Inputs come from finite pools so that every input a seed can select has
a recorded digest. The ``main`` pool serves ordinary runs; the
``holdout`` pool holds other inputs of the same shape, recorded at the
same commit, for confirming a claim on inputs not looked at while the
change was written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"

WORKLOADS = ("tables", "curves", "stat_exact")
POOLS = {"main": 1, "holdout": 2}

DEFAULT_N_LIST = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
CURVE_N_LIST = (10, 20, 30, 100)
TABLE_REPS = 100
CURVE_REPS = 300
CURVE_GRID = 512
CURVE_THREADS = 2
STATISTICS = 3  # phi, phiprime, phidprime
MIN_MEASURED = 3
# Longest stretch of operations between two timings of the reference
# kernel (see calibrate.py); the host's speed changes within seconds.
REFERENCE_EVERY_S = 0.2

# Distinct inputs per pool: simulation seeds for tables and curves, CSV
# data sets per request kind for stat_exact.
VARIANTS = {"tables": 8, "curves": 6, "stat_exact": 6}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what a correct run of it produces."""

    key: str
    argv: tuple[str, ...]
    files: tuple[str, ...] = ()
    expect_exit: int = 0
    draws: int = 0


@dataclass(frozen=True)
class Request:
    """A stat_exact request kind: `stat` on a generated CSV, or an `exact` dump."""

    command: str
    n: int
    exact: bool = False
    tied: bool = False
    header: bool = False

    @property
    def has_csv(self) -> bool:
        return self.command == "stat"


REQUESTS = {
    "stat-exact-n4": Request("stat", 4, exact=True),
    "stat-exact-n5": Request("stat", 5, exact=True),
    "stat-exact-n6": Request("stat", 6, exact=True),
    "stat-exact-n7": Request("stat", 7, exact=True),
    "stat-exact-n8": Request("stat", 8, exact=True),
    "stat-exact-n9": Request("stat", 9, exact=True),
    "stat-exact-n10": Request("stat", 10, exact=True),
    "stat-tied-n8": Request("stat", 8, exact=True, tied=True),
    "stat-n1000": Request("stat", 1000),
    "stat-n10000": Request("stat", 10_000, header=True),
    "stat-tied-n10000": Request("stat", 10_000, tied=True),
    "stat-n100000": Request("stat", 100_000),
    "exact-8": Request("exact", 8),
    "exact-9": Request("exact", 9),
    "exact-10": Request("exact", 10),
}

# One stat_exact cycle. The composition is fixed so that every seed gives
# the same latency mix: 8 requests of a few ms, 8 of about 30 ms and 4 of
# about 0.3 s, which puts the median inside the middle group and p90
# inside the slow group rather than on a boundary between groups.
CYCLE = (
    "stat-exact-n4", "stat-exact-n5", "stat-exact-n6", "stat-exact-n7",
    "stat-exact-n8", "stat-tied-n8", "stat-n1000", "exact-8",
    *("stat-exact-n9",) * 5, "exact-9", "stat-n10000", "stat-tied-n10000",
    "stat-exact-n10", "stat-exact-n10", "stat-n100000", "exact-10",
)


def threads(workload: str) -> int:
    """Threads the workload's operations run on."""
    return CURVE_THREADS if workload == "curves" else 1


def sim_seed(pool: str, variant: int) -> int:
    return POOLS[pool] * 1000 + variant


def _simulate_common(pool: str, variant: int, reps: int, threads: int) -> list[str]:
    return ["--seed", str(sim_seed(pool, variant)), "--reps", str(reps),
            "--threads", str(threads), "--full-precision"]


def _table_ops(workdir: Path, pool: str, variant: int) -> list[Op]:
    common = _simulate_common(pool, variant, TABLE_REPS, 1)
    draws = STATISTICS * len(DEFAULT_N_LIST) * TABLE_REPS
    return [
        Op(f"moments/{variant}",
           ("simulate", "moments", *common, "--out", str(workdir / "moments.csv")),
           files=("moments.csv",), draws=draws),
        Op(f"kstest/{variant}",
           ("simulate", "kstest", *common, "--out", str(workdir / "kstest.csv")),
           files=("kstest.csv",), draws=draws),
    ]


def _curve_ops(workdir: Path, pool: str, variant: int) -> list[Op]:
    common = _simulate_common(pool, variant, CURVE_REPS, CURVE_THREADS)
    return [
        Op(f"curves/{variant}",
           ("simulate", "curves", *common,
            "--n-list", ",".join(map(str, CURVE_N_LIST)),
            "--grid-size", str(CURVE_GRID), "--out", str(workdir / "curves")),
           files=("curves_density.csv", "curves_cdf.csv"),
           draws=STATISTICS * len(CURVE_N_LIST) * CURVE_REPS),
    ]


def csv_name(name: str, variant: int) -> str:
    return f"{name}.{variant}.csv"


def _request_op(workdir: Path, name: str, variant: int) -> Op:
    req = REQUESTS[name]
    if not req.has_csv:
        return Op(name, ("exact", str(req.n), "--full-precision"))
    argv = ["stat", str(workdir / csv_name(name, variant)), "--full-precision"]
    if req.exact:
        argv.append("--exact")
    if req.header:
        argv.append("--header")
    return Op(f"{name}/{variant}", tuple(argv),
              expect_exit=3 if req.tied else 0, draws=0 if req.tied else 1)


def write_request_csv(path: Path, pool: str, name: str, variant: int) -> None:
    """Seeded two-column CSV of distinct reals; one tie if the request asks."""
    req = REQUESTS[name]
    rng = random.Random(f"{pool}/{name}/{variant}")
    xs = [rng.random() for _ in range(req.n)]
    ys = [0.3 * x + rng.gauss(0.0, 1.0) for x in xs]
    if req.tied:
        i, j = sorted(rng.sample(range(req.n), 2))
        xs[j] = xs[i]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if req.header:
            handle.write("x,y\n")
        handle.writelines(f"{x!r},{y!r}\n" for x, y in zip(xs, ys))


def prepare_inputs(workload: str, workdir: Path, pool: str) -> None:
    """Write every input file a run of the workload may select."""
    if workload != "stat_exact":
        return
    for name, req in REQUESTS.items():
        if req.has_csv:
            for variant in range(VARIANTS[workload]):
                write_request_csv(workdir / csv_name(name, variant), pool, name, variant)


def iterations(workload: str, seed: int, workdir: Path, pool: str):
    """Endless seeded sequence of workload runs, each a list of Ops."""
    rng = random.Random(f"{workload}/{seed}")
    variants = VARIANTS[workload]
    while True:
        if workload == "tables":
            yield _table_ops(workdir, pool, rng.randrange(variants))
        elif workload == "curves":
            yield _curve_ops(workdir, pool, rng.randrange(variants))
        else:
            order = list(CYCLE)
            rng.shuffle(order)
            yield [_request_op(workdir, name, rng.randrange(variants)) for name in order]


def all_ops(workload: str, workdir: Path, pool: str) -> list[Op]:
    """Every distinct operation the workload can run from this pool."""
    n = VARIANTS[workload]
    if workload == "tables":
        return [op for v in range(n) for op in _table_ops(workdir, pool, v)]
    if workload == "curves":
        return [op for v in range(n) for op in _curve_ops(workdir, pool, v)]
    ops = {}
    for name in REQUESTS:
        for v in range(n):
            op = _request_op(workdir, name, v)
            ops[op.key] = op
    return list(ops.values())


def run_op(cli, op: Op, workdir: Path) -> tuple[float, object, dict[str, bytes]]:
    """Run one operation through `cli.main`; return (seconds, exit code, outputs).

    Output files are read and removed, so a later operation cannot pass
    by finding an earlier one's file.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an unexpected crash is a failed operation
        code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    outputs = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
    for name in op.files:
        path = workdir / name
        if path.exists():
            outputs[name] = path.read_bytes()
            path.unlink()
    return elapsed, code, outputs


def digest(code, outputs: dict[str, bytes]) -> dict[str, object]:
    record: dict[str, object] = {"exit": code}
    for name in sorted(outputs):
        record[name] = hashlib.sha256(outputs[name]).hexdigest()
    return record


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check(expected: dict | None, op: Op, code, outputs: dict[str, bytes]) -> bool:
    """True when the exit code is the expected one and every byte matches."""
    return (expected is not None and code == op.expect_exit
            and set(outputs) == {"stdout", "stderr", *op.files}
            and digest(code, outputs) == expected)


def record_digests(cli, workdir: Path) -> dict:
    """Run every operation of every pool once and hash its outputs."""
    table: dict[str, dict[str, dict]] = {}
    for pool in POOLS:
        for workload in WORKLOADS:
            prepare_inputs(workload, workdir, pool)
            for op in all_ops(workload, workdir, pool):
                _, code, outputs = run_op(cli, op, workdir)
                if code != op.expect_exit:
                    raise RuntimeError(f"{pool} {op.key}: exit {code!r}, "
                                       f"expected {op.expect_exit}")
                table.setdefault(pool, {}).setdefault(workload, {})[op.key] = \
                    digest(code, outputs)
    return table


def run_iterations(cli, plan, workdir: Path, expected: dict, *, seconds: float | None,
                   min_requests: int = 0, tracer=None, reference=None) -> list[dict]:
    """Closed loop over workload runs; the first run is a warm-up.

    With `seconds`, runs continue until the measured runs (all but the
    first) have lasted that long, number at least MIN_MEASURED and hold
    at least `min_requests` operations. Without it, `plan` must be
    finite and every run in it is made.

    With `reference`, a callable that returns the host's current
    reference kernel time, each run is cut after an operation once
    REFERENCE_EVERY_S has passed, and at its end, and the kernel is
    timed at each cut. The run then lists its `segments` as
    [seconds, kernel time before, kernel time after], and each
    operation names its segment. Kernel time is not part of `wall_s`.
    """
    results: list[dict] = []
    measured_s = 0.0
    measured_ops = 0
    before = reference() if reference is not None else None
    for index in itertools.count():
        if seconds is not None and index > MIN_MEASURED and measured_s >= seconds \
                and measured_ops >= min_requests:
            break
        try:
            ops = next(plan)
        except StopIteration:
            break
        if tracer is not None:
            tracer.run_id = index
        segments = []
        records = []
        start = time.perf_counter()
        for position, op in enumerate(ops):
            latency, code, outputs = run_op(cli, op, workdir)
            records.append({
                "key": op.key,
                "argv": list(op.argv),
                "latency_s": latency,
                "exit": code if isinstance(code, int) else str(code),
                "ok": check(expected.get(op.key), op, code, outputs),
                "bytes_out": sum(len(v) for v in outputs.values()),
                "draws": op.draws if code == 0 else 0,
                "segment": len(segments),
            })
            elapsed = time.perf_counter() - start
            if position == len(ops) - 1 or \
                    (reference is not None and elapsed >= REFERENCE_EVERY_S):
                after = reference() if reference is not None else None
                segments.append([elapsed, before, after])
                before = after
                start = time.perf_counter()
        wall = sum(segment[0] for segment in segments)
        results.append({"wall_s": wall, "ops": records})
        if reference is not None:
            results[-1]["segments"] = segments
        if index > 0:
            measured_s += wall
            measured_ops += len(records)
    return results
