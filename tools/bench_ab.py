"""A/B benchmark: the working tree against a parent commit, in alternating pairs.

    python3 tools/bench_ab.py PARENT --workload curves --pairs 10 [--seconds S] [--seed N] [--holdout]
                              [--json PATH]

PARENT's committed files are extracted with `git archive` into a temporary
directory. Pair i runs `bench/run.py --trace 0 --seed N+i` once there and
once in the working tree, each from its own tree's bench/, and pairs
alternate which side goes first. `--seconds` defaults to BENCHMARK.json's
`run_seconds`. Each run's last stdout line is its JSON result. A run that
exits non-zero or reports `failed > 0` is listed and left out of every
statistic; the pair it belongs to counts as run but not won.

For each end-to-end metric of BENCHMARK.json the table gives each side's
median and quartiles, the change/parent ratio of the medians, the pairs
the change won (ties count for neither side) and a verdict:
- `gain`: the change won at least 9/10 of the pairs run, and its median is
  better than the parent's by more than the parent's interquartile range;
- `worse`: the change's median is worse than the parent's by more than the
  metric's bound;
- `unresolved`: the parent's interquartile range, relative to its median,
  is wider than the bound, and not every change run beats every parent run;
- `within bound` otherwise.

The verdicts read the values bench/run.py reports, which it scales by a
reference kernel timed in the workload's own process. The `unscaled`
column is the change/parent ratio of the medians of the raw values, read
from the `unscaled=` that ends each metric line. Where the two ratios
disagree, the change also moved the reference kernel's speed, as a change
to the process's heap can.

`--json PATH` also writes the table's rows to PATH, with the run's
settings, the parent's commit, the working tree's HEAD commit and whether
the tree held uncommitted changes, and numpy's version.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
# bench/run.py stops its own child after 170 s; this only ends a run that hangs.
RUN_TIMEOUT_S = 900
# A metric line of bench/run.py --trace 0: workload, name, value, unit, n=..., unscaled=...
UNSCALED = re.compile(r"^\S+\s+(\S+)\s.*\sunscaled=(\S+)$", re.MULTILINE)


def parse_run(returncode: int, stdout: str) -> dict | None:
    """Metric name -> value of one clean run; None for a failed one.

    The values are the scaled ones of the last line's JSON object; the
    key "unscaled" holds metric name -> the value of each metric line's
    `unscaled=`. A run is failed if it exits non-zero, its last line is
    not a JSON object with metrics, or it reports a failed operation.
    """
    lines = stdout.strip().splitlines()
    if returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
        if result["failed"] != 0:
            return None
        values = {name: float(m["value"]) for name, m in result["metrics"].items()}
        values["unscaled"] = {name: float(raw) for name, raw in UNSCALED.findall(stdout)}
    except (ValueError, TypeError, KeyError):
        return None
    return values


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(pairs: list[tuple[dict | None, dict | None]], metrics: list[dict]) -> list[dict]:
    """One summary per end-to-end metric of (parent, change) run pairs.

    `metrics` are BENCHMARK.json's `end_to_end` entries (name, unit,
    better, bound). A failed run is None; a pair with one counts as run
    but won by neither side. A run without an unscaled value of a metric
    is left out of that metric's unscaled ratio.
    """
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        parent = [p[name] for p, _ in pairs if p is not None]
        change = [c[name] for _, c in pairs if c is not None]
        won = sum(p is not None and c is not None and sign * (c[name] - p[name]) > 0
                  for p, c in pairs)
        row = {"name": name, "unit": metric["unit"], "pairs": len(pairs), "won": won,
               "parent": parent, "change": change, "verdict": "no clean runs"}
        rows.append(row)
        if not parent or not change:
            continue
        p_q1, p_med, p_q3 = row["parent_q"] = _quartiles(parent)
        row["change_q"] = _quartiles(change)
        c_med = row["change_q"][1]
        row["ratio"] = c_med / p_med if p_med else float("nan")
        raw = [[run["unscaled"][name] for run in side
                if run is not None and name in run.get("unscaled", {})] for side in zip(*pairs)]
        if all(raw):
            p_raw, c_raw = (statistics.median(values) for values in raw)
            row["unscaled_ratio"] = c_raw / p_raw if p_raw else float("nan")
        gain = sign * (c_med - p_med)
        # Relative to the parent's median, as BENCHMARK.json's bounds are.
        spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
        if 10 * won >= 9 * len(pairs) and gain > p_q3 - p_q1:
            row["verdict"] = "gain"
        elif -gain > metric["bound"] * abs(p_med):
            row["verdict"] = "worse"
        elif spread > metric["bound"] and not (
                min(sign * c for c in change) > max(sign * p for p in parent)):
            row["verdict"] = "unresolved"
        else:
            row["verdict"] = "within bound"
    return rows


def format_table(rows: list[dict]) -> str:
    out = [f"{'metric':<12} {'unit':<5} {'parent median [q1, q3]':>32} "
           f"{'change median [q1, q3]':>32} {'change/parent':>13} {'unscaled':>8} "
           f"{'won':>7}  verdict"]
    for row in rows:
        if "ratio" not in row:
            out.append(f"{row['name']:<12} {row['unit']:<5} {row['verdict']}")
            continue
        cells = [f"{m:.6g} [{lo:.6g}, {hi:.6g}]" for lo, m, hi in (row["parent_q"],
                                                                   row["change_q"])]
        raw = f"{row['unscaled_ratio']:.4f}" if "unscaled_ratio" in row else "-"
        out.append(f"{row['name']:<12} {row['unit']:<5} {cells[0]:>32} {cells[1]:>32} "
                   f"{row['ratio']:>13.4f} {raw:>8} {row['won']:>3}/{row['pairs']:<3}  "
                   f"{row['verdict']}")
    return "\n".join(out)


def record(rows: list[dict], args, parent_sha: str, change_sha: str, dirty: bool) -> dict:
    """The --json document: the settings, both commits, numpy's version and `rows`."""
    return {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
            "seed": args.seed, "holdout": args.holdout, "parent_sha": parent_sha,
            "change_sha": change_sha, "change_dirty": dirty,
            "numpy": importlib.metadata.version("numpy"), "metrics": rows}


def _git(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True)


def _run(tree: Path, args, seed: int) -> tuple[dict | None, str]:
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            *(["--holdout"] if args.holdout else [])]
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {RUN_TIMEOUT_S} s"
    values = parse_run(proc.returncode, proc.stdout)
    if values is None:
        tail = (proc.stderr.strip().splitlines() or proc.stdout.strip().splitlines() or [""])
        return None, f"FAILED (exit {proc.returncode}): {tail[-1]}"
    return values, " ".join(f"{k}={v:.6g}" for k, v in values.items() if k != "unscaled")


def run_pairs(run, pairs: int, seed: int) -> tuple[list[tuple], list[str]]:
    """(parent, change) results of `pairs` pairs, and a line per failed run.

    Pair i runs at seed + i, the parent first when i is even and the
    change first when it is odd. `run(side, seed)` returns a run's
    metrics, None if it failed, and a note that is printed.
    """
    results, failed = [], []
    for i in range(pairs):
        result = {}
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result[side], note = run(side, seed + i)
            line = f"pair {i + 1} seed {seed + i} {side}: {note}"
            print(line, flush=True)
            if result[side] is None:
                failed.append(line)
        results.append((result["parent"], result["change"]))
    return results, failed


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the commit to compare the working tree against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--holdout", action="store_true",
                        help="run bench/run.py on its holdout input pool")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the result rows, both commits and numpy's version")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    rev = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    if rev.returncode != 0:
        parser.error(f"not a commit: {args.parent}")
    sha = rev.stdout.strip()
    head = _git("rev-parse", "HEAD").stdout.strip()
    dirty = bool(_git("status", "--porcelain").stdout.strip())
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             capture_output=True, check=True).stdout
    print(f"parent {sha}; workload {args.workload}, {args.pairs} pairs of {args.seconds} s, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}"
          f"{', holdout pool' if args.holdout else ''}", flush=True)
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"parent": Path(tmp), "change": ROOT}
        pairs, failed = run_pairs(lambda side, seed: _run(trees[side], args, seed),
                                  args.pairs, args.seed)
    rows = compare(pairs, spec["end_to_end"])
    print(format_table(rows))
    for line in failed:
        print(f"not pooled: {line}")
    if args.json:
        args.json.write_text(json.dumps(record(rows, args, sha, head, dirty), indent=1) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
