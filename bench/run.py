"""Footrule benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the root of a source tree (the package is imported from
``src/``). The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
every metric by name with its unit and sample count. `--trace 0`
reports the end-to-end metrics and `--trace 1` the per-layer ones. A
run record with provenance goes to ``bench/results/``.

    python3 bench/run.py --record-digests   # re-record digests.json

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import workloads

BENCH_DIR = workloads.BENCH_DIR
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / ".work"

# Half of the set-up samples are taken before the workload child and half
# after it, so that their median spans the run rather than two seconds of
# it: on a shared host the speed of a fresh interpreter shifts between
# levels that last seconds. Each set-up interpreter then times the
# reference kernel, which scales its sample (see calibrate.py).
SETUP_SAMPLES = 12
SETUP_SNIPPET = """\
import os, sys, time
# Pinned as calibrate.pin_to_one_cpu does, before numpy is imported.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
start = time.perf_counter()
import footrule.cli
footrule.cli.build_parser()
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import calibrate
print(footrule.cli.__file__)
print(repr(elapsed))
print(repr(calibrate.kernel_seconds()))
"""

# Rough untraced seconds per workload run on a 2-vCPU Xeon VM; sizes the
# fixed plan of a traced run (untraced and traced) to about --seconds.
NOMINAL_RUN_S = {"tables": 0.4, "curves": 0.5, "stat_exact": 1.5}
# stat_exact reports p90, which needs at least 10 requests beyond it.
MIN_REQUESTS = {"stat_exact": 100}
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _check_package(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"footrule imported from {path}, not from {SRC}")


def measure_setup(env, count: int) -> list[tuple[float, float]]:
    """Cold-interpreter `import footrule.cli` plus `build_parser()`, in seconds.

    Each sample is (set-up time, reference kernel time in that interpreter).
    """
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(BENCH_DIR)], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"cannot import footrule.cli: {proc.stderr.strip()}")
        path, elapsed, reference = proc.stdout.split()
        _check_package(path)
        samples.append((float(elapsed), float(reference)))
    return samples


def run_child(spec: dict, env, deadline: float) -> dict:
    spec_path = Path(spec["workdir"]) / f"spec-{spec['tag']}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child",
                               str(spec_path)], env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{spec['tag']} run exceeded its time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{spec['tag']} run exited with code {proc.returncode}")
    return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))


def child_main(spec_path: str) -> int:
    """One workload in this process: the numbers its parent reports."""
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if workloads.threads(spec["workload"]) == 1:
        calibrate.pin_to_one_cpu()
    import numpy
    import footrule.cli as cli
    _check_package(cli.__file__)
    workdir = Path(spec["workdir"])
    expected = workloads.load_digests()[spec["pool"]][spec["workload"]]
    plan = workloads.iterations(spec["workload"], spec["seed"], workdir, spec["pool"])
    if spec["runs"] is not None:
        plan = itertools.islice(plan, spec["runs"])
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        runs = workloads.run_iterations(
            cli, plan, workdir, expected, seconds=spec["seconds"],
            min_requests=MIN_REQUESTS.get(spec["workload"], 0), tracer=tracer,
            reference=calibrate.kernel_seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, runs, range(1, len(runs)))
        tracer.save(spec["spans"])
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def speed_scale(reference_s: float) -> float:
    """Factor that brings a timing taken next to `reference_s` to the reference host."""
    return calibrate.REFERENCE_S / reference_s


def segment_scales(run: dict, scaled: bool) -> list[float]:
    """Scale factor of each segment of a run (1 for all when not `scaled`)."""
    return [speed_scale((before + after) / 2) if scaled else 1.0
            for _, before, after in run["segments"]]


def scaled_wall(run: dict, scaled: bool = True) -> float:
    return sum(seconds * scale for (seconds, _, _), scale
               in zip(run["segments"], segment_scales(run, scaled)))


def end_to_end(child: dict, setup: list[tuple[float, float]],
               scaled: bool = True) -> tuple[dict, dict]:
    """End-to-end metrics and their sample counts from an untraced run.

    With `scaled`, every timing is brought to the reference host by the
    kernel times taken around it; without, the raw timings are used.
    """
    measured = child["runs"][1:]
    walls = [scaled_wall(run, scaled) for run in measured]
    latencies = []
    for run in measured:
        scales = segment_scales(run, scaled)
        latencies += [op["latency_s"] * 1e3 * scales[op["segment"]] for op in run["ops"]]
    metrics = {
        "wall_s": statistics.median(walls),
        "draws_per_s": statistics.median(
            sum(op["draws"] for op in run["ops"]) / wall for run, wall in zip(measured, walls)),
        "req_p50_ms": statistics.median(latencies),
        "req_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "req_per_s": len(latencies) / sum(walls),
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_s": statistics.median(
            elapsed * (speed_scale(reference) if scaled else 1.0)
            for elapsed, reference in setup),
    }
    samples = {"wall_s": len(walls), "draws_per_s": len(walls),
               "req_p50_ms": len(latencies), "req_p90_ms": len(latencies),
               "req_per_s": len(latencies), "peak_rss_mb": 1, "setup_s": len(setup)}
    return metrics, samples


def per_layer(plain: dict, traced: dict) -> tuple[dict, dict]:
    walls = [statistics.median(scaled_wall(run) for run in child["runs"][1:])
             for child in (plain, traced)]
    values = dict(traced["layers"], trace_overhead=walls[1] / walls[0] - 1.0)
    k = len(traced["runs"]) - 1
    return values, {name: k for name in values}


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "footrule").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, children: dict[str, dict]) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": next(iter(children.values()))["numpy"],
        "workload": args.workload,
        "seed": args.seed,
        "pool": "holdout" if args.holdout else "main",
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": workloads.threads(args.workload),
        "reference_kernel_s": calibrate.REFERENCE_S,
        "children": {tag: {"peak_rss_mb": child["peak_rss_mb"], "runs": [
            {"wall_s": run["wall_s"], "segments": run["segments"],
             "warm_up": i == 0, "ops": [
                {"argv": op["argv"], "latency_s": op["latency_s"], "exit": op["exit"],
                 "ok": op["ok"], "segment": op["segment"]} for op in run["ops"]]} for i, run in enumerate(child["runs"])]}
            for tag, child in children.items()},
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parent_main(args) -> int:
    if not (SRC / "footrule" / "cli.py").is_file():
        raise BenchError(f"no footrule package under {SRC}")
    units = declared_units(args.trace)
    if not workloads.DIGESTS_PATH.is_file():
        raise BenchError(f"missing {workloads.DIGESTS_PATH}")
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    env = _env()
    setup = [] if args.trace else measure_setup(env, SETUP_SAMPLES // 2)
    pool = "holdout" if args.holdout else "main"
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    label = f"{args.workload}-seed{args.seed}{'-holdout' if args.holdout else ''}"
    spec = {"workload": args.workload, "seed": args.seed, "pool": pool,
            "workdir": str(workdir), "trace": False, "runs": None,
            "seconds": float(args.seconds), "spans": None}
    try:
        workloads.prepare_inputs(args.workload, workdir, pool)
        if args.trace:
            runs = 1 + max(2, int(args.seconds / (2.5 * NOMINAL_RUN_S[args.workload])))
            spec.update(runs=runs, seconds=None)
            plain = run_child(dict(spec, tag="untraced", out=str(workdir / "untraced.json")),
                              env, deadline)
            traced = run_child(dict(spec, tag="traced", trace=True,
                                    out=str(workdir / "traced.json"),
                                    spans=str(RESULTS / f"{label}-spans.npz")),
                               env, deadline)
            children = {"untraced": plain, "traced": traced}
            metrics, samples = per_layer(plain, traced)
        else:
            child = run_child(dict(spec, tag="timed", out=str(workdir / "timed.json")),
                              env, deadline)
            setup += measure_setup(env, SETUP_SAMPLES - len(setup))
            children = {"timed": child}
            metrics, samples = end_to_end(child, setup)
            unscaled, _ = end_to_end(child, setup, scaled=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match {SPEC.name}")
    metrics = {name: metrics[name] for name in units}
    ops = [op for child in children.values() for run in child["runs"] for op in run["ops"]]
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    record = provenance(args, children)
    record.update(attempted=attempted, failed=failed, setup_s_samples=setup,
                  metrics={k: {"value": v, "unit": units[k], "samples": samples[k]}
                           for k, v in metrics.items()})
    if not args.trace:
        record["unscaled_metrics"] = unscaled
    (RESULTS / f"{label}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for name, value in metrics.items():
        raw = f" unscaled={unscaled[name]:.6g}" if not args.trace else ""
        print(f"{args.workload:<10} {name:<36} {value:>14.6g} {units[name]:<6} "
              f"n={samples[name]}{raw}")
    print(f"{args.workload:<10} {'fail_ratio':<36} {failed / attempted:>14.6g} 1      "
          f"n={attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def record_main() -> int:
    sys.path.insert(0, str(SRC))
    import footrule.cli as cli
    _check_package(cli.__file__)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=WORK))
    try:
        table = workloads.record_digests(cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    print(f"recorded {sum(len(w) for p in table.values() for w in p.values())} digests")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help="use the holdout input pool instead of the main one")
    parser.add_argument("--record-digests", action="store_true",
                        help="re-record digests.json from the current source tree")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.child:
            return child_main(args.child)
        if args.record_digests:
            return record_main()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds < 1:
            parser.error("--seconds must be at least 1")
        return parent_main(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
