"""Self-tests of the benchmark: digest check, traced runs, wrapper removal, speed scaling.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import itertools
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import footrule  # noqa: E402
import footrule.cli as cli  # noqa: E402
import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("simulate.streams", "simulate.tie_redraws", "stats.kde_evals",
          "ranks.exact_builds", "stats.normal_calls", "cli.bytes_out")


@pytest.fixture
def workdir():
    root = BENCH / ".work"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=root))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _expected(workload: str) -> dict:
    return workloads.load_digests()["main"][workload]


def _run(workload: str, workdir: Path, runs: int, tracer=None) -> list[dict]:
    workloads.prepare_inputs(workload, workdir, "main")
    plan = itertools.islice(workloads.iterations(workload, 7, workdir, "main"), runs)
    return workloads.run_iterations(cli, plan, workdir, _expected(workload),
                                    seconds=None, tracer=tracer)


def _bindings() -> dict[tuple[str, str], object]:
    """Every module-level and class-level name the tracer may rebind."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "footrule" or name.startswith("footrule."):
            for attr, value in vars(module).items():
                found[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("footrule"):
                    for member, obj in vars(value).items():
                        found[(f"{name}.{attr}", member)] = obj
    return found


@pytest.mark.parametrize("workload, key, output", [
    ("tables", "moments/0", "moments.csv"),
    ("stat_exact", "stat-exact-n9/0", "stdout"),
])
def test_flipped_byte_fails_the_check(workdir, workload, key, output):
    workloads.prepare_inputs(workload, workdir, "main")
    op = next(op for op in workloads.all_ops(workload, workdir, "main") if op.key == key)
    expected = _expected(workload)[key]
    _, code, outputs = workloads.run_op(cli, op, workdir)
    assert workloads.check(expected, op, code, outputs)

    copied = bytearray(outputs[output])
    copied[len(copied) // 2] ^= 0x01
    assert not workloads.check(expected, op, code, dict(outputs, **{output: bytes(copied)}))
    assert not workloads.check(expected, op, 1, outputs)
    missing = {k: v for k, v in outputs.items() if k != output}
    assert not workloads.check(expected, op, code, missing)


def test_tied_input_expects_exit_3(workdir):
    workloads.prepare_inputs("stat_exact", workdir, "main")
    op = next(op for op in workloads.all_ops("stat_exact", workdir, "main")
              if op.key == "stat-tied-n8/0")
    _, code, outputs = workloads.run_op(cli, op, workdir)
    assert code == op.expect_exit == 3
    assert workloads.check(_expected("stat_exact")[op.key], op, code, outputs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_repeat_and_unwind(workdir, workload):
    before = _bindings()
    layers = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            runs = _run(workload, workdir, 1, tracer)
        finally:
            tracer.uninstall()
        assert all(op["ok"] for run in runs for op in run["ops"])
        assert sum(tracing.self_times(tracer.rows(0)).values()) <= runs[0]["wall_s"]
        layers.append(tracing.layer_metrics(tracer, runs, range(len(runs))))

    assert {k: layers[0][k] for k in COUNTS} == {k: layers[1][k] for k in COUNTS}
    assert layers[0]["simulate.tie_redraws"] == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    untraced = _run(workload, workdir, 1)
    assert all(op["ok"] for run in untraced for op in run["ops"])


def test_segments_cover_the_run_and_scale_by_the_kernel(workdir):
    readings = iter([calibrate.REFERENCE_S, 2 * calibrate.REFERENCE_S] * 20)
    workloads.prepare_inputs("tables", workdir, "main")
    plan = itertools.islice(workloads.iterations("tables", 7, workdir, "main"), 2)
    runs = workloads.run_iterations(cli, plan, workdir, _expected("tables"), seconds=None,
                                    reference=lambda: next(readings))
    for ran in runs:
        assert all(op["ok"] for op in ran["ops"])
        assert ran["wall_s"] == sum(seconds for seconds, _, _ in ran["segments"])
        assert {op["segment"] for op in ran["ops"]} == set(range(len(ran["segments"])))
        # Each segment is bracketed by one reading of each kind: scale 2 / 3.
        assert run.scaled_wall(ran) == pytest.approx(ran["wall_s"] * 2 / 3)
        assert run.scaled_wall(ran, scaled=False) == ran["wall_s"]


def test_self_time_shares_parallel_spans():
    # (id, name, start, end, parent, run, thread, depth, attr); ns clock.
    s = 1_000_000_000
    spans = [
        (1, 0, 0, 10 * s, 0, 0, 1, 0, 0),        # study, main thread
        (2, 0, 2 * s, 8 * s, 1, 0, 2, 1, 0),     # pool task, worker A
        (3, 0, 2 * s, 6 * s, 1, 0, 3, 1, 0),     # pool task, worker B
        (4, 0, 3 * s, 5 * s, 2, 0, 2, 2, 0),     # kernel inside task A
    ]
    share = tracing.self_times(spans)
    assert share[1] == pytest.approx(4.0)        # only while no task runs
    assert share[4] == pytest.approx(1.0)        # 3..5 shared with task B
    assert share[3] == pytest.approx(0.5 + 1.0 + 0.5)
    assert share[2] == pytest.approx(0.5 + 0.5 + 2.0)
    assert sum(share.values()) == pytest.approx(10.0)


def test_tracer_wraps_every_layer_binding():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import footrule.simulate as simulate
        assert simulate.footrule_coefficient is footrule.ranks.footrule_coefficient
        assert simulate.footrule_coefficient.__wrapped__ is not None
        assert cli.enumerate_null_distribution.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(footrule.ranks.footrule_coefficient, "__wrapped__")
