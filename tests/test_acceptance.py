"""End-to-end acceptance checks.

Each test prints one `[acceptance criterion N] PASS/FAIL` line (run
pytest with `-s` to see them live) and enforces the stated statistical
tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from footrule.cli import main
from footrule.common import Statistic
from footrule.moments import null_variance_exact
from footrule.ranks import enumerate_null_distribution
from footrule.representations import (
    UniformPairs,
    double_sum_representation,
    hajek_representation,
)
from footrule.simulate import (
    _draw_statistics,
    _stream_uniforms,
    _uniform_rows,
    run_ks_study,
    run_moment_study,
)
from footrule.stats import ks_one_sample, normal_cdf, summarize
from oracles import (
    COV_ABS_DIFF_SHARED,
    COV_ABS_DIFF_U_ONE_MINUS_U,
    E_ABS_DIFF,
    E_U_ONE_MINUS_U,
    VAR_ABS_DIFF,
    VAR_U_ONE_MINUS_U,
    cond_exp_abs_diff,
    phi_moments_exact,
)

SEED = 42
STATS = (Statistic.FOOTRULE, Statistic.DOUBLE_SUM, Statistic.HAJEK)


def report(criterion, passed, detail):
    print(f"\n[acceptance criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def draw_block(seed, n, statistic, replications, scaled=False):
    values, _ = _draw_statistics(seed, n, replications)[statistic]
    return values * math.sqrt(n) if scaled else values


def variance_estimator_se(values):
    # SE of the unbiased sample variance, via the fourth central moment
    n = len(values)
    dev = values - values.mean()
    m2 = float(np.mean(dev**2))
    m4 = float(np.mean(dev**4))
    return math.sqrt(max((m4 - (n - 3) / (n - 1) * m2 * m2) / n, 0.0))


def covariance_and_se(a, b):
    products = (a - a.mean()) * (b - b.mean())
    n = len(a)
    cov = float(products.sum()) / (n - 1)
    return cov, float(products.std(ddof=1)) / math.sqrt(n)


def test_criterion_1_exact_moment_oracle():
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for n in range(2, 41):
        mean, var = phi_moments_exact(enumerate_null_distribution(n))
        target = null_variance_exact(n, Statistic.FOOTRULE)
        gap = max(abs(float(mean)), abs(float(var - target)))
        worst = max(worst, gap)
        ok = ok and gap <= 1e-12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(1, ok, f"n=2..40 exact law vs closed form, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_table2_moments():
    start = time.perf_counter()
    reps = 10_000
    failures = []
    spot = {}
    for stat in STATS:
        for n in (10, 50, 100):
            values = draw_block(SEED, n, stat, reps)
            s = summarize(values, 0.0)
            var_f = float(null_variance_exact(n, stat))
            if abs(s.em) > 3.0 * math.sqrt(var_f / reps):
                failures.append(f"EM {stat.value} n={n}: {s.em:.5f}")
            if abs(s.ev - var_f) > 3.0 * variance_estimator_se(values):
                failures.append(f"EV {stat.value} n={n}: {s.ev:.5f} vs {var_f:.5f}")
            if n == 10:
                spot[stat] = s.ev
    if not 0.0435 <= spot[Statistic.FOOTRULE] <= 0.0495:
        failures.append(f"spot EV phi n=10: {spot[Statistic.FOOTRULE]:.5f}")
    if not 0.0352 <= spot[Statistic.DOUBLE_SUM] <= 0.0383:
        failures.append(f"spot EV phiprime n=10: {spot[Statistic.DOUBLE_SUM]:.5f}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(2, ok, f"EM/EV at n in {{10,50,100}}, spot EVs "
                  f"{spot[Statistic.FOOTRULE]:.5f}/{spot[Statistic.DOUBLE_SUM]:.5f}, "
                  f"{elapsed:.1f}s" + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_rmse_trend():
    start = time.perf_counter()
    sizes = tuple(range(10, 101, 10))
    rmse = {stat: [] for stat in STATS}
    for row in run_moment_study(seed=SEED, sample_sizes=sizes, replications=10_000):
        rmse[row.statistic].append(row.summary.rmse)
    decreasing = all(
        all(b < a for a, b in zip(series, series[1:])) for series in rmse.values()
    )
    worst_first = (
        rmse[Statistic.FOOTRULE][0] > rmse[Statistic.DOUBLE_SUM][0]
        and rmse[Statistic.FOOTRULE][0] > rmse[Statistic.HAJEK][0]
    )
    elapsed = time.perf_counter() - start
    ok = decreasing and worst_first and elapsed < 90.0
    report(3, ok, "RMSE strictly decreasing over n=10..100; at n=10 "
                  f"phi {rmse[Statistic.FOOTRULE][0]:.5f} > "
                  f"phiprime {rmse[Statistic.DOUBLE_SUM][0]:.5f}, "
                  f"phidprime {rmse[Statistic.HAJEK][0]:.5f}; {elapsed:.1f}s")


def test_criterion_4_ks_table3():
    start = time.perf_counter()
    at10 = {row.combination: row.outcome.p_value
            for row in run_ks_study(seed=SEED, sample_sizes=(10,), replications=1000)}
    small_p_ok = at10["phi-vs-phidprime"] < 0.01 and at10["phi-vs-normal"] < 0.01
    seed_hits = {}
    for n in (50, 100):
        hits = 0
        for i in range(10):
            rows = run_ks_study(seed=100 + i, sample_sizes=(n,), replications=1000)
            if all(row.outcome.p_value > 0.01 for row in rows):
                hits += 1
        seed_hits[n] = hits
    elapsed = time.perf_counter() - start
    ok = (small_p_ok and seed_hits[50] >= 8 and seed_hits[100] >= 8 and elapsed < 60.0)
    report(4, ok, f"n=10 p(phi-vs-phidprime)={at10['phi-vs-phidprime']:.5f}, "
                  f"p(phi-vs-normal)={at10['phi-vs-normal']:.5f}; all-six p>0.01 for "
                  f"{seed_hits[50]}/10 seeds at n=50, {seed_hits[100]}/10 at n=100; "
                  f"{elapsed:.1f}s")


def test_criterion_5_normal_limit_ecdf():
    start = time.perf_counter()
    values = draw_block(SEED, 100, Statistic.HAJEK, 100_000, scaled=True)
    gap = ks_one_sample(values, lambda t: normal_cdf(t, 0.0, 0.4)).statistic
    elapsed = time.perf_counter() - start
    ok = gap < 0.01 and elapsed < 30.0
    report(5, ok, f"sup|ECDF - Normal(0,0.4)| = {gap:.5f} over 100k scaled draws "
                  f"at n=100; {elapsed:.1f}s")


def test_criterion_6_distribution_free():
    start = time.perf_counter()
    n, reps = 8, 200_000
    values = np.sort(draw_block(SEED, n, Statistic.FOOTRULE, reps))
    dist = enumerate_null_distribution(n)
    # both CDFs are steps on the same atoms (phi decreasing in distance)
    atoms = np.array([dist.phi(d) for d, _ in sorted(dist.counts.items(), reverse=True)])
    probs = np.array([c for d, c in sorted(dist.counts.items(), reverse=True)], dtype=float)
    exact_cdf = np.cumsum(probs) / dist.total
    ecdf = np.searchsorted(values, atoms, side="right") / reps
    gap = float(np.max(np.abs(ecdf - exact_cdf)))
    elapsed = time.perf_counter() - start
    ok = gap < 0.005 and elapsed < 30.0
    report(6, ok, f"sup|simulated - enumerated CDF| = {gap:.5f} over 200k draws "
                  f"at n=8; {elapsed:.1f}s")


def coupled_draws(seed, n, reps):
    first = np.empty(reps)
    second = np.empty(reps)
    # each row is its stream's first 2n uniforms wherever no word is rejected
    vecs, rejected = _uniform_rows(seed, np.arange(reps, dtype=np.uint64), (n,), 2 * n)
    assert not rejected.any()
    for rep, vec in enumerate(vecs[:, 0]):
        pairs = UniformPairs(vec[:n], vec[n:])
        first[rep] = double_sum_representation(pairs)
        second[rep] = hajek_representation(pairs)
    return first, second


def test_criterion_7_hajek_residual():
    start = time.perf_counter()
    reps = 10_000
    rms = {}
    for n in (50, 100):
        first, second = coupled_draws(SEED, n, reps)
        rms[n] = math.sqrt(float(np.mean((first - second) ** 2)))
        if n == 100:
            corr = float(np.corrcoef(10.0 * first, 10.0 * second)[0, 1])
    ratio = rms[50] / rms[100]
    elapsed = time.perf_counter() - start
    ok = 1.6 <= ratio <= 2.5 and corr > 0.95 and elapsed < 30.0
    report(7, ok, f"RMS residual ratio n=50/n=100 = {ratio:.3f}, "
                  f"scaled correlation at n=100 = {corr:.4f}; {elapsed:.1f}s")


def test_criterion_8_uniform_integral_constants():
    start = time.perf_counter()
    big = 1_000_000
    u, v, v2 = np.split(_stream_uniforms(SEED, 0, 0, 3 * big), 3)
    a = np.abs(u - v)
    b = u * (1.0 - u)
    a_shared = np.abs(u - v2)
    checks = []

    def within(name, estimate, target, se):
        checks.append((name, abs(estimate - float(target)) <= 4.0 * se))

    within("E|U-V|", a.mean(), E_ABS_DIFF, a.std(ddof=1) / math.sqrt(big))
    within("E U(1-U)", b.mean(), E_U_ONE_MINUS_U, b.std(ddof=1) / math.sqrt(big))
    within("Var|U-V|", np.var(a, ddof=1), VAR_ABS_DIFF, variance_estimator_se(a))
    within("Var U(1-U)", np.var(b, ddof=1), VAR_U_ONE_MINUS_U,
           variance_estimator_se(b))
    cov_ab, se_ab = covariance_and_se(a, b)
    within("Cov(|U-V|,U(1-U))", cov_ab, COV_ABS_DIFF_U_ONE_MINUS_U, se_ab)
    cov_shared, se_shared = covariance_and_se(a, a_shared)
    within("Cov shared U", cov_shared, COV_ABS_DIFF_SHARED, se_shared)

    cond_uniforms = np.split(_stream_uniforms(SEED, 1, 0, 900_000), 9)
    for u0, uniforms in zip([round(0.1 * k, 1) for k in range(1, 10)], cond_uniforms):
        draws = np.abs(u0 - uniforms)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        checks.append((f"cond u={u0}", abs(draws.mean() - cond_exp_abs_diff(u0)) <= 4.0 * se))

    elapsed = time.perf_counter() - start
    bad = [name for name, good in checks if not good]
    ok = not bad and elapsed < 20.0
    report(8, ok, f"{len(checks)} Monte Carlo constant checks within 4 SE"
                  + (f", failing: {bad}" if bad else "") + f"; {elapsed:.1f}s")


def test_criterion_9_cli_determinism(tmp_path):
    cases = [
        ["simulate", "moments", "--n-list", "10", "--reps", "300", "--seed", "7"],
        ["simulate", "kstest", "--n-list", "10", "--reps", "200", "--seed", "7"],
    ]
    identical = True
    for idx, args in enumerate(cases):
        a = tmp_path / f"a{idx}.csv"
        b = tmp_path / f"b{idx}.csv"
        assert main(args + ["--threads", "1", "--out", str(a)]) == 0
        assert main(args + ["--threads", "5", "--out", str(b)]) == 0
        identical = identical and a.read_bytes() == b.read_bytes()
    curve_args = ["simulate", "curves", "--n-list", "20", "--reps", "150",
                  "--grid-size", "48", "--seed", "7"]
    assert main(curve_args + ["--threads", "1", "--out", str(tmp_path / "c1")]) == 0
    assert main(curve_args + ["--threads", "5", "--out", str(tmp_path / "c2")]) == 0
    for suffix in ("_density.csv", "_cdf.csv"):
        identical = identical and (
            (tmp_path / f"c1{suffix}").read_bytes()
            == (tmp_path / f"c2{suffix}").read_bytes()
        )
    report(9, identical, "byte-identical CSVs across --threads for "
                         "moments, kstest, and curves")
