import csv
import math

import numpy as np
import pytest

from footrule import cli, simulate
from footrule.cli import main
from footrule.ranks import EXACT_MAX_N

trapezoid = getattr(np, "trapezoid", None) or np.trapz


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestStatCommand:
    def test_perfect_agreement_exact(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_lines(data, ["1.0,10.0", "2.0,20.0", "3.0,30.0"])
        assert main(["stat", str(data), "--exact"]) == 0
        out = capsys.readouterr().out
        assert "phi       1.00000" in out
        assert "p-value   0.16667 (Exact)" in out  # P(|phi| >= 1) = 1/6 at n=3

    def test_reversed_order(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_lines(data, ["1.0,9.0", "2.0,5.0", "3.0,2.0"])
        assert main(["stat", str(data)]) == 0
        out = capsys.readouterr().out
        assert "phi       -0.50000" in out
        assert "(Normal)" in out

    def test_header_flag(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_lines(data, ["x,y", "1.0,10.0", "2.0,20.0", "3.0,30.0"])
        assert main(["stat", str(data), "--header"]) == 0
        assert "n         3" in capsys.readouterr().out

    def test_malformed_row_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_lines(data, ["1.0,2.0", "a,b"])
        assert main(["stat", str(data)]) == 2
        assert "row 2" in capsys.readouterr().err

    def test_ties_exit_3_and_name_rows(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_lines(data, ["1.5,1.0", "2.0,2.0", "1.5,3.0"])
        assert main(["stat", str(data)]) == 3
        err = capsys.readouterr().err
        assert "rows 1 and 3" in err

    def test_exact_needs_small_n(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_lines(data, [f"{i},{i + 0.5}" for i in range(EXACT_MAX_N + 1)])
        assert main(["stat", str(data), "--exact"]) == 2

    def test_exact_at_n12(self, tmp_path, capsys):
        # only the identity has D = 0, so P(|phi| >= 1) = 1/12!
        data = tmp_path / "data.csv"
        write_lines(data, [f"{i},{2 * i}" for i in range(12)])
        assert main(["stat", str(data), "--exact", "--full-precision"]) == 0
        out = capsys.readouterr().out
        assert f"p-value   {1 / math.factorial(12)!r} (Exact)" in out

    def test_report_csv(self, tmp_path):
        data = tmp_path / "data.csv"
        write_lines(data, ["1.0,10.0", "2.0,20.0", "3.0,30.0"])
        out = tmp_path / "report.csv"
        assert main(["stat", str(data), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["n", "distance", "phi", "z", "p_value", "method"]
        assert rows[0][:3] == ["3", "0", "1.00000"]
        assert rows[0][5] == "Normal"

    def test_z_and_normal_p(self, tmp_path):
        data = tmp_path / "data.csv"
        write_lines(data, ["1.0,10.0", "2.0,20.0", "3.0,30.0"])
        out = tmp_path / "report.csv"
        assert main(["stat", str(data), "--out", str(out), "--full-precision"]) == 0
        _, rows = read_csv(out)
        z = float(rows[0][3])
        p = float(rows[0][4])
        assert z == pytest.approx(math.sqrt(3) * 1.0 / math.sqrt(0.4))
        assert p == pytest.approx(2 * (1 - 0.5 * math.erfc(-abs(z) / math.sqrt(2))), rel=1e-12)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["stat", str(tmp_path / "nope.csv")]) == 2


class TestExactCommand:
    def test_n3_rows(self, tmp_path):
        out = tmp_path / "null3.csv"
        assert main(["exact", "3", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["d", "count", "phi", "probability"]
        assert rows == [
            ["0", "1", "1.00000", "0.16667"],
            ["2", "2", "0.25000", "0.33333"],
            ["4", "3", "-0.50000", "0.50000"],
        ]

    def test_n2_probabilities(self, tmp_path):
        out = tmp_path / "null2.csv"
        assert main(["exact", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[3] for r in rows] == ["0.50000", "0.50000"]

    def test_cap_exits_2(self, capsys):
        assert main(["exact", str(EXACT_MAX_N + 1)]) == 2
        assert main(["exact", "1"]) == 2

    def test_probabilities_sum_to_one(self, tmp_path):
        out = tmp_path / "null6.csv"
        assert main(["exact", "6", "--out", str(out), "--full-precision"]) == 0
        _, rows = read_csv(out)
        assert math.fsum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-12)
        # ascending distance order
        ds = [int(r[0]) for r in rows]
        assert ds == sorted(ds)

    def test_stdout_default(self, capsys):
        assert main(["exact", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "d,count,phi,probability"


class TestSimulateCommands:
    def test_moments_smoke(self, tmp_path):
        out = tmp_path / "moments.csv"
        assert main([
            "simulate", "moments", "--n-list", "10", "--reps", "50",
            "--seed", "1", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["statistic", "n", "em", "ev", "bias", "rmse"]
        assert [r[0] for r in rows] == ["phi", "phiprime", "phidprime"]
        assert all(r[1] == "10" for r in rows)

    def test_moments_thread_bytes_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "moments", "--n-list", "12", "--reps", "120", "--seed", "5"]
        assert main(base + ["--threads", "1", "--out", str(a)]) == 0
        assert main(base + ["--threads", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_thread_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "moments", "--n-list", "10", "--reps", "60", "--seed", "2"]
        monkeypatch.setenv("FOOTRULE_THREADS", "3")
        assert main(base + ["--out", str(a)]) == 0
        monkeypatch.delenv("FOOTRULE_THREADS")
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_moments_round_trip(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main([
            "simulate", "moments", "--n-list", "10,20", "--reps", "40",
            "--seed", "9", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        # parse -> re-emit -> identical bytes
        rebuilt = ",".join(header) + "\n"
        for row in rows:
            cells = row[:2] + [f"{float(c):.5f}" for c in row[2:]]
            rebuilt += ",".join(cells) + "\n"
        assert rebuilt.encode() == out.read_bytes()

    def test_kstest_smoke(self, tmp_path):
        out = tmp_path / "ks.csv"
        assert main([
            "simulate", "kstest", "--n-list", "10", "--reps", "60",
            "--seed", "3", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["n", "combination", "ks_stat", "p_value"]
        assert [r[1] for r in rows] == [
            "phi-vs-normal", "phiprime-vs-normal", "phidprime-vs-normal",
            "phi-vs-phiprime", "phi-vs-phidprime", "phiprime-vs-phidprime",
        ]
        for row in rows:
            assert 0.0 <= float(row[2]) <= 1.0
            assert 0.0 <= float(row[3]) <= 1.0

    def test_curves_smoke(self, tmp_path):
        assert main([
            "simulate", "curves", "--n-list", "30", "--reps", "100",
            "--grid-size", "64", "--seed", "4", "--out", str(tmp_path / "curves"),
            "--full-precision",
        ]) == 0
        dens_header, dens_rows = read_csv(tmp_path / "curves_density.csv")
        cdf_header, cdf_rows = read_csv(tmp_path / "curves_cdf.csv")
        assert dens_header == ["statistic", "n", "grid", "density", "ref_density"]
        assert cdf_header == ["statistic", "n", "grid", "cdf", "ref_cdf"]
        assert len(dens_rows) == 3 * 64
        phi_rows = [r for r in dens_rows if r[0] == "phi"]
        grid = np.array([float(r[2]) for r in phi_rows])
        dens = np.array([float(r[3]) for r in phi_rows])
        assert trapezoid(dens, grid) == pytest.approx(1.0, abs=0.05)
        for r in cdf_rows:
            assert 0.0 <= float(r[3]) <= 1.0

    def test_curves_unwritable_cdf_removes_density(self, tmp_path, capsys):
        (tmp_path / "c_cdf.csv").mkdir()
        assert main([
            "simulate", "curves", "--n-list", "10", "--reps", "20",
            "--grid-size", "16", "--out", str(tmp_path / "c"),
        ]) == 2
        assert capsys.readouterr().err.startswith("footrule: cannot write")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c_cdf.csv"]

    def test_curves_requires_out(self, capsys):
        assert main(["simulate", "curves", "--n-list", "10", "--reps", "50"]) == 2

    def test_bad_n_list_exits_2(self, capsys):
        assert main(["simulate", "moments", "--n-list", "10,zebra"]) == 2
        assert main(["simulate", "moments", "--n-list", "1,10"]) == 2

    def test_paper_marginals_identical_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "moments", "--n-list", "10", "--reps", "80", "--seed", "6"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--paper-marginals", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate"])
        assert info.value.code == 2


@pytest.mark.parametrize("argv, lines, code", [
    (["simulate", "moments", "--reps", "1"], None, 2),
    (["simulate", "kstest", "--reps", "1"], None, 2),
    (["simulate", "curves", "--reps", "1", "--out", "{dir}/c"], None, 2),
    (["simulate", "curves", "--grid-size", "1", "--out", "{dir}/c"], None, 2),
    (["simulate", "moments", "--seed", "-1"], None, 2),
    (["simulate", "kstest", "--seed", str(2**64)], None, 2),
    (["stat", "{csv}"], ["1.0,2.0", "nan,3.0", "2.0,4.0"], 2),
    (["stat", "{csv}", "--exact"], ["1.0,2.0", "2.0,inf", "3.0,4.0"], 2),
    (["stat", "{csv}"], ["inf,2.0", "inf,3.0", "2.0,4.0"], 2),
    (["stat", "{csv}"], ["1.0,2.0", "1.0,3.0", "2.0,4.0"], 3),
    (["stat", "{csv}"], b"1.0,2.0\n\xff,3.0\n2.0,4.0\n", 2),
    (["stat", "{csv}"], ["1.0,2.0", '"' + "1" * 131073 + '",3.0', "2.0,4.0"], 2),
    (["simulate", "moments", "--reps", "2", "--n-list", "10", "--out", "{dir}/no/m.csv"],
     None, 2),
    (["simulate", "kstest", "--reps", "2", "--n-list", "10", "--out", "{dir}/no/k.csv"],
     None, 2),
    (["simulate", "curves", "--reps", "2", "--n-list", "10", "--out", "{dir}/no/c"],
     None, 2),
    (["simulate", "moments", "--reps", "2", "--n-list", "10", "--out", "{csv}/m.csv"],
     ["1.0,2.0"], 2),
    (["exact", "5", "--out", "{dir}/no/e.csv"], None, 2),
    (["stat", "{csv}", "--out", "{dir}/no/s.csv"], ["1.0,2.0", "2.0,3.0"], 2),
], ids=["moments-reps", "kstest-reps", "curves-reps", "grid-size", "seed-negative",
        "seed-too-large", "nan-cell", "inf-cell", "inf-pair", "ties", "non-utf8",
        "oversized-field", "moments-out-missing-dir", "kstest-out-missing-dir",
        "curves-out-missing-dir", "moments-out-under-file", "exact-out-missing-dir",
        "stat-out-missing-dir"])
def test_bad_input_exit_codes(tmp_path, capsys, monkeypatch, argv, lines, code):
    def no_work(*args):
        raise AssertionError("started the work before rejecting the input")

    monkeypatch.setattr(simulate, "_draw_many", no_work)
    monkeypatch.setattr(cli, "enumerate_null_distribution", no_work)
    csv_path = tmp_path / "data.csv"
    if isinstance(lines, bytes):
        csv_path.write_bytes(lines)
    elif lines is not None:
        write_lines(csv_path, lines)
    argv = [a.format(dir=tmp_path, csv=csv_path) for a in argv]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("footrule: ") and err.count("\n") == 1, err
    assert not list(tmp_path.glob("c_*.csv"))


class TestTableReproduction:
    """The CLI runs that mirror the reference tables, at full size."""

    def test_moments_ev_window(self, tmp_path):
        out = tmp_path / "moments.csv"
        assert main([
            "simulate", "moments", "--n-list", "10", "--reps", "10000",
            "--seed", "42", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        ev = {r[0]: float(r[3]) for r in rows}
        assert 0.0435 <= ev["phi"] <= 0.0495

    def test_kstest_phi_vs_projected_rejects_at_n10(self, tmp_path):
        out = tmp_path / "ks.csv"
        assert main([
            "simulate", "kstest", "--n-list", "10", "--reps", "1000",
            "--seed", "42", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        p = {r[1]: float(r[3]) for r in rows}
        assert p["phi-vs-phidprime"] < 0.01

    def test_curves_density_integrates(self, tmp_path):
        assert main([
            "simulate", "curves", "--n-list", "30", "--reps", "1000",
            "--grid-size", "64", "--seed", "42", "--out", str(tmp_path / "c"),
        ]) == 0
        _, rows = read_csv(tmp_path / "c_density.csv")
        for label in ("phi", "phiprime", "phidprime"):
            sub = [r for r in rows if r[0] == label]
            grid = np.array([float(r[2]) for r in sub])
            dens = np.array([float(r[3]) for r in sub])
            assert trapezoid(dens, grid) == pytest.approx(1.0, abs=0.05)


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: at n=10 the statistic's lattice has no atom "
    "near zero (the displacement sum is always even while n^2-1 is odd), so the "
    "inclusive exact tail exceeds the limiting-variance normal tail by up to "
    "0.139 mid-range; no standard two-sided convention gets within 0.05 "
    "(mid-p reaches 0.053)",
)
def test_exact_and_normal_p_agree_at_n10():
    from footrule.ranks import enumerate_null_distribution
    from footrule.stats import normal_cdf

    dist = enumerate_null_distribution(10)
    for d in sorted(dist.counts):
        phi = dist.phi(d)
        if abs(phi) > 0.4:
            continue
        z = math.sqrt(10) * phi / math.sqrt(0.4)
        p_normal = 2.0 * (1.0 - normal_cdf(abs(z)))
        assert float(dist.two_sided_p(d)) == pytest.approx(p_normal, abs=0.05)
