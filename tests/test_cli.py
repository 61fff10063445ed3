import contextlib
import csv
import errno
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from footrule import cli, ranks, simulate
from footrule.cli import CliError, main
from footrule.ranks import EXACT_MAX_N

SRC = str(Path(cli.__file__).resolve().parents[1])

trapezoid = getattr(np, "trapezoid", None) or np.trapz


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def fresh_env():
    """The environment of a new `footrule` interpreter: this source tree, 80 columns."""
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_fresh(argv, stdin=None, stdout=subprocess.PIPE):
    """`footrule ARGV` in a new interpreter, with an 80-column help width."""
    return subprocess.run([sys.executable, "-m", "footrule.cli", *argv], input=stdin,
                          stdout=stdout, stderr=subprocess.PIPE, env=fresh_env(),
                          timeout=120)


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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

    @pytest.mark.parametrize("lines, header, message", [
        (["0.1,0.5", "", "0.2,0.6", "0.1,0.7"], False, "tied x value 0.1 in rows 1 and 4"),
        (["x,y", "", "0.1,0.5", "", "0.2,0.6", "0.3,0.5"], True,
         "tied y value 0.5 in rows 3 and 6"),
        (["2,1", "3,2", "1,3", "3,1"], False, "tied x value 3.0 in rows 2 and 4"),
        (["0.0,1", "1,2", "-0.0,3"], False, "tied x value -0.0 in rows 1 and 3"),
    ])
    def test_tie_rows_count_csv_records(self, tmp_path, capsys, lines, header, message):
        # blank records count, as in every other stat message
        data = tmp_path / "data.csv"
        write_lines(data, lines)
        assert main(["stat", str(data)] + ["--header"] * header) == 3
        assert capsys.readouterr().err == f"footrule: {message}; continuous data expected\n"

    def test_header_after_blank_records(self, tmp_path, capsys):
        # --header skips the first non-blank record; the blank ones before it
        # are skipped too, and still count in row numbers
        data = tmp_path / "data.csv"
        data.write_bytes(b"\n\nx,y\n1,2\n3,4\n5,6\n")
        assert main(["stat", str(data), "--header"]) == 0
        assert "n         3" in capsys.readouterr().out
        data.write_bytes(b"\nx,y\n1,2\n3,2\n")
        assert main(["stat", str(data), "--header"]) == 3
        assert capsys.readouterr().err == (
            "footrule: tied y value 2.0 in rows 3 and 4; continuous data expected\n")

    def test_exact_needs_small_n(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_lines(data, [f"{i},{i + 0.5}" for i in range(EXACT_MAX_N + 1)])
        assert main(["stat", str(data), "--exact"]) == 2
        assert capsys.readouterr().err == (
            "footrule: exact null law needs 2 <= n <= 100, got 101\n")

    def test_exact_at_n12(self, tmp_path, capsys):
        # only the identity has D = 0, so P(|phi| >= 1) = 1/12!
        data = tmp_path / "data.csv"
        write_lines(data, [f"{i},{2 * i}" for i in range(12)])
        assert main(["stat", str(data), "--exact", "--full-precision"]) == 0
        out = capsys.readouterr().out
        assert f"p-value   {1 / math.factorial(12)!r} (Exact)" in out

    def test_exact_law_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        builds = []

        def spy(n):
            builds.append(n)
            return build(n)

        build = ranks._build_null_distribution
        monkeypatch.setattr(ranks, "_build_null_distribution", spy)
        monkeypatch.delitem(ranks._NULL_LAWS, 12, raising=False)
        data = tmp_path / "data.csv"
        write_lines(data, [f"{i},{(5 * i) % 12}" for i in range(12)])
        assert main(["stat", str(data), "--exact"]) == 0
        first = capsys.readouterr().out
        assert main(["stat", str(data), "--exact"]) == 0
        assert capsys.readouterr().out == first
        assert builds == [12]

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


def decoded_lines(data):
    """The lines of `data`, decoded one at a time; decode errors count from byte 0.

    One byte-order mark at the very start of `data` is dropped.
    """
    position = 0
    for line in data.splitlines(keepends=True):
        try:
            text = line.decode("utf-8")
            yield text.removeprefix("\ufeff") if position == 0 else text
        except UnicodeDecodeError as exc:
            raise UnicodeDecodeError(exc.encoding, data, position + exc.start,
                                     position + exc.end, exc.reason) from None
        position += len(line)


def reference_read(path, has_header):
    """The row-wise `stat` reader the streaming one replaced: (xs, ys) or CliError.

    Kept as a test oracle, with four changes: tie messages number csv
    records, counting blank records, like every other message; the
    header is the first non-blank record, not always record 1; lines
    are decoded one at a time, so undecodable bytes are found only after
    every earlier record; and a byte-order mark that starts the input is
    dropped.
    """
    xs, ys, numbers = [], [], []
    header_pending = has_header
    with open(path, "rb") as handle:
        try:
            for lineno, row in enumerate(csv.reader(decoded_lines(handle.read())), start=1):
                if not row:
                    continue
                if header_pending:
                    header_pending = False
                    continue
                if len(row) != 2:
                    raise CliError(f"row {lineno}: expected 2 columns, got {len(row)}")
                try:
                    x, y = float(row[0]), float(row[1])
                except ValueError as exc:
                    raise CliError(f"row {lineno}: cannot parse {','.join(row)!r}") from exc
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise CliError(f"row {lineno}: NaN or infinite value")
                xs.append(x)
                ys.append(y)
                numbers.append(lineno)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise CliError(f"cannot read {path}: {exc}") from exc
    if len(xs) < 2:
        raise CliError("need at least 2 data rows")
    for label, column in (("x", xs), ("y", ys)):
        seen: dict[float, int] = {}
        for i, value in enumerate(column):
            if value in seen:
                raise CliError(
                    f"tied {label} value {value!r} in rows "
                    f"{numbers[seen[value]]} and {numbers[i]}; "
                    "continuous data expected",
                    code=cli.EXIT_TIES,
                )
            seen[value] = i
    return xs, ys


# Fields longer than this are over the csv module's limit while the
# property below runs at this limit; every numeric cell it makes is
# shorter. At the default limit (128 KiB) every block of the property
# can reach numpy's C reader, which takes only blocks shorter than it.
FIELD_LIMIT = 32
DEFAULT_FIELD_LIMIT = 1 << 17
REPRS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
NUMBERS = st.one_of(
    REPRS,
    st.sampled_from(["0.5", "1.5", "2", "-0.0", "0.0", "1_000", " 3.25", "4.5 ",
                     '"6.5"', '" 7 "']),
)
CELLS = st.one_of(
    NUMBERS,
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", "", "a", "1..2", "_1", '"x"',
                     "1" * (FIELD_LIMIT + 8), '"' + "2" * (FIELD_LIMIT + 8) + '"']),
)
ANY_RECORDS = st.one_of(
    st.tuples(CELLS, CELLS).map(lambda r: ",".join(r).encode()),
    st.lists(CELLS, min_size=1, max_size=3).map(lambda r: ",".join(r).encode()),
    st.sampled_from([b"", b"   ", b"\t", b"\xff,1", b"1,\xfe\xff"]),
)
# One line-end style per file, mostly LF, so that most files have blocks
# numpy's C reader takes; None ends each record with its own drawn style.
LINE_ENDS = st.sampled_from([b"\n"] * 9 + [b"\r\n", b"\r", None])


@st.composite
def csv_bytes(draw):
    """CSV input bytes: good records with up to three blank, bad or odd ones."""
    # Most files spell every good cell as a float repr, so that no quote
    # or underscore sends every block of them to the csv reader.
    numbers = NUMBERS if draw(st.integers(0, 3)) == 0 else REPRS
    good = st.tuples(numbers, numbers).map(lambda r: ",".join(r).encode())
    records = draw(st.lists(good, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        records.insert(draw(st.integers(0, len(records))), draw(ANY_RECORDS))
    style = draw(LINE_ENDS)
    ends = ([style] * len(records) if style else
            draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]),
                          min_size=len(records), max_size=len(records))))
    body = b"".join(r + e for r, e in zip(records, ends))
    return body[:-1] if body.endswith(b"\n") and draw(st.booleans()) else body


class TestStatReader:
    """The streaming reader against the row-wise reference, on fuzzed input."""

    @pytest.fixture(autouse=True)
    def small_field_limit(self):
        old = csv.field_size_limit(FIELD_LIMIT)
        yield
        csv.field_size_limit(old)

    @staticmethod
    def check(path, header, block):
        try:
            expected = reference_read(path, header)
        except CliError as exc:
            expected = exc
        old = cli._BLOCK_BYTES
        cli._BLOCK_BYTES = block
        try:
            outcome = run_main(["stat", str(path)] + ["--header"] * header)
            read = None if isinstance(expected, CliError) else cli._read_paired_csv(
                str(path), header)[0]
        finally:
            cli._BLOCK_BYTES = old
        if isinstance(expected, CliError):
            assert outcome == (expected.code, "", f"footrule: {expected}\n")
        else:
            assert (outcome[0], outcome[2]) == (0, "")
            assert read.x.tobytes() == np.array(expected[0]).tobytes()
            assert read.y.tobytes() == np.array(expected[1]).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(data=csv_bytes(), header=st.booleans(),
           block=st.sampled_from([1, 2, 5, 16, 1 << 16]),
           limit=st.sampled_from([DEFAULT_FIELD_LIMIT] * 3 + [FIELD_LIMIT]))
    @example(data=b"1,2\nnan,3\n1,2,3\n", header=False, block=1 << 16, limit=FIELD_LIMIT)
    @example(data=b"1,2\r\n3,inf\r\n\xff,1\r\n", header=False, block=5, limit=FIELD_LIMIT)
    @example(data=b"x,y\n1,2\n-inf,3\n" + b"9" * 40 + b",1\n", header=True, block=16,
             limit=FIELD_LIMIT)
    @example(data=b"1,2\n\n  \n3,4\n", header=False, block=1, limit=FIELD_LIMIT)
    @example(data=b'"1_0", 2 \r"3"," 4"\r5,6', header=False, block=1, limit=FIELD_LIMIT)
    @example(data=b"\nx,y\n1,2\n3,4\n", header=True, block=1 << 16, limit=FIELD_LIMIT)
    @example(data=b"nan,1\n\xff,2\n", header=False, block=1 << 16, limit=FIELD_LIMIT)
    @example(data=b"1,2\n" * 2100 + b"1,2,3\n\xff,1\n", header=False, block=1 << 16,
             limit=FIELD_LIMIT)
    @example(data=b"1,2\n" * 2100 + b"1,\xe2\x82\r\n", header=False, block=16,
             limit=FIELD_LIMIT)
    # The header is any first non-blank record, whatever its cell count.
    @example(data=b"a,b,c\n1,2\n3,4\n", header=True, block=1 << 16, limit=FIELD_LIMIT)
    @example(data=b"h\n1,2\n3,4\n", header=True, block=1 << 16, limit=FIELD_LIMIT)
    @example(data=b"\n\nx,y\n\n1,2\n3,4\n", header=True, block=1 << 16, limit=FIELD_LIMIT)
    @example(data=b"\nx,y\n", header=True, block=1 << 16, limit=FIELD_LIMIT)
    # Record numbers run on from numpy's C reader into the csv reader.
    @example(data=b"".join(b"%d.25,%d\n" % (i, -i) for i in range(3000)) + b"1,x\n",
             header=False, block=1 << 12, limit=DEFAULT_FIELD_LIMIT)
    @example(data=b"".join(b"%d.25,%d\n" % (i, -i) for i in range(3000)) + b"1,2\n",
             header=False, block=1 << 12, limit=DEFAULT_FIELD_LIMIT)
    # Cells that numpy's C reader must leave to `float`: it reads them, or rejects them.
    @example(data=b"7,2\n1_0,3\n4,5\n", header=False, block=1 << 16, limit=DEFAULT_FIELD_LIMIT)
    @example(data=b"7,2\n\xd9\xa1,3\n4,5\n", header=False, block=1 << 16,
             limit=DEFAULT_FIELD_LIMIT)
    @example(data=b"7,2\n1\xc2\xa0,3\n4,5\n", header=False, block=1 << 16,
             limit=DEFAULT_FIELD_LIMIT)
    @example(data=b"7,2\n1,2#c\n4,5\n", header=False, block=1 << 16, limit=DEFAULT_FIELD_LIMIT)
    # A block of blank records only.
    @example(data=b"1,2\n\n\n3,4\n", header=False, block=1, limit=DEFAULT_FIELD_LIMIT)
    # The header goes through the csv reader, the blocks after it through numpy's.
    @example(data=b"x,y\n1,2\n3,4\n5,6\n", header=True, block=1, limit=DEFAULT_FIELD_LIMIT)
    # A quoted field spans blocks; a decode error inside one ends the input there.
    @example(data=b'1,"2\n"\n3,4\n5,6\n', header=False, block=1, limit=DEFAULT_FIELD_LIMIT)
    @example(data=b'nan,"2\n\xff,1\n', header=False, block=1 << 16, limit=DEFAULT_FIELD_LIMIT)
    # A byte-order mark starts the input: dropped before the first record, with
    # or without a header; a decode error after it still counts from byte 0.
    @example(data=b"\xef\xbb\xbf0.1,0.5\n0.7,0.2\n0.4,0.9\n", header=False, block=1,
             limit=DEFAULT_FIELD_LIMIT)
    @example(data=b"\xef\xbb\xbf0.1,0.5\n0.7,0.2\n0.4,0.9\n", header=False, block=1 << 16,
             limit=DEFAULT_FIELD_LIMIT)
    @example(data=b"\xef\xbb\xbfx,y\n0.1,0.5\n0.7,0.2\n", header=True, block=1,
             limit=DEFAULT_FIELD_LIMIT)
    @example(data=b"\xef\xbb\xbfx,y\n0.1,0.5\n0.7,0.2\n", header=True, block=1 << 16,
             limit=DEFAULT_FIELD_LIMIT)
    @example(data=b"\xef\xbb\xbf0.1,0.5\n0.7,0.2\n\xff,1\n", header=False, block=1 << 16,
             limit=DEFAULT_FIELD_LIMIT)
    @example(data=b"\xef\xbb\xbf\xff,1\n", header=False, block=1, limit=DEFAULT_FIELD_LIMIT)
    # Only one mark is dropped, and only at the very start.
    @example(data=b"\xef\xbb\xbf\xef\xbb\xbf1,2\n3,4\n", header=False, block=1 << 16,
             limit=DEFAULT_FIELD_LIMIT)
    @example(data=b"1,2\n\xef\xbb\xbf3,4\n", header=False, block=1, limit=DEFAULT_FIELD_LIMIT)
    def test_matches_reference(self, tmp_path_factory, data, header, block, limit):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(data)
        csv.field_size_limit(limit)
        self.check(path, header, block)

    @pytest.mark.parametrize("lines, bad", [
        (["1,2", "nan,3", "1,2,3"], "malformed"),
        (["1,2", "3,inf", "a,b"], "unparseable"),
        (["1,2", "3,-inf", "1" * (FIELD_LIMIT + 1) + ",5"], "oversized"),
    ])
    def test_nonfinite_row_wins_over_later_errors(self, tmp_path, capsys, lines, bad):
        data = tmp_path / "data.csv"
        write_lines(data, lines)
        assert main(["stat", str(data)]) == 2
        assert capsys.readouterr().err == "footrule: row 2: NaN or infinite value\n"

    def test_nonfinite_row_wins_over_later_undecodable_bytes(self, tmp_path, capsys):
        lines = b"".join(b"%d,%d\n" % (i, -i) for i in range(2000))
        data = tmp_path / "data.csv"
        data.write_bytes(lines + b"nan,1\n" + lines.replace(b"\n", b".5\n") + b"\xff,1\n")
        assert main(["stat", str(data)]) == 2
        assert capsys.readouterr().err == "footrule: row 2001: NaN or infinite value\n"

    def test_reads_a_leading_byte_order_mark(self, tmp_path, capsys):
        # Spreadsheet "CSV UTF-8" exports start with one.
        rows = b"0.1,0.5\n0.7,0.2\n0.4,0.9\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(rows)
        marked.write_bytes(b"\xef\xbb\xbf" + rows)
        assert main(["stat", str(plain)]) == 0
        expected = capsys.readouterr()
        assert main(["stat", str(marked)]) == 0
        assert capsys.readouterr() == expected

    def test_holds_floats_not_records(self, tmp_path):
        # Two float64 cells a row, in one buffer grown block by block, plus
        # one block's text and rows; no second copy of the values.
        rows = 100_000
        data = tmp_path / "big.csv"
        data.write_bytes(b"".join(b"%d.25,%d.5\n" % (i, rows - i) for i in range(rows)))
        tracemalloc.start()
        try:
            sample, _ = cli._read_paired_csv(str(data), False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.n == rows
        assert peak < 1.75 * 16 * rows


def test_main_reuses_one_parser(tmp_path, monkeypatch, capsys):
    """Several `main` calls in one process print what fresh processes print."""
    monkeypatch.setenv("COLUMNS", "80")
    data = tmp_path / "data.csv"
    write_lines(data, ["1.0,2.5", "2.0,0.5", "3.0,1.5", "4.0,3.5"])
    built = []

    def counted():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for argv in (
            ["stat", str(data), "--exact"],
            ["simulate", "moments", "--reps", "x"],
            ["exact", "5"],
            ["simulate", "moments", "--n-list", "10", "--reps", "30", "--seed", "3"],
            ["stat", str(data)],
        ):
            fresh = run_fresh(argv)
            assert run_main(argv) == (fresh.returncode, fresh.stdout.decode(),
                                      fresh.stderr.decode()), argv
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert build_parser() is not build_parser()


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
def test_stat_reads_a_pipe(tmp_path):
    data = tmp_path / "data.csv"
    write_lines(data, ["0.3,1.0", "0.1,2.0", "0.7,0.5", "0.2,4.0"])
    piped = run_fresh(["stat", "/dev/stdin", "--exact"], stdin=data.read_bytes())
    from_file = run_fresh(["stat", str(data), "--exact"])
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, from_file.stdout, b"")
    bad = run_fresh(["stat", "/dev/stdin", "--exact"], stdin=b"0.3,1.0\n0.1,2.0\n0.7,x\n")
    assert bad.returncode == 2
    assert bad.stdout == b""
    assert bad.stderr == b"footrule: row 3: cannot parse '0.7,x'\n"


def test_threads_clamped_to_cpu_count(tmp_path, monkeypatch):
    workers = []

    class Pool(simulate.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Pool)
    # n = 100 at 1400 reps is several batches, so one pool runs for the n.
    assert round(1400 * 6 * 100 / simulate._CHUNK_WORDS) > 1
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    simulate.run_moment_study(8, (100,), 1400, threads=64)
    assert workers == [2]
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
    simulate.run_moment_study(8, (100,), 1400, threads=64)
    assert workers == [2]  # no CPU count: one worker, inline
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    base = ["simulate", "moments", "--n-list", "100", "--reps", "1400", "--seed", "8"]
    outputs = []
    for threads in ("1", "64"):
        out = tmp_path / f"m{threads}.csv"
        assert main(base + ["--threads", threads, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0]
    assert max(workers) == 2 and len(workers) == 2


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
        message = "footrule: exact null law needs 2 <= n <= 100, got {}\n"
        assert capsys.readouterr() == ("", message.format(101) + message.format(1))

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


class TestStdoutWriteErrors:
    """A failed write to stdout exits 2 with one line and no traceback."""

    def test_closed_pipe(self, tmp_path):
        # As `footrule exact 100 | head -n 1`: the CSV is far larger than a pipe buffer.
        err_path = tmp_path / "err"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "footrule.cli", "exact", "100"],
                                    stdout=subprocess.PIPE, stderr=err, env=fresh_env())
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=120)
        assert first == b"d,count,phi,probability\n"
        assert code == 2
        message = f"footrule: cannot write stdout: {os.strerror(errno.EPIPE)}\n"
        assert err_path.read_text() == message

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["exact", "30"], ["stat", "{csv}"]])
    def test_full_device(self, tmp_path, argv):
        data = tmp_path / "data.csv"
        write_lines(data, ["0.3,1.0", "0.1,2.0", "0.7,0.5", "0.2,4.0"])
        with open("/dev/full", "wb") as full:
            proc = run_fresh([a.format(csv=data) for a in argv], stdout=full)
        assert proc.returncode == 2
        message = f"footrule: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
        assert proc.stderr.decode() == message

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_to_full_device(self, argv):
        with open("/dev/full", "wb") as full:
            proc = run_fresh(argv, stdout=full)
        assert proc.returncode == 2
        message = f"footrule: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
        assert proc.stderr.decode() == message


def old_fmt(value, full_precision):
    """The per-cell rule of the row writer that the block writer replaced."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value)) if full_precision else f"{float(value):.5f}"


def row_writer_csv(header, blocks, full_precision):
    """The replaced row writer: `csv.writer` over rows of Python scalars."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for block in blocks:
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
        for row in zip(*columns):
            writer.writerow([old_fmt(v, full_precision) for v in row])
    return out.getvalue()


LABELS = st.from_regex(r"[A-Za-z][A-Za-z0-9_-]*", fullmatch=True)
FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e-300, 1e16, 0.1])
COLUMNS = {
    "float": lambda rows: st.lists(FLOATS, min_size=rows, max_size=rows).map(
        lambda values: np.array(values, dtype=np.float64)),
    "int": lambda rows: st.lists(st.integers(), min_size=rows, max_size=rows),
    # Exact permutation counts run up to 100!, far past 2^63.
    "count": lambda rows: st.lists(st.integers(2**63, math.factorial(EXACT_MAX_N)),
                                   min_size=rows, max_size=rows),
    "label": lambda rows: st.lists(LABELS, min_size=rows, max_size=rows),
}


@st.composite
def csv_blocks(draw):
    """A header and 1-3 blocks of the same column kinds, 0-8 rows each."""
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=6))
    header = draw(st.lists(LABELS, min_size=len(kinds), max_size=len(kinds)))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.integers(0, 8))
        blocks.append(tuple(draw(COLUMNS[kind](rows)) for kind in kinds))
    return header, blocks


@settings(max_examples=200, deadline=None)
@given(data=csv_blocks(), full_precision=st.booleans())
def test_block_writer_matches_row_writer(tmp_path_factory, data, full_precision):
    header, blocks = data
    expected = row_writer_csv(header, blocks, full_precision)
    path = tmp_path_factory.mktemp("writer") / "out.csv"
    cli._write_csv(path, header, iter(blocks), full_precision)
    assert path.read_bytes() == expected.encode()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_csv(None, header, iter(blocks), full_precision)
    assert out.getvalue() == expected


@pytest.mark.parametrize("full_precision", [False, True])
def test_block_text_formats_every_cell(full_precision):
    # Repeated values, -0.0 beside 0.0, all-distinct columns, a strided one,
    # a lone -0.0 and an ECDF-like column (512 cells, 170 distinct steps):
    # the bytes are those of formatting every cell on its own.
    rng = np.random.default_rng(8)
    repeated = rng.choice(rng.random(7), 200)
    ecdf = np.arange(512) * 170 // 512 / 170.0
    fmt = cli._float_format(full_precision)
    for column in (repeated, np.array([0.0, -0.0, 1.5, -0.0, 0.0, 1.5]),
                   rng.random(50), repeated[::-3], np.array([-0.0]), ecdf):
        text = cli._block_text((column, column[::-1]), fmt)
        cells = [fmt(float(value)) for value in column]
        assert text == "".join(f"{a},{b}\n" for a, b in zip(cells, cells[::-1]))


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

    def test_curves_cdf_failing_after_the_check_removes_density(self, tmp_path, monkeypatch,
                                                                capsys):
        study = cli.run_curve_study

        def study_then_block_cdf(**kwargs):
            (tmp_path / "c_cdf.csv").mkdir()
            return study(**kwargs)

        monkeypatch.setattr(cli, "run_curve_study", study_then_block_cdf)
        assert main([
            "simulate", "curves", "--n-list", "10", "--reps", "20",
            "--grid-size", "16", "--out", str(tmp_path / "c"),
        ]) == 2
        assert capsys.readouterr().err.startswith("footrule: cannot write")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c_cdf.csv"]

    @pytest.mark.parametrize("name", ["c_density.csv", "c_cdf.csv"])
    def test_curves_derived_path_naming_a_directory_exits_2_first(self, tmp_path, monkeypatch,
                                                                  capsys, name):
        def no_work(*args):
            raise AssertionError("started the study before rejecting --out")

        monkeypatch.setattr(simulate, "_draw_statistics", no_work)
        (tmp_path / name).mkdir()
        assert main([
            "simulate", "curves", "--n-list", "10", "--reps", "20", "--out", str(tmp_path / "c"),
        ]) == 2
        assert capsys.readouterr() == ("", f"footrule: cannot write {tmp_path / name}: "
                                           "Is a directory\n")

    def test_curves_base_may_name_a_directory(self, tmp_path):
        (tmp_path / "results").mkdir()
        assert main([
            "simulate", "curves", "--n-list", "10", "--reps", "20",
            "--grid-size", "16", "--out", str(tmp_path / "results"),
        ]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "results", "results_cdf.csv", "results_density.csv"]

    def test_curves_requires_out(self, capsys):
        assert main(["simulate", "curves", "--n-list", "10", "--reps", "50"]) == 2

    def test_bad_n_list_exits_2(self, capsys):
        assert main(["simulate", "moments", "--n-list", "10,zebra"]) == 2
        assert main(["simulate", "moments", "--n-list", "1,10"]) == 2

    def test_usage_error_is_exit_2(self, capsys):
        for argv in (["simulate"], ["simulate", "moments", "--paper-marginals"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2, argv


@pytest.mark.parametrize("argv, lines, code", [
    (["simulate", "moments", "--reps", "1"], None, 2),
    (["simulate", "kstest", "--reps", "1"], None, 2),
    (["simulate", "curves", "--reps", "1", "--out", "{dir}/c"], None, 2),
    (["simulate", "curves", "--grid-size", "1", "--out", "{dir}/c"], None, 2),
    (["simulate", "moments", "--seed", "-1"], None, 2),
    (["simulate", "kstest", "--seed", str(2**64)], None, 2),
    (["simulate", "moments", "--threads", "0"], None, 2),
    (["simulate", "moments", "--n-list", f"10,{2**32}"], None, 2),
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
    (["simulate", "moments", "--reps", "2000", "--n-list", "100", "--out", "{dir}"], None, 2),
    (["simulate", "kstest", "--reps", "2", "--n-list", "10", "--out", "{dir}"], None, 2),
    (["exact", "5", "--out", "{dir}"], None, 2),
    (["stat", "{csv}", "--out", "{dir}"], ["1.0,2.0", "2.0,3.0"], 2),
], ids=["moments-reps", "kstest-reps", "curves-reps", "grid-size", "seed-negative",
        "seed-too-large", "threads-zero", "n-too-large", "nan-cell", "inf-cell", "inf-pair",
        "ties", "non-utf8", "oversized-field", "moments-out-missing-dir", "kstest-out-missing-dir",
        "curves-out-missing-dir", "moments-out-under-file", "exact-out-missing-dir",
        "stat-out-missing-dir", "moments-out-is-dir", "kstest-out-is-dir", "exact-out-is-dir",
        "stat-out-is-dir"])
def test_bad_input_exit_codes(tmp_path, capsys, monkeypatch, argv, lines, code):
    def no_work(*args):
        raise AssertionError("started the work before rejecting the input")

    monkeypatch.setattr(simulate, "_draw_statistics", no_work)
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


@pytest.mark.parametrize("argv", [
    ["simulate", "moments", "--reps", str(10**15), "--n-list", "10"],
    ["simulate", "kstest", "--reps", str(10**15), "--n-list", "10"],
    ["simulate", "curves", "--reps", "50", "--n-list", "10", "--grid-size", str(10**15),
     "--out", "{dir}/c"],
], ids=["moments-reps", "kstest-reps", "curves-grid-size"])
def test_settings_too_large_for_memory_exit_2(tmp_path, capsys, argv):
    # Each asks numpy for petabytes at once, so the allocation fails at once.
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("footrule: Unable to allocate ") and err.count("\n") == 1, err
    assert not list(tmp_path.iterdir())


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
    reason="2 * (1 - Phi(|z|)) rounds the upper tail to 0 once Phi(|z|) rounds to 1; "
    "2 * Phi(-|z|) keeps it, but moves the bits of most Normal p-values and with "
    "them the recorded stat digests",
)
def test_normal_p_value_keeps_the_far_tail(tmp_path, capsys):
    # n = 30 in perfect agreement: z = sqrt(75) and p = 2 * Phi(-sqrt(75)) = 4.707e-18
    data = tmp_path / "monotone.csv"
    write_lines(data, [f"{i}.0,{i}.0" for i in range(1, 31)])
    assert main(["stat", str(data), "--full-precision"]) == 0
    [line] = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("p-value")]
    p = float(line.split()[1])
    assert p > 0.0
    assert p == pytest.approx(4.70714059014038642e-18, rel=1e-12)


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
