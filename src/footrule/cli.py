"""Command-line front end.

Commands:
  stat      compute the coefficient on a two-column CSV and test independence
  exact     dump the exact permutation null distribution (n <= 100)
  simulate  run the moments / kstest / curves studies and emit CSV

Exit codes: 0 success, 2 usage errors (including invalid study settings,
settings too large for memory, an unreadable input CSV, an unwritable
--out and a failed write to stdout), 3 tied data (the continuity
assumption is violated).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .common import TiesError
from .moments import limiting_variance
from .ranks import (
    EXACT_MAX_N,
    PairedSample,
    enumerate_null_distribution,
    footrule_coefficient,
)
from .simulate import CurveRow, run_curve_study, run_ks_study, run_moment_study
from .stats import normal_cdf

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TIES = 3

METHOD_NORMAL = "Normal"
METHOD_EXACT = "Exact"


class CliError(Exception):
    """Fatal CLI problem; carries the exit code."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _float_format(full_precision: bool):
    """How a float is written: shortest round-trip decimals, or 5 places."""
    return repr if full_precision else "{:.5f}".format


def _cells(column, fmt):
    """The CSV cells of one column.

    A float64 array is formatted with `fmt` cell by cell, in one pass
    (no table of distinct values: only ECDF columns repeat, and the sort
    that found their repeats saved no time); any other column (ints,
    exact counts, fixed labels, cells already formatted) with `str`.
    """
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return map(fmt, column.tolist())
    return map(str, column)


def _block_text(block, fmt) -> str:
    """The CSV lines of one block: a tuple of equal-length columns.

    Every cell is a number or a fixed label, so none needs csv quoting.
    """
    lines = "\n".join(map(",".join, zip(*(_cells(column, fmt) for column in block))))
    return lines + "\n" if lines else ""


def _to_stdout(emit) -> None:
    """Run `emit(sys.stdout)` and flush; a failed write exits 2 with one line.

    After a failure fd 1 points at the null device, so the flush at
    interpreter exit cannot fail again and print a second report.
    """
    try:
        emit(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):
            pass  # not a file: nothing is flushed at exit
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise CliError(f"cannot write stdout: {exc.strerror or exc}") from exc


def _write_csv(path: Path | None, header: list[str], blocks, full_precision: bool) -> None:
    """Write blocks of columns as CSV; a partial file never survives a failure.

    Each block is formatted and written before the next one is taken from
    `blocks`, so only one block's text is held at a time.
    """
    fmt = _float_format(full_precision)

    def emit(handle) -> None:
        handle.write(",".join(header) + "\n")
        for block in blocks:
            handle.write(_block_text(block, fmt))

    if path is None:
        _to_stdout(emit)
        return
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            emit(handle)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


# Bytes per read of a `stat` input.
_BLOCK_BYTES = 1 << 16


def _decode_message(exc: UnicodeDecodeError, start: int) -> str:
    """The text of `exc`, with its positions moved on by `start` bytes."""
    first, last = start + exc.start, start + exc.end - 1
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {first}" if first == last
             else f"bytes in position {first}-{last}")
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"


def _text_blocks(handle):
    """The UTF-8 text of a binary file, in blocks that end at a line break.

    One UTF-8 byte-order mark that starts the input is dropped. A block
    with undecodable bytes is cut before the line that holds them; the
    error comes on the next call, once the caller has used every earlier
    line, and its positions count from the start of the input.
    """
    start = 0   # input position of the first byte in `parts`
    parts = []  # bytes read and not yet decoded
    while True:
        block = handle.read(_BLOCK_BYTES)
        # A \r that ends the block may be the first half of a \r\n.
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
        if block and not cut:
            parts.append(block)
            continue
        parts.append(block[:cut])
        data = b"".join(parts)
        parts = [block[cut:]]
        if not start and data.startswith(b"\xef\xbb\xbf"):
            data, start = data[3:], 3
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            good = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
            yield data[:good].decode("utf-8")
            raise UnicodeError(_decode_message(exc, start)) from None
        yield text
        if not block:
            return
        start += len(data)


def _record_number(index: int, skipped: list[int]) -> int:
    """CSV record number (from 1) of data row `index` (from 0).

    `skipped` holds the ascending numbers of the records that are not
    data rows: the header and blank records.
    """
    number = index + 1
    for s in skipped:
        if s > number:
            break
        number += 1
    return number


def _plain_rows(text: str) -> np.ndarray | None:
    """The (x, y) rows of a plain block, parsed by numpy's C reader, or None.

    A block is plain when it has no quote, CR or NUL and no blank record,
    and is shorter than the csv module's field size limit: the csv reader
    would split each of its lines at the commas alone. `np.loadtxt` reads
    each cell with the `PyOS_string_to_double` that `float` uses and
    rejects what `float` reads differently (underscores, non-ASCII
    digits), so its values are bit for bit those of the csv loop. None,
    also where it fails or does not give two cells on every line, sends
    the block to the csv loop, which names the block's first bad record.
    """
    if ('"' in text or "\r" in text or "\0" in text or "\n\n" in text
            or text.startswith("\n") or len(text) >= csv.field_size_limit()):
        return None
    if not text:
        return np.empty((0, 2))
    lines = text.count("\n") + (not text.endswith("\n"))
    try:
        rows = np.loadtxt(io.StringIO(text), delimiter=",", comments=None, dtype=float,
                          ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape == (lines, 2) else None


def _read_paired_csv(path: str, has_header: bool) -> tuple[PairedSample, list[int]]:
    """The two columns of a `stat` CSV, and the numbers of its non-data records.

    The input is read once, as a stream, so a pipe works; lines end at
    CR, LF or CR LF. A decoded block is parsed by numpy's C reader if it
    is plain (see `_plain_rows`) and no header is pending, and otherwise
    record by record by the csv module; a block with a quote sends itself
    and every later block to one csv reader, since a quoted field may
    span blocks. Only floats are kept. The first bad record in file order exits 2 with its
    csv record number: records are read up to a malformed or unreadable
    one, and a NaN or infinite value among them is found by one numpy
    check.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise CliError(f"cannot open {path}: {exc}") from exc
    skipped: list[int] = []
    error = None
    records = 0  # csv records read so far
    header = has_header  # the header is the first non-blank record

    def cells(lines):
        """x, then y, of each data record of `lines`, up to the first bad one."""
        nonlocal error, header, records
        try:
            for row in csv.reader(lines):
                records += 1
                if len(row) == 2 and not header:
                    try:
                        x, y = float(row[0]), float(row[1])
                    except ValueError:
                        error = CliError(f"row {records}: cannot parse {','.join(row)!r}")
                        return
                    yield x
                    yield y
                elif header or not row:
                    skipped.append(records)
                    header = header and not row
                else:
                    error = CliError(f"row {records}: expected 2 columns, got {len(row)}")
                    return
        except (UnicodeError, csv.Error) as exc:
            error = CliError(f"cannot read {path}: {exc}")

    values = np.empty((0, 2))
    with handle:
        blocks = _text_blocks(handle)
        try:
            for text in blocks:
                rows = None if header else _plain_rows(text)
                if rows is None:
                    lines = io.StringIO(text, newline="")
                    if '"' in text:
                        lines = itertools.chain(lines, itertools.chain.from_iterable(
                            io.StringIO(rest, newline="") for rest in blocks))
                    rows = np.fromiter(cells(lines), dtype=float).reshape(-1, 2)
                else:
                    records += len(rows)
                # One buffer grows by each block, so no second copy of the
                # read values is ever held.
                values.resize((len(values) + len(rows), 2), refcheck=False)
                values[len(values) - len(rows):] = rows
                if error is not None:
                    break
        except UnicodeError as exc:
            error = CliError(f"cannot read {path}: {exc}")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise CliError(f"row {_record_number(int(bad[0]), skipped)}: NaN or infinite value")
    if error is not None:
        raise error
    if len(values) < 2:
        raise CliError("need at least 2 data rows")
    x, y = values.T
    return PairedSample(x, y), skipped


def _tie_error(sample: PairedSample, skipped: list[int], exc: TiesError) -> CliError:
    """The `stat` message for a tie, naming its margin and csv record numbers."""
    i, j = exc.positions
    # x's repeat is raised first, so a tie reported for y means x has no ties.
    label = "x" if sample.x[i] == sample.x[j] else "y"
    return CliError(
        f"tied {label} value {exc.value!r} in rows {_record_number(i, skipped)} "
        f"and {_record_number(j, skipped)}; continuous data expected",
        code=EXIT_TIES,
    )


def _cmd_stat(args: argparse.Namespace) -> int:
    sample, skipped = _read_paired_csv(args.input, args.header)
    try:
        result = footrule_coefficient(sample)
    except TiesError as exc:
        raise _tie_error(sample, skipped, exc) from exc
    z = math.sqrt(result.n) * result.phi / math.sqrt(limiting_variance())
    if args.exact:
        p = float(enumerate_null_distribution(result.n).two_sided_p(result.distance))
        method = METHOD_EXACT
    else:
        p = 2.0 * (1.0 - normal_cdf(abs(z)))
        method = METHOD_NORMAL
    # The CSV goes first, so a run whose --out fails prints no report.
    if args.out:
        _write_csv(
            Path(args.out),
            ["n", "distance", "phi", "z", "p_value", "method"],
            [([result.n], [result.distance], np.array([result.phi]), np.array([z]),
              np.array([p]), [method])],
            args.full_precision,
        )
    fmt = _float_format(args.full_precision)
    report = (f"n         {result.n}\n"
              f"distance  {result.distance}\n"
              f"phi       {fmt(float(result.phi))}\n"
              f"z         {fmt(float(z))}\n"
              f"p-value   {fmt(float(p))} ({method})\n")
    _to_stdout(lambda handle: handle.write(report))
    return EXIT_OK


def _out_path(out: str | Path | None) -> Path | None:
    """The --out path, checked before the command's work starts.

    A path naming a directory, or a missing or unwritable directory,
    fails at once instead of after a whole study or exact-law build;
    `_write_csv` still reports any later write error.
    """
    if not out:
        return None
    path = Path(out)
    if path.is_dir():
        raise CliError(f"cannot write {path}: Is a directory")
    if not path.parent.is_dir():
        raise CliError(f"cannot write {path}: no directory {path.parent}")
    if not os.access(path.parent, os.W_OK | os.X_OK):
        raise CliError(f"cannot write {path}: directory {path.parent} is not writable")
    return path


def _cmd_exact(args: argparse.Namespace) -> int:
    path = _out_path(args.out)
    dist = enumerate_null_distribution(args.n)
    distances, counts = zip(*dist.sorted_items())
    # Exact integer division: each probability is the correctly rounded float.
    total = dist.total
    block = (distances, counts, np.array([dist.phi(d) for d in distances]),
             np.array([count / total for count in counts]))
    _write_csv(path, ["d", "count", "phi", "probability"], [block], args.full_precision)
    return EXIT_OK


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad --n-list {text!r}: {exc}") from exc


def _cmd_simulate_moments(args: argparse.Namespace) -> int:
    path = _out_path(args.out)
    rows = []
    for entry in run_moment_study(
        seed=args.seed,
        sample_sizes=_parse_n_list(args.n_list),
        replications=args.reps,
        threads=args.threads,
    ):
        s = entry.summary
        rows.append([entry.statistic.value, entry.n, s.em, s.ev, s.bias, s.rmse])
        if entry.redraws:
            print(
                f"note: {entry.redraws} tie redraws at n={entry.n} "
                f"for {entry.statistic.value}",
                file=sys.stderr,
            )
    labels, sizes, *floats = zip(*rows)
    _write_csv(path, ["statistic", "n", "em", "ev", "bias", "rmse"],
               [(labels, sizes, *map(np.array, floats))], args.full_precision)
    return EXIT_OK


def _cmd_simulate_kstest(args: argparse.Namespace) -> int:
    path = _out_path(args.out)
    rows = [
        [entry.n, entry.combination, entry.outcome.statistic, entry.outcome.p_value]
        for entry in run_ks_study(
            seed=args.seed,
            sample_sizes=_parse_n_list(args.n_list),
            replications=args.reps,
            threads=args.threads,
        )
    ]
    sizes, combinations, *floats = zip(*rows)
    _write_csv(path, ["n", "combination", "ks_stat", "p_value"],
               [(sizes, combinations, *map(np.array, floats))], args.full_precision)
    return EXIT_OK


def _curve_paths(base: Path) -> tuple[Path, Path]:
    stem = base.with_suffix("") if base.suffix == ".csv" else base
    return stem.with_name(stem.name + "_density.csv"), stem.with_name(stem.name + "_cdf.csv")


def _curve_block(entry: CurveRow, grid: list[str], values: np.ndarray,
                 ref: np.ndarray) -> tuple:
    """One curve's CSV block: statistic, n, grid cells, curve values, reference."""
    size = len(grid)
    return [entry.statistic.value] * size, [str(entry.n)] * size, grid, values, ref


def _cmd_simulate_curves(args: argparse.Namespace) -> int:
    if not args.out:
        raise CliError("curves writes two files; --out is required")
    density_path, cdf_path = map(_out_path, _curve_paths(Path(args.out)))
    entries = run_curve_study(
        seed=args.seed,
        sample_sizes=_parse_n_list(args.n_list),
        replications=args.reps,
        grid_size=args.grid_size,
        threads=args.threads,
    )
    # Both files share each curve's grid, so it is formatted once.
    fmt = _float_format(args.full_precision)
    grids = [list(_cells(e.grid, fmt)) for e in entries]
    _write_csv(density_path, ["statistic", "n", "grid", "density", "ref_density"],
               (_curve_block(e, g, e.density, e.ref_density)
                for e, g in zip(entries, grids)),
               args.full_precision)
    try:
        _write_csv(cdf_path, ["statistic", "n", "grid", "cdf", "ref_cdf"],
                   (_curve_block(e, g, e.cdf, e.ref_cdf) for e, g in zip(entries, grids)),
                   args.full_precision)
    except BaseException:
        density_path.unlink(missing_ok=True)
        raise
    return EXIT_OK


def _add_simulate_common(parser: argparse.ArgumentParser, default_reps: int,
                         out_help: str = "output CSV path (default: stdout)") -> None:
    parser.add_argument("--seed", type=int, default=42, help="stream seed (default 42)")
    parser.add_argument("--reps", type=int, default=default_reps,
                        help=f"replications per sample size (default {default_reps})")
    parser.add_argument("--n-list", default="10,20,30,40,50,60,70,80,90,100",
                        help="comma-separated sample sizes")
    parser.add_argument("--out", help=out_help)
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads across the batches of one n, capped "
                             "at the CPU count; never changes output bytes (default 1)")
    parser.add_argument("--full-precision", action="store_true",
                        help="emit shortest round-trip decimals instead of 5 places")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help to stdout goes through `_to_stdout`:
    argparse ignores a failed write, so lost help would exit 0."""

    def print_help(self, file=None) -> None:
        if file is None:
            _to_stdout(lambda handle: handle.write(self.format_help()))
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="footrule",
        description="Spearman's footrule: statistic, exact null law, and "
                    "simulation studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stat = sub.add_parser("stat", help="coefficient and independence test on a CSV")
    stat.add_argument("input", help="two-column CSV of reals")
    stat.add_argument("--header", action="store_true",
                      help="first non-blank row is a header, skip it")
    stat.add_argument("--exact", action="store_true",
                      help=f"exact permutation p-value (n <= {EXACT_MAX_N})")
    stat.add_argument("--out", help="also write the report as CSV")
    stat.add_argument("--full-precision", action="store_true",
                      help="emit shortest round-trip decimals instead of 5 places")
    stat.set_defaults(func=_cmd_stat)

    exact = sub.add_parser("exact", help="exact null distribution as CSV")
    exact.add_argument("n", type=int, help=f"sample size, 2..{EXACT_MAX_N}")
    exact.add_argument("--out", help="output CSV path (default: stdout)")
    exact.add_argument("--full-precision", action="store_true",
                       help="emit shortest round-trip decimals instead of 5 places")
    exact.set_defaults(func=_cmd_exact)

    simulate = sub.add_parser("simulate", help="run a simulation study")
    study = simulate.add_subparsers(dest="study", required=True)

    moments = study.add_parser("moments", help="EM/EV/bias/RMSE per statistic and n")
    _add_simulate_common(moments, default_reps=10_000)
    moments.set_defaults(func=_cmd_simulate_moments)

    kstest = study.add_parser("kstest", help="KS p-values for the six combinations")
    _add_simulate_common(kstest, default_reps=1_000)
    kstest.set_defaults(func=_cmd_simulate_kstest)

    curves = study.add_parser("curves", help="KDE and ECDF curve data")
    _add_simulate_common(curves, default_reps=100_000,
                         out_help="base path, required: writes <out>_density.csv "
                                  "and <out>_cdf.csv (a .csv suffix is dropped)")
    curves.add_argument("--grid-size", type=int, default=512,
                        help="points per curve (default 512)")
    curves.set_defaults(func=_cmd_simulate_curves, n_list="10,20,30,100")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on first use, then kept for the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        error, code = exc, exc.code
    except TiesError as exc:
        error, code = exc, EXIT_TIES
    except (ValueError, MemoryError) as exc:
        # Invalid study settings, other library input errors, and settings
        # too large for memory.
        error, code = exc, EXIT_USAGE
    print(f"footrule: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
