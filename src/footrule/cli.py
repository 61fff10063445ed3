"""Command-line front end.

Commands:
  stat      compute the coefficient on a two-column CSV and test independence
  exact     dump the exact permutation null distribution (n <= 100)
  simulate  run the moments / kstest / curves studies and emit CSV

Exit codes: 0 success, 2 usage errors (including invalid study settings,
an unreadable input CSV and an unwritable --out), 3 tied data (the
continuity assumption is violated).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .common import TiesError
from .moments import limiting_variance
from .ranks import (
    EXACT_MAX_N,
    ExactNullDistribution,
    PairedSample,
    enumerate_null_distribution,
    footrule_coefficient,
)
from .simulate import run_curve_study, run_ks_study, run_moment_study
from .stats import normal_cdf

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TIES = 3

METHOD_NORMAL = "Normal"
METHOD_EXACT = "Exact"


@dataclass(frozen=True)
class TestReport:
    """Independence-test result for one data set."""

    n: int
    distance: int
    phi: float
    z: float
    p_two_sided: float
    method: str


class CliError(Exception):
    """Fatal CLI problem; carries the exit code."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _fmt(value, full_precision: bool) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value)) if full_precision else f"{float(value):.5f}"


def _write_csv(path: Path | None, header: list[str], rows, full_precision: bool) -> None:
    """Write rows as CSV; a partial file never survives a failure."""
    def emit(handle) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v, full_precision) for v in row])

    if path is None:
        emit(sys.stdout)
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


# CSV records converted per `np.fromiter` call. It bounds what a read
# holds besides the parsed values: one chunk of record lists.
_CHUNK_RECORDS = 8192


def _csv_rows(handle, path: str, failure: list[CliError]):
    """CSV records of an open file.

    Undecodable bytes or an oversized field end the records; that error
    (exit 2) goes into `failure`, so the records read before it still count.
    """
    try:
        yield from csv.reader(handle)
    except (UnicodeDecodeError, csv.Error) as exc:
        failure.append(CliError(f"cannot read {path}: {exc}"))


def _floats(records) -> np.ndarray:
    """The cells of two-cell records, in file order, as one float64 array."""
    return np.fromiter(map(float, itertools.chain.from_iterable(records)),
                       dtype=float, count=2 * len(records))


def _chunk_values(chunk: list[list[str]], first: int, skipped: list[int]):
    """Values of a chunk's data records up to its first bad record, and its error.

    `first` is the csv record number of the chunk's first record. A chunk
    of two-cell records that all parse takes one `np.fromiter`; any other
    chunk is scanned record by record, which skips blank records (their
    numbers go to `skipped`) and names the first bad one.
    """
    if set(map(len, chunk)) == {2}:
        try:
            return _floats(chunk), None
        except ValueError:
            pass
    rows = []
    error = None
    for number, row in enumerate(chunk, start=first):
        if not row:
            skipped.append(number)
            continue
        if len(row) != 2:
            error = CliError(f"row {number}: expected 2 columns, got {len(row)}")
            break
        try:
            float(row[0]), float(row[1])
        except ValueError:
            error = CliError(f"row {number}: cannot parse {','.join(row)!r}")
            break
        rows.append(row)
    return _floats(rows), error


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


def _read_paired_csv(path: str, has_header: bool) -> tuple[PairedSample, list[int]]:
    """The two columns of a `stat` CSV, and the numbers of its non-data records.

    The input is read once, as a stream, so a pipe works. The first bad
    record in file order exits 2 with its csv record number: every
    record before a malformed or unreadable one is parsed, and a NaN or
    infinite value is found by one numpy check over all of them.
    """
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise CliError(f"cannot open {path}: {exc}") from exc
    read_errors: list[CliError] = []
    skipped: list[int] = []
    parts = [np.empty(0)]
    error = None
    with handle:
        records = _csv_rows(handle, path, read_errors)
        if has_header:
            next(records, None)
            skipped.append(1)
        first = len(skipped) + 1
        while error is None:
            chunk = list(itertools.islice(records, _CHUNK_RECORDS))
            if not chunk:
                break
            values, error = _chunk_values(chunk, first, skipped)
            parts.append(values)
            first += len(chunk)
    values = np.concatenate(parts).reshape(-1, 2)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise CliError(f"row {_record_number(int(bad[0]), skipped)}: NaN or infinite value")
    # A read error ends the records, so a bad record in the last chunk is earlier.
    error = error or (read_errors[0] if read_errors else None)
    if error is not None:
        raise error
    if len(values) < 2:
        raise CliError("need at least 2 data rows")
    x, y = np.ascontiguousarray(values.T)
    return PairedSample(x, y), skipped


def _tie_error(sample: PairedSample, skipped: list[int], exc: TiesError) -> CliError:
    """The `stat` message for a tie, naming its margin and csv record numbers."""
    i, j = exc.positions
    # x is ranked first, so a tie reported for y means x has no ties.
    label = "x" if sample.x[i] == sample.x[j] else "y"
    return CliError(
        f"tied {label} value {exc.value!r} in rows {_record_number(i, skipped)} "
        f"and {_record_number(j, skipped)}; continuous data expected",
        code=EXIT_TIES,
    )


def _independence_report(sample: PairedSample, exact: bool) -> TestReport:
    result = footrule_coefficient(sample)
    z = math.sqrt(result.n) * result.phi / math.sqrt(limiting_variance())
    if exact:
        if result.n > EXACT_MAX_N:
            raise CliError(f"--exact supports n <= {EXACT_MAX_N}, got {result.n}")
        dist = enumerate_null_distribution(result.n)
        p = float(dist.two_sided_p(int(result.distance)))
        method = METHOD_EXACT
    else:
        p = 2.0 * (1.0 - normal_cdf(abs(z)))
        method = METHOD_NORMAL
    return TestReport(
        n=result.n,
        distance=int(result.distance),
        phi=result.phi,
        z=z,
        p_two_sided=p,
        method=method,
    )


def _cmd_stat(args: argparse.Namespace) -> int:
    sample, skipped = _read_paired_csv(args.input, args.header)
    try:
        report = _independence_report(sample, args.exact)
    except TiesError as exc:
        raise _tie_error(sample, skipped, exc) from exc
    full = args.full_precision
    # The CSV goes first, so a run whose --out fails prints no report.
    if args.out:
        _write_csv(
            Path(args.out),
            ["n", "distance", "phi", "z", "p_value", "method"],
            [[report.n, report.distance, report.phi, report.z,
              report.p_two_sided, report.method]],
            full,
        )
    print(f"n         {report.n}")
    print(f"distance  {report.distance}")
    print(f"phi       {_fmt(report.phi, full)}")
    print(f"z         {_fmt(report.z, full)}")
    print(f"p-value   {_fmt(report.p_two_sided, full)} ({report.method})")
    return EXIT_OK


def _out_path(out: str | None) -> Path | None:
    """The --out path, checked before the command's work starts.

    A missing or unwritable directory fails at once instead of after a
    whole study or exact-law build; `_write_csv` still reports any later
    write error.
    """
    if not out:
        return None
    path = Path(out)
    if not path.parent.is_dir():
        raise CliError(f"cannot write {path}: no directory {path.parent}")
    if not os.access(path.parent, os.W_OK | os.X_OK):
        raise CliError(f"cannot write {path}: directory {path.parent} is not writable")
    return path


def _exact_rows(dist: ExactNullDistribution):
    total = dist.total
    for d, count in dist.sorted_items():
        yield [d, count, dist.phi(d), count / total]


def _cmd_exact(args: argparse.Namespace) -> int:
    if not 2 <= args.n <= EXACT_MAX_N:
        raise CliError(f"n must be in [2, {EXACT_MAX_N}], got {args.n}")
    path = _out_path(args.out)
    dist = enumerate_null_distribution(args.n)
    _write_csv(path, ["d", "count", "phi", "probability"],
               _exact_rows(dist), args.full_precision)
    return EXIT_OK


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad --n-list {text!r}: {exc}") from exc
    return sizes


def _threads(args: argparse.Namespace) -> int:
    if args.threads is not None:
        value = args.threads
    else:
        try:
            value = int(os.environ.get("FOOTRULE_THREADS", "1"))
        except ValueError as exc:
            raise CliError(f"bad FOOTRULE_THREADS: {exc}") from exc
    if value < 1:
        raise CliError("thread count must be >= 1")
    # Threads beyond the CPU count only add start-up cost; bytes never depend on it.
    return min(value, os.cpu_count() or 1)


def _cmd_simulate_moments(args: argparse.Namespace) -> int:
    path = _out_path(args.out)
    rows = []
    for entry in run_moment_study(
        seed=args.seed,
        sample_sizes=_parse_n_list(args.n_list),
        replications=args.reps,
        threads=_threads(args),
    ):
        s = entry.summary
        rows.append([entry.statistic.value, entry.n, s.em, s.ev, s.bias, s.rmse])
        if entry.redraws:
            print(
                f"note: {entry.redraws} tie redraws at n={entry.n} "
                f"for {entry.statistic.value}",
                file=sys.stderr,
            )
    _write_csv(path, ["statistic", "n", "em", "ev", "bias", "rmse"],
               rows, args.full_precision)
    return EXIT_OK


def _cmd_simulate_kstest(args: argparse.Namespace) -> int:
    path = _out_path(args.out)
    rows = [
        [entry.n, entry.combination, entry.outcome.statistic, entry.outcome.p_value]
        for entry in run_ks_study(
            seed=args.seed,
            sample_sizes=_parse_n_list(args.n_list),
            replications=args.reps,
            threads=_threads(args),
        )
    ]
    _write_csv(path, ["n", "combination", "ks_stat", "p_value"],
               rows, args.full_precision)
    return EXIT_OK


def _curve_paths(base: Path) -> tuple[Path, Path]:
    if base.suffix == ".csv":
        base = base.with_suffix("")
    return (
        base.with_name(base.name + "_density.csv"),
        base.with_name(base.name + "_cdf.csv"),
    )


def _cmd_simulate_curves(args: argparse.Namespace) -> int:
    if not args.out:
        raise CliError("curves writes two files; --out is required")
    density_path, cdf_path = _curve_paths(_out_path(args.out))
    entries = run_curve_study(
        seed=args.seed,
        sample_sizes=_parse_n_list(args.n_list),
        replications=args.reps,
        grid_size=args.grid_size,
        threads=_threads(args),
    )
    density_rows = []
    cdf_rows = []
    for entry in entries:
        label = entry.statistic.value
        for g, dens, ref in zip(entry.density.grid, entry.density.values,
                                entry.ref_density):
            density_rows.append([label, entry.n, g, dens, ref])
        for g, height, ref in zip(entry.cdf.grid, entry.cdf.values, entry.ref_cdf):
            cdf_rows.append([label, entry.n, g, height, ref])
    _write_csv(density_path, ["statistic", "n", "grid", "density", "ref_density"],
               density_rows, args.full_precision)
    try:
        _write_csv(cdf_path, ["statistic", "n", "grid", "cdf", "ref_cdf"],
                   cdf_rows, args.full_precision)
    except BaseException:
        density_path.unlink(missing_ok=True)
        raise
    return EXIT_OK


def _add_simulate_common(parser: argparse.ArgumentParser, default_reps: int) -> None:
    parser.add_argument("--seed", type=int, default=42, help="stream seed (default 42)")
    parser.add_argument("--reps", type=int, default=default_reps,
                        help=f"replications per sample size (default {default_reps})")
    parser.add_argument("--n-list", default="10,20,30,40,50,60,70,80,90,100",
                        help="comma-separated sample sizes")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads across batches of about 2^17 random "
                             "words; a study with one batch per (statistic, n) "
                             "runs inline; capped at the CPU count. Never "
                             "changes output bytes (default: FOOTRULE_THREADS or 1)")
    parser.add_argument("--paper-marginals", action="store_true",
                        help="no-op, kept for compatibility: normal-x/uniform-y "
                             "data have the same ranks as the uniform pairs "
                             "drawn, so output bytes are the same")
    parser.add_argument("--full-precision", action="store_true",
                        help="emit shortest round-trip decimals instead of 5 places")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="footrule",
        description="Spearman's footrule: statistic, exact null law, and "
                    "simulation studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stat = sub.add_parser("stat", help="coefficient and independence test on a CSV")
    stat.add_argument("input", help="two-column CSV of reals")
    stat.add_argument("--header", action="store_true",
                      help="first row is a header, skip it")
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
    _add_simulate_common(curves, default_reps=100_000)
    curves.add_argument("--grid-size", type=int, default=512,
                        help="points per curve (default 512)")
    curves.set_defaults(func=_cmd_simulate_curves, n_list="10,20,30,100")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on first use, then kept for the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        error, code = exc, exc.code
    except TiesError as exc:
        error, code = exc, EXIT_TIES
    except ValueError as exc:
        # Invalid study settings and other library input errors.
        error, code = exc, EXIT_USAGE
    print(f"footrule: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
