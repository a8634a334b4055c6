"""Command-line surface: stats, table, sweep and dist subcommands.

Output is machine-readable (csv or json) or a 2-decimal pretty table for
humans.  Every artifact echoes the physics and policy inputs that produced
it, csv as leading ``# key=value`` comment lines and json under an
``inputs`` key.  Numeric fields in csv/json carry full double precision;
identical invocations produce byte-identical output.

Exit codes: 0 success, 2 usage error (a malformed or rejected input value
included) or a failed write, 3 adaptive run failed to converge (or, for
dist, listed more rows than its hard cap).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import re
import sys

from . import stats as engine
from .core import PotentialParams
from .lab import SweepSpec, sweep_row, sweep_rows
from .stats import DEFAULT_POLICY, LogSeriesSums, TruncationPolicy, weight_distribution
# Not called here, but the benchmark's tracer (bench/tracing.py) wraps
# ghacs.cli.state_stats and ghacs.cli.run_sweep, so the names stay bound.
from .lab import run_sweep  # noqa: F401
from .stats import state_stats  # noqa: F401

EXIT_UNCONVERGED = 3
# The most |z| points a sweep grid may hold.
_MAX_GRID_POINTS = 10 ** 6
# The adaptive flags and the policy fields they set.
_ADAPTIVE_FLAGS = {"--tail-tol": "tail_tolerance", "--quiet-run": "quiet_run",
                   "--hard-cap": "hard_cap"}


class UsageError(Exception):
    """A rejected input value or a failed write: the usage line and the message, exit 2."""


def _policy_from_flags(args, fixed_nmax=None) -> TruncationPolicy:
    """The truncation policy the adaptive flags set, or ``fixed_nmax``'s fixed one.

    ``fixed_nmax`` is the value of stats' and dist's --fixed-nmax; beside it
    an adaptive flag has nothing to set and is refused.
    """
    tolerances = {field: value for field in _ADAPTIVE_FLAGS.values()
                  if (value := getattr(args, field)) is not None}
    if fixed_nmax is None:
        return TruncationPolicy.adaptive(**tolerances)
    if args.adaptive:
        raise UsageError("--adaptive and --fixed-nmax are mutually exclusive")
    if tolerances:
        flags = " or ".join(f for f, field in _ADAPTIVE_FLAGS.items() if field in tolerances)
        raise UsageError(f"--fixed-nmax cannot be given with {flags}, "
                         "which set adaptive truncation only")
    return TruncationPolicy.fixed(fixed_nmax)


def _policy_inputs(policy: TruncationPolicy) -> dict:
    if policy.n_max is not None:
        return {"policy": "fixed", "n_max": policy.n_max}
    return {"policy": "adaptive", "tail_tolerance": policy.tail_tolerance,
            "quiet_run": policy.quiet_run, "hard_cap": policy.hard_cap}


def _check_out(out: str | None) -> None:
    """Refuse, before the run, an --out that is a directory, lies in a missing
    directory or is a file that cannot be written.

    ``_sink`` opens the file only after the run, so that a run that exits 3
    creates none.
    """
    if out is None:
        return
    if os.path.isdir(out):
        raise UsageError(f"cannot write --out {out!r}: Is a directory")
    if not os.path.isdir(os.path.dirname(out) or os.curdir):
        raise UsageError(f"cannot write --out {out!r}: No such file or directory")
    if os.path.exists(out) and not os.access(out, os.W_OK):
        raise UsageError(f"cannot write --out {out!r}: Permission denied")


@contextlib.contextmanager
def _sink(out: str | None):
    """stdout, or the file ``out`` opened for writing with LF line endings.

    An OSError in opening, writing or flushing, such as a closed pipe or a
    full disk, is a usage error (exit 2).  On stdout, fd 1 is pointed at
    the null device first, so that the interpreter's own flush at exit
    does not fail again (the ``signal`` module docs' note on SIGPIPE).
    """
    name = "stdout" if out is None else f"--out {out!r}"
    try:
        if out is None:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(out, "w", newline="\n") as fh:
                yield fh
    except OSError as exc:
        if out is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise UsageError(f"cannot write {name}: {exc.strerror}") from None


def _emit(fmt, out, inputs, header, rows, footers):
    """Write a command's output, the only writer: the inputs (``# key=value``
    lines, or json's "inputs"), csv's header line, the text of ``rows``, each
    string of whole rows parted from the last as ``_row_format`` parts rows,
    and ``footers`` (more such lines, ``key  value`` in the table, or json's
    entries after "rows").  A non-finite json value is refused first.
    """
    joint = _row_format(fmt, header)[1]
    if fmt == "json":
        head, tail = _json_frame({"inputs": inputs, "rows": [], **footers})
    else:
        head = "".join(map("# %s=%s\n".__mod__, inputs.items()))
        head += ",".join(header) + "\n" if fmt == "csv" else ""
        line = "# %s=%s\n" if fmt == "csv" else "%s  %s\n"
        tail = "".join(map(line.__mod__, footers.items()))
    with _sink(out) as fh:
        fh.write(head)
        parted = ""  # becomes the joint after the first row: only json's is not empty
        for text in rows:
            fh.write(parted + text)
            parted = joint
        # After json's last row, the indent of the "]" that closes the list.
        fh.write("\n  " + tail if parted else tail)


def _row_format(fmt, names):
    """A row's ``%``-template, one ``%s`` per name, and the text between two
    rows: a csv line and none, or a json object laid out as json.dumps(...,
    indent=2) lays out an entry of the "rows" list and a comma."""
    if fmt == "json":
        fields = ",\n".join(f'      "{name}": %s' for name in names)
        return "\n    {\n" + fields + "\n    }", ","
    return ",".join(["%s"] * len(names)) + "\n", ""


def _rows(fmt, header, rows):
    """The strings of ``rows``' text, values in ``header``'s order: one, by
    ``_row_format``, each json row's values encoded by one strict json.dumps
    (no NaN or Infinity tokens), or a line per row of the table's cells."""
    if fmt == "table":
        return _table_lines(rows)
    template, joint = _row_format(fmt, header)
    if fmt == "json":
        import json

        # A value a line: json.dumps escapes every newline in a string.
        rows = [json.dumps(row, allow_nan=False, separators=("\n", ":"))[1:-1].split("\n")
                for row in rows]
    return [joint.join(template % tuple(row) for row in rows)]


def _table_lines(cells):
    """A line per row of ``cells``, made as it is read, from one template of the column widths."""
    widths = [max(map(len, column)) for column in zip(*cells)]
    template = "  ".join(f"%-{w}s" for w in widths)
    return ((template % tuple(row)).rstrip() + "\n" for row in cells)


def _json_frame(payload) -> tuple[str, str]:
    """The text of strict ``json.dumps(payload, indent=2)``, its ``"rows"``
    list empty, cut between that list's brackets."""
    import json

    head, tail = json.dumps(payload, indent=2, allow_nan=False).split('\n  "rows": []', 1)
    return head + '\n  "rows": [', "]" + tail + "\n"


# dist writes its rows in blocks of this many indices, a power of ten: past
# block 0, a block's indices are its number followed by three digits each.
_BLOCK = 1000


@functools.lru_cache(maxsize=16)
def _block_lines(line, width, first, joint):
    """The ``_BLOCK`` lines of a block of rows, and their text, ``joint``
    between two: ``line`` with its "#" replaced by each row's index text,
    left-justified to ``width``.

    In block 0 (``first``) the text is the index j itself; in every later
    block it is "@" and j's three digits, "@" standing for the block number.
    """
    lines = tuple(line.replace("#", (str(j) if first else f"@{j:03d}").ljust(width))
                  for j in range(_BLOCK))
    return lines, joint.join(lines)


def _row_blocks(zeros, end, rows, line, zero_line, width, joint):
    """The text of rows 0 .. end - 1, ``joint`` between two, a string per block of ``_BLOCK``.

    Row n is ``zero_line`` below ``zeros`` and ``line`` filled with the next
    of the iterator ``rows`` from there, each with its index in place of
    "#", left-justified to ``width``.  A block's template is its runs of
    those two lines, cut from ``_block_lines``, with the block number put
    in; its rows from ``rows`` are one ``%`` over it, and ``zero_line``
    holds no "%".
    """
    for lo in range(0, end, _BLOCK):
        hi = min(lo + _BLOCK, end)
        mid = min(max(zeros, lo), hi)  # the first stored row in the block
        number = str(lo // _BLOCK) if lo else ""
        # Past block 0, "@" stands for the number's digits.
        key = (max(width + 1 - len(number), 0), False) if lo else (width, True)
        runs = []
        for run_line, start, stop in ((zero_line, lo, mid), (line, mid, hi)):
            if start < stop:
                lines, whole = _block_lines(run_line, *key, joint)
                if stop - start < _BLOCK:
                    whole = joint.join(lines[start - lo:stop - lo])
                runs.append(whole)
        text = joint.join(runs).replace("@", number)
        if mid < hi:
            text %= tuple(itertools.islice(rows, hi - mid))
        yield text


def _fmt3(x) -> str:
    return "undefined" if x is None else f"{x:.3f}"


def _q_value(q):
    return "undefined" if q is None else q


def _converged(policy: TruncationPolicy, sums: LogSeriesSums) -> bool:
    """False, with the hard-cap message on stderr, for an unconverged adaptive run."""
    if policy.n_max is None and not sums.converged:
        print("error: adaptive accumulation hit hard_cap "
              f"({policy.hard_cap}) before the tail criterion fired", file=sys.stderr)
        return False
    return True


@contextlib.contextmanager
def _usage_errors():
    """Report an input value the engine rejects as a usage error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_list(text, cast, name):
    if not text:
        return ()
    try:
        return tuple(cast(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"could not parse --{name} value {text!r}") from None


def stats(args) -> int:
    """Mean, variance, Mandel Q and normalization for a single amplitude."""
    k, gamma, z = args.k, args.gamma, args.z
    with _usage_errors():
        policy = _policy_from_flags(args, args.fixed_nmax)
        # Looked up on the module, where the benchmark's tracer wraps them.
        sums = engine.accumulate_sums(z, PotentialParams(k=k, gamma=gamma), policy)
    # Convergence is settled before the moments: an unconverged run's
    # documented outcome is exit 3 with nothing printed.
    if not _converged(policy, sums):
        return EXIT_UNCONVERGED
    st = engine.stats_from_sums(sums)

    inputs = {"k": k, "gamma": gamma, "z": z, **_policy_inputs(policy)}
    header = ["mean", "variance", "mandel_q", "normalization",
              "terms_used", "converged", "threshold"]
    rows = [[st.mean, st.variance, _q_value(st.mandel_q), st.normalization,
             st.sums.terms_used, st.sums.converged, st.sums.estimated_threshold]]
    if args.fmt == "table":
        rows = [["quantity", "value"], *zip(header, [
            f"{st.mean:.2f}", f"{st.variance:.2f}", _fmt3(st.mandel_q),
            f"{st.normalization:.6g}", str(st.sums.terms_used),
            str(st.sums.converged).lower(), str(st.sums.estimated_threshold)])]
    _emit(args.fmt, args.out, inputs, header, _rows(args.fmt, header, rows), {})
    return 0


def table(args) -> int:
    """Adaptive vs fixed-cutoff moments, one row per amplitude."""
    k, gamma, fixed_nmax = args.k, args.gamma, args.fixed_nmax
    zs = _parse_list(args.z_list, float, "z-list")
    if not zs:
        raise UsageError("--z-list must contain at least one amplitude")
    with _usage_errors():
        params = PotentialParams(k=k, gamma=gamma)
        adaptive_policy = _policy_from_flags(args)
    pairs = []
    for z in zs:
        with _usage_errors():
            row = sweep_row(z, params, adaptive_policy, (fixed_nmax,))
        if not _converged(adaptive_policy, row.adaptive_stats.sums):
            return EXIT_UNCONVERGED
        pairs.append((z, row.adaptive_stats, row.fixed_stats[fixed_nmax]))

    header = ["z", "mean", "variance", "mandel_q",
              "mean_fixed", "variance_fixed", "mandel_q_fixed",
              "threshold", "n_max"]
    rows = [[z, a.mean, a.variance, _q_value(a.mandel_q), f.mean, f.variance,
             _q_value(f.mandel_q), a.sums.estimated_threshold, fixed_nmax] for z, a, f in pairs]
    if args.fmt == "table":
        rows = [header] + [
            [f"{z:g}", f"{a.mean:.2f}", f"{a.variance:.2f}", _fmt3(a.mandel_q),
             f"{f.mean:.2f}", f"{f.variance:.2f}", _fmt3(f.mandel_q),
             str(a.sums.estimated_threshold), str(fixed_nmax)] for z, a, f in pairs]
    inputs = {"k": k, "gamma": gamma, **_policy_inputs(adaptive_policy),
              "fixed_nmax": fixed_nmax}
    _emit(args.fmt, args.out, inputs, header, _rows(args.fmt, header, rows), {})
    return 0


def _z_grid(z_min, z_max, z_step) -> tuple[float, ...]:
    """z_min, z_min + z_step, ... up to z_max, each rounded to 12 decimals."""
    if not (all(map(math.isfinite, (z_min, z_max, z_step)))
            and z_step > 0 and z_max >= z_min >= 0):
        raise UsageError("need finite z_min >= 0, z_max >= z_min and z_step > 0")
    steps = (z_max - z_min) / z_step
    if not math.isfinite(steps) or round(steps) + 1 > _MAX_GRID_POINTS:
        raise UsageError(f"z_step = {z_step} gives more than {_MAX_GRID_POINTS} grid points")
    steps = round(steps)
    grid = (round(z_min + i * z_step, 12) for i in range(steps + 1))
    grid = tuple(z for z in grid if z <= z_max + 1e-12)
    if len(set(grid)) < len(grid):  # rounding keeps the order, so only repeats
        raise UsageError(f"--z-step {z_step} is finer than the grid resolves: each |z| "
                         "is rounded to 12 decimals, and to the float spacing near --z-max")
    return grid


def sweep(args) -> int:
    """Mandel Q versus |z| for the adaptive policy and each fixed cutoff.

    After the rows, one footer per cutoff gives its collapse onset: the
    first |z| where its Q lies 0.5 below the adaptive Q (None if none).
    """
    k, gamma, fmt = args.k, args.gamma, args.fmt
    grid = _z_grid(args.z_min, args.z_max, args.z_step)
    cut = _parse_list(args.cutoffs, int, "cutoffs")
    header, labels = ["z", "cutoff", "mandel_q", "status"], ["adaptive", *map(str, cut)]
    # An unconverged row's Q is a truncated window's, not the series': it
    # prints none, an empty csv cell, json null or "-" in the table.
    no_q, show = {"csv": ("", _q_value), "json": (None, _q_value), "table": ("-", _fmt3)}[fmt]
    # Each grid point is run, then kept only as the text of its rows, or
    # as its table cells, whose widths need them all.  Nothing is written
    # before the last point ran.
    onsets, points = dict.fromkeys(cut), []
    with _usage_errors():
        spec = SweepSpec(k=k, gamma=gamma, z_grid=grid, cutoffs=cut)
        policy = _policy_from_flags(args)
        for row in sweep_rows(spec, policy):
            onsets.update((c, row.abs_z) for c in cut if onsets[c] is None and row.collapsed(c))
            z, records = f"{row.abs_z:g}" if fmt == "table" else row.abs_z, []
            for label, st in zip(labels, (row.adaptive_stats, *map(row.fixed_stats.get, cut))):
                flagged = label == "adaptive" and row.flagged
                status = "unconverged" if flagged else "undefined" if st.mandel_q is None else "ok"
                records.append((z, label, no_q if flagged else show(st.mandel_q), status))
            points += records if fmt == "table" else _rows(fmt, header, records)

    inputs = {"k": k, "gamma": gamma, **_policy_inputs(policy),
              "z_min": args.z_min, "z_max": args.z_max, "z_step": args.z_step,
              "cutoffs": ",".join(labels[1:])}
    if fmt == "table":
        points = _rows(fmt, header, [header, *points])
    footers = {f"onset_{c}": z if fmt == "csv" or z is None else f"{z:g}"
               for c, z in onsets.items()}
    if fmt == "json":
        footers = {"onsets": {str(c): z for c, z in onsets.items()}} if cut else {}
    _emit(fmt, args.out, inputs, header, points, footers)
    return 0


def dist(args) -> int:
    """The weighting distribution P_n up to the truncation support bound."""
    k, gamma, z = args.k, args.gamma, args.z
    with _usage_errors():
        policy = _policy_from_flags(args, args.fixed_nmax)
        wd = weight_distribution(z, PotentialParams(k=k, gamma=gamma), policy)
    if not _converged(policy, wd.sums):
        return EXIT_UNCONVERGED
    # At large |z| the rows below the summed window far outnumber it, and
    # they all print 0.0: the hard cap bounds the rows printed too.
    if wd.support_bound >= policy.hard_cap:
        print(f"error: the distribution has {wd.support_bound + 1} rows, "
              f"more than hard_cap ({policy.hard_cap})", file=sys.stderr)
        return EXIT_UNCONVERGED

    # The rows below ``zeros``, the summed window's first index, are 0.0;
    # the rest are read off the walk, a block of 1,000 at a time, as written.
    fmt, zeros, total = args.fmt, wd.zero_rows, wd.total
    inputs = {"k": k, "gamma": gamma, "z": z, **_policy_inputs(policy)}
    # Each row is one line template, its index in "#" and its P_n in
    # ``slot``; the rows below ``zeros`` have ``zero`` there instead.
    header, slot, zero, width, heading = ["n", "p_n"], "%s", str(0.0), 0, []
    line, joint = _row_format(fmt, header)
    footers = {"weight_sum" if fmt == "json" else "sum": total}
    if fmt == "table":
        # The widest index is the last.  P_n's column is the last one, and
        # a line ends where its text does, so its width never shows.
        slot, zero, width = "%.6f", f"{0.0:.6f}", len(str(wd.support_bound))
        line, footers = "%s  %s\n", {"sum": f"{total:.10f}"}
        heading = [line % ("n".ljust(width), "p_n")]
    line %= ("#", slot)
    blocks = _row_blocks(zeros, wd.support_bound + 1, wd.rows(), line,
                         line.replace(slot, zero), width, joint)
    _emit(fmt, args.out, inputs, header, itertools.chain(heading, blocks), footers)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, reading every argument that starts with "-" and a digit (or
    ".digit"), or with "-inf" or "-nan" in any case, as a value.

    argparse's own matcher (Python 3.10 to 3.13) takes only plain negative
    integers and decimals, so ``--z -1e-05``, ``--z -inf``, ``--z-list -0,1``
    and ``--cutoffs -1,5`` ended in "expected one argument" instead of
    reaching the engine's checks.  No option name here looks like that.  The
    subcommand parsers are of this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)


def _parser(argv) -> argparse.ArgumentParser:
    """The parser of ``argv``: every subcommand, with its options only where
    its name is among the arguments, since no other can be reached.

    Each option costs a formatter, which reads the terminal size: a call
    adds at most 16 options, help options included, instead of 45.
    """
    parser = _Parser(
        prog="ghacs", allow_abbrev=False,
        description="Photon-number statistics of coherent states for power-law potentials.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for run in (stats, table, sweep, dist):
        doc = run.__doc__ or ""  # None under python -OO
        p = commands.add_parser(run.__name__, help=doc.partition("\n")[0],
                                description=doc, allow_abbrev=False)
        p.set_defaults(run=run, parser=p)
        if run.__name__ in argv:
            _add_options(p, run)
    return parser


def _add_options(p, run) -> None:
    """The options of the subcommand ``run`` on its parser ``p``."""
    p.add_argument("--k", type=float, required=True, metavar="FLOAT",
                   help="Power-law exponent k (> 0).")
    p.add_argument("--gamma", type=float, default=2.0, metavar="FLOAT",
                   help="Spectral offset gamma (> 0); enters as gamma/4.  "
                        "[default: %(default)s]")
    if run in (stats, dist):
        p.add_argument("--z", type=float, required=True, metavar="FLOAT",
                       help="Coherent-state amplitude |z| (>= 0).")
        p.add_argument("--adaptive", action="store_true",
                       help="Tolerance-driven truncation (default).")
        p.add_argument("--fixed-nmax", type=int, metavar="INTEGER",
                       help="Truncate at a fixed n_max instead of adaptively.")
    elif run is table:
        p.add_argument("--z-list", required=True, metavar="TEXT",
                       help="Comma-separated amplitudes, e.g. 2.5,5,7.5,10,12.5,15.")
        p.add_argument("--fixed-nmax", type=int, default=150, metavar="INTEGER",
                       help="Cutoff for the fixed-truncation comparison columns.  "
                            "[default: %(default)s]")
    else:
        for flag in ("--z-min", "--z-max", "--z-step"):
            p.add_argument(flag, type=float, required=True, metavar="FLOAT")
        p.add_argument("--cutoffs", default="", metavar="TEXT",
                       help="Comma-separated fixed n_max values; empty for adaptive only.")
    # Unset, these stay None, so that stats and dist can refuse them
    # beside --fixed-nmax; the policy's field defaults fill them in.
    for flag, cast, text in (
            ("--tail-tol", float, "Adaptive relative tail-term significance threshold."),
            ("--quiet-run", int, "Consecutive insignificant terms required to stop."),
            ("--hard-cap", int, "Adaptive safety bound on the number of terms evaluated.")):
        field = _ADAPTIVE_FLAGS[flag]
        p.add_argument(flag, dest=field, type=cast,
                       metavar="FLOAT" if cast is float else "INTEGER",
                       help=f"{text}  [default: {getattr(DEFAULT_POLICY, field)}]")
    p.add_argument("--format", dest="fmt", choices=["csv", "json", "table"],
                   default="table", help="[default: %(default)s]")
    p.add_argument("--out", metavar="FILE", help="Write to a file instead of stdout.")


def main(argv=None) -> int:
    """Run the command line ``argv`` (sys.argv[1:] when None); returns the exit code.

    0 on success, 2 for a usage error (argparse's own, or a rejected input
    value) or a failed write, 3 for an unconverged run.
    """
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser(argv)
    try:
        args = parser.parse_args(argv)
        try:
            _check_out(args.out)
            return args.run(args)
        except UsageError as exc:
            args.parser.error(str(exc))
    except SystemExit as exc:  # argparse exits after --help and on a usage error
        return exc.code


# Not called here, but the traced benchmark (bench/run.py --trace 1) calls
# click's entry point, ghacs.cli.main.main(args=..., prog_name="ghacs",
# standalone_mode=False), and bench/ is frozen, so the name stays bound.  It
# goes with the tracer aliases when ROADMAP item 1 rewrites the tracer.
main.main = lambda args, prog_name, standalone_mode: main(args)


if __name__ == "__main__":
    sys.exit(main())
