"""Command-line surface: stats, table, sweep and dist subcommands.

Output is machine-readable (csv or json) or a 2-decimal pretty table for
humans.  Every artifact echoes the physics and policy inputs that produced
it, csv as leading ``# key=value`` comment lines and json under an
``inputs`` key.  Numeric fields in csv/json carry full double precision;
identical invocations produce byte-identical output.

Exit codes: 0 success, 2 usage error (a malformed or rejected input value
included), 3 adaptive run failed to converge (or, for dist, listed more rows
than its hard cap).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from . import stats as engine
from .core import PotentialParams
from .lab import SweepSpec, collapse_onset, run_sweep, sweep_row
from .stats import (DEFAULT_POLICY, LogSeriesSums, StateStats, TruncationPolicy,
                    weight_distribution)
# Not called here, but the benchmark's tracer (bench/tracing.py) wraps
# ghacs.cli.state_stats, so the name stays bound.
from .stats import state_stats  # noqa: F401

EXIT_UNCONVERGED = 3
# The most |z| points a sweep grid may hold.
_MAX_GRID_POINTS = 10 ** 6
# The adaptive flags and the policy fields they set.
_ADAPTIVE_FLAGS = {"--tail-tol": "tail_tolerance", "--quiet-run": "quiet_run",
                   "--hard-cap": "hard_cap"}


class UsageError(Exception):
    """A rejected input value: the command's usage line and the message, exit 2."""


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
    """Refuse, before the run, an --out that is a directory or a file that cannot be written.

    ``_sink`` opens the file only after the run, so that a run that exits 3
    creates none.
    """
    if out is None:
        return
    if os.path.isdir(out):
        raise UsageError(f"cannot write --out {out!r}: Is a directory")
    if os.path.exists(out) and not os.access(out, os.W_OK):
        raise UsageError(f"cannot write --out {out!r}: Permission denied")


@contextlib.contextmanager
def _sink(out: str | None):
    """stdout, or the file ``out`` opened for writing with LF line endings."""
    if out is None:
        yield sys.stdout
        return
    try:
        fh = open(out, "w", newline="\n")
    except OSError as exc:
        raise UsageError(f"cannot write --out {out!r}: {exc.strerror}") from None
    with fh:
        yield fh


def _emit(fmt, out, inputs, header, rows, pretty, footers=None):
    """Write ``rows`` as csv, json or a pretty table, the inputs echoed first.

    Lines are written as they are formatted, a chunk at a time, so that no
    copy of the whole output is held; each csv or json row is one template.
    ``pretty()`` returns the table format's rows of strings, header
    row first; it runs only for that format.  ``footers`` maps a format to
    what follows the rows: csv comment lines, extra json keys, table lines.
    """
    footers = footers or {}
    comments = (f"# {key}={value}" for key, value in inputs.items())
    if fmt == "json":
        lines = _json_lines(inputs, header, rows, footers.get("json", {}))
    elif fmt == "csv":
        template = ",".join(["%s"] * len(header))
        lines = itertools.chain(comments, [",".join(header)],
                                (template % tuple(row) for row in rows),
                                (f"# {c}" for c in footers.get("csv", ())))
    else:
        cells = pretty()
        widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
        lines = itertools.chain(comments, ("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip()
                                           for r in cells), footers.get("table", ()))
    with _sink(out) as fh:
        # A few thousand lines per write: a write call per line costs more
        # than formatting the line.
        while chunk := list(itertools.islice(lines, 4096)):
            fh.write("\n".join(chunk) + "\n")


def _json_lines(inputs, header, rows, extra):
    """json.dumps({"inputs": inputs, "rows": rows, **extra}, indent=2), in lines.

    The text around the rows is that of the payload with no rows, cut where
    its empty list stands: the only top-level key "rows", two spaces in.
    Each row is one template: the header names encoded once as its keys,
    and a slot per value, filled by ``_json_value``.
    """
    text = json.dumps({"inputs": inputs, "rows": [], **extra}, indent=2, allow_nan=False)
    rows = iter(rows)
    row = next(rows, None)
    if row is None:
        yield text
        return
    head, tail = text.split('\n  "rows": []', 1)
    yield head + '\n  "rows": ['
    keys = (encode_basestring_ascii(h).replace("%", "%%") for h in header)
    template = "    {\n" + ",\n".join(f"      {key}: %s" for key in keys) + "\n    }"
    item = template % tuple(map(_json_value, row))
    for row in rows:
        yield item + ","
        item = template % tuple(map(_json_value, row))
    yield item + "\n  ]" + tail


def _json_value(value) -> str:
    """``value`` as json.dumps(..., allow_nan=False) encodes a str, None, bool, int or float."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _fmt2(x) -> str:
    return "undefined" if x is None else f"{x:.2f}"


def _fmt3(x) -> str:
    return "undefined" if x is None else f"{x:.3f}"


def _q_value(stats: StateStats):
    return "undefined" if stats.mandel_q is None else stats.mandel_q


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
    row = [st.mean, st.variance, _q_value(st), st.normalization,
           st.sums.terms_used, st.sums.converged, st.sums.estimated_threshold]
    _emit(args.fmt, args.out, inputs, header, [row], lambda: [
        ["quantity", "value"],
        ["mean", _fmt2(st.mean)],
        ["variance", _fmt2(st.variance)],
        ["mandel_q", _fmt3(st.mandel_q)],
        ["normalization", f"{st.normalization:.6g}"],
        ["terms_used", str(st.sums.terms_used)],
        ["converged", str(st.sums.converged).lower()],
        ["threshold", str(st.sums.estimated_threshold)]])
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
    rows = [[z, a.mean, a.variance, _q_value(a), f.mean, f.variance, _q_value(f),
             a.sums.estimated_threshold, fixed_nmax] for z, a, f in pairs]
    inputs = {"k": k, "gamma": gamma, **_policy_inputs(adaptive_policy),
              "fixed_nmax": fixed_nmax}
    _emit(args.fmt, args.out, inputs, header, rows, lambda: [header] + [
        [f"{z:g}", _fmt2(a.mean), _fmt2(a.variance), _fmt3(a.mandel_q),
         _fmt2(f.mean), _fmt2(f.variance), _fmt3(f.mandel_q),
         str(a.sums.estimated_threshold), str(fixed_nmax)] for z, a, f in pairs])
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
    return tuple(z for z in grid if z <= z_max + 1e-12)


def sweep(args) -> int:
    """Mandel Q versus |z| for the adaptive policy and each fixed cutoff.

    After the rows, one footer per cutoff gives its collapse onset: the
    first |z| where its Q lies 0.5 below the adaptive Q (None if none).
    """
    k, gamma = args.k, args.gamma
    grid = _z_grid(args.z_min, args.z_max, args.z_step)
    cut = _parse_list(args.cutoffs, int, "cutoffs")
    with _usage_errors():
        spec = SweepSpec(k=k, gamma=gamma, z_grid=grid, cutoffs=cut)
        policy = _policy_from_flags(args)
        report = run_sweep(spec, policy)
    onsets = {c: collapse_onset(report, c) for c in cut}

    header = ["z", "cutoff", "mandel_q", "status"]
    rows = []
    for row in report.rows:
        labelled = [("adaptive", row.adaptive_stats)]
        labelled += [(str(n_max), row.fixed_stats[n_max]) for n_max in cut]
        for label, st in labelled:
            if label == "adaptive" and row.flagged:
                status = "unconverged"
            elif st.mandel_q is None:
                status = "undefined"
            else:
                status = "ok"
            rows.append([row.abs_z, label, _q_value(st), status])

    inputs = {"k": k, "gamma": gamma, **_policy_inputs(policy),
              "z_min": args.z_min, "z_max": args.z_max, "z_step": args.z_step,
              "cutoffs": ",".join(str(c) for c in cut)}
    footers = {
        "csv": [f"onset_{c}={z}" for c, z in onsets.items()],
        "json": {"onsets": {str(c): z for c, z in onsets.items()}} if cut else {},
        "table": [f"onset_{c}  {'None' if z is None else f'{z:g}'}" for c, z in onsets.items()],
    }
    _emit(args.fmt, args.out, inputs, header, rows, lambda: [header] + [
        [f"{r[0]:g}", r[1], _fmt3(r[2]) if r[2] != "undefined" else r[2], r[3]]
        for r in rows], footers)
    return 0


def dist(args) -> int:
    """The weighting distribution P_n up to the truncation support bound."""
    k, gamma, z = args.k, args.gamma, args.z
    with _usage_errors():
        policy = _policy_from_flags(args, args.fixed_nmax)
        wd = weight_distribution(z, PotentialParams(k=k, gamma=gamma), policy)
    if not _converged(policy, wd.sums):
        return EXIT_UNCONVERGED
    # Every row printed is a term evaluated, and at large |z| the rows below
    # the summed window far outnumber it: the hard cap bounds them too.
    if wd.support_bound >= policy.hard_cap:
        print(f"error: the distribution has {wd.support_bound + 1} rows, "
              f"more than hard_cap ({policy.hard_cap})", file=sys.stderr)
        return EXIT_UNCONVERGED

    weights = wd.weights()
    total = math.fsum(weights)
    header = ["n", "p_n"]
    inputs = {"k": k, "gamma": gamma, "z": z, **_policy_inputs(policy)}
    _emit(args.fmt, args.out, inputs, header, enumerate(weights), lambda: [header] + [
        [str(n), f"{w:.6f}"] for n, w in enumerate(weights)], {
        "csv": [f"sum={total}"],
        "json": {"weight_sum": total},
        "table": [f"sum  {total:.10f}"]})
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghacs", allow_abbrev=False,
        description="Photon-number statistics of coherent states for power-law potentials.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    sub = {}
    for run in (stats, table, sweep, dist):
        doc = run.__doc__ or ""  # None under python -OO
        p = sub[run] = commands.add_parser(run.__name__, help=doc.partition("\n")[0],
                                           description=doc, allow_abbrev=False)
        p.set_defaults(run=run, parser=p)
        p.add_argument("--k", type=float, required=True, metavar="FLOAT",
                       help="Power-law exponent k (> 0).")
        p.add_argument("--gamma", type=float, default=2.0, metavar="FLOAT",
                       help="Spectral offset gamma (> 0); enters as gamma/4.  "
                            "[default: %(default)s]")
    for run in (stats, dist):
        p = sub[run]
        p.add_argument("--z", type=float, required=True, metavar="FLOAT",
                       help="Coherent-state amplitude |z| (>= 0).")
        p.add_argument("--adaptive", action="store_true",
                       help="Tolerance-driven truncation (default).")
        p.add_argument("--fixed-nmax", type=int, metavar="INTEGER",
                       help="Truncate at a fixed n_max instead of adaptively.")
    sub[table].add_argument("--z-list", required=True, metavar="TEXT",
                            help="Comma-separated amplitudes, e.g. 2.5,5,7.5,10,12.5,15.")
    sub[table].add_argument("--fixed-nmax", type=int, default=150, metavar="INTEGER",
                            help="Cutoff for the fixed-truncation comparison columns.  "
                                 "[default: %(default)s]")
    for flag in ("--z-min", "--z-max", "--z-step"):
        sub[sweep].add_argument(flag, type=float, required=True, metavar="FLOAT")
    sub[sweep].add_argument("--cutoffs", default="", metavar="TEXT",
                            help="Comma-separated fixed n_max values; empty for adaptive only.")
    for p in sub.values():
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
    return parser


def main(argv=None) -> int:
    """Run the command line ``argv`` (sys.argv[1:] when None); returns the exit code.

    0 on success, 2 for a usage error (argparse's own, or a rejected input
    value), 3 for an unconverged run.
    """
    parser = _parser()
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
