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

import contextlib
import itertools
import json
import math
import sys

import click

from . import stats as engine
from .core import PotentialParams
from .lab import SweepSpec, collapse_onset, run_sweep, sweep_row
from .stats import LogSeriesSums, StateStats, TruncationPolicy, weight_distribution
# Not called here, but the benchmark's tracer (bench/tracing.py) wraps
# ghacs.cli.state_stats, so the name stays bound.
from .stats import state_stats  # noqa: F401

EXIT_UNCONVERGED = 3
# The most |z| points a sweep grid may hold.
_MAX_GRID_POINTS = 10 ** 6


def _policy_from_flags(tail_tol, quiet_run, hard_cap, adaptive=False, fixed_nmax=None):
    if adaptive and fixed_nmax is not None:
        raise click.UsageError("--adaptive and --fixed-nmax are mutually exclusive")
    if fixed_nmax is not None:
        return TruncationPolicy.fixed(fixed_nmax)
    return TruncationPolicy.adaptive(tail_tolerance=tail_tol,
                                     quiet_run=quiet_run, hard_cap=hard_cap)


def _policy_inputs(policy: TruncationPolicy) -> dict:
    if policy.n_max is not None:
        return {"policy": "fixed", "n_max": policy.n_max}
    return {"policy": "adaptive", "tail_tolerance": policy.tail_tolerance,
            "quiet_run": policy.quiet_run, "hard_cap": policy.hard_cap}


@contextlib.contextmanager
def _sink(out: str | None):
    """stdout, or the file ``out`` opened for writing with LF line endings."""
    if out is None:
        yield sys.stdout
        return
    try:
        fh = open(out, "w", newline="\n")
    except OSError as exc:
        raise click.UsageError(f"cannot write --out {out!r}: {exc.strerror}") from None
    with fh:
        yield fh


def _emit(fmt, out, inputs, header, rows, pretty, footers=None):
    """Write ``rows`` as csv, json or a pretty table, the inputs echoed first.

    Lines are written as they are formatted, a chunk at a time, so that no
    copy of the whole output is held; json rows are encoded a chunk at a time.
    ``pretty()`` returns the table format's rows of strings, header
    row first; it runs only for that format.  ``footers`` maps a format to
    what follows the rows: csv comment lines, extra json keys, table lines.
    """
    footers = footers or {}
    comments = (f"# {key}={value}" for key, value in inputs.items())
    if fmt == "json":
        lines = _json_lines(inputs, header, rows, footers.get("json", {}))
    elif fmt == "csv":
        lines = itertools.chain(comments, [",".join(header)],
                                (",".join(map(str, row)) for row in rows),
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
    The rows are encoded 1024 at a time, as a list whose brackets are cut
    off and whose lines are indented two more spaces.
    """
    text = json.dumps({"inputs": inputs, "rows": [], **extra}, indent=2, allow_nan=False)
    rows = iter(rows)
    chunks = iter(lambda: [dict(zip(header, row)) for row in itertools.islice(rows, 1024)], [])
    chunk = next(chunks, None)
    if chunk is None:
        yield text
        return
    head, tail = text.split('\n  "rows": []', 1)
    yield head + '\n  "rows": ['
    while chunk:
        items = json.dumps(chunk, indent=2, allow_nan=False)[2:-2].replace("\n", "\n  ")
        chunk = next(chunks, None)
        yield from ("  " + items + ("," if chunk else "\n  ]" + tail)).split("\n")


def _fmt2(x) -> str:
    return "undefined" if x is None else f"{x:.2f}"


def _fmt3(x) -> str:
    return "undefined" if x is None else f"{x:.3f}"


def _q_value(stats: StateStats):
    return "undefined" if stats.mandel_q is None else stats.mandel_q


def _check_converged(ctx, policy: TruncationPolicy, sums: LogSeriesSums) -> None:
    if policy.n_max is None and not sums.converged:
        click.echo("error: adaptive accumulation hit hard_cap "
                   f"({policy.hard_cap}) before the tail criterion fired",
                   err=True)
        ctx.exit(EXIT_UNCONVERGED)


@contextlib.contextmanager
def _usage_errors():
    """Report an input value the engine rejects as a usage error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _parse_list(text, cast, name):
    if not text:
        return ()
    try:
        return tuple(cast(tok) for tok in text.split(","))
    except ValueError:
        raise click.UsageError(f"could not parse --{name} value {text!r}")


physics_options = [
    click.option("--k", type=float, required=True, help="Power-law exponent k (> 0)."),
    click.option("--gamma", type=float, default=2.0, show_default=True,
                 help="Spectral offset gamma (> 0); enters as gamma/4."),
]
adaptive_options = [
    click.option("--tail-tol", type=float, default=TruncationPolicy.tail_tolerance,
                 show_default=True, help="Adaptive relative tail-term significance threshold."),
    click.option("--quiet-run", type=int, default=TruncationPolicy.quiet_run, show_default=True,
                 help="Consecutive insignificant terms required to stop."),
    click.option("--hard-cap", type=int, default=TruncationPolicy.hard_cap, show_default=True,
                 help="Adaptive safety bound on the number of terms evaluated."),
]
policy_options = [
    click.option("--adaptive", is_flag=True, help="Tolerance-driven truncation (default)."),
    click.option("--fixed-nmax", type=int, default=None,
                 help="Truncate at a fixed n_max instead of adaptively."),
    *adaptive_options,
]
output_options = [
    click.option("--format", "fmt", type=click.Choice(["csv", "json", "table"]),
                 default="table", show_default=True),
    click.option("--out", type=click.Path(dir_okay=False, writable=True),
                 default=None, help="Write to a file instead of stdout."),
]


def _add(options):
    def wrap(f):
        for opt in reversed(options):
            f = opt(f)
        return f
    return wrap


@click.group()
def main():
    """Photon-number statistics of coherent states for power-law potentials."""


@main.command()
@_add(physics_options)
@click.option("--z", type=float, required=True, help="Coherent-state amplitude |z| (>= 0).")
@_add(policy_options)
@_add(output_options)
@click.pass_context
def stats(ctx, k, gamma, z, adaptive, fixed_nmax, tail_tol, quiet_run, hard_cap,
          fmt, out):
    """Mean, variance, Mandel Q and normalization for a single amplitude."""
    with _usage_errors():
        policy = _policy_from_flags(tail_tol, quiet_run, hard_cap, adaptive, fixed_nmax)
        # Looked up on the module, where the benchmark's tracer wraps them.
        sums = engine.accumulate_sums(z, PotentialParams(k=k, gamma=gamma), policy)
    # Convergence is settled before the moments: an unconverged run's
    # documented outcome is exit 3 with nothing printed.
    _check_converged(ctx, policy, sums)
    st = engine.stats_from_sums(sums)

    inputs = {"k": k, "gamma": gamma, "z": z, **_policy_inputs(policy)}
    header = ["mean", "variance", "mandel_q", "normalization",
              "terms_used", "converged", "threshold"]
    row = [st.mean, st.variance, _q_value(st), st.normalization,
           st.sums.terms_used, st.sums.converged, st.sums.estimated_threshold]
    _emit(fmt, out, inputs, header, [row], lambda: [
        ["quantity", "value"],
        ["mean", _fmt2(st.mean)],
        ["variance", _fmt2(st.variance)],
        ["mandel_q", _fmt3(st.mandel_q)],
        ["normalization", f"{st.normalization:.6g}"],
        ["terms_used", str(st.sums.terms_used)],
        ["converged", str(st.sums.converged).lower()],
        ["threshold", str(st.sums.estimated_threshold)]])


@main.command()
@_add(physics_options)
@click.option("--z-list", type=str, required=True,
              help="Comma-separated amplitudes, e.g. 2.5,5,7.5,10,12.5,15.")
@click.option("--fixed-nmax", type=int, default=150, show_default=True,
              help="Cutoff for the fixed-truncation comparison columns.")
@_add(adaptive_options)
@_add(output_options)
@click.pass_context
def table(ctx, k, gamma, z_list, fixed_nmax, tail_tol, quiet_run, hard_cap,
          fmt, out):
    """Adaptive vs fixed-cutoff moments, one row per amplitude."""
    zs = _parse_list(z_list, float, "z-list")
    if not zs:
        raise click.UsageError("--z-list must contain at least one amplitude")
    with _usage_errors():
        params = PotentialParams(k=k, gamma=gamma)
        adaptive_policy = _policy_from_flags(tail_tol, quiet_run, hard_cap)
    pairs = []
    for z in zs:
        with _usage_errors():
            row = sweep_row(z, params, adaptive_policy, (fixed_nmax,))
        _check_converged(ctx, adaptive_policy, row.adaptive_stats.sums)
        pairs.append((z, row.adaptive_stats, row.fixed_stats[fixed_nmax]))

    header = ["z", "mean", "variance", "mandel_q",
              "mean_fixed", "variance_fixed", "mandel_q_fixed",
              "threshold", "n_max"]
    rows = [[z, a.mean, a.variance, _q_value(a), f.mean, f.variance, _q_value(f),
             a.sums.estimated_threshold, fixed_nmax] for z, a, f in pairs]
    inputs = {"k": k, "gamma": gamma, **_policy_inputs(adaptive_policy),
              "fixed_nmax": fixed_nmax}
    _emit(fmt, out, inputs, header, rows, lambda: [header] + [
        [f"{z:g}", _fmt2(a.mean), _fmt2(a.variance), _fmt3(a.mandel_q),
         _fmt2(f.mean), _fmt2(f.variance), _fmt3(f.mandel_q),
         str(a.sums.estimated_threshold), str(fixed_nmax)] for z, a, f in pairs])


def _z_grid(z_min, z_max, z_step) -> tuple[float, ...]:
    """z_min, z_min + z_step, ... up to z_max, each rounded to 12 decimals."""
    if not (all(map(math.isfinite, (z_min, z_max, z_step)))
            and z_step > 0 and z_max >= z_min >= 0):
        raise click.UsageError("need finite z_min >= 0, z_max >= z_min and z_step > 0")
    steps = (z_max - z_min) / z_step
    if not math.isfinite(steps) or round(steps) + 1 > _MAX_GRID_POINTS:
        raise click.UsageError(f"z_step = {z_step} gives more than {_MAX_GRID_POINTS} grid points")
    steps = round(steps)
    grid = (round(z_min + i * z_step, 12) for i in range(steps + 1))
    return tuple(z for z in grid if z <= z_max + 1e-12)


@main.command()
@_add(physics_options)
@click.option("--z-min", type=float, required=True)
@click.option("--z-max", type=float, required=True)
@click.option("--z-step", type=float, required=True)
@click.option("--cutoffs", type=str, default="",
              help="Comma-separated fixed n_max values; empty for adaptive only.")
@_add(adaptive_options)
@_add(output_options)
def sweep(k, gamma, z_min, z_max, z_step, cutoffs, tail_tol, quiet_run,
          hard_cap, fmt, out):
    """Mandel Q versus |z| for the adaptive policy and each fixed cutoff.

    After the rows, one footer per cutoff gives its collapse onset: the
    first |z| where its Q lies 0.5 below the adaptive Q (None if none).
    """
    grid = _z_grid(z_min, z_max, z_step)
    cut = _parse_list(cutoffs, int, "cutoffs")
    with _usage_errors():
        spec = SweepSpec(k=k, gamma=gamma, z_grid=grid, cutoffs=cut)
        policy = _policy_from_flags(tail_tol, quiet_run, hard_cap)
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
              "z_min": z_min, "z_max": z_max, "z_step": z_step,
              "cutoffs": ",".join(str(c) for c in cut)}
    footers = {
        "csv": [f"onset_{c}={z}" for c, z in onsets.items()],
        "json": {"onsets": {str(c): z for c, z in onsets.items()}} if cut else {},
        "table": [f"onset_{c}  {'None' if z is None else f'{z:g}'}" for c, z in onsets.items()],
    }
    _emit(fmt, out, inputs, header, rows, lambda: [header] + [
        [f"{r[0]:g}", r[1], _fmt3(r[2]) if r[2] != "undefined" else r[2], r[3]]
        for r in rows], footers)


@main.command()
@_add(physics_options)
@click.option("--z", type=float, required=True, help="Coherent-state amplitude |z| (>= 0).")
@_add(policy_options)
@_add(output_options)
@click.pass_context
def dist(ctx, k, gamma, z, adaptive, fixed_nmax, tail_tol, quiet_run, hard_cap,
         fmt, out):
    """The weighting distribution P_n up to the truncation support bound."""
    with _usage_errors():
        policy = _policy_from_flags(tail_tol, quiet_run, hard_cap, adaptive, fixed_nmax)
        wd = weight_distribution(z, PotentialParams(k=k, gamma=gamma), policy)
    _check_converged(ctx, policy, wd.sums)
    # Every row printed is a term evaluated, and at large |z| the rows below
    # the summed window far outnumber it: the hard cap bounds them too.
    if wd.support_bound >= policy.hard_cap:
        click.echo(f"error: the distribution has {wd.support_bound + 1} rows, "
                   f"more than hard_cap ({policy.hard_cap})", err=True)
        ctx.exit(EXIT_UNCONVERGED)

    weights = wd.weights()
    total = math.fsum(weights)
    header = ["n", "p_n"]
    inputs = {"k": k, "gamma": gamma, "z": z, **_policy_inputs(policy)}
    _emit(fmt, out, inputs, header, enumerate(weights), lambda: [header] + [
        [str(n), f"{w:.6f}"] for n, w in enumerate(weights)], {
        "csv": [f"sum={total}"],
        "json": {"weight_sum": total},
        "table": [f"sum  {total:.10f}"]})


if __name__ == "__main__":
    main()
