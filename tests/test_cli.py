import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import types
from collections import Counter, namedtuple

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import ghacs
from ghacs import cli
from ghacs.cli import main
from ghacs.core import MAX_BLOCK
from ghacs.lab import SweepSpec, collapse_onset, run_sweep, sweep_rows
from ghacs.stats import TruncationPolicy


class Result(namedtuple("Result", "exit_code stdout stderr exception")):
    @property
    def output(self):
        """stdout, then stderr."""
        return self.stdout + self.stderr


def invoke(args):
    """Run ``args`` as the console script does, sys.exit(main(args)), capturing its output.

    The outcome is recorded as click's CliRunner recorded it: exception is
    the SystemExit of a non-zero exit code, or any other exception, with
    exit code 1.
    """
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            sys.exit(main(args))
        except SystemExit as exc:
            code = exc.code
            if code:
                exception = exc
        except Exception as exc:
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), exception)


def traced_peak(args):
    """invoke(args) and the peak of the memory it allocated, in bytes, by tracemalloc.

    The garbage of earlier runs is collected first, so that the peak does
    not move with when the cyclic collector runs.
    """
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = invoke(args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def parse_csv(output):
    """Returns (inputs dict from comment lines, header, data rows, footer comments)."""
    inputs, rows, footer = {}, [], []
    header = None
    for line in output.splitlines():
        if line.startswith("# "):
            body = line[2:]
            if "=" in body and header is None:
                key, _, value = body.partition("=")
                inputs[key] = value
            else:
                footer.append(body)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return inputs, header, rows, footer


# Malformed or empty lists, each refused with its message.
LIST_REFUSALS = {
    ("table", "--k", "1.5", "--z-list", "2.5,x"): "error: could not parse --z-list value '2.5,x'",
    ("sweep", "--k", "1.5", "--z-min", "0", "--z-max", "1", "--z-step", "0.5", "--cutoffs", "5,"):
        "error: could not parse --cutoffs value '5,'",
    ("table", "--k", "1.5", "--z-list", ""): "error: --z-list must contain at least one amplitude",
}


@pytest.mark.parametrize("args", [
    ["stats", "--k", "1.5", "--z", "1", "--fixed-nmax", "0"],
    ["stats", "--k", "1.5", "--z", "1", "--hard-cap", "3"],
    ["stats", "--k", "1.5", "--z", "1", "--tail-tol", "2"],
    ["stats", "--k", "1.5", "--z", "-1"],
    ["dist", "--k", "1.5", "--z", "1", "--quiet-run", "0"],
    ["table", "--k", "1.5", "--z-list", "2", "--fixed-nmax", "0"],
    ["table", "--k", "1.5", "--z-list", "2", "--hard-cap", "3"],
    ["sweep", "--k", "1.5", "--z-min", "0", "--z-max", "1", "--z-step", "0.5", "--cutoffs", "0"],
    ["sweep", "--k", "1.5", "--z-min", "0", "--z-max", "1", "--z-step", "0.5", "--cutoffs", "5,3"],
    ["sweep", "--k", "1.5", "--z-min", "0", "--z-max", "1", "--z-step", "0.5", "--hard-cap", "3"],
    ["sweep", "--k", "1.5", "--z-min", "0", "--z-max", "inf", "--z-step", "0.5"],
    ["sweep", "--k", "1.5", "--z-min", "nan", "--z-max", "1", "--z-step", "0.5"],
    ["sweep", "--k", "1.5", "--z-min", "0", "--z-max", "1", "--z-step", "nan"],
    ["sweep", "--k", "0", "--z-min", "0", "--z-max", "1", "--z-step", "0.5"],
    ["sweep", "--k", "1.5", "--gamma", "0", "--z-min", "0", "--z-max", "1", "--z-step", "0.5"],
    # Step counts that are not finite, or grids past the 10^6-point budget.
    ["sweep", "--k", "1.5", "--z-min", "0", "--z-max", "1", "--z-step", "5e-324"],
    ["sweep", "--k", "1.5", "--z-min", "0", "--z-max", "1e308", "--z-step", "1e-10"],
    ["sweep", "--k", "1.5", "--z-min", "0", "--z-max", "1", "--z-step", "1e-9"],
    ["sweep", "--k", "1.5", "--z-min", "0", "--z-max", "1000000", "--z-step", "1"],
    # Adaptive flags beside --fixed-nmax, which would have nothing to set.
    ["stats", "--k", "1.5", "--z", "5", "--fixed-nmax", "5", "--hard-cap", "3", "--tail-tol", "0.5"],
    ["stats", "--k", "1.5", "--z", "5", "--fixed-nmax", "1000000", "--hard-cap", "2000000"],
    ["dist", "--k", "1.5", "--z", "1", "--fixed-nmax", "50", "--quiet-run", "20"],
    *map(list, LIST_REFUSALS),
])
def test_rejected_input_value_is_usage_error(args):
    result = invoke(args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if tuple(args) in LIST_REFUSALS:
        assert LIST_REFUSALS[tuple(args)] in result.stderr


@pytest.mark.parametrize("command", ["stats", "dist"])
@pytest.mark.parametrize("flag,value", [("--tail-tol", "1e-10"), ("--quiet-run", "20"),
                                        ("--hard-cap", "100")])
def test_adaptive_flag_beside_fixed_nmax_is_named(command, flag, value):
    result = invoke([command, "--k", "1.5", "--z", "1", "--fixed-nmax", "50", flag, value])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"--fixed-nmax cannot be given with {flag}" in result.stderr


def package_env():
    """The environment of a fresh interpreter that imports this ghacs."""
    src = os.path.dirname(os.path.dirname(ghacs.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_import_loads_no_click_dataclasses_or_inspect():
    # In a fresh interpreter, against the modules loaded before the import,
    # so that what site loads at start-up does not count.  json is loaded
    # by json output only.
    code = ("import sys; before = set(sys.modules); import ghacs.cli; "
            "print(*sorted(set(sys.modules) - before))")
    loaded = set(subprocess.run([sys.executable, "-c", code], env=package_env(),
                                capture_output=True, text=True, check=True).stdout.split())
    assert "ghacs.cli" in loaded
    assert not loaded & {"click", "dataclasses", "inspect", "json"}


def test_stdout_closed_early_is_usage_error_without_traceback():
    # As in `ghacs dist ... | head -n 1`: the reader leaves after one line of
    # the 1.47 MB csv, and the next write finds the pipe closed.
    proc = subprocess.Popen(
        [sys.executable, "-m", "ghacs.cli", "dist", "--k", "0.5", "--z", "10", "--format", "csv"],
        env=package_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "# k=0.5\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.splitlines()[-1] == "ghacs dist: error: cannot write stdout: Broken pipe"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_stdout_on_a_closed_pipe_leaves_no_descriptor_open(monkeypatch):
    # The failed write points fd 1's stand-in at the null device, and the
    # descriptor it opened for that is closed again.
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        before = len(os.listdir("/proc/self/fd"))
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["stats", "--k", "1.5", "--z", "2.5"]) == 2
        assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_out_onto_a_full_device_is_usage_error():
    for args in (["stats", "--k", "1.5", "--z", "2.5"],
                 ["table", "--k", "1.5", "--z-list", "2.5,5", "--format", "json"],
                 ["sweep", "--k", "1.5", "--z-min", "1", "--z-max", "3", "--z-step", "1",
                  "--cutoffs", "50", "--format", "json"]):
        result = invoke(args + ["--out", "/dev/full"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert [line for line in result.stderr.splitlines() if "error:" in line] == [
            f"ghacs {args[0]}: error: cannot write --out '/dev/full': No space left on device"]


def test_click_style_entry_point_returns_the_exit_code(capsys):
    # bench/run.py --trace 1 calls ghacs.cli.main.main(...) in-process and
    # takes its return value as the exit code.
    def run(args):
        return cli.main.main(args=args, prog_name="ghacs", standalone_mode=False)

    assert run(["stats", "--k", "1.5", "--z", "2.5", "--format", "csv"]) == 0
    assert "mean,variance" in capsys.readouterr().out
    assert run(["stats", "--k", "1.5", "--z", "1e300", "--hard-cap", "50"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "hard_cap" in captured.err


def test_the_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # bench/tracing.py wraps names in ghacs.stats, ghacs.lab and ghacs.cli
    # that the package itself may not call, and bench/run.py --trace 1 calls
    # ghacs.cli.main.main: a name deleted from under them fails here.
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    tracing = importlib.import_module("tracing")
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # unloaded again after the test
    tracer = tracing.Tracer()
    with tracer.installed():
        assert invoke(["dist", "--k", "1.5", "--z", "2.5"]).exit_code == 0
    assert tracer.passes and callable(cli.main.main)


@pytest.mark.parametrize("args", [
    ["stats", "--k", "1.5", "--z", "nan", "--format", "json"],
    ["stats", "--k", "1.5", "--z", "inf", "--format", "json"],
    ["dist", "--k", "1.5", "--z", "nan", "--format", "csv"],
    ["dist", "--k", "1.5", "--z", "inf", "--fixed-nmax", "5"],
    ["table", "--k", "1.5", "--z-list", "2,nan"],
    ["table", "--k", "1.5", "--z-list", "inf"],
])
def test_non_finite_amplitude_is_usage_error(args):
    result = invoke(args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "NaN" not in result.output and "sum=nan" not in result.output


@pytest.mark.parametrize("args,code,message", [
    # |z| = -0.0 passes the engine's check, so the table runs.
    (["table", "--k", "1.5", "--z-list", "-0,1", "--format", "csv"], 0, ""),
    (["stats", "--k", "1.5", "--z", "-1e-05"], 2, "abs_z must be a finite real >= 0, got -1e-05"),
    (["sweep", "--k", "1.5", "--z-min", "0", "--z-max", "1", "--z-step", "0.5",
      "--cutoffs", "-1,5"], 2, "cutoffs must be >= 1"),
    (["stats", "--k", "1.5", "--z", "-inf"], 2, "abs_z must be a finite real >= 0, got -inf"),
    (["stats", "--k", "1.5", "--z", "-nan"], 2, "abs_z must be a finite real >= 0, got nan"),
], ids=["table", "stats", "sweep", "stats-inf", "stats-nan"])
def test_values_with_a_leading_minus_reach_the_engine(args, code, message):
    # Read as option names, they would all end in "expected one argument".
    result = invoke(args)
    assert result.exit_code == code
    assert "expected one argument" not in result.stderr
    assert message in result.stderr
    if code == 0:
        assert parse_csv(result.stdout)[2][0][0] == "-0.0"


@pytest.mark.parametrize("args,message", [
    (["stats", "--k", "1e-20", "--z", "2"], "k = 1e-20 is too small"),
    (["stats", "--k", "5e-324", "--z", "1"], "k = 5e-324 is too small"),
    (["stats", "--k", "1.5", "--gamma", "5e-324", "--z", "2"], "gamma = 5e-324 is too small"),
    # Refused before any factor is needed.
    (["stats", "--k", "1e-20", "--z", "0"], "k = 1e-20 is too small"),
], ids=["k-1e-20", "k-5e-324", "gamma-5e-324", "k-1e-20-at-z-0"])
def test_values_the_factors_cannot_represent_are_named(args, message):
    # The first factor (1 + gamma/4)^alpha - (gamma/4)^alpha rounds to 0,
    # or gamma/4 underflows to 0, and either would be taken the log of.
    result = invoke(args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert message in result.stderr
    assert "math domain error" not in result.stderr


@pytest.mark.parametrize("tol", ["5e-324", "1e-310"])
def test_subnormal_tail_tolerance_is_usage_error(tol):
    # Below the smallest normal double the head rule's bound cannot hold.
    for args in [["stats", "--k", "0.5", "--z", "15"], *each_command("1.5", "2", "3")]:
        result = invoke([*args, "--tail-tol", tol])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"tail_tolerance = {tol} is subnormal" in result.stderr
        assert "2.2250738585072014e-308" in result.stderr


def test_smallest_normal_tail_tolerances_run():
    for tol in ("2.2250738585072014e-308", "1e-300"):
        result = invoke(["stats", "--k", "0.5", "--z", "15", "--tail-tol", tol, "--format", "csv"])
        assert result.exit_code == 0
        assert parse_csv(result.stdout)[2][0][5] == "True"


def test_k_beyond_half_the_largest_double_runs():
    # 2k overflows there; alpha is 2.0 to the last bit from k = 1e300 on,
    # so every number printed is that of k = 1e300.
    rows = []
    for k in ("1e300", "1e308"):
        result = invoke(["stats", "--k", k, "--z", "2", "--format", "csv"])
        assert result.exit_code == 0
        rows.append([line for line in result.stdout.splitlines() if not line.startswith("#")])
    assert rows[0] == rows[1]
    assert rows[0][1].startswith("1.316")


# Every command at a given k, gamma and |z|, adaptive by default.
def each_command(k, gamma, z):
    physics = ["--k", k, "--gamma", gamma]
    return [["stats", *physics, "--z", z], ["dist", *physics, "--z", z],
            ["table", *physics, "--z-list", z],
            ["sweep", *physics, "--z-min", z, "--z-max", z, "--z-step", "1"]]


def test_grid_of_exactly_the_budget():
    assert len(cli._z_grid(0.0, 999999.0, 1.0)) == 10 ** 6


@pytest.mark.parametrize("z_min,z_max,z_step", [
    ("1", "1.000000000002", "4e-13"),  # below the grid's 12-decimal rounding
    ("1e6", "1.000000000001e6", "1e-11"),  # below the float spacing at 1e6
])
def test_step_the_grid_cannot_resolve_is_named(z_min, z_max, z_step):
    result = invoke(["sweep", "--k", "1.5", "--z-min", z_min, "--z-max", z_max,
                     "--z-step", z_step])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"--z-step {float(z_step)} is finer than the grid resolves" in result.stderr


@pytest.mark.parametrize("args", each_command("1.5", "2", "1"), ids=lambda a: a[0])
def test_out_into_a_missing_directory_is_usage_error(tmp_path, args):
    target = tmp_path / "missing" / "x.csv"
    result = invoke(args + ["--format", "csv", "--out", str(target)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert str(target) in result.output


@pytest.mark.parametrize("args,target,message", [
    *(pytest.param(args, ".", "Is a directory", id=args[0])
      for args in each_command("0.5", "2", "15")),
    *(pytest.param(args, "missing/x.csv", "No such file or directory", id=f"{args[0]}-missing")
      for args in each_command("0.5", "2", "15"))])
def test_out_naming_a_directory_is_refused_before_the_run(monkeypatch, tmp_path, args,
                                                          target, message):
    def unreachable(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli.engine, "accumulate_sums", unreachable)
    for name in ("weight_distribution", "sweep_row", "sweep_rows", "run_sweep"):
        monkeypatch.setattr(cli, name, unreachable)
    result = invoke(args + ["--out", str(tmp_path / target)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert message in result.stderr


@pytest.mark.parametrize("args", [
    ["stats", "--k", "1.5", "--z", "5", "--fixed-nmax", "1000000000"],
    ["dist", "--k", "1.5", "--z", "5", "--fixed-nmax", "1000000000"],
    ["table", "--k", "1.5", "--z-list", "5", "--fixed-nmax", "1000000000"],
    ["sweep", "--k", "1.5", "--z-min", "5", "--z-max", "5", "--z-step", "1",
     "--cutoffs", "1000000000"],
], ids=lambda a: a[0])
def test_fixed_window_beyond_the_hard_cap_is_usage_error(args):
    # 10^9 + 1 terms from n = 0, against the default cap of 10^6: refused
    # once the head below the peak is measured, without walking to the cutoff.
    start = time.perf_counter()
    result = invoke(args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "hard_cap" in result.output
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("args", each_command("0.01", "2", "0.5") + [pytest.param(
    ["stats", "--k", "0.015", "--z", "2", "--hard-cap", "2000000"], id="stats-past-2^52")],
    ids=lambda a: a[0])
def test_small_k_past_the_factor_budget_is_usage_error(args):
    # ln g at the walk's start would sum more than 2^20 factors directly:
    # about 3e9 at k = 0.01 (the peak), and 1999999 at k = 0.015, whose peak
    # lies beyond 2^52 and whose walk starts at the top of the cap.
    start = time.perf_counter()
    result = invoke(args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "k is too small" in result.output
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("args", each_command("100", "1e50", "1") + each_command("100", "1e300", "1"),
                         ids=lambda a: f"{a[0]}-{a[4]}")
def test_gamma_above_1e6_is_usage_error(args):
    start = time.perf_counter()
    result = invoke(args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "gamma must be at most" in result.output
    assert time.perf_counter() - start < 5.0


def option_help(command, option):
    """The help entry of ``option`` in ``command --help``, whitespace collapsed."""
    lines = invoke([command, "--help"]).output.splitlines()
    first = next(i for i, line in enumerate(lines) if line.lstrip().startswith(option + " "))
    entry = [lines[first]] + list(itertools.takewhile(
        lambda line: not line.lstrip().startswith("-"), lines[first + 1:]))
    return " ".join(" ".join(entry).split())


@pytest.mark.parametrize("command", ["stats", "table", "sweep", "dist"])
def test_subcommand_help_as_with_every_option_added(command):
    # A parser gets the options of the subcommands named in its arguments
    # only; each subcommand's own help reads as when all four had them.
    def subcommand_help(parser):
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return commands.choices[command].format_help()

    every = subcommand_help(cli._parser(["stats", "table", "sweep", "dist"]))
    assert subcommand_help(cli._parser([command])) == every
    assert "--hard-cap" in every and "--format" in every
    assert invoke([command, "--help"]).stdout == every


@pytest.mark.parametrize("option", ["--tail-tol", "--quiet-run", "--hard-cap"])
def test_adaptive_options_shared_by_every_command(option):
    entries = {command: option_help(command, option)
               for command in ("stats", "dist", "table", "sweep")}
    assert "[default: " in entries["stats"]
    assert set(entries.values()) == {entries["stats"]}


class TestStatsCommand:
    def test_csv_record(self):
        result = invoke(["stats", "--k", "1.5", "--z", "2.5",
                                      "--adaptive", "--format", "csv"])
        assert result.exit_code == 0
        inputs, header, rows, _ = parse_csv(result.output)
        assert inputs["gamma"] == "2.0"
        assert header[:3] == ["mean", "variance", "mandel_q"]
        record = dict(zip(header, rows[0]))
        assert float(record["mean"]) == pytest.approx(8.9408097077131, rel=1e-12)
        assert float(record["variance"]) == pytest.approx(10.0420592876539, rel=1e-10)
        assert float(record["mandel_q"]) == pytest.approx(0.12317112386, rel=1e-8)
        assert record["converged"] == "True"

    def test_pretty_table_two_decimals(self):
        result = invoke(["stats", "--k", "1.5", "--z", "2.5"])
        assert result.exit_code == 0
        assert "8.94" in result.output
        assert "10.04" in result.output
        assert "0.123" in result.output

    def test_harmonic_q_zero(self):
        result = invoke(["stats", "--k", "2", "--z", "3", "--adaptive"])
        assert result.exit_code == 0
        assert "0.000" in result.output

    def test_fixed_truncation_collapse(self):
        result = invoke(["stats", "--k", "1.5", "--z", "10",
                                      "--fixed-nmax", "150"])
        assert result.exit_code == 0
        assert "-0.947" in result.output

    def test_zero_amplitude_undefined_q(self):
        result = invoke(["stats", "--k", "1.5", "--z", "0"])
        assert result.exit_code == 0
        assert "undefined" in result.output

    def test_json_shape(self):
        result = invoke(["stats", "--k", "1.5", "--z", "1",
                                      "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert set(payload) == {"inputs", "rows"}
        assert payload["inputs"]["k"] == 1.5
        assert payload["inputs"]["policy"] == "adaptive"
        assert len(payload["rows"]) == 1

    def test_missing_flag_is_usage_error(self):
        result = invoke(["stats", "--z", "1"])
        assert result.exit_code == 2

    def test_conflicting_policies_usage_error(self):
        result = invoke(["stats", "--k", "1.5", "--z", "1",
                                      "--adaptive", "--fixed-nmax", "50"])
        assert result.exit_code == 2

    def test_invalid_k_usage_error(self):
        result = invoke(["stats", "--k", "-2", "--z", "1"])
        assert result.exit_code == 2

    def test_nonconvergence_exit_three(self):
        result = invoke(["stats", "--k", "1.5", "--z", "10",
                                      "--hard-cap", "20"])
        assert result.exit_code == 3


    def test_huge_amplitude_exits_unconverged(self):
        result = invoke(["stats", "--k", "1.5", "--z", "1e300",
                                      "--hard-cap", "50"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "hard_cap" in result.output

    def test_peak_past_2_52_exits_at_once(self):
        # At k = 0.1 the peak passes 2^52 from |z| near 5.5.  The walk starts
        # at the top of the default cap and ends a few terms below it;
        # walked up from n = 0 to the cap, it peaked at 105.6 MB here.  A
        # first run caches the factor blocks, as in the other memory tests:
        # the traced one peaks near 42 KB.
        args = ["stats", "--k", "0.1", "--z", "30"]
        invoke(args)
        result, peak = traced_peak(args)
        assert result.exit_code == 3
        assert "hard_cap" in result.output
        assert peak <= 3.5e6

    def test_deep_tail_converges(self):
        # The peak sits near n = 3.2e6, beyond the 10^6 cap on terms
        # evaluated; the walk starts there and sums about 50k of them.
        # Reference: bench/checks.peak_window_stats(20, 0.5, 2.0, None), a
        # 30-digit mpmath sum outward from the peak.
        result = invoke(["stats", "--k", "0.5", "--z", "20", "--format", "json"])
        assert result.exit_code == 0
        (row,) = json.loads(result.output)["rows"]
        assert row["converged"] is True
        assert row["mean"] == pytest.approx(3215178.9591405974, rel=1e-12)


class TestTableCommand:
    def test_reference_shape(self):
        result = invoke(["table", "--k", "1.5",
                                      "--z-list", "2.5,5,7.5,10,12.5,15",
                                      "--fixed-nmax", "150", "--format", "csv"])
        assert result.exit_code == 0
        _, header, rows, _ = parse_csv(result.output)
        assert header == ["z", "mean", "variance", "mandel_q", "mean_fixed",
                          "variance_fixed", "mandel_q_fixed", "threshold", "n_max"]
        assert len(rows) == 6
        last = dict(zip(header, rows[-1]))
        assert float(last["mean_fixed"]) < float(last["mean"])
        assert float(last["mandel_q_fixed"]) < -0.9

    def test_zero_amplitude_row(self):
        result = invoke(["table", "--k", "1.5", "--z-list", "0",
                                      "--format", "csv"])
        assert result.exit_code == 0
        _, header, rows, _ = parse_csv(result.output)
        record = dict(zip(header, rows[0]))
        assert float(record["mean"]) == 0.0
        assert record["mandel_q"] == "undefined"

    def test_harmonic_adaptive_column_zero(self):
        result = invoke(["table", "--k", "2", "--z-list", "1,2,3"])
        assert result.exit_code == 0
        assert result.output.count("0.000") >= 3

    def test_huge_amplitude_exits_unconverged(self):
        result = invoke(["table", "--k", "1.5", "--z-list", "1e300",
                                      "--hard-cap", "50"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "hard_cap" in result.output and "Traceback" not in result.output


class TestSweepCommand:
    def test_family_rows(self):
        args = ["sweep", "--k", "1.5", "--z-min", "1", "--z-max", "3",
                "--z-step", "1", "--cutoffs", "50,100", "--format", "csv"]
        result = invoke(args)
        assert result.exit_code == 0
        _, header, rows, _ = parse_csv(result.output)
        assert header == ["z", "cutoff", "mandel_q", "status"]
        assert len(rows) == 3 * 3  # adaptive + two cutoffs per grid point
        labels = {r[1] for r in rows}
        assert labels == {"adaptive", "50", "100"}
        assert all(r[3] == "ok" for r in rows)

    def test_adaptive_only(self):
        result = invoke(["sweep", "--k", "1.5", "--z-min", "1",
                                      "--z-max", "2", "--z-step", "0.5",
                                      "--format", "csv"])
        assert result.exit_code == 0
        _, _, rows, _ = parse_csv(result.output)
        assert all(r[1] == "adaptive" for r in rows)

    def test_byte_identical_reruns(self):
        args = ["sweep", "--k", "1.5", "--z-min", "0.5", "--z-max", "5",
                "--z-step", "0.5", "--cutoffs", "50", "--format", "csv"]
        first = invoke(args)
        second = invoke(args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_unconverged_points_flagged_in_status(self):
        result = invoke(["sweep", "--k", "1.5", "--z-min", "8",
                                      "--z-max", "10", "--z-step", "1",
                                      "--hard-cap", "20", "--format", "csv"])
        assert result.exit_code == 0
        _, _, rows, _ = parse_csv(result.output)
        assert all(r[3] == "unconverged" for r in rows)

    # At k = 1.5, |z| = 8 and 9, a hard cap of 20 terms stops both adaptive
    # runs before their tail criterion fires; the truncated windows' Q read
    # -0.768 and -0.816.
    UNCONVERGED = ["sweep", "--k", "1.5", "--z-min", "8", "--z-max", "9", "--z-step", "1",
                   "--hard-cap", "20", "--cutoffs", "50"]

    def test_unconverged_row_prints_no_moment_in_csv(self):
        result = invoke(self.UNCONVERGED + ["--format", "csv"])
        assert result.exit_code == 0
        _, _, rows, footer = parse_csv(result.output)
        assert [r[:2] + r[3:] for r in rows] == [
            ["8.0", "adaptive", "unconverged"], ["8.0", "50", "ok"],
            ["9.0", "adaptive", "unconverged"], ["9.0", "50", "ok"]]
        assert [r[2] for r in rows[::2]] == ["", ""]
        assert all(float(r[2]) > -1.0 for r in rows[1::2])
        assert footer == ["onset_50=None"]

    def test_unconverged_row_prints_no_moment_in_json(self):
        result = invoke(self.UNCONVERGED + ["--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert [(r["cutoff"], r["mandel_q"], r["status"]) for r in rows[::2]] == [
            ("adaptive", None, "unconverged")] * 2
        assert all(type(r["mandel_q"]) is float for r in rows[1::2])

    def test_unconverged_row_prints_no_moment_in_table(self):
        result = invoke(self.UNCONVERGED)
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert [line.split() for line in lines if line.split()[1:2] == ["adaptive"]] == [
            ["8", "adaptive", "-", "unconverged"], ["9", "adaptive", "-", "unconverged"]]
        assert lines[-1] == "onset_50  None"

    def test_huge_amplitude_row_unconverged(self):
        result = invoke(["sweep", "--k", "1.5", "--z-min", "1e300",
                                      "--z-max", "1e300", "--z-step", "1",
                                      "--hard-cap", "50", "--format", "csv"])
        assert result.exit_code == 0
        _, _, rows, _ = parse_csv(result.output)
        assert [r[1:2] + r[3:] for r in rows] == [["adaptive", "unconverged"]]

    def test_onset_footers(self):
        args = ["sweep", "--k", "1.5", "--z-min", "6", "--z-max", "12",
                "--z-step", "1", "--cutoffs", "100,150,700"]
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=(6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0),
                         cutoffs=(100, 150, 700))
        report = run_sweep(spec, TruncationPolicy.adaptive())
        onsets = {c: collapse_onset(report, c) for c in spec.cutoffs}
        assert onsets == {100: 7.0, 150: 9.0, 700: None}

        csv_out = invoke(args + ["--format", "csv"])
        _, _, rows, footer = parse_csv(csv_out.output)
        assert len(rows) == 7 * 4
        assert footer == [f"onset_{c}={z!r}" for c, z in onsets.items()]
        payload = json.loads(invoke(args + ["--format", "json"]).output)
        assert payload["onsets"] == {str(c): z for c, z in onsets.items()}
        table_out = invoke(args).output
        assert table_out.splitlines()[-3:] == ["onset_100  7", "onset_150  9", "onset_700  None"]

    def test_adaptive_only_has_no_onset_footer(self):
        args = ["sweep", "--k", "1.5", "--z-min", "1", "--z-max", "2", "--z-step", "0.5"]
        assert "onset" not in invoke(args + ["--format", "csv"]).output
        assert "onsets" not in json.loads(invoke(args + ["--format", "json"]).output)

    def test_bad_range_usage_error(self):
        result = invoke(["sweep", "--k", "1.5", "--z-min", "5",
                                      "--z-max", "1", "--z-step", "0.5"])
        assert result.exit_code == 2

    # |z| = 0 (Q undefined), then converged rows on which cutoffs 2 and 3
    # collapse, then from |z| = 1.75 rows whose adaptive run stops at the
    # hard cap of 20 terms, where cutoff 5's Q lies more than 0.5 below the
    # truncated adaptive Q but no onset may be read.
    MIXED = ["sweep", "--k", "1.5", "--z-min", "0", "--z-max", "3", "--z-step", "0.25",
             "--cutoffs", "2,3,5", "--hard-cap", "20", "--quiet-run", "5", "--tail-tol", "1e-4"]

    def test_onsets_are_collapse_onsets_of_the_report(self):
        policy = TruncationPolicy.adaptive(hard_cap=20, quiet_run=5, tail_tolerance=1e-4)
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=cli._z_grid(0.0, 3.0, 0.25), cutoffs=(2, 3, 5))
        report = run_sweep(spec, policy)
        first, *rest = report.rows
        assert first.adaptive_stats.mandel_q is None
        flagged = [row for row in rest if row.flagged]
        assert flagged and all(row.fixed_stats[5].mandel_q < row.adaptive_stats.mandel_q - 0.5
                               for row in flagged)
        onsets = {c: collapse_onset(report, c) for c in spec.cutoffs}
        assert onsets == {2: 1.25, 3: 1.5, 5: None}

        _, _, rows, footer = parse_csv(invoke(self.MIXED + ["--format", "csv"]).stdout)
        assert len(rows) == 13 * 4
        assert footer == [f"onset_{c}={z}" for c, z in onsets.items()]
        payload = json.loads(invoke(self.MIXED + ["--format", "json"]).stdout)
        assert payload["onsets"] == {str(c): z for c, z in onsets.items()}
        assert invoke(self.MIXED).stdout.splitlines()[-3:] == [
            "onset_2  1.25", "onset_3  1.5", "onset_5  None"]

    # |z| = 0.1 to 0.4 run; at |z| = 0.5, ln g needs more directly summed
    # factors than k = 0.015 allows, and the sweep is refused.
    REFUSED_LATE = ["sweep", "--k", "0.015", "--z-min", "0.1", "--z-max", "2", "--z-step", "0.1"]

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_refusal_after_the_first_point_prints_nothing(self, monkeypatch, tmp_path, fmt):
        ran = []

        def recorded(spec, policy):
            for row in sweep_rows(spec, policy):
                ran.append(row.abs_z)
                yield row

        monkeypatch.setattr(cli, "sweep_rows", recorded)
        target = tmp_path / "sweep.txt"
        for out in ([], ["--out", str(target)]):
            result = invoke(self.REFUSED_LATE + ["--format", fmt] + out)
            assert result.exit_code == 2
            assert result.stdout == ""
            assert "needs 1855869 directly summed factors" in result.stderr
        assert not target.exists()
        assert ran == [0.1, 0.2, 0.3, 0.4] * 2

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_reference_sweep_keeps_only_its_text(self, tmp_path, fmt):
        # Holding its whole report and every row before writing, the sweep
        # peaked at 621 KB in csv, 1,315 KB in json and 768 KB in table.
        # Keeping each grid point's text only, it peaks at 155, 214 and
        # 254 KB.  A first run caches the factor blocks.
        args = REFERENCE_SWEEP.split() + ["--format", fmt, "--out", str(tmp_path / "sweep.txt")]
        assert invoke(args).exit_code == 0
        result, peak = traced_peak(args)
        assert result.exit_code == 0
        assert peak <= 0.5e6

    def test_peak_does_not_grow_with_the_report(self, tmp_path):
        # At ten times the reference grid, 1,500 points: 5.70 MB when the
        # report and the rows were held, 0.66 MB now.
        args = REFERENCE_SWEEP.replace("--z-step 0.1", "--z-step 0.01").split() + [
            "--format", "csv", "--out", str(tmp_path / "sweep.csv")]
        assert invoke(args).exit_code == 0
        result, peak = traced_peak(args)
        assert result.exit_code == 0
        assert peak <= 2e6


REFERENCE_SWEEP = "sweep --k 1.5 --z-min 0.1 --z-max 15 --z-step 0.1 --cutoffs 50,100,200,300"


class TestDistCommand:
    def test_poisson_rows(self):
        result = invoke(["dist", "--k", "2", "--z", "1",
                                      "--format", "csv"])
        assert result.exit_code == 0
        _, header, rows, footer = parse_csv(result.output)
        assert header == ["n", "p_n"]
        p = {int(r[0]): float(r[1]) for r in rows}
        assert p[0] == pytest.approx(0.367879441, abs=1e-6)
        assert p[1] == pytest.approx(0.367879441, abs=1e-6)
        assert p[2] == pytest.approx(0.183939721, abs=1e-6)
        total = float(footer[0].partition("=")[2])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_zero_amplitude_single_row(self):
        result = invoke(["dist", "--k", "1.5", "--z", "0",
                                      "--format", "csv"])
        assert result.exit_code == 0
        _, _, rows, _ = parse_csv(result.output)
        assert rows == [["0", "1.0"]]

    def test_round_trip_moments(self):
        dist_out = invoke(["dist", "--k", "1.5", "--z", "2.5",
                                        "--format", "csv"])
        stats_out = invoke(["stats", "--k", "1.5", "--z", "2.5",
                                         "--format", "csv"])
        assert dist_out.exit_code == stats_out.exit_code == 0
        _, _, rows, _ = parse_csv(dist_out.output)
        weights = [(int(n), float(p)) for n, p in rows]
        mean = math.fsum(n * p for n, p in weights)
        second = math.fsum(n * n * p for n, p in weights)
        _, header, srows, _ = parse_csv(stats_out.output)
        record = dict(zip(header, srows[0]))
        assert mean == pytest.approx(float(record["mean"]), abs=1e-8)
        assert second - mean ** 2 == pytest.approx(float(record["variance"]), abs=1e-8)

    def test_out_file_lf_endings(self, tmp_path):
        target = tmp_path / "dist.csv"
        result = invoke(["dist", "--k", "2", "--z", "1",
                                      "--format", "csv", "--out", str(target)])
        assert result.exit_code == 0
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_one_walk(self, factor_reads):
        covered = factor_reads.indices
        result = invoke(["dist", "--k", "1.5", "--z", "3", "--format", "csv"])
        assert result.exit_code == 0
        _, _, rows, _ = parse_csv(result.output)
        # Walked out from the peak, down to n = 0, where the summed window
        # starts here: each factor index once, every row's among them (the
        # last block may reach past the rows).
        assert len(covered) == len(set(covered))
        assert set(range(1, len(rows))) <= set(covered)

    def test_zero_prefix_reads_no_factor_below_its_block(self, factor_reads):
        # At k = 0.5, |z| = 10 the summed window starts at n = 97002, and the
        # rows below it print 0.0.  The head rule's walk stops in the block
        # of factors that holds its first index (factors 96961..97024), and
        # nothing reads a factor below it.
        covered = factor_reads.indices
        result = invoke(["dist", "--k", "0.5", "--z", "10", "--format", "csv"])
        assert result.exit_code == 0
        _, _, rows, _ = parse_csv(result.output)
        assert len(rows) == 105820
        assert [n for n, p in rows[:97002]] == list(map(str, range(97002)))
        assert {p for n, p in rows[:97002]} == {"0.0"}
        assert float(rows[97002][1]) > 0.0
        # The walk reads each of its factors once, and the rows read the
        # walk's lists.
        counts = Counter(covered)
        assert min(counts) == 97002 // MAX_BLOCK * MAX_BLOCK + 1 == 96961
        assert set(counts.values()) == {1}

    @pytest.mark.parametrize("z,cap", [("100", "50"), ("20", "1000000")])
    def test_rows_beyond_hard_cap_exit_unconverged(self, z, cap):
        # |z| = 100 hits its cap 50 terms into the window; |z| = 20 converges
        # on 50k terms but would list 3.2 million rows from n = 0.  Neither
        # may walk down to n = 0.
        start = time.perf_counter()
        result = invoke(["dist", "--k", "0.5", "--z", z,
                                      "--hard-cap", cap, "--format", "csv"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "hard_cap" in result.output
        assert time.perf_counter() - start < 5.0

    def test_fixed_rows_beyond_hard_cap_exit_unconverged(self):
        # The window from the head near n = 3.21e6 to the cutoff is short,
        # but the rows from n = 0 number 3.2 million.
        start = time.perf_counter()
        result = invoke(["dist", "--k", "0.5", "--z", "20",
                                      "--fixed-nmax", "3236402", "--format", "csv"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "3236403 rows, more than hard_cap" in result.output
        assert time.perf_counter() - start < 5.0

    def test_json_weight_sum(self):
        result = invoke(["dist", "--k", "2", "--z", "1",
                                      "--format", "json"])
        payload = json.loads(result.output)
        assert payload["weight_sum"] == pytest.approx(1.0, abs=1e-10)

    def test_rows_beyond_hard_cap_write_no_file(self, tmp_path):
        # The row bound is checked before the first byte is written.
        target = tmp_path / "dist.csv"
        result = invoke(["dist", "--k", "0.5", "--z", "20",
                                      "--format", "csv", "--out", str(target)])
        assert result.exit_code == 3
        assert not target.exists()

    def test_streamed_csv_peak_memory(self, tmp_path):
        # Writing the rows a block at a time, the 105,821-row csv never
        # exists as a list of rows, a list of lines or one string; the
        # writer that built all three peaked at 28.8 MB in this test.  Here
        # and below, a first run caches the factor blocks, so that the traced
        # one pays for itself only.
        args = ["dist", "--k", "0.5", "--z", "10", "--format", "csv",
                "--out", str(tmp_path / "dist.csv")]
        assert invoke(args).exit_code == 0
        result, peak = traced_peak(args)
        assert result.exit_code == 0
        assert peak <= 0.6 * 28.8e6

    def test_streamed_json_peak_memory(self, tmp_path):
        # The json rows are written from the same block templates as the
        # csv's and held to its bound; encoded whole, with the payload dict
        # and its rows, the same distribution peaked near 87 MB in this test.
        target = tmp_path / "dist.json"
        args = ["dist", "--k", "0.5", "--z", "10", "--format", "json", "--out", str(target)]
        assert invoke(args).exit_code == 0
        result, peak = traced_peak(args)
        assert result.exit_code == 0
        assert len(json.loads(target.read_text())["rows"]) == 105820
        assert peak <= 0.6 * 28.8e6

    @pytest.mark.parametrize("fmt,digest", [
        ("csv", "7ad78295a7fd46b14f98b22ce8d43a7fd4af6f73f19357c96893baa52052be1a"),
        ("json", "74fdd6ff3731555a3323c90118f07b4c1e0c8644c6cb8f6957359137a6eaac64"),
        ("table", "f6aa26e345821347bb83fa51ae5bb56b73a4a2525d8d32281ee75ca1a4f31b7e")])
    def test_zero_rows_print_as_every_row_formatted(self, fmt, digest):
        # The sha256 of the stdout from when each of the 105,820 rows was
        # formatted on its own, with the 97,002 below the summed window
        # printing 0.0 and the footer the fsum of the rows printed.
        result = invoke(["dist", "--k", "0.5", "--z", "10", "--format", fmt])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("args,fmt,digest", [
        # 2,276 rows below the summed window, across blocks 0 to 2; rows
        # through n = 3,278.
        ("1.5 30", "csv", "f397d125d3f06c0f56c206edac6223b6ce337dbdea10c848a29f0abfb2fb99db"),
        ("1.5 30", "json", "124260a83f4ef8c048ad7e859d14cadd14421321602c1205180aee692f28e8cd"),
        ("1.5 30", "table", "a8ad5afd426b33fae9df67ec68ac23049199dcd513b597ac2d82e149d67eed09"),
        # 698 rows below the window; rows through n = 1,607, across 999 -> 1,000.
        ("0.5 4", "csv", "49c12ea33196868af9349bb44b8ce979f4ad26673dcb8c99125d62c9bba02bb0"),
        ("0.5 4", "json", "7db90dfb930a3f6c89e03ba85ae75858e0797f18beac20e9d8c65909f953cf7b"),
        ("0.5 4", "table", "8460948c007925d86c8327bfb08100ae0afc7029db7679cdd9595646aaa3844c")])
    def test_rows_print_as_every_row_formatted(self, args, fmt, digest):
        # The sha256 of the stdout from when each row was formatted on its
        # own, with the rows below the summed window printing 0.0 and the
        # footer the fsum of the rows printed.
        k, z = args.split()
        result = invoke(["dist", "--k", k, "--z", z, "--format", fmt])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("args,fmt,digest", [
        ("stats --k 1.5 --z 2.5", "csv",
         "ccde1f2af0d2b71500d3a7f8189611a0322de80777ab2483de7921ed66b10023"),
        ("stats --k 1.5 --z 2.5", "json",
         "711e58bbf30012ec1456dc0ebe148fd2e2b301e059e2d15cdd786545213a576e"),
        ("stats --k 1.5 --z 2.5", "table",
         "010a6170bc74e7a1ddfb4560ae15475da1a0a085211d4c6d18447d64eaf2668e"),
        # Q is undefined at |z| = 0.
        ("stats --k 1.5 --z 0", "csv",
         "8e4b233baa397d92d2285acff30556657e751a56de75046a0c90d775dc318cee"),
        ("stats --k 1.5 --z 0", "json",
         "97b74c8bcb5871bb474768b4b0106f128e95ea36f742d2528ab80f00a3e20c78"),
        ("stats --k 1.5 --z 0", "table",
         "76787628306f6a744f03f0d118d03878a27f6e2396fd3d3e849e89972f0500ef"),
        ("table --k 1.5 --z-list 2.5,5,7.5,10,12.5,15", "csv",
         "83d0fd62afdf8c31ad41f63f03b647f1d28d3ec8c035f11aa0b823bcce548752"),
        ("table --k 1.5 --z-list 2.5,5,7.5,10,12.5,15", "json",
         "5944883ad38d3a9c69ea27ecf4677bc27fe98e7c732675c6466ea37c411028d2"),
        ("table --k 1.5 --z-list 2.5,5,7.5,10,12.5,15", "table",
         "29f7d264bb11afb605cd2ec83461606954c4126364168f418fa4f43b0eb06ff0"),
        # The reference sweep: 750 rows and four onset footers.
        (REFERENCE_SWEEP, "csv",
         "798b86922cde4c5c6f72f7565c06d04d18269a545493c913b4ffc7761a389559"),
        (REFERENCE_SWEEP, "json",
         "10381c9c711e56ecf2cdeb3c192dbbad3e83864709480587b1a1c88eb2759933"),
        (REFERENCE_SWEEP, "table",
         "70af5588bbd6c5ce186e604430714beca76d9c1fe426f8b53973c7e2fcd4b6c8")])
    def test_small_commands_print_as_pinned(self, args, fmt, digest):
        # The sha256 of the stdout of stats, table and sweep, from when the
        # table's cells were built in two passes and every output streamed.
        result = invoke(args.split() + ["--format", fmt])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_zero_prefix_costs_no_memory_of_its_own(self, tmp_path, fmt):
        # The 97,002 rows below the summed window share one 0.0 and are never
        # walked: both runs peak near 0.74 MB, at the reduction's w d list,
        # and the csv one peaked at 5.3 MB when the walk went down to n = 0
        # and held a float per row.  The table's lines come from the same
        # block templates, so its cells are not held: holding them, it
        # peaked at 22.6 MB.
        args = ["dist", "--k", "0.5", "--z", "10", "--format", fmt,
                "--out", str(tmp_path / "dist.txt")]
        assert invoke(args).exit_code == 0
        result, peak = traced_peak(args)
        assert result.exit_code == 0
        assert peak <= 3.5e6

    def test_zero_rows_are_not_stored(self, tmp_path):
        # 751,963 of the 776,288 rows at |z| = 15 lie below the summed window
        # and are never walked: the run peaked at 9.9 MB while the rows that
        # underflow were kept as a list of 0.0, and peaks at 1.85 MB now.
        args = ["dist", "--k", "0.5", "--z", "15", "--format", "csv",
                "--out", str(tmp_path / "dist.csv")]
        assert invoke(args).exit_code == 0
        result, peak = traced_peak(args)
        assert result.exit_code == 0
        assert peak <= 5e6

    def test_rows_are_not_held(self, tmp_path):
        # No row is held: each is read again off the walk's lists as its
        # block of 1,000 rows is written.  Holding the rows from n = 83,200
        # on, the walk's own lists divided in place, the run peaked at
        # 1.00 MB here; it peaks at 0.73 MB without them.  A first run caches
        # the factor blocks, so that the traced one pays for its rows only.
        args = ["dist", "--k", "0.5", "--z", "10", "--format", "csv",
                "--out", str(tmp_path / "dist.csv")]
        assert invoke(args).exit_code == 0
        result, peak = traced_peak(args)
        assert result.exit_code == 0
        assert peak <= 0.85e6


def joined_emit(fmt, inputs, header, rows, pretty, footers=None):
    """The text the writer built whole, in one joined string, before it streamed."""
    def repr_num(x):
        return repr(x) if isinstance(x, float) else str(x)

    footers = footers or {}
    if fmt == "json":
        payload = {"inputs": inputs, "rows": [dict(zip(header, row)) for row in rows]}
        payload.update(footers.get("json", {}))
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {key}={repr_num(value)}" for key, value in inputs.items()]
    if fmt == "csv":
        lines.append(",".join(header))
        lines.extend(",".join(repr_num(v) for v in row) for row in rows)
        lines.extend(f"# {c}" for c in footers.get("csv", ()))
    else:
        cells = pretty()
        widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
        for r in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
        lines.extend(footers.get("table", ()))
    return "\n".join(lines) + "\n"


cell_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(), st.booleans(),
    st.none(), st.sampled_from(["undefined", "unconverged"]))


# Row counts on and beside the edges of dist's blocks of 1,000 indices and
# of the index's changes of length.
block_edges = st.sampled_from([0, 1, 999, 1000, 1001, 1999, 2000, 9999, 10000, 10001,
                               99999, 100000])


class StoredRows:
    """What dist reads of a weight distribution: ``zeros`` rows of 0.0 not
    made, then the rows ``stored``, an iterator over them on each call to
    ``rows``, and their sum."""

    def __init__(self, zeros, stored):
        self.zero_rows, self._stored = zeros, stored
        self.support_bound = zeros + len(stored) - 1
        self.total = math.fsum(stored)
        self.sums = types.SimpleNamespace(converged=True)

    def rows(self):
        return iter(self._stored)


class Cells:
    """The rows ``make()`` yields, as a sequence made again on each pass, not held."""

    def __init__(self, make):
        self.make = make

    def __iter__(self):
        return iter(self.make())

    def __getitem__(self, i):
        return next(itertools.islice(self.make(), i, None))


def assert_same_lines(text, expected):
    """Assert ``text`` == ``expected``, naming the first line that differs:
    pytest's diff of the whole text would take minutes."""
    if text != expected:
        lines, wants = text.splitlines(True), expected.splitlines(True)
        number = next(i for i, pair in enumerate(itertools.zip_longest(lines, wants))
                      if pair[0] != pair[1])
        assert lines[number:number + 1] == wants[number:number + 1], f"line {number}"


class TestWriter:
    @given(fmt=st.sampled_from(["csv", "json", "table"]),
           inputs=st.dictionaries(st.sampled_from(["k", "gamma", "z", "policy", "hard_cap"]),
                                  cell_values, min_size=1),
           width=st.integers(min_value=1, max_value=4),
           cells=st.lists(cell_values, max_size=40))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_streamed_output_equals_joined_text(self, tmp_path, capsys, fmt, inputs, width,
                                                cells):
        header = [f"c{i}" for i in range(width)]
        rows = [cells[i:i + width] for i in range(0, len(cells) - width + 1, width)]

        def pretty():
            return [header] + [[str(v) for v in row] for row in rows]

        # The writer parts the strings of rows it is given: one string a row
        # to stdout, all rows in one string to the file.  The table's widths
        # need every row, so both ways it is a line a string, from all cells.
        if fmt == "table":
            apart, whole = cli._rows(fmt, header, pretty()), cli._rows(fmt, header, pretty())
        else:
            apart = [text for row in rows for text in cli._rows(fmt, header, [row])]
            whole = cli._rows(fmt, header, rows) if rows else []
        expected = joined_emit(fmt, inputs, header, rows, pretty)
        capsys.readouterr()
        cli._emit(fmt, None, inputs, header, iter(apart), {})
        assert capsys.readouterr().out == expected
        target = tmp_path / "out.txt"
        cli._emit(fmt, str(target), inputs, header, iter(whole), {})
        assert target.read_bytes() == expected.encode()

    @given(fmt=st.sampled_from(["csv", "json", "table"]),
           bounds=st.lists(block_edges, min_size=3, max_size=3),
           first=st.floats(min_value=5e-324, max_value=1.0),
           rest=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4))
    @example(fmt="csv", bounds=[999_999, 1_000_000, 1_000_001], first=0.5, rest=[])
    @example(fmt="json", bounds=[1000, 2000, 2000], first=1.0, rest=[])
    @example(fmt="table", bounds=[999, 1000, 10001], first=1.0, rest=[0.0, 5e-7])
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_zero_rows_equal_the_rows_written_out(self, monkeypatch, tmp_path, fmt, bounds,
                                                  first, rest):
        # dist writes its rows, those it never stored and those it did, a
        # block of 1,000 indices at a time from templates; they read as the
        # same rows formatted one by one.  The bounds fall on and beside the
        # block edges and the index's changes of length: rows below the
        # first of them are not stored, rows from it to the second are
        # stored 0.0, and from there to the third P_n cycles through
        # ``first`` and ``rest``.
        zeros, nonzero, count = sorted(bounds)
        count = max(count, 1)
        stored = [0.0] * (nonzero - zeros) + list(
            itertools.islice(itertools.cycle([first] + rest), count - nonzero))
        monkeypatch.setattr(cli, "weight_distribution",
                            lambda z, params, policy: StoredRows(zeros, stored))
        policy = TruncationPolicy.adaptive(hard_cap=2_000_000)
        inputs = {"k": 0.5, "gamma": 2.0, "z": 1.0, **cli._policy_inputs(policy)}
        total = math.fsum(stored)

        def rows():
            return enumerate(itertools.chain(itertools.repeat(0.0, zeros), stored))

        expected = joined_emit(
            fmt, inputs, ["n", "p_n"], ([n, p] for n, p in rows()),
            lambda: Cells(lambda: itertools.chain(
                [["n", "p_n"]], ([str(n), f"{p:.6f}"] for n, p in rows()))),
            {"csv": [f"sum={total}"], "json": {"weight_sum": total},
             "table": [f"sum  {total:.10f}"]})
        args = ["dist", "--k", "0.5", "--z", "1", "--hard-cap", "2000000", "--format", fmt]
        result = invoke(args)
        assert result.exit_code == 0
        assert_same_lines(result.stdout, expected)
        target = tmp_path / "out.txt"
        assert invoke(args + ["--out", str(target)]).exit_code == 0
        assert_same_lines(target.read_bytes().decode(), expected)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["row", "footer"])
    def test_json_rejects_non_finite_numbers(self, capsys, value, where):
        # Refused in a row cell, as the rows' text is made, or in a footer,
        # as the writer frames the rows, before a byte is written.
        with pytest.raises(ValueError):
            cells, footers = ([[value]], {}) if where == "row" else ([[1.0]], {"sum": value})
            cli._emit("json", None, {"z": 1.0}, ["q"], cli._rows("json", ["q"], cells), footers)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("args", [
        "stats --k 1.5 --z 0", "stats --k 1.5 --z 2.5", "table --k 1.5 --z-list 2.5,5",
        "sweep --k 1.5 --z-min 0.1 --z-max 1 --z-step 0.1",
        "sweep --k 1.5 --z-min 0.1 --z-max 1 --z-step 0.1 --cutoffs 5", "dist --k 1.5 --z 2"])
    def test_json_is_laid_out_as_json_dumps(self, args):
        # Every command's json, whatever writes its rows, is laid out as
        # json.dumps(..., indent=2) lays out the payload it reads back to.
        result = invoke(args.split() + ["--format", "json"])
        assert result.exit_code == 0
        assert result.stdout == json.dumps(json.loads(result.stdout), indent=2) + "\n"


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def mostly(usual, rare):
    """Mostly values drawn from ``usual``, one time in eight one of ``rare``."""
    return st.tuples(usual, st.sampled_from(rare), st.integers(min_value=0, max_value=7)).map(
        lambda t: t[1] if t[2] == 3 else t[0])


# Below about 1e-162, t_1 / t_0 underflows to 0 (at k = 1.5).
amplitudes = mostly(mostly(st.floats(min_value=0.0, max_value=30.0), [1e-300, 1e-160]),
                    [-1.0, math.nan, math.inf, -math.inf])
# k >= 0.1 and gamma <= 10 keep ln g's directly summed head short (see core.log_g).
# The extreme k are valid too: beyond about 8.99e307, 2k overflows.  k = 1e-20
# and 5e-324 round the first factor to 0, and gamma = 5e-324 leaves gamma/4 = 0.
physics = st.tuples(mostly(mostly(st.floats(min_value=0.1, max_value=100.0),
                                  [1e300, 9e307, sys.float_info.max]),
                           [0.0, -1.0, math.nan, math.inf, 1e-20, 5e-324]),
                    mostly(st.floats(min_value=0.1, max_value=10.0),
                           [0.0, -2.0, math.nan, math.inf, 5e-324]))
hard_caps = st.integers(min_value=1, max_value=20000)
# Subnormal tolerances included: they are refused with exit 2.
tail_tols = mostly(st.floats(min_value=5e-324, max_value=0.5), [5e-324, 1e-310])
formats = st.sampled_from(["csv", "json", "table"])


class TestFuzz:
    """Every command ends in exit 0, 2 or 3, never a traceback, and json output is strict."""

    @staticmethod
    def check(args, fmt):
        result = invoke([str(a) for a in args] + ["--format", fmt])
        event(f"exit {result.exit_code}")
        assert result.exit_code in (0, 2, 3), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            repr(result.exception)
        if fmt == "json" and result.exit_code == 0:
            json.loads(result.stdout, parse_constant=_reject_constant)

    @given(physics, amplitudes, st.one_of(st.none(), st.integers(min_value=-1, max_value=2000)),
           hard_caps, tail_tols, formats)
    @settings(max_examples=100, deadline=None)
    def test_stats(self, kg, z, n_max, cap, tol, fmt):
        policy = (["--hard-cap", cap, "--tail-tol", tol] if n_max is None
                  else ["--fixed-nmax", n_max])
        self.check(["stats", "--k", kg[0], "--gamma", kg[1], "--z", z, *policy], fmt)

    @given(physics, mostly(st.floats(min_value=0.0, max_value=6.0),
                           [-1.0, math.nan, math.inf, 1e-300, 1e-160]),
           st.one_of(st.none(), st.integers(min_value=-1, max_value=2000)), hard_caps,
           tail_tols, formats)
    @settings(max_examples=100, deadline=None)
    def test_dist(self, kg, z, n_max, cap, tol, fmt):
        policy = (["--hard-cap", cap, "--tail-tol", tol] if n_max is None
                  else ["--fixed-nmax", n_max])
        self.check(["dist", "--k", kg[0], "--gamma", kg[1], "--z", z, *policy], fmt)

    @given(physics, st.lists(amplitudes, min_size=1, max_size=3),
           st.integers(min_value=-1, max_value=2000), hard_caps, formats)
    @settings(max_examples=100, deadline=None)
    def test_table(self, kg, zs, n_max, cap, fmt):
        self.check(["table", "--k", kg[0], "--gamma", kg[1], "--z-list", ",".join(map(str, zs)),
                    "--fixed-nmax", n_max, "--hard-cap", cap], fmt)

    @given(physics, amplitudes, st.floats(min_value=0.0, max_value=30.0),
           st.integers(min_value=0, max_value=3), st.lists(st.integers(min_value=-1, max_value=2000),
                                                           max_size=3), hard_caps,
           tail_tols, formats)
    @settings(max_examples=100, deadline=None)
    def test_sweep(self, kg, z_min, span, steps, cutoffs, cap, tol, fmt):
        # At most four grid points, or a rejected grid.
        z_step = span / steps if steps else 1.0
        self.check(["sweep", "--k", kg[0], "--gamma", kg[1], "--z-min", z_min,
                    "--z-max", z_min + span, "--z-step", z_step,
                    "--cutoffs", ",".join(map(str, cutoffs)), "--hard-cap", cap,
                    "--tail-tol", tol], fmt)
