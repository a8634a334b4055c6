import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import namedtuple

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import ghacs
import ghacs.stats
from ghacs import cli
from ghacs.cli import main
from ghacs.lab import SweepSpec, collapse_onset, run_sweep
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
])
def test_rejected_input_value_is_usage_error(args):
    result = invoke(args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["stats", "dist"])
@pytest.mark.parametrize("flag,value", [("--tail-tol", "1e-10"), ("--quiet-run", "20"),
                                        ("--hard-cap", "100")])
def test_adaptive_flag_beside_fixed_nmax_is_named(command, flag, value):
    result = invoke([command, "--k", "1.5", "--z", "1", "--fixed-nmax", "50", flag, value])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"--fixed-nmax cannot be given with {flag}" in result.stderr


def test_import_loads_no_click_dataclasses_or_inspect():
    # In a fresh interpreter, against the modules loaded before the import,
    # so that what site loads at start-up does not count.
    code = ("import sys; before = set(sys.modules); import ghacs.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = os.path.dirname(os.path.dirname(ghacs.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True).stdout.split())
    assert "ghacs.cli" in loaded
    assert not loaded & {"click", "dataclasses", "inspect"}


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


# Every command at a given k, gamma and |z|, adaptive by default.
def each_command(k, gamma, z):
    physics = ["--k", k, "--gamma", gamma]
    return [["stats", *physics, "--z", z], ["dist", *physics, "--z", z],
            ["table", *physics, "--z-list", z],
            ["sweep", *physics, "--z-min", z, "--z-max", z, "--z-step", "1"]]


def test_grid_of_exactly_the_budget():
    assert len(cli._z_grid(0.0, 999999.0, 1.0)) == 10 ** 6


@pytest.mark.parametrize("args", each_command("1.5", "2", "1"), ids=lambda a: a[0])
def test_out_into_a_missing_directory_is_usage_error(tmp_path, args):
    target = tmp_path / "missing" / "x.csv"
    result = invoke(args + ["--format", "csv", "--out", str(target)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert str(target) in result.output


@pytest.mark.parametrize("args", each_command("0.5", "2", "15"), ids=lambda a: a[0])
def test_out_naming_a_directory_is_refused_before_the_run(monkeypatch, tmp_path, args):
    def unreachable(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli.engine, "accumulate_sums", unreachable)
    for name in ("weight_distribution", "sweep_row", "run_sweep"):
        monkeypatch.setattr(cli, name, unreachable)
    result = invoke(args + ["--out", str(tmp_path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Is a directory" in result.stderr


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


@pytest.mark.parametrize("args", each_command("0.01", "2", "0.5"), ids=lambda a: a[0])
def test_small_k_past_the_factor_budget_is_usage_error(args):
    # ln g at the peak (n near 3e9) would sum about 3e9 factors directly.
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

    def test_one_walk(self, monkeypatch):
        covered = []
        factors = ghacs.stats.log_factors

        def recorded(lo, hi, params):
            covered.extend(range(lo, hi))
            return factors(lo, hi, params)

        monkeypatch.setattr(ghacs.stats, "log_factors", recorded)
        result = invoke(["dist", "--k", "1.5", "--z", "3", "--format", "csv"])
        assert result.exit_code == 0
        _, _, rows, _ = parse_csv(result.output)
        # Walked out from the peak, down to n = 0: each factor index once,
        # every row's among them (the last block may reach past the rows).
        assert len(covered) == len(set(covered))
        assert set(range(1, len(rows))) <= set(covered)

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
        # Writing the rows as they are formatted, the 105,821-row csv never
        # exists as a list of rows, a list of lines or one string; the
        # writer that built all three peaked at 28.8 MB in this test.
        args = ["dist", "--k", "0.5", "--z", "10", "--format", "csv",
                "--out", str(tmp_path / "dist.csv")]
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = invoke(args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert result.exit_code == 0
        assert peak <= 0.6 * 28.8e6

    def test_streamed_json_peak_memory(self, tmp_path):
        # The json rows are encoded a chunk at a time and held to the csv
        # writer's bound; encoded whole, with the payload dict and its rows,
        # the same distribution peaked near 87 MB in this test.
        target = tmp_path / "dist.json"
        args = ["dist", "--k", "0.5", "--z", "10", "--format", "json", "--out", str(target)]
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = invoke(args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert result.exit_code == 0
        assert len(json.loads(target.read_text())["rows"]) == 105820
        assert peak <= 0.6 * 28.8e6


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


class TestWriter:
    @given(fmt=st.sampled_from(["csv", "json", "table"]),
           inputs=st.dictionaries(st.sampled_from(["k", "gamma", "z", "policy", "hard_cap"]),
                                  cell_values, min_size=1),
           width=st.integers(min_value=1, max_value=4),
           cells=st.lists(cell_values, max_size=40),
           csv_footer=st.lists(st.text(alphabet="abc_=0123456789.", max_size=12), max_size=3),
           total=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_streamed_output_equals_joined_text(self, tmp_path, capsys, fmt, inputs, width,
                                                cells, csv_footer, total):
        header = [f"c{i}" for i in range(width)]
        rows = [cells[i:i + width] for i in range(0, len(cells) - width + 1, width)]
        footers = {"csv": csv_footer, "json": {"weight_sum": total},
                   "table": [f"sum  {total:.10f}"]}

        def pretty():
            return [header] + [[str(v) for v in row] for row in rows]

        expected = joined_emit(fmt, inputs, header, rows, pretty, footers)
        capsys.readouterr()
        cli._emit(fmt, None, inputs, header, iter(rows), pretty, footers)
        assert capsys.readouterr().out == expected
        target = tmp_path / "out.txt"
        cli._emit(fmt, str(target), inputs, header, iter(rows), pretty, footers)
        assert target.read_bytes() == expected.encode()

    def test_json_rejects_non_finite_numbers(self):
        with pytest.raises(ValueError):
            cli._emit("json", None, {"z": 1.0}, ["q"], [[math.nan]], None)


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def mostly(valid, rejected):
    """Mostly valid values, sometimes one of the rejected ones."""
    return st.tuples(valid, st.sampled_from(rejected), st.integers(min_value=0, max_value=7)).map(
        lambda t: t[1] if t[2] == 3 else t[0])


amplitudes = mostly(st.floats(min_value=0.0, max_value=30.0), [-1.0, math.nan, math.inf, -math.inf])
# k >= 0.1 and gamma <= 10 keep ln g's directly summed head short (see core.log_g).
physics = st.tuples(mostly(st.floats(min_value=0.1, max_value=100.0), [0.0, -1.0, math.nan, math.inf]),
                    mostly(st.floats(min_value=0.1, max_value=10.0), [0.0, -2.0, math.nan, math.inf]))
hard_caps = st.integers(min_value=1, max_value=20000)
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
           hard_caps, formats)
    @settings(max_examples=100, deadline=None)
    def test_stats(self, kg, z, n_max, cap, fmt):
        policy = ["--hard-cap", cap] if n_max is None else ["--fixed-nmax", n_max]
        self.check(["stats", "--k", kg[0], "--gamma", kg[1], "--z", z, *policy], fmt)

    @given(physics, mostly(st.floats(min_value=0.0, max_value=6.0), [-1.0, math.nan, math.inf]),
           st.one_of(st.none(), st.integers(min_value=-1, max_value=2000)), hard_caps, formats)
    @settings(max_examples=100, deadline=None)
    def test_dist(self, kg, z, n_max, cap, fmt):
        policy = ["--hard-cap", cap] if n_max is None else ["--fixed-nmax", n_max]
        self.check(["dist", "--k", kg[0], "--gamma", kg[1], "--z", z, *policy], fmt)

    @given(physics, st.lists(amplitudes, min_size=1, max_size=3),
           st.integers(min_value=-1, max_value=2000), hard_caps, formats)
    @settings(max_examples=100, deadline=None)
    def test_table(self, kg, zs, n_max, cap, fmt):
        self.check(["table", "--k", kg[0], "--gamma", kg[1], "--z-list", ",".join(map(str, zs)),
                    "--fixed-nmax", n_max, "--hard-cap", cap], fmt)

    @given(physics, amplitudes, st.floats(min_value=0.0, max_value=30.0),
           st.integers(min_value=0, max_value=3), st.lists(st.integers(min_value=-1, max_value=2000),
                                                           max_size=3), hard_caps, formats)
    @settings(max_examples=100, deadline=None)
    def test_sweep(self, kg, z_min, span, steps, cutoffs, cap, fmt):
        # At most four grid points, or a rejected grid.
        z_step = span / steps if steps else 1.0
        self.check(["sweep", "--k", kg[0], "--gamma", kg[1], "--z-min", z_min,
                    "--z-max", z_min + span, "--z-step", z_step,
                    "--cutoffs", ",".join(map(str, cutoffs)), "--hard-cap", cap], fmt)
