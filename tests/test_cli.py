import json
import math
import time
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import ghacs.stats
from ghacs import cli
from ghacs.cli import main
from ghacs.lab import SweepSpec, collapse_onset, run_sweep
from ghacs.stats import TruncationPolicy


@pytest.fixture
def runner():
    return CliRunner()


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
])
def test_rejected_input_value_is_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args", [
    ["stats", "--k", "1.5", "--z", "nan", "--format", "json"],
    ["stats", "--k", "1.5", "--z", "inf", "--format", "json"],
    ["dist", "--k", "1.5", "--z", "nan", "--format", "csv"],
    ["dist", "--k", "1.5", "--z", "inf", "--fixed-nmax", "5"],
    ["table", "--k", "1.5", "--z-list", "2,nan"],
    ["table", "--k", "1.5", "--z-list", "inf"],
])
def test_non_finite_amplitude_is_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "NaN" not in result.output and "sum=nan" not in result.output


class TestStatsCommand:
    def test_csv_record(self, runner):
        result = runner.invoke(main, ["stats", "--k", "1.5", "--z", "2.5",
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

    def test_pretty_table_two_decimals(self, runner):
        result = runner.invoke(main, ["stats", "--k", "1.5", "--z", "2.5"])
        assert result.exit_code == 0
        assert "8.94" in result.output
        assert "10.04" in result.output
        assert "0.123" in result.output

    def test_harmonic_q_zero(self, runner):
        result = runner.invoke(main, ["stats", "--k", "2", "--z", "3", "--adaptive"])
        assert result.exit_code == 0
        assert "0.000" in result.output

    def test_fixed_truncation_collapse(self, runner):
        result = runner.invoke(main, ["stats", "--k", "1.5", "--z", "10",
                                      "--fixed-nmax", "150"])
        assert result.exit_code == 0
        assert "-0.947" in result.output

    def test_zero_amplitude_undefined_q(self, runner):
        result = runner.invoke(main, ["stats", "--k", "1.5", "--z", "0"])
        assert result.exit_code == 0
        assert "undefined" in result.output

    def test_json_shape(self, runner):
        result = runner.invoke(main, ["stats", "--k", "1.5", "--z", "1",
                                      "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert set(payload) == {"inputs", "rows"}
        assert payload["inputs"]["k"] == 1.5
        assert payload["inputs"]["policy"] == "adaptive"
        assert len(payload["rows"]) == 1

    def test_missing_flag_is_usage_error(self, runner):
        result = runner.invoke(main, ["stats", "--z", "1"])
        assert result.exit_code == 2

    def test_conflicting_policies_usage_error(self, runner):
        result = runner.invoke(main, ["stats", "--k", "1.5", "--z", "1",
                                      "--adaptive", "--fixed-nmax", "50"])
        assert result.exit_code == 2

    def test_invalid_k_usage_error(self, runner):
        result = runner.invoke(main, ["stats", "--k", "-2", "--z", "1"])
        assert result.exit_code == 2

    def test_nonconvergence_exit_three(self, runner):
        result = runner.invoke(main, ["stats", "--k", "1.5", "--z", "10",
                                      "--hard-cap", "20"])
        assert result.exit_code == 3


    def test_huge_amplitude_exits_unconverged(self, runner):
        result = runner.invoke(main, ["stats", "--k", "1.5", "--z", "1e300",
                                      "--hard-cap", "50"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "hard_cap" in result.output

    def test_deep_tail_converges(self, runner):
        # The peak sits near n = 3.2e6, beyond the 10^6 cap on terms
        # evaluated; the walk starts there and sums about 50k of them.
        # Reference: bench/checks.peak_window_stats(20, 0.5, 2.0, None), a
        # 30-digit mpmath sum outward from the peak.
        result = runner.invoke(main, ["stats", "--k", "0.5", "--z", "20", "--format", "json"])
        assert result.exit_code == 0
        (row,) = json.loads(result.output)["rows"]
        assert row["converged"] is True
        assert row["mean"] == pytest.approx(3215178.9591405974, rel=1e-12)


class TestTableCommand:
    def test_reference_shape(self, runner):
        result = runner.invoke(main, ["table", "--k", "1.5",
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

    def test_zero_amplitude_row(self, runner):
        result = runner.invoke(main, ["table", "--k", "1.5", "--z-list", "0",
                                      "--format", "csv"])
        assert result.exit_code == 0
        _, header, rows, _ = parse_csv(result.output)
        record = dict(zip(header, rows[0]))
        assert float(record["mean"]) == 0.0
        assert record["mandel_q"] == "undefined"

    def test_harmonic_adaptive_column_zero(self, runner):
        result = runner.invoke(main, ["table", "--k", "2", "--z-list", "1,2,3"])
        assert result.exit_code == 0
        assert result.output.count("0.000") >= 3

    def test_huge_amplitude_exits_unconverged(self, runner):
        result = runner.invoke(main, ["table", "--k", "1.5", "--z-list", "1e300",
                                      "--hard-cap", "50"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "hard_cap" in result.output and "Traceback" not in result.output


class TestSweepCommand:
    def test_family_rows(self, runner):
        args = ["sweep", "--k", "1.5", "--z-min", "1", "--z-max", "3",
                "--z-step", "1", "--cutoffs", "50,100", "--format", "csv"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        _, header, rows, _ = parse_csv(result.output)
        assert header == ["z", "cutoff", "mandel_q", "status"]
        assert len(rows) == 3 * 3  # adaptive + two cutoffs per grid point
        labels = {r[1] for r in rows}
        assert labels == {"adaptive", "50", "100"}
        assert all(r[3] == "ok" for r in rows)

    def test_adaptive_only(self, runner):
        result = runner.invoke(main, ["sweep", "--k", "1.5", "--z-min", "1",
                                      "--z-max", "2", "--z-step", "0.5",
                                      "--format", "csv"])
        assert result.exit_code == 0
        _, _, rows, _ = parse_csv(result.output)
        assert all(r[1] == "adaptive" for r in rows)

    def test_byte_identical_reruns(self, runner):
        args = ["sweep", "--k", "1.5", "--z-min", "0.5", "--z-max", "5",
                "--z-step", "0.5", "--cutoffs", "50", "--format", "csv"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_unconverged_points_flagged_in_status(self, runner):
        result = runner.invoke(main, ["sweep", "--k", "1.5", "--z-min", "8",
                                      "--z-max", "10", "--z-step", "1",
                                      "--hard-cap", "20", "--format", "csv"])
        assert result.exit_code == 0
        _, _, rows, _ = parse_csv(result.output)
        assert all(r[3] == "unconverged" for r in rows)

    def test_huge_amplitude_row_unconverged(self, runner):
        result = runner.invoke(main, ["sweep", "--k", "1.5", "--z-min", "1e300",
                                      "--z-max", "1e300", "--z-step", "1",
                                      "--hard-cap", "50", "--format", "csv"])
        assert result.exit_code == 0
        _, _, rows, _ = parse_csv(result.output)
        assert [r[1:2] + r[3:] for r in rows] == [["adaptive", "unconverged"]]

    def test_onset_footers(self, runner):
        args = ["sweep", "--k", "1.5", "--z-min", "6", "--z-max", "12",
                "--z-step", "1", "--cutoffs", "100,150,700"]
        spec = SweepSpec(k=1.5, gamma=2.0, z_grid=(6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0),
                         cutoffs=(100, 150, 700))
        report = run_sweep(spec, TruncationPolicy.adaptive())
        onsets = {c: collapse_onset(report, c) for c in spec.cutoffs}
        assert onsets == {100: 7.0, 150: 9.0, 700: None}

        csv_out = runner.invoke(main, args + ["--format", "csv"])
        _, _, rows, footer = parse_csv(csv_out.output)
        assert len(rows) == 7 * 4
        assert footer == [f"onset_{c}={z!r}" for c, z in onsets.items()]
        payload = json.loads(runner.invoke(main, args + ["--format", "json"]).output)
        assert payload["onsets"] == {str(c): z for c, z in onsets.items()}
        table_out = runner.invoke(main, args).output
        assert table_out.splitlines()[-3:] == ["onset_100  7", "onset_150  9", "onset_700  None"]

    def test_adaptive_only_has_no_onset_footer(self, runner):
        args = ["sweep", "--k", "1.5", "--z-min", "1", "--z-max", "2", "--z-step", "0.5"]
        assert "onset" not in runner.invoke(main, args + ["--format", "csv"]).output
        assert "onsets" not in json.loads(runner.invoke(main, args + ["--format", "json"]).output)

    def test_bad_range_usage_error(self, runner):
        result = runner.invoke(main, ["sweep", "--k", "1.5", "--z-min", "5",
                                      "--z-max", "1", "--z-step", "0.5"])
        assert result.exit_code == 2


class TestDistCommand:
    def test_poisson_rows(self, runner):
        result = runner.invoke(main, ["dist", "--k", "2", "--z", "1",
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

    def test_zero_amplitude_single_row(self, runner):
        result = runner.invoke(main, ["dist", "--k", "1.5", "--z", "0",
                                      "--format", "csv"])
        assert result.exit_code == 0
        _, _, rows, _ = parse_csv(result.output)
        assert rows == [["0", "1.0"]]

    def test_round_trip_moments(self, runner):
        dist_out = runner.invoke(main, ["dist", "--k", "1.5", "--z", "2.5",
                                        "--format", "csv"])
        stats_out = runner.invoke(main, ["stats", "--k", "1.5", "--z", "2.5",
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

    def test_out_file_lf_endings(self, runner, tmp_path):
        target = tmp_path / "dist.csv"
        result = runner.invoke(main, ["dist", "--k", "2", "--z", "1",
                                      "--format", "csv", "--out", str(target)])
        assert result.exit_code == 0
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_one_walk(self, runner, monkeypatch):
        covered = []
        factors = ghacs.stats.log_factors

        def recorded(lo, hi, params):
            covered.extend(range(lo, hi))
            return factors(lo, hi, params)

        monkeypatch.setattr(ghacs.stats, "log_factors", recorded)
        result = runner.invoke(main, ["dist", "--k", "1.5", "--z", "3", "--format", "csv"])
        assert result.exit_code == 0
        _, _, rows, _ = parse_csv(result.output)
        # Walked out from the peak, down to n = 0: each factor index once,
        # every row's among them (the last block may reach past the rows).
        assert len(covered) == len(set(covered))
        assert set(range(1, len(rows))) <= set(covered)

    @pytest.mark.parametrize("z,cap", [("100", "50"), ("20", "1000000")])
    def test_rows_beyond_hard_cap_exit_unconverged(self, runner, z, cap):
        # |z| = 100 hits its cap 50 terms into the window; |z| = 20 converges
        # on 50k terms but would list 3.2 million rows from n = 0.  Neither
        # may walk down to n = 0.
        start = time.perf_counter()
        result = runner.invoke(main, ["dist", "--k", "0.5", "--z", z,
                                      "--hard-cap", cap, "--format", "csv"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "hard_cap" in result.output
        assert time.perf_counter() - start < 5.0

    def test_json_weight_sum(self, runner):
        result = runner.invoke(main, ["dist", "--k", "2", "--z", "1",
                                      "--format", "json"])
        payload = json.loads(result.output)
        assert payload["weight_sum"] == pytest.approx(1.0, abs=1e-10)

    def test_rows_beyond_hard_cap_write_no_file(self, runner, tmp_path):
        # The row bound is checked before the first byte is written.
        target = tmp_path / "dist.csv"
        result = runner.invoke(main, ["dist", "--k", "0.5", "--z", "20",
                                      "--format", "csv", "--out", str(target)])
        assert result.exit_code == 3
        assert not target.exists()

    def test_streamed_csv_peak_memory(self, runner, tmp_path):
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
            result = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert result.exit_code == 0
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
        result = CliRunner().invoke(main, [str(a) for a in args] + ["--format", fmt])
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
