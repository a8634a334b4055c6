"""The benchmark's own tests: each output check rejects a perturbed output.

    python -m pytest bench -q

Runs in seconds on the smoke inputs of ``run.py --smoke``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402


def cli(argv):
    return subprocess.run([sys.executable, "-m", "ghacs.cli", *argv], capture_output=True,
                          text=True, env={"PYTHONPATH": str(ROOT / "src")}, cwd=ROOT)


@pytest.fixture(scope="module")
def smoke():
    """(workload, first op, its stdout) per smoke workload."""
    out = {}
    for name in run.WORKLOADS:
        workload = run.build(name, 0, smoke=True)
        op = workload.ops[0]
        proc = cli(op.argv)
        assert proc.returncode == 0, proc.stderr
        out[name] = (workload, op, proc.stdout)
    return out


def test_genuine_outputs_pass(smoke):
    for name, (_, op, stdout) in smoke.items():
        assert op.check(stdout) < 1e-6, name


def _shift_q(line: str, delta: float) -> str:
    z, label, q, status = line.split(",")
    return ",".join([z, label, repr(float(q) + delta), status])


def test_sweep_rejects_q_shifted_by_1e_6(smoke):
    _, op, stdout = smoke["ref-sweep"]
    lines = stdout.splitlines()
    i = next(i for i, line in enumerate(lines) if ",adaptive," in line)
    lines[i + 40] = _shift_q(lines[i + 40], 1e-6)
    with pytest.raises(checks.CheckError, match="oracle"):
        op.check("\n".join(lines) + "\n")


def test_stats_rejects_q_shifted_by_1e_6(smoke):
    _, op, stdout = smoke["deep-tail"]
    payload = json.loads(stdout)
    payload["rows"][0]["mandel_q"] += 1e-6
    with pytest.raises(checks.CheckError, match="Q"):
        op.check(json.dumps(payload))


def test_dist_rejects_one_dropped_p_n(smoke):
    _, op, stdout = smoke["dist-tail"]
    lines = stdout.splitlines()
    rows = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    peak = max(rows, key=lambda i: float(lines[i].split(",")[1]))
    del lines[peak]
    with pytest.raises(checks.CheckError):
        op.check("\n".join(lines) + "\n")
    # Renumbering the rows after the gap still leaves the oracle and the sum off.
    renumbered = [f"{n},{line.split(',')[1]}" if line[:1].isdigit() else line
                  for n, line in enumerate(lines, start=-rows[0])]
    with pytest.raises(checks.CheckError):
        op.check("\n".join(renumbered) + "\n")


def test_sweep_rejects_non_monotone_onset(smoke):
    """Swap the cutoff-3 and cutoff-12 columns in the output and in the
    reference alike, so that only the onset order can fail."""
    _, op, stdout = smoke["ref-sweep"]
    ref = op.check.reference()
    swapped = checks.SweepCheck(op.check.k, op.check.gamma, op.check.grid, op.check.cutoffs)
    swap = {"3": "12", "12": "3"}
    swapped._ref = {(z, label): ref[(z, swap.get(label, label))] for z, label in ref}
    q = {}
    for line in stdout.splitlines():
        parts = line.split(",")
        if len(parts) == 4 and parts[1] in ("3", "12"):
            q[(float(parts[0]), parts[1])] = parts[2]
    lines = []
    for line in stdout.splitlines():
        parts = line.split(",")
        if len(parts) == 4 and parts[1] in swap:
            parts[2] = q[(float(parts[0]), swap[parts[1]])]
        lines.append(",".join(parts))
    with pytest.raises(checks.CheckError, match="strictly increasing"):
        swapped("\n".join(lines) + "\n")


def test_unconverged_run_is_the_documented_failure():
    workload = run.build("deep-tail", 0, smoke=True)
    failing = workload.ops[-1]
    assert failing.fails
    proc = cli(failing.argv)
    checks.check_unconverged(proc.returncode, proc.stdout, proc.stderr)
    with pytest.raises(checks.CheckError):
        checks.check_unconverged(1, "", "Traceback (most recent call last):\n")


def test_peak_window_oracle_reproduces_frozen_constants():
    f = checks.FROZEN_DEEP_TAIL
    mean, q, _ = checks.peak_window_stats(f["z"], f["k"], f["gamma"], f["n_max"])
    assert mean == pytest.approx(f["mean"], rel=1e-14)
    assert q == pytest.approx(f["mandel_q"], rel=1e-13)


def test_peak_window_oracle_matches_repository_oracle():
    n_max = checks.adaptive_nmax(3.0, 0.5, 2.0)
    mean, q, log_s0 = checks.peak_window_stats(3.0, 0.5, 2.0, n_max)
    ref_mean, ref_q, ref_log_s0 = checks.direct_moments(3.0, 0.5, 2.0, n_max)
    assert mean == pytest.approx(ref_mean, rel=1e-14)
    assert q == pytest.approx(ref_q, rel=1e-13)
    assert log_s0 == pytest.approx(ref_log_s0, rel=1e-12)


def test_smoke_runs_report_correct(tmp_path):
    for name in run.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", "3", "--seconds", "0.5", "--trace", "0", "--smoke"],
                              capture_output=True, text=True, cwd=ROOT)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"], proc.stderr
        assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ref-sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
