"""Output checks for the benchmark workloads, made apart from the engine.

Reference values come from mpmath: the repository's oracle in
``tests/oracle.py``, the frozen 40-digit constants below, or the
peak-anchored sum in :func:`peak_window_stats`.  None of them calls into
``ghacs``.  Each check is called with the text one CLI command printed and
returns the worst error of the checked quantity (relative, or for Q
relative to max(1, |Q|)), or raises
:class:`CheckError` naming the first thing that is wrong.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpf

import oracle

EPS = 2.0 ** -52
DIGITS_CAP = 16.0
# A P_n is compared with the oracle where it is at least this share of max P.
P_FLOOR = 1e-6
# Relative tolerance on compared P_n: each ln P_n is a running sum of up to
# ~1e5 rounded increments, which costs a few times 1e-9 today.
P_TOL = 1e-6
MEAN_TOL = 1e-9
SUM_TOL = 1e-9
# Lab's collapse criterion: the fixed-cutoff Q has fallen this far below
# the adaptive Q.
ONSET_DROP = 0.5
# exp(-ln S0 / 2) is below the smallest subnormal double past this ln S0, so
# the printed normalization is 0.0 although S0 is finite.
UNDERFLOW_LOG_S0 = 2 * 745.2
# The CLI's default adaptive policy.
TAIL_TOL, QUIET_RUN, HARD_CAP = 1e-16, 10, 10 ** 6

# 40-digit mpmath moments over the 776,288 terms the engine sums at
# k = 0.5, |z| = 15.  Regenerate (about 40 s) from the repository root with
#   python -c "import sys; sys.path.insert(0, 'tests'); import oracle;
#              print(oracle.direct_stats(15, 0.5, 2.0, 776287, dps=40))"
FROZEN_DEEP_TAIL = {
    "k": 0.5, "gamma": 2.0, "z": 15.0, "n_max": 776287,
    "mean": 765785.83938257258882, "mandel_q": 1.49160681816661,
}


class CheckError(ValueError):
    """An output failed a check."""


def digits(rel_err: float) -> float:
    """Decimal digits of agreement, -log10 of a relative error, capped."""
    if rel_err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel_err))


def q_tolerance(log_s0: float, mean: float) -> float:
    """Absolute tolerance on Mandel Q.

    Forming mean = exp(ln S1 - ln S0) costs a relative error of order
    eps*|ln S0|, and S2/S0 - mean**2 turns it into an absolute error of
    order eps*|ln S0|*mean in var/mean.
    """
    return 1e-9 + 4.0 * EPS * max(1.0, abs(log_s0)) * max(1.0, mean)


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _q_err(value: float, ref: float) -> float:
    """Error in Q relative to max(1, |Q|).  Q lies in (-1, inf) and crosses 0
    as a fixed cutoff collapses, where a purely relative error means nothing."""
    return abs(value - ref) / max(1.0, abs(ref))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _float(text: str, what: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise CheckError(f"{what}: {text!r} is not a number") from None
    _require(math.isfinite(x), f"{what}: {text!r} is not finite")
    return x


def parse_csv(text: str):
    """(header, rows, footer) of the CLI's csv layout, past the echoed inputs."""
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        i += 1
    _require(i < len(lines), "csv output has no header")
    header = lines[i].split(",")
    body, footer = [], []
    for line in lines[i + 1:]:
        if line.startswith("# "):
            footer.append(line[2:])
        else:
            body.append(line)
    rows = list(csv.reader(body))
    _require(all(len(r) == len(header) for r in rows), "csv row of wrong width")
    return header, rows, footer


# ---------------------------------------------------------------------------
# Reference values


def adaptive_nmax(abs_z: float, k: float, gamma: float) -> int:
    """Last index the CLI's default adaptive rule sums: it stops after
    QUIET_RUN consecutive terms n^2 t_n below TAIL_TOL of the running S2."""
    a = 2.0 * k / (k + 2.0)
    c = 0.25 * gamma
    log_z2 = 2.0 * math.log(abs_z)
    lt, run, quiet = 0.0, -math.inf, 0
    for n in range(1, HARD_CAP):
        lt += log_z2 - math.log((n + c) ** a - c ** a)
        lt2 = lt + 2.0 * math.log(n)
        quiet = quiet + 1 if lt2 - run < math.log(TAIL_TOL) else 0
        run = max(run, lt2) + math.log1p(math.exp(-abs(run - lt2)))
        if quiet >= QUIET_RUN:
            return n
    raise CheckError(f"adaptive rule did not stop below {HARD_CAP} at |z|={abs_z}")


def direct_moments(abs_z: float, k: float, gamma: float, n_max: int):
    """(mean, Q, ln S0) of terms 0..n_max from the repository oracle."""
    s0, s1, s2 = oracle.direct_sums(abs_z, k, gamma, n_max)
    with mp.workdps(oracle.DPS):
        mean = s1 / s0
        var = s2 / s0 - mean ** 2
        return float(mean), float(var / mean - 1), float(mp.log(s0))


def log_peak_term(abs_z: float, k: float, gamma: float, n_max: int | None):
    """(n*, ln t_{n*}) for the largest term t_n = |z|^{2n}/g(n) with n <= n_max.

    ln t_{n*} is summed in double precision; it bounds ln S0 from below
    within ln(n_max + 1), which is all a tolerance or an underflow test needs.
    """
    a = 2.0 * k / (k + 2.0)
    c = 0.25 * gamma
    peak = max(0, int((abs_z ** 2 + c ** a) ** (1.0 / a) - c))
    if n_max is not None:
        peak = min(peak, n_max)
    j = np.arange(1, peak + 1, dtype=np.float64)
    return peak, 2.0 * peak * math.log(abs_z) - float(np.log((j + c) ** a - c ** a).sum())


def peak_window_stats(abs_z: float, k: float, gamma: float, n_max: int | None):
    """(mean, Q, ln S0) of terms 0..n_max, summed outward from the peak.

    Terms are formed as ratios to the largest one in 30-digit mpmath, so no
    |z|^{2n} or g(n) is ever built, and the walk stops on each side once a
    term falls below 1e-35 of the peak term.  n_max None means no upper
    cutoff.  Moments are taken about the peak index, so no digits cancel.
    """
    peak, log_peak = log_peak_term(abs_z, k, gamma, n_max)
    with mp.workdps(30):
        a = mpf(2) * mpf(k) / (mpf(k) + 2)
        c = mpf(gamma) / 4
        ca = c ** a
        z2 = mpf(abs_z) ** 2
        stop = mpf(10) ** -35
        s0, s1, s2 = mpf(1), mpf(0), mpf(0)
        w, n = mpf(1), peak
        while n_max is None or n < n_max:
            n += 1
            w = w * z2 / ((n + c) ** a - ca)
            d = n - peak
            s0, s1, s2 = s0 + w, s1 + w * d, s2 + w * d * d
            if w < stop:
                break
        w, n = mpf(1), peak
        while n > 0:
            w = w * ((n + c) ** a - ca) / z2
            n -= 1
            d = n - peak
            s0, s1, s2 = s0 + w, s1 + w * d, s2 + w * d * d
            if w < stop:
                break
        shift = s1 / s0
        mean = peak + shift
        var = s2 / s0 - shift ** 2
        return float(mean), float(var / mean - 1), log_peak + float(mp.log(s0))


# ---------------------------------------------------------------------------
# Checks


@dataclass
class SweepCheck:
    """``ghacs sweep --format csv``: Q per (|z|, policy) against the oracle."""

    k: float
    gamma: float
    grid: tuple[float, ...]
    cutoffs: tuple[int, ...]
    _ref: dict = field(default_factory=dict, repr=False)

    def reference(self) -> dict:
        """(z, label) -> (Q, tolerance); about 7 s for the full sweep."""
        if not self._ref:
            for z in self.grid:
                n_adaptive = adaptive_nmax(z, self.k, self.gamma)
                for label, n_max in [("adaptive", n_adaptive)] + [
                        (str(c), c) for c in self.cutoffs]:
                    mean, q, log_s0 = direct_moments(z, self.k, self.gamma, n_max)
                    self._ref[(z, label)] = (q, q_tolerance(log_s0, mean))
        return self._ref

    def __call__(self, text: str) -> float:
        header, rows, _ = parse_csv(text)
        _require(header == ["z", "cutoff", "mandel_q", "status"],
                 f"unexpected sweep header {header}")
        labels = ["adaptive"] + [str(c) for c in self.cutoffs]
        _require(len(rows) == len(self.grid) * len(labels),
                 f"{len(rows)} sweep rows, expected {len(self.grid) * len(labels)}")
        ref = self.reference()
        worst = 0.0
        q = {}
        for i, (z_text, label, q_text, status) in enumerate(rows):
            z = self.grid[i // len(labels)]
            _require(abs(_float(z_text, "z") - z) <= 1e-9 and label == labels[i % len(labels)],
                     f"row {i} is ({z_text}, {label}), expected ({z}, {labels[i % len(labels)]})")
            _require(status == "ok", f"row {i} ({z}, {label}) has status {status!r}")
            value = _float(q_text, f"Q at ({z}, {label})")
            _require(value > -1.0, f"Q = {value} <= -1 at ({z}, {label})")
            q_ref, tol = ref[(z, label)]
            _require(abs(value - q_ref) <= tol,
                     f"Q = {value!r} at ({z}, {label}), oracle {q_ref!r}, tolerance {tol:.2e}")
            worst = max(worst, _q_err(value, q_ref))
            q[(z, label)] = value
        onsets = self.onsets(q)
        _require(onsets == self.onsets({key: v[0] for key, v in ref.items()}),
                 f"collapse onsets {onsets} differ from the oracle's")
        _require(all(o is not None for o in onsets), f"a cutoff never collapses: {onsets}")
        _require(all(a < b for a, b in zip(onsets, onsets[1:])),
                 f"collapse onsets {onsets} are not strictly increasing in the cutoff")
        return worst

    def onsets(self, q: dict) -> list:
        """Per cutoff, the first |z| whose fixed Q lies ONSET_DROP below the adaptive Q."""
        return [next((z for z in self.grid
                      if q[(z, str(c))] < q[(z, "adaptive")] - ONSET_DROP), None)
                for c in self.cutoffs]


@dataclass
class StatsCheck:
    """``ghacs stats --format json`` (adaptive): moments against mpmath.

    The reference sums the same terms 0..terms_used-1 as the engine, or,
    with ``converged``, the whole series.
    """

    k: float
    gamma: float
    z: float
    converged: bool = False
    _ref: dict = field(default_factory=dict, repr=False)

    def reference(self, n_max: int | None):
        """(mean, Q, ln S0) over terms 0..n_max, frozen where available."""
        if n_max not in self._ref:
            frozen = FROZEN_DEEP_TAIL
            if (self.k, self.gamma, self.z, n_max) == (
                    frozen["k"], frozen["gamma"], frozen["z"], frozen["n_max"]):
                _, log_s0 = log_peak_term(self.z, self.k, self.gamma, n_max)
                self._ref[n_max] = (frozen["mean"], frozen["mandel_q"], log_s0)
            else:
                self._ref[n_max] = peak_window_stats(self.z, self.k, self.gamma, n_max)
        return self._ref[n_max]

    def __call__(self, text: str) -> float:
        try:
            payload = json.loads(text)
            (row,) = payload["rows"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"unparseable stats output: {exc}") from None
        _require(row.get("converged") is True, "adaptive stats did not converge")
        terms = row.get("terms_used")
        _require(isinstance(terms, int) and terms >= 1, f"bad terms_used {terms!r}")
        mean_ref, q_ref, log_s0 = self.reference(None if self.converged else terms - 1)
        mean = _float(str(row["mean"]), "mean")
        q = _float(str(row["mandel_q"]), "mandel_q")
        norm = _float(str(row["normalization"]), "normalization")
        _require(q > -1.0, f"Q = {q} <= -1")
        _require(_rel(mean, mean_ref) <= MEAN_TOL, f"mean {mean!r}, oracle {mean_ref!r}")
        tol = q_tolerance(log_s0, mean_ref)
        _require(abs(q - q_ref) <= tol, f"Q {q!r}, oracle {q_ref!r}, tolerance {tol:.2e}")
        if log_s0 > UNDERFLOW_LOG_S0:
            _require(norm == 0.0, f"normalization {norm!r}, expected 0.0 (underflow)")
        else:
            _require(norm > 0.0 and abs(-2.0 * math.log(norm) - log_s0)
                     <= 1e-6 * max(1.0, abs(log_s0)),
                     f"normalization {norm!r} does not match ln S0 = {log_s0!r}")
        return _q_err(q, q_ref)


@dataclass
class DistCheck:
    """``ghacs dist --format csv`` (adaptive): P_n against the oracle."""

    k: float
    gamma: float
    z: float
    _ref: dict = field(default_factory=dict, repr=False)

    def reference(self, n_max: int) -> list[float]:
        if n_max not in self._ref:
            self._ref[n_max] = oracle.direct_weights(self.z, self.k, self.gamma, n_max)
        return self._ref[n_max]

    def __call__(self, text: str) -> float:
        header, rows, footer = parse_csv(text)
        _require(header == ["n", "p_n"], f"unexpected dist header {header}")
        _require(len(rows) >= 2, "dist printed fewer than two rows")
        _require(all(r[0] == str(n) for n, r in enumerate(rows)),
                 "dist rows are not n = 0, 1, 2, ... without gaps")
        p = [_float(r[1], f"P_{n}") for n, r in enumerate(rows)]
        _require(min(p) >= 0.0, "negative P_n")
        total = math.fsum(p)
        _require(abs(total - 1.0) <= SUM_TOL, f"sum of P_n is {total!r}")
        _require(footer == [f"sum={total!r}"], f"footer {footer} does not match the rows")
        ref = self.reference(len(p) - 1)
        floor = P_FLOOR * max(ref)
        worst = 0.0
        for n, (value, expected) in enumerate(zip(p, ref)):
            if expected >= floor:
                err = _rel(value, expected)
                _require(err <= P_TOL, f"P_{n} = {value!r}, oracle {expected!r}")
                worst = max(worst, err)
        self._check_ratios(p, floor)
        return worst

    def _check_ratios(self, p: list[float], floor: float) -> None:
        """P_n / P_{n-1} = |z|^2 / [(n + gamma/4)^alpha - (gamma/4)^alpha] at 64 n."""
        a = 2.0 * self.k / (self.k + 2.0)
        c = 0.25 * self.gamma
        big = [n for n in range(1, len(p)) if p[n - 1] >= floor and p[n] >= floor]
        for n in big[:: max(1, len(big) // 64)]:
            expected = self.z ** 2 / ((n + c) ** a - c ** a)
            _require(_rel(p[n] / p[n - 1], expected) <= 2 * P_TOL,
                     f"P_{n}/P_{n - 1} = {p[n] / p[n - 1]!r}, expected {expected!r}")


def check_unconverged(code: int, stdout: str, stderr: str) -> None:
    """The documented failure: exit 3, a one-line hard-cap message, no output."""
    _require(code == 3, f"exit code {code}, expected 3")
    _require(stdout == "", "an unconverged run printed a result")
    _require("hard_cap" in stderr and "Traceback" not in stderr,
             f"unexpected stderr {stderr[-200:]!r}")
