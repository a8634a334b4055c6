"""In-process tracer for the benchmark's traced run.

It wraps the engine's layer boundaries where the callers look them up, so
the engine itself is unchanged:

    cli.command                  the whole CLI call (opened by the benchmark)
      lab.run_sweep              ghacs.cli.run_sweep
        stats.state_stats        ghacs.cli.state_stats, ghacs.lab.state_stats
          stats.accumulate_sums  ghacs.stats.accumulate_sums (one pass)
          stats.reduce           ghacs.stats.stats_from_sums
      stats.weight_distribution  ghacs.cli.weight_distribution (one pass)
    core.increment, core.lse     ghacs.stats.log_g_increment, ghacs.stats.log_sum_exp

Spans are kept for pass level and above.  The per-term core functions only
add to aggregated counters (calls, seconds, items), whose time is charged
to the innermost open span, so a span's self time is its duration minus
its child spans and core calls.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

STATS_SELF_SPANS = ("stats.state_stats", "stats.accumulate_sums", "stats.weight_distribution")


class Tracer:
    def __init__(self):
        # Closed spans as [name, start, end, parent index, self seconds].
        self.spans: list[list] = []
        # Open spans as [name, start, parent index, seconds covered by children].
        self._stack: list[list] = []
        self.counters = defaultdict(lambda: [0, 0.0, 0])  # calls, seconds, items
        self._max_j: dict = {}
        self.passes: list[tuple[float, int, bool]] = []  # |z|, terms, inside lab
        self.lab_points = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1][2] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)  # reserve the slot so children can name it
        rec = [name, perf_counter(), index, 0.0]
        self._stack.append(rec)
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - rec[1]
            self.spans[index] = [name, rec[1], end, parent, duration - rec[3]]
            if self._stack:
                self._stack[-1][3] += duration

    def _charge(self, name: str, seconds: float, items: int = 0) -> None:
        c = self.counters[name]
        c[0] += 1
        c[1] += seconds
        c[2] += items
        if self._stack:
            self._stack[-1][3] += seconds

    def _spanned(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def _increment(self, fn):
        def log_g_increment(j, params):
            start = perf_counter()
            result = fn(j, params)
            self._charge("core.increment", perf_counter() - start)
            if j > self._max_j.get(params, 0):
                self._max_j[params] = j
            return result
        return log_g_increment

    def _lse(self, fn):
        def log_sum_exp(values):
            start = perf_counter()
            xs = list(values)
            result = fn(xs)
            self._charge("core.lse", perf_counter() - start, len(xs))
            return result
        return log_sum_exp

    def _record_pass(self, abs_z: float, terms: int) -> None:
        in_lab = any(rec[0].startswith("lab.") for rec in self._stack)
        self.passes.append((abs_z, terms, in_lab))

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in; restore the originals on exit."""
        from ghacs import cli, lab, stats

        def count_rows(args, report):
            self.lab_points += len(report.rows)

        patches = [
            (stats, "log_g_increment", self._increment(stats.log_g_increment)),
            (stats, "log_sum_exp", self._lse(stats.log_sum_exp)),
            (stats, "accumulate_sums", self._spanned(
                "stats.accumulate_sums", stats.accumulate_sums,
                lambda args, sums: self._record_pass(args[0], sums.terms_used))),
            (stats, "stats_from_sums", self._spanned("stats.reduce", stats.stats_from_sums)),
            (lab, "state_stats", self._spanned("stats.state_stats", lab.state_stats)),
            (cli, "state_stats", self._spanned("stats.state_stats", cli.state_stats)),
            (cli, "weight_distribution", self._spanned(
                "stats.weight_distribution", cli.weight_distribution,
                lambda args, wd: self._record_pass(args[0], wd.support_bound + 1))),
            (cli, "run_sweep", self._spanned("lab.run_sweep", cli.run_sweep, count_rows)),
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, wrapper in patches:
                setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def self_seconds(self, names) -> float:
        return sum(s[4] for s in self.spans if s[0] in names)

    def layer_self_seconds(self) -> dict:
        totals = defaultdict(float)
        for name, _, _, _, self_s in self.spans:
            totals[name.split(".")[0]] += self_s
        for name, (_, seconds, _) in self.counters.items():
            totals[name.split(".")[0]] += seconds
        return dict(totals)

    def layer_metrics(self, stdout: str) -> dict:
        """The per-layer metrics of one traced CLI call that printed ``stdout``."""
        inc_calls, inc_s, _ = self.counters["core.increment"]
        lse_calls, lse_s, lse_terms = self.counters["core.lse"]
        terms = sum(t for _, t, _ in self.passes)
        needed = defaultdict(int)
        for abs_z, t, _ in self.passes:
            needed[abs_z] = max(needed[abs_z], t)
        # Time of outermost stats spans: every pass, with its core calls and reduction.
        stats_names = {s[0] for s in self.spans if s[0].startswith("stats.")}
        stats_s = sum(s[2] - s[1] for s in self.spans if s[0] in stats_names
                      and (s[3] is None or self.spans[s[3]][0] not in stats_names))
        lab_passes = sum(1 for _, _, in_lab in self.passes if in_lab)
        values = {
            "core.increment_calls": (inc_calls, "count"),
            "core.increment_s": (inc_s, "s"),
            "core.increment_reuse": (sum(self._max_j.values()) / max(1, inc_calls), "ratio"),
            "core.lse_calls": (lse_calls, "count"),
            "core.lse_terms": (lse_terms, "count"),
            "core.lse_s": (lse_s, "s"),
            "stats.passes": (len(self.passes), "count"),
            "stats.terms": (terms, "count"),
            "stats.useful_term_ratio": (sum(needed.values()) / max(1, terms), "ratio"),
            "stats.self_s": (self.self_seconds(STATS_SELF_SPANS), "s"),
            "stats.ns_per_term": (1e9 * stats_s / max(1, terms), "ns"),
            "stats.reduce_s": (self.self_seconds(("stats.reduce",)), "s"),
            "lab.passes_per_point": (lab_passes / max(1, self.lab_points), "count"),
            "cli.self_s": (self.self_seconds(("cli.command",)), "s"),
            "cli.rows": (_count_rows(stdout), "count"),
            "cli.output_bytes": (len(stdout.encode()), "bytes"),
        }
        return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _count_rows(stdout: str) -> int:
    if stdout.startswith("{"):
        return len(json.loads(stdout)["rows"])
    return sum(1 for line in stdout.splitlines() if not line.startswith("#")) - 1


def median_metrics(runs: list[dict]) -> dict:
    """Per metric, the median over traced calls."""
    return {name: {"value": statistics.median([r[name]["value"] for r in runs]),
                   "unit": runs[0][name]["unit"]}
            for name in runs[0]}
