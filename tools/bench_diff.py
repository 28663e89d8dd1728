#!/usr/bin/env python3
"""Compare two MiniCost run reports and fail on performance regressions.

Input: two schema-versioned JSON run reports (src/obs/run_report.hpp) —
a committed baseline and a freshly produced report. The comparison is
metric-by-metric with per-metric noise thresholds; the exit code is what CI
gates on.

    bench_diff.py baseline.json current.json [--threshold PCT]
                  [--threshold-for NAME=PCT ...] [--min-seconds S]
                  [--summary-md PATH] [--fail-on-counter-change]

Improvement direction is inferred from the metric name:
  * ``*_per_sec``, ``*speedup``,
    ``*_rate``, ``*_ratio``         — higher is better (hit rates, dedup
    and compression ratios: shrinking reuse or compressibility at fixed
    seed/scale is a real regression, not jitter)
  * ``*_sum_seconds``               — informational: a summed per-shard
    component of the wall-clock, reported for attribution, not gated
  * ``*_seconds``, ``*_ns``,
    ``*_mib``, ``*_bytes``          — lower is better
  * anything else                   — informational (never fails the gate)

Percentile metrics (``*_p50_ns``, ``*_p99_ns``) gate like any other ``_ns``
metric, but per-file decision latencies are nanoseconds-scale, so in
practice the ``--min-seconds`` noise floor reports them informationally.

Timers from the obs registry are compared on mean nanoseconds per event
(lower is better). Any time-valued pair where BOTH sides are under
``--min-seconds`` is treated as noise and reported informationally: micro
timings jitter wildly on shared CI runners.

Counters are informational by default (they describe work volume, not
speed); ``--fail-on-counter-change`` makes any drift a failure, which pins
"instrumented work volume is deterministic" in CI.

Environment fingerprints are compared on every field except the git SHA
(reports are compared *across* commits). A mismatch downgrades the whole
comparison to informational-with-warning rather than failing: a baseline
from a different machine proves nothing either way.

Exit codes: 0 = no regression, 1 = regression, 2 = usage/schema error.
Stdlib only; unit-tested by tests/tools/bench_diff_test.py.
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA_VERSION = 1

HIGHER_BETTER_SUFFIXES = ("_per_sec", "per_sec", "speedup", "_rate", "_ratio")
LOWER_BETTER_SUFFIXES = ("_seconds", "_ns", "_mib", "_bytes")
# Checked before LOWER_BETTER: a summed-over-shards CPU time legitimately
# grows when overlap shortens the wall clock.
INFORMATIONAL_SUFFIXES = ("_sum_seconds",)

# Fingerprint fields that must agree for a comparison to be meaningful.
# git_sha is deliberately absent: the entire point is cross-commit diffs.
COMPARABLE_ENV_FIELDS = (
    "cpu",
    "compiler",
    "build_type",
    "sanitize",
    "seed",
    "scale",
    "threads",
)


def direction(name: str) -> str:
    """'higher', 'lower', or 'info' for a metric name."""
    lowered = name.lower()
    if lowered.endswith(HIGHER_BETTER_SUFFIXES):
        return "higher"
    if lowered.endswith(INFORMATIONAL_SUFFIXES):
        return "info"
    if lowered.endswith(LOWER_BETTER_SUFFIXES):
        return "lower"
    return "info"


def is_time_metric(name: str) -> bool:
    lowered = name.lower()
    return lowered.endswith("_seconds") or lowered.endswith("_ns")


def to_seconds(name: str, value: float) -> float:
    return value / 1e9 if name.lower().endswith("_ns") else value


def load_report(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as err:
        raise SystemExit(f"bench_diff: cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise SystemExit(f"bench_diff: {path} is not valid JSON: {err}")
    schema = report.get("schema")
    if schema != SCHEMA_VERSION:
        raise SystemExit(
            f"bench_diff: {path} has schema {schema!r}, "
            f"this tool reads schema {SCHEMA_VERSION}"
        )
    return report


class Row:
    """One compared value: verdict is 'ok', 'regression', or 'info'."""

    def __init__(self, name, baseline, current, verdict, note=""):
        self.name = name
        self.baseline = baseline
        self.current = current
        self.verdict = verdict
        self.note = note

    @property
    def change_pct(self):
        if self.baseline == 0:
            return None
        return (self.current - self.baseline) / abs(self.baseline) * 100.0


def compare_value(name, baseline, current, threshold_pct, min_seconds):
    """Compare one metric pair into a Row."""
    kind = direction(name)
    if kind == "info":
        return Row(name, baseline, current, "info")
    if is_time_metric(name):
        if (
            to_seconds(name, baseline) < min_seconds
            and to_seconds(name, current) < min_seconds
        ):
            return Row(name, baseline, current, "info", "below noise floor")
    if baseline == 0:
        # Nothing sensible to gate against; surface it, don't fail.
        return Row(name, baseline, current, "info", "zero baseline")
    if kind == "higher":
        regressed = current < baseline * (1.0 - threshold_pct / 100.0)
    else:
        regressed = current > baseline * (1.0 + threshold_pct / 100.0)
    return Row(name, baseline, current, "regression" if regressed else "ok")


def timer_mean_ns(timer: dict) -> float:
    count = timer.get("count", 0)
    if not count:
        return 0.0
    return timer.get("total_ns", 0) / count


def env_mismatches(baseline_env: dict, current_env: dict) -> list:
    out = []
    for field in COMPARABLE_ENV_FIELDS:
        a, b = baseline_env.get(field), current_env.get(field)
        if a != b:
            out.append(f"{field}: baseline={a!r} current={b!r}")
    return out


def threshold_for(name, default_pct, overrides):
    return overrides.get(name, default_pct)


def compare_reports(baseline, current, args):
    """Returns (rows, warnings)."""
    rows, warnings = [], []

    mismatches = env_mismatches(baseline.get("env", {}), current.get("env", {}))
    comparable = not mismatches
    if mismatches:
        warnings.append(
            "environment fingerprints differ — comparison is informational "
            "only:\n  " + "\n  ".join(mismatches)
        )

    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for name in base_metrics:
        if name not in cur_metrics:
            rows.append(Row(name, base_metrics[name], float("nan"), "info",
                            "missing in current"))
            continue
        row = compare_value(
            name,
            base_metrics[name],
            cur_metrics[name],
            threshold_for(name, args.threshold, args.threshold_overrides),
            args.min_seconds,
        )
        rows.append(row)
    for name in cur_metrics:
        if name not in base_metrics:
            rows.append(Row(name, float("nan"), cur_metrics[name], "info",
                            "new metric"))

    base_timers = baseline.get("timers", {})
    cur_timers = current.get("timers", {})
    for name in base_timers:
        if name not in cur_timers:
            continue
        label = f"timer:{name}.mean_ns"
        row = compare_value(
            label,
            timer_mean_ns(base_timers[name]),
            timer_mean_ns(cur_timers[name]),
            threshold_for(label, args.threshold, args.threshold_overrides),
            args.min_seconds,
        )
        rows.append(row)

    base_counters = baseline.get("counters", {})
    cur_counters = current.get("counters", {})
    for name in sorted(set(base_counters) | set(cur_counters)):
        a = base_counters.get(name, 0)
        b = cur_counters.get(name, 0)
        if args.fail_on_counter_change and a != b:
            rows.append(Row(f"counter:{name}", a, b, "regression",
                            "counter drift"))
        elif a != b:
            rows.append(Row(f"counter:{name}", a, b, "info", "changed"))

    if not comparable:
        for row in rows:
            if row.verdict == "regression":
                row.verdict = "info"
                row.note = (row.note + "; " if row.note else "") + "env mismatch"
    return rows, warnings


def format_value(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        return f"{value:.6g}"
    return str(value)


def render_table(rows, markdown=False):
    headers = ("metric", "baseline", "current", "change", "verdict")
    table = []
    for row in rows:
        pct = row.change_pct
        change = "-" if pct is None else f"{pct:+.1f}%"
        verdict = row.verdict + (f" ({row.note})" if row.note else "")
        table.append((row.name, format_value(row.baseline),
                      format_value(row.current), change, verdict))
    if markdown:
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "|".join("---" for _ in headers) + "|"]
        lines += ["| " + " | ".join(entry) + " |" for entry in table]
        return "\n".join(lines)
    widths = [max(len(headers[i]), *(len(entry[i]) for entry in table))
              if table else len(headers[i]) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for entry in table:
        lines.append("  ".join(entry[i].ljust(widths[i])
                               for i in range(len(entry))))
    return "\n".join(lines)


def parse_threshold_overrides(pairs):
    overrides = {}
    for pair in pairs:
        name, sep, pct = pair.rpartition("=")
        if not sep or not name:
            raise SystemExit(
                f"bench_diff: --threshold-for expects NAME=PCT, got {pair!r}")
        try:
            overrides[name] = float(pct)
        except ValueError:
            raise SystemExit(
                f"bench_diff: bad percentage in --threshold-for {pair!r}")
    return overrides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_diff.py",
        description="compare two MiniCost run reports; exit 1 on regression")
    parser.add_argument("baseline", help="baseline run report (JSON)")
    parser.add_argument("current", help="current run report (JSON)")
    parser.add_argument("--threshold", type=float, default=50.0,
                        help="allowed regression, percent (default 50)")
    parser.add_argument("--threshold-for", action="append", default=[],
                        metavar="NAME=PCT",
                        help="per-metric threshold override (repeatable)")
    parser.add_argument("--min-seconds", type=float, default=0.01,
                        help="noise floor for time metrics (default 0.01s)")
    parser.add_argument("--summary-md", metavar="PATH",
                        help="append a markdown summary table to PATH")
    parser.add_argument("--fail-on-counter-change", action="store_true",
                        help="any obs counter drift is a failure")
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors already; normalize other codes.
        return 2 if err.code not in (0, 2) else (err.code or 0)
    args.threshold_overrides = parse_threshold_overrides(args.threshold_for)

    baseline = load_report(args.baseline)
    current = load_report(args.current)
    rows, warnings = compare_reports(baseline, current, args)

    name = current.get("bench", "?")
    print(f"bench_diff: {name} — {args.baseline} vs {args.current}")
    for warning in warnings:
        print(f"WARNING: {warning}", file=sys.stderr)
    print(render_table(rows))

    regressions = [row for row in rows if row.verdict == "regression"]
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond threshold:")
        for row in regressions:
            print(f"  {row.name}: {format_value(row.baseline)} -> "
                  f"{format_value(row.current)} ({row.change_pct:+.1f}%)")
    else:
        print("\nno regressions beyond threshold")

    if args.summary_md:
        verdict = "REGRESSION" if regressions else "ok"
        with open(args.summary_md, "a", encoding="utf-8") as handle:
            handle.write(f"### bench_diff: {name} — {verdict}\n\n")
            for warning in warnings:
                handle.write(f"> **warning**: {warning}\n\n")
            handle.write(render_table(rows, markdown=True) + "\n\n")

    return 1 if regressions else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit as err:
        if isinstance(err.code, str):
            print(err.code, file=sys.stderr)
            sys.exit(2)
        raise
