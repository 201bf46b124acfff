"""Statistics of the measured benchmark: medians, percentiles, the
open-loop latency and lateness of predict requests, and failure counting.

Kept free of I/O so test_stats.py can check every function on canned
inputs (python3 perfbench/run.py --self-test).
"""

import math
import statistics

# Outcome codes of `pacbench load` / `pacbench serve` samples.
OK, REFUSED, ERROR, WRONG_LABELS = 0, 1, 2, 3


def median(values):
    """Median of a non-empty sequence (mean of the middle pair if even)."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between the
    closest ranks, as numpy's default; +inf samples sort last."""
    if not values:
        raise ValueError("percentile of no values")
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi or s[lo] == s[hi]:
        return s[lo]
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n, candidates=(99.9, 99.0, 95.0, 90.0)):
    """Highest candidate percentile with at least ten samples beyond it out
    of n samples, or None when even the lowest has fewer."""
    for p in candidates:
        if n * (100.0 - p) >= 1000.0 - 1e-6:
            return p
    return None


def quartile_spread(values):
    """(Q3 - Q1) / median with statistics.quantiles(n=4): the run-to-run
    spread the benchmark's bounds are judged against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def request_times(sample):
    """(latency, lateness) of one request in seconds: latency runs from the
    time the request was due, so a stalled generator or server charges its
    wait to every request behind it; lateness is send minus due.  A request
    that failed has infinite latency: it misses any limit."""
    late = sample["sent"] - sample["due"]
    if sample["status"] != OK:
        return math.inf, late
    return sample["done"] - sample["due"], late


def count_failures(statuses):
    """(attempted, failed) over outcome codes; anything but OK failed."""
    statuses = list(statuses)
    return len(statuses), sum(1 for s in statuses if s != OK)


def summarize_step(samples, limit_s):
    """Latency summary of one offered-rate step of an open-loop run: p50,
    p99 (the percentile the latency limit applies to) and the highest
    percentile with ten samples beyond it.

    The backlog grows when the lateness of the last quarter of the step's
    requests (in due order) exceeds that of the first quarter by more than
    half the latency limit: the generator fell further behind as the step
    went on.
    """
    ordered = sorted(samples, key=lambda s: s["due"])
    latency, late = zip(*(request_times(s) for s in ordered))
    attempted, failed = count_failures(s["status"] for s in ordered)
    quarter = max(1, len(ordered) // 4)
    growth = statistics.fmean(late[-quarter:]) - statistics.fmean(late[:quarter])
    p99 = percentile(latency, 99.0)
    tail_p = tail_percentile(len(latency))
    backlog = growth > 0.5 * limit_s
    return {
        "attempted": attempted,
        "failed": failed,
        "p50_s": percentile(latency, 50.0),
        "p99_s": p99,
        "tail_p": tail_p,
        "tail_s": None if tail_p is None else percentile(latency, tail_p),
        "late_p99_s": percentile(late, 99.0),
        "backlog_growing": backlog,
        "meets_slo": p99 <= limit_s and not backlog,
    }


def max_rate_at_slo(steps):
    """Highest offered rate whose step meets the latency limit with no
    growing backlog; 0 when none does.  `steps` maps rate -> summary."""
    ok = [rate for rate, s in steps.items() if s["meets_slo"]]
    return max(ok) if ok else 0.0


def merge_reduce_calls(groups):
    """Per reduce call, split each rank's duration into cost and wait.

    `groups` is a list of sub-worlds, each a list of per-rank call-duration
    lists in the same call order.  A call's cost is its fastest rank's
    duration; each rank's wait is its duration minus that.  Returns the mean
    cost per call and the mean wait per rank and call.
    """
    costs, waits = [], []
    for ranks in groups:
        calls = min(len(r) for r in ranks)
        for k in range(calls):
            durations = [r[k] for r in ranks]
            fastest = min(durations)
            costs.append(fastest)
            waits.extend(d - fastest for d in durations)
    if not costs:
        return 0.0, 0.0
    return statistics.fmean(costs), statistics.fmean(waits)


def parse_hms(text):
    """Seconds of an H.MM.SS duration as pautoclass_cli prints it."""
    h, m, s = (int(x) for x in text.split("."))
    return 3600 * h + 60 * m + s
