"""Reductions the benchmark applies to raw samples and trace spans.

Kept free of I/O beyond reading files so perfbench/tests can check them.
"""

import array
import json

# Percentiles a tail may be reported at. The tail is the highest of these
# with at least TAIL_BEYOND samples beyond it; the ladder is coarse so that
# run-to-run changes in the sample count rarely change which one is used.
# It stops at p90, which every workload reaches (an app run has 200-450
# samples). serve_hot has enough samples for p99, but there p99 follows host
# wake-up stalls on a 4-vCPU VM (47% spread over ten runs before runs were
# pinned to one CPU, 7% after), so the report prints p99 beside the tail.
LADDER = (50.0, 90.0)
TAIL_BEYOND = 10


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list, with the number of
    samples strictly beyond it."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    # ceil(p% of n) in integers: 99.9 / 100 * 10000 is 9990.000000000002.
    tenths = round(p * 10)
    rank = max(1, -(-tenths * n // 1000))
    return sorted_values[rank - 1], n - rank


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0


def tail(values):
    """(percentile, value, samples beyond) for the highest ladder percentile
    with at least TAIL_BEYOND samples beyond it; the median when even that
    has fewer."""
    s = sorted(values)
    best = None
    for p in LADDER:
        value, beyond = percentile(s, p)
        if beyond >= TAIL_BEYOND or best is None:
            best = (p, value, beyond)
    return best


def error_frac(attempted, failed):
    """Failed or reference-mismatched over attempted; nothing attempted is a
    total failure."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def read_samples(paths):
    """Start and end stamps (ns) of every gradient or request, from the
    harness's SampleLog files of native int64 pairs."""
    raw = array.array("q")
    for path in paths:
        with open(path, "rb") as f:
            raw.frombytes(f.read())
    return raw[0::2], raw[1::2]


# A throughput is the median over this many consecutive groups of equally
# many completions, so a stall of the host slows one group, not the figure.
RATE_GROUPS = 20


def median_rate(start_ns, ends_ns, groups=RATE_GROUPS):
    """Completions per second: each group's count over the time from the
    previous group's last completion (the loop start for the first) to its
    own last completion; the median over groups."""
    ends = sorted(ends_ns)
    n = len(ends)
    if n == 0:
        return 0.0
    g = min(groups, n)
    rates, prev = [], start_ns
    for i in range(g):
        lo, hi = i * n // g, (i + 1) * n // g
        if ends[hi - 1] > prev:
            rates.append((hi - lo) * 1e9 / (ends[hi - 1] - prev))
        prev = ends[hi - 1]
    return median(rates)


def load_trace(path):
    """Spans of a Chrome trace-event file written by the harness, as dicts
    with integer ns stamps."""
    with open(path) as f:
        doc = json.load(f)
    spans = []
    for ev in doc["traceEvents"]:
        start = round(float(ev["ts"]) * 1000)
        spans.append({
            "name": ev["name"],
            "start_ns": start,
            "end_ns": start + round(float(ev["dur"]) * 1000),
            "span": ev["args"]["span"],
            "parent": ev["args"]["parent"],
            "id": ev["args"]["id"],
            "lane": ev["tid"],
        })
    return doc.get("otherData", {}), spans


def self_times(spans):
    """Span index -> its duration minus the part of it that its children
    cover (children may overlap one another, e.g. ranks that interleave)."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered, reach = 0, lo
        for c in sorted(children.get(s["span"], []), key=lambda c: c["start_ns"]):
            a, b = max(c["start_ns"], reach), min(c["end_ns"], hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["span"]] = (hi - lo) - covered
    return out
