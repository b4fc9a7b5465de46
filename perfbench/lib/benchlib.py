"""Pure arithmetic of the repository benchmark: percentiles, the rate
ladder and its backlog rule, span self time and the where-the-wall-clock-
goes table. No I/O, so perfbench/tests can pin every rule on hand-built
inputs."""

import math
import statistics


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it. Failed samples are passed as math.inf, so
    a failure always counts as missing any latency limit."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError("pct must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def sliced(values, pct, slices):
    """Median over `slices` contiguous, equal-count slices of `values` (in
    arrival order) of each slice's nearest-rank percentile. A disturbance
    confined to a few slices, such as a host stall, moves those slices and
    not the median."""
    n = len(values)
    if slices < 1 or n < slices:
        raise ValueError("need at least one sample per slice")
    bounds = [n * i // slices for i in range(slices + 1)]
    return statistics.median(nearest_rank(values[a:b], pct)
                             for a, b in zip(bounds, bounds[1:]))


def slice_count(count, pct, most):
    """How many slices `sliced` may cut `count` samples into for the pct
    percentile: at most `most`, and few enough that every slice keeps at
    least ten samples beyond its nearest-rank percentile."""
    return max(1, min(most, int(count * (1 - pct / 100.0) // 10)))


def beyond(count, pct):
    """Samples strictly beyond the nearest-rank pct percentile of count."""
    return count - max(math.ceil(pct / 100.0 * count), 1)


def backlog_growing(samples, rate_rps, limit_ms):
    """True when the outstanding-request count sampled through a window
    rises by more than the latency limit allows. With every request
    answered within limit_ms, at most rate * limit requests are in flight
    (Little's law), so the last third of the window may exceed the first
    third by that much before the backlog counts as growing."""
    if len(samples) < 3:
        return False
    third = len(samples) // 3
    first = statistics.fmean(samples[:third])
    last = statistics.fmean(samples[-third:])
    slack = max(1.0, rate_rps * limit_ms / 1000.0)
    return last > first + slack


def step_verdict(lat_ms, backlog, rate_rps, limit_ms, late_p90_ms,
                 late_bound_ms, slices=1):
    """Verdict of one ladder step: 'pass', or the first rule it broke.

    lat_ms holds one latency per attempted request in arrival order,
    math.inf for a failed one. A step passes when the generator kept to
    its schedule (a late generator means the rate was not really offered,
    so the step cannot certify it), its p99 (sliced as in `sliced`) meets
    the limit, and its backlog does not grow."""
    if len(lat_ms) < slices:
        return "empty"
    if late_p90_ms > late_bound_ms:
        return "generator_late"
    if sliced(lat_ms, 99, slices) > limit_ms:
        return "p99_over_limit"
    if backlog_growing(backlog, rate_rps, limit_ms):
        return "backlog_growing"
    return "pass"


def ladder_max_rate(ladder, measure):
    """Highest ladder rate whose step passes, found by bisection over the
    ladder's rungs: latency rises with offered load, so the rungs that pass
    form a prefix, and about log2(rungs) steps locate its end. measure(rate)
    returns a step's verdict. Returns (max rate or 0, [(rate, verdict)] in
    the order measured)."""
    rungs = sorted(ladder)
    walked = []
    lo, hi = -1, len(rungs)  # rungs[lo] passed, rungs[hi] did not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        verdict = measure(rungs[mid])
        walked.append((rungs[mid], verdict))
        if verdict == "pass":
            lo = mid
        else:
            hi = mid
    return (rungs[lo] if lo >= 0 else 0), walked


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover (overlapping children counted once).

    spans: dicts with id, parent, name, start_ns, end_ns. Returns
    {span id: self ns}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        parts = sorted((max(c["start_ns"], lo), min(c["end_ns"], hi))
                       for c in children.get(s["id"], []))
        covered = 0
        cur_lo = cur_hi = None
        for a, b in parts:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result[s["id"]] = (hi - lo) - covered
    return result


def layer_table(spans, base):
    """Where the wall-clock goes: self time per span name, summed over the
    subtrees of the spans named in `base`, as a share of those base spans'
    total duration. For a parallel fan-out the base is one span per lane,
    so the shares split thread-time. Returns [(name, self_ns, share)]
    sorted by self time, largest first."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def in_base(s):
        while True:
            if s["name"] in base:
                return True
            if s["parent"] not in by_id:
                return False
            s = by_id[s["parent"]]

    total = sum(s["end_ns"] - s["start_ns"] for s in spans
                if s["name"] in base)
    totals = {}
    for s in spans:
        if in_base(s):
            totals[s["name"]] = totals.get(s["name"], 0) + own[s["id"]]
    rows = [(name, ns, ns / total if total else 0.0)
            for name, ns in totals.items()]
    return sorted(rows, key=lambda r: -r[1])


def format_table(title, rows):
    """Renders layer_table rows as text lines, self time in ms."""
    lines = [title, "  %-28s %12s %8s" % ("layer (self time)", "ms", "share")]
    for name, ns, share in rows:
        lines.append("  %-28s %12.3f %7.1f%%" % (name, ns / 1e6, 100.0 * share))
    return lines
