"""Aggregation helpers: percentiles, best-of, quartiles, span self time and
the shape of the result line. Pure functions; tests/test_stats.py covers
them."""

import math
import statistics


def percentile(values, p):
    """The p-th percentile (0..100), linear between order statistics."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_rule(n, ladder, min_beyond):
    """Highest percentile of `ladder` with at least `min_beyond` of `n`
    samples beyond it, or None when even the lowest has fewer."""
    chosen = None
    for p in sorted(ladder):
        if n * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            chosen = p
    return chosen


def samples_beyond(n, p):
    return int(math.floor(n * (100.0 - p) / 100.0 + 1e-9))


def best_of(values, better="lower"):
    """The best sample: the fastest time, or the highest rate."""
    return min(values) if better == "lower" else max(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Inter-quartile distance as a share of the median (0 when the median
    is 0 and all quartiles agree)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)


def summary(values):
    q1, median, q3 = quartiles(values)
    return {"n": len(values), "min": min(values), "q1": q1,
            "median": median, "q3": q3, "max": max(values)}


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def self_times(spans):
    """Self time per span: its duration minus the part of its interval its
    child spans cover. `spans` are (id, parent, op, name, start, end)
    rows; returns {id: self_ns}."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    result = {}
    for span in spans:
        span_id, _, _, _, start, end = span
        covered = 0
        cursor = start
        for child in sorted(children.get(span_id, ()), key=lambda c: c[4]):
            c_start, c_end = max(child[4], cursor), min(child[5], end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span_id] = (end - start) - covered
    return result


def self_share_by_layer(spans, layers):
    """Each layer's share of the root spans' total time, by self time. A
    span's layer is the first dot-separated part of its name."""
    total = sum(s[5] - s[4] for s in spans if s[1] == 0)
    shares = {layer: 0.0 for layer in layers}
    if total <= 0:
        return shares
    own_by_id = self_times(spans)
    for span in spans:
        layer = span[3].split(".", 1)[0]
        if layer in shares:
            shares[layer] += own_by_id[span[0]] / total
    return shares


def result_line(correct, attempted, failed, metrics):
    """The last line of a run: {"correct", "attempted", "failed",
    "metrics": {name: {"value", "unit"}}}."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def check_result_line(line, expected_metrics):
    """Problems with a result line against the metric names it must carry
    (an empty list when it is well formed)."""
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys are %s" % sorted(line))
        return problems
    if not isinstance(line["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(line[key], int) or isinstance(line[key], bool):
            problems.append("%s is not a whole number" % key)
    if isinstance(line["attempted"], int) and line["attempted"] < 1:
        problems.append("attempted < 1")
    names = set(line["metrics"])
    if names != set(expected_metrics):
        problems.append("metrics differ: missing %s, extra %s" % (
            sorted(set(expected_metrics) - names),
            sorted(names - set(expected_metrics))))
    for name, entry in line["metrics"].items():
        if set(entry) != {"value", "unit"}:
            problems.append("%s has keys %s" % (name, sorted(entry)))
        elif not isinstance(entry["value"], (int, float)) or \
                isinstance(entry["value"], bool) or \
                not math.isfinite(entry["value"]):
            problems.append("%s value is not a finite number" % name)
        elif name in expected_metrics and \
                entry["unit"] != expected_metrics[name]:
            problems.append("%s unit %s != %s" % (
                name, entry["unit"], expected_metrics[name]))
    return problems
