"""Arithmetic shared by the vexsim benchmark and its tests.

Medians and quartiles of repeated legs, span self times, and the metric-name
and unit charsets that BENCHMARK.json and the result line must use.
"""

import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def union_ns(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    that its child spans (on any thread) cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = union_ns(
            (max(c["start_ns"], lo), min(c["end_ns"], hi))
            for c in children.get(s["id"], ())
            if c["end_ns"] > lo and c["start_ns"] < hi)
        out[s["id"]] = (hi - lo) - covered
    return out


def self_seconds_by_name(spans):
    """Summed self time, in seconds, of the spans of each name."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + selfs[s["id"]] * 1e-9
    return out


def attributed_share(spans, glue_names):
    """Share of all span self time that falls in named layers, i.e. outside
    the glue spans (the leg and per-point wrappers)."""
    by_name = self_seconds_by_name(spans)
    total = sum(by_name.values())
    glue = sum(v for k, v in by_name.items() if k in glue_names)
    return (total - glue) / total if total > 0 else 0.0
