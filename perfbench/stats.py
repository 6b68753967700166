"""Small numeric helpers shared by the benchmark and its self-tests."""

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name):
    """True when a metric or workload name fits the result schema."""
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return UNIT_RE.fullmatch(unit) is not None


def percentile(values, q):
    """Linearly interpolated q-th percentile of a nonempty sample.

    Returns (value, beyond): beyond is the number of samples strictly
    above the value, so a caller can tell whether a tail percentile
    rests on enough observations to be worth reporting.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    beyond = sum(1 for x in xs if x > value)
    return value, beyond


def gmean_of_medians(groups):
    """Geometric mean of the medians of nonempty samples.  Applied to
    each input's latencies, every input weighs the same however often it
    ran, and a change to any one input's cost moves the figure."""
    medians = [statistics.median(xs) for xs in groups]
    if not medians:
        raise ValueError("geometric mean of no samples")
    return math.exp(statistics.fmean(math.log(m) for m in medians))


def self_times(spans):
    """Self time of every span: its duration minus the durations of its
    direct children.  spans maps id -> (parent_id, start, end); a parent
    of None marks a root.  Spans come from one thread, so children of a
    span never overlap each other."""
    out = {sid: end - start for sid, (_, start, end) in spans.items()}
    for sid, (parent, start, end) in spans.items():
        if parent is not None:
            out[parent] -= end - start
    return out
