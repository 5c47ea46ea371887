"""Small numeric helpers shared by the benchmark and its tests."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """``q``-th percentile (0..100) with linear interpolation between the
    closest ranks (numpy's default).  Raises on an empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    p = percentile(values, q)
    return sum(1 for v in values if v > p)


def ratio(num: float, den: float) -> float:
    """``num / den``, 0 when there is nothing to divide by."""
    return num / den if den else 0.0


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps once."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children cover.

    Children may nest, overlap each other (parallel workers) or stick out
    of the parent's interval; each instant of the parent is subtracted at
    most once."""
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length(clipped)
