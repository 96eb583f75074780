"""Trimmed (timestamp, count) lists that track how many window points a stored
proxy stands for.

A histogram is a plain list of ``(timestamp, count)`` pairs with strictly
increasing timestamps and strictly decreasing counts.  The count of an entry
is the number of assignments that happened at or after its timestamp.  The
trimming rule keeps the list logarithmic in the window length while
guaranteeing that the first entry's count is within a factor ``(1 + lam)``
of the exact assignment count still inside the window.

Invariants maintained by the operations below (for window length N):
  1. every count <= N
  2. adjacent entries: c[i] <= (1 + lam) * c[i+1]  or  c[i] == c[i+1] + 1
  3. entries two apart: c[i] > (1 + lam) * c[i+2]
  4. length <= 2 * ceil(log_{1+lam} N) + 2   (for lam > 0)
  5. the last entry has count 1

Invariant 4 follows from 1, 3 and 5 and needs no check: c[i] > (1 + lam) * c[i+2],
c[-1] == 1 and c[0] <= N; with lam == 0, strictly decreasing counts in [1, N].

With ``lam == 0`` the deletion rule never fires and the histogram stays exact;
with ``1 + lam >= N`` it drops every interior entry, as no count exceeds N.

Histograms are values: guesses of one ladder share equal histograms (see
``streamkc.coreset``), so no operation changes a list in place.
``bump_and_trim`` is pure: it returns a new list and leaves its input as it
was, so equal inputs at one arrival give equal outputs.
"""

from __future__ import annotations

import math

from .core import InvariantError

Histogram = list[tuple[int, int]]


def new_histogram(t: int) -> Histogram:
    """Histogram for a proxy that currently stands only for itself."""
    return [(t, 1)]


def bump_and_trim(hist: Histogram, t: int, lam: float) -> Histogram:
    """Record one new assignment at time t and re-trim.

    All existing counts go up by one, a fresh ``(t, 1)`` entry is appended,
    then interior entries are dropped wherever the last kept count is not more
    than ``(1 + lam)`` times the count after the candidate.  First and last
    entries are always kept.
    """
    if hist and t <= hist[-1][0]:
        raise ValueError(f"timestamp {t} not greater than last entry {hist[-1][0]}")
    bumped = [(ts, c + 1) for ts, c in hist]
    bumped.append((t, 1))
    n = len(bumped)
    if n <= 2:
        return bumped
    trimmed = [bumped[0]]
    last = 0
    factor = 1.0 + lam
    for i in range(1, n - 1):
        if bumped[last][1] > factor * bumped[i + 1][1]:
            trimmed.append(bumped[i])
            last = i
    trimmed.append(bumped[n - 1])
    return trimmed


def weight_estimate(hist: Histogram) -> int:
    """Count of the oldest surviving entry: the (1+lam)-accurate number of
    active points this proxy stands for.  Caller must have expired stale
    entries first.
    """
    if not hist:
        raise ValueError("weight of an empty histogram is undefined")
    return hist[0][1]


def synthetic_full_window(t: int, size: int, lam: float) -> Histogram:
    """The trimmed histogram of a proxy standing for all ``size`` most recent
    points at time t, built directly instead of by replay.

    Counts follow ``c_0 = size`` and ``c_{i+1} = min(c_i - 1, ceil(c_i / (1 + lam)))``
    down to 1, each placed at timestamp ``t - c_i``; the result satisfies all
    histogram invariants.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    entries = []
    c = size
    while True:
        entries.append((t - c, c))
        if c == 1:
            break
        c = min(c - 1, math.ceil(c / (1.0 + lam)))
    return entries


def check_invariants(hist: Histogram, window_len: int, lam: float) -> None:
    """Raise InvariantError if any histogram invariant is violated."""
    if not hist:
        raise InvariantError("histogram is empty")
    factor = 1.0 + lam
    for i, (ts, c) in enumerate(hist):
        if not 1 <= c <= window_len:
            raise InvariantError(f"count {c} outside [1, {window_len}]")
        if i and ts <= hist[i - 1][0]:
            raise InvariantError("timestamps not strictly increasing")
        if i and c >= hist[i - 1][1]:
            raise InvariantError("counts not strictly decreasing")
    for i in range(len(hist) - 1):
        ci, cj = hist[i][1], hist[i + 1][1]
        if not (ci <= factor * cj or ci == cj + 1):
            raise InvariantError(f"adjacent gap at {i}: {ci} vs {cj}")
    for i in range(len(hist) - 2):
        if not hist[i][1] > factor * hist[i + 2][1]:
            raise InvariantError(f"two-apart overlap at {i}")
    if hist[-1][1] != 1:
        raise InvariantError("last entry count must be 1")
