"""Sliding-window weighted coreset maintenance.

One ``GuessState`` per radius guess keeps three small sets of active points:

* attraction points, pairwise farther apart than the attraction radius;
* one representative per attraction point (the newest point it attracted),
  each carrying a histogram that counts the window points it stands for;
* orphans: representatives whose attraction point expired or was evicted.

A ``GuessLadder`` maintains these states over a geometric grid of guesses
``(1 + beta) ** i``.  In *fixed* mode the grid is pinned to user-supplied
distance bounds; in *oblivious* mode it tracks running estimates derived
from the first stream point and the most recent ``k + z + 1`` points, so no
prior knowledge of the data's distance scale is needed.

Each setting is bound once: the ladder hands the window length, ``lam``, the
metric and its ``cap`` policy to every state it creates, so updates take only
the point, whose arrival is the clock.  The same machinery doubles as the
fine-grained layer used for effective diameter estimation, by shrinking the
attraction radius and setting ``cap`` (see ``streamkc.effdiam``).

Bulk distance passes (the attraction search over ``_VEC_MIN`` or more
points, the ``d_t`` estimate, qualification and the invariant checks) read
the metric's block form (``streamkc.core``); a metric without one is
rejected when a state or ladder is built or restored.

Guesses of one ladder mostly bump equal histograms at the same arrival, so
every state of a ladder bumps through one ``_BumpMemo``: each distinct
histogram value is trimmed once per arrival, and the resulting list is
shared by every guess that held an equal one.  Histograms are therefore
values that are never changed in place (``streamkc.histogram``).  The memo
is never serialized, and the memory gauge still counts every guess's
entries, as the paper does.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import _BLOCK, InvariantError, Metric, Point, StreamParams, dist
from .core import _distances, _extremes
from .histogram import (
    Histogram,
    bump_and_trim,
    check_invariants as check_histogram,
    new_histogram,
    synthetic_full_window,
    weight_estimate,
)

SNAPSHOT_FORMAT = "streamkc-ladder"
SNAPSHOT_VERSION = 1

# below this many attraction points a plain python scan beats numpy
_VEC_MIN = 48


@dataclass(frozen=True, slots=True)
class WeightedCoreset:
    """Extracted coreset: points with approximate window counts.

    guess: the radius guess the coreset was extracted at (0.0 for the exact
    warm-up coreset).  The sum of weights never exceeds the window size.
    """

    points: tuple[tuple[Point, int], ...]
    guess: float
    t: int

    def total_weight(self) -> int:
        return sum(w for _, w in self.points)

    def __len__(self) -> int:
        return len(self.points)


class _BumpMemo:
    """``bump_and_trim`` results for the current arrival, keyed by the
    histogram's value.  Exact because the trim is a pure function of the
    histogram, the arrival and ``lam``, and ``lam`` is fixed per memo."""

    __slots__ = ("lam", "t", "results")

    def __init__(self, lam: float):
        self.lam = lam
        self.t = 0
        self.results: dict[tuple, Histogram] = {}

    def bump(self, hist: Histogram, t: int) -> Histogram:
        if t != self.t:
            self.t = t
            self.results = {}
        key = tuple(hist)
        out = self.results.get(key)
        if out is None:
            out = self.results[key] = bump_and_trim(hist, t, self.lam)
        return out


class GuessState:
    """Attraction/representative/orphan bookkeeping for one radius guess.

    max_attractions caps the attraction set; inserting beyond it evicts the
    oldest attraction point (its representative becomes an orphan) and bumps
    ``evictions``.  Without an orphan_cap, any orphan older than the oldest
    attraction point is discarded whenever the attraction set exceeds
    ``max_attractions - 1`` (such orphans can never reach a usable coreset).
    With one, orphans are never pruned, and an insertion that leaves more
    than orphan_cap of them evicts the oldest and bumps ``evictions``.

    Must see every time step: the expiry sweep relies on consecutive calls,
    so that anything stale matches the current step's expiring timestamp
    exactly.  Orphans are keyed by arrival, and the first (only possibly
    stale) entry of each orphan histogram is indexed by timestamp, making the
    per-step sweep O(1) regardless of how many orphans are held.

    Bumps go through a ``_BumpMemo``: the state's own, unless its ladder
    points it at the memo all the ladder's states share.
    """

    __slots__ = (
        "guess",
        "attr_radius",
        "max_attractions",
        "orphan_cap",
        "window_len",
        "lam",
        "metric",
        "attractions",
        "reps",
        "orphans",
        "evictions",
        "_first_ts",
        "_buf",
        "_lo",
        "_hi",
        "_bumps",
    )

    def __init__(
        self,
        guess: float,
        attr_radius: float,
        max_attractions: int,
        window_len: int,
        lam: float,
        metric: Metric = dist,
        orphan_cap: Optional[int] = None,
    ):
        self.guess = guess
        self.attr_radius = attr_radius
        self.max_attractions = max_attractions
        self.orphan_cap = orphan_cap
        self.window_len = window_len
        self.lam = lam
        self.metric = _block_metric(metric)
        self.attractions: list[Point] = []  # arrival order == expiry order
        self.reps: dict[int, tuple[Point, Histogram]] = {}  # attraction arrival -> (rep, hist)
        self.orphans: dict[int, tuple[Point, Histogram]] = {}  # orphan arrival -> (pt, hist)
        self.evictions = 0
        self._first_ts: dict[int, int] = {}  # orphan hist first timestamp -> arrival
        # append-only mirror of attraction coordinates for vectorized scans;
        # rows [_lo:_hi) track the attraction list (front pops, back appends)
        self._buf: Optional[np.ndarray] = None
        self._lo = 0
        self._hi = 0
        self._bumps = _BumpMemo(lam)

    # -- update ------------------------------------------------------------

    def process_point(self, p: Point) -> Optional[int]:
        """Expire stale state at time p.arrival, then absorb p.

        Returns the arrival index of the attraction point that captured p, or
        None when p became a new attraction point.
        """
        t = p.arrival
        self.sweep(t)
        idx = self._first_within(p)
        if idx is None:
            self._insert(p)
            return None
        a = self.attractions[idx]
        _, hist = self.reps[a.arrival]
        self.reps[a.arrival] = (p, self._bumps.bump(hist, t))
        return a.arrival

    def sweep(self, t: int) -> None:
        """Expiry pass: attraction points first (their representatives become
        orphans), then the orphan expiring now, then the one histogram entry
        stamped with the expiring timestamp.  Histograms may be shared with
        other states, so the entry is sliced off, never popped."""
        stale = t - self.window_len
        attrs = self.attractions
        while attrs and attrs[0].arrival <= stale:
            a = attrs.pop(0)
            self._lo += 1
            rep, hist = self.reps.pop(a.arrival)
            if rep.arrival > stale:
                self._add_orphan(rep, hist)
        gone = self.orphans.pop(stale, None)
        if gone is not None:
            self._first_ts.pop(gone[1][0][0], None)
        owner = self._first_ts.pop(stale, None)
        if owner is not None:
            r, hist = self.orphans[owner]
            if len(hist) > 1:
                self.orphans[owner] = (r, hist[1:])
                self._first_ts[hist[1][0]] = owner
            else:
                del self.orphans[owner]

    def _insert(self, p: Point) -> None:
        self.attractions.append(p)
        self._buf_append(p.coords)
        self.reps[p.arrival] = (p, new_histogram(p.arrival))
        if len(self.attractions) > self.max_attractions:
            old = self.attractions.pop(0)
            self._lo += 1
            self._add_orphan(*self.reps.pop(old.arrival))
            self.evictions += 1
        if self.orphan_cap is None:
            if len(self.attractions) > self.max_attractions - 1:
                oldest = self.attractions[0].arrival
                for arrival in [a for a in self.orphans if a < oldest]:
                    _, hist = self.orphans.pop(arrival)
                    self._first_ts.pop(hist[0][0], None)
        elif len(self.orphans) > self.orphan_cap:
            victim = min(self.orphans)
            _, hist = self.orphans.pop(victim)
            self._first_ts.pop(hist[0][0], None)
            self.evictions += 1

    def _add_orphan(self, rep: Point, hist: Histogram) -> None:
        assert rep.arrival not in self.orphans
        self.orphans[rep.arrival] = (rep, hist)
        ts = hist[0][0]
        assert ts not in self._first_ts, "duplicate leading histogram timestamp"
        self._first_ts[ts] = rep.arrival

    def seed(self, anchor: Point, rep: Point, hist: Histogram) -> None:
        """Initialize an empty state with a single attraction point whose
        representative carries a prebuilt histogram."""
        assert not self.attractions and not self.orphans
        self.attractions.append(anchor)
        self._buf_append(anchor.coords)
        self.reps[anchor.arrival] = (rep, hist)

    def _buf_append(self, coords) -> None:
        dim = len(coords)
        if self._buf is None or self._hi == self._buf.shape[0]:
            live = 0 if self._buf is None else self._hi - self._lo
            cap = max(64, 2 * (live + 1))
            fresh = np.empty((cap, dim))
            if live:
                fresh[:live] = self._buf[self._lo : self._hi]
            self._buf = fresh
            self._lo, self._hi = 0, live
        self._buf[self._hi] = coords
        self._hi += 1

    def _first_within(self, p: Point) -> Optional[int]:
        """Index of the oldest attraction point within the attraction radius."""
        attrs = self.attractions
        n = len(attrs)
        if n == 0:
            return None
        r = self.attr_radius
        metric = self.metric
        if n >= _VEC_MIN:
            near = metric.pairwise(np.array([p.coords]), self._buf[self._lo : self._hi])
            hits = np.flatnonzero(near[0] <= r)
            return int(hits[0]) if hits.size else None
        for i, a in enumerate(attrs):
            if metric(p, a) <= r:
                return i
        return None

    # -- inspection ----------------------------------------------------------

    def union_points(self) -> list[Point]:
        """Attractions, orphans and representatives, deduplicated, in storage order."""
        held = self.attractions + [q for q, _ in self.orphans.values()]
        held += [q for q, _ in self.reps.values()]
        return list({q.arrival: q for q in held}.values())

    def coreset_points(self) -> list[tuple[Point, int]]:
        """Representatives and orphans with their estimated window counts."""
        out = [(rep, weight_estimate(h)) for rep, h in self.reps.values()]
        out.extend((r, weight_estimate(h)) for r, h in self.orphans.values())
        return out

    def stored_points(self) -> int:
        return len(self.attractions) + len(self.reps) + len(self.orphans)

    def histogram_entries(self) -> int:
        return sum(len(h) for _, h in self.reps.values()) + sum(
            len(h) for _, h in self.orphans.values()
        )

    def check_invariants(self, t: int) -> None:
        """Raise InvariantError unless the state is consistent at clock t."""
        window_len, lam = self.window_len, self.lam
        attrs = self.attractions
        n = len(attrs)
        if n > self.max_attractions:
            raise InvariantError(f"{n} attraction points, cap {self.max_attractions}")
        if len(self.reps) != n:
            raise InvariantError("not one representative per attraction point")
        if n != len({a.arrival for a in attrs}) or self._hi - self._lo != n:
            raise InvariantError("attraction points repeat or miss their buffer rows")
        for i in range(n):
            if attrs[i].arrival <= t - window_len:
                raise InvariantError("stored expired attraction point")
            if tuple(self._buf[self._lo + i]) != attrs[i].coords:
                raise InvariantError(f"buffer row {i} is not its attraction point")
            if i and attrs[i - 1].arrival >= attrs[i].arrival:
                raise InvariantError("attraction points not in arrival order")
        d = _distances(attrs, self.metric)
        for r0 in range(0, n - 1, _BLOCK):
            rows = np.arange(r0, min(r0 + _BLOCK, n - 1))
            # pairs (i, j) with i < j: the strict upper triangle from column r0
            close = np.argwhere(np.triu(d(rows, np.arange(r0, n)) <= self.attr_radius, 1))
            if close.size:
                i, j = r0 + close[0]
                raise InvariantError(
                    f"attraction points {attrs[i].arrival},{attrs[j].arrival} too close"
                )
        for a in attrs:
            rep, hist = self.reps[a.arrival]
            if not a.arrival <= rep.arrival <= t or rep.arrival <= t - window_len:
                raise InvariantError(f"representative {rep.arrival} out of range")
            check_histogram(hist, window_len, lam)
        if self.orphan_cap is not None and len(self.orphans) > self.orphan_cap:
            raise InvariantError(f"{len(self.orphans)} orphans, cap {self.orphan_cap}")
        for arrival, (r, hist) in self.orphans.items():
            if not arrival == r.arrival <= t:
                raise InvariantError(f"orphan {arrival} misfiled or after the clock")
            if r.arrival <= t - window_len:
                raise InvariantError("stored expired orphan")
            if self._first_ts.get(hist[0][0]) != arrival:
                raise InvariantError(f"orphan {arrival} not in the timestamp index")
            check_histogram(hist, window_len, lam)
        if len(self._first_ts) != len(self.orphans):
            raise InvariantError("timestamp index out of step with the orphans")

    # -- snapshots -----------------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "attractions": [_point_out(p) for p in self.attractions],
            "reps": [
                [a, _point_out(rep), [list(e) for e in hist]]
                for a, (rep, hist) in self.reps.items()
            ],
            "orphans": [
                [_point_out(r), [list(e) for e in hist]]
                for r, hist in self.orphans.values()
            ],
            "evictions": self.evictions,
        }

    def restore(self, data: dict) -> None:
        self.attractions = [_point_in(p) for p in data["attractions"]]
        self.reps = {
            a: (_point_in(rep), [tuple(e) for e in hist])
            for a, rep, hist in data["reps"]
        }
        self.orphans = {}
        self._first_ts = {}
        for r, hist in data["orphans"]:
            self._add_orphan(_point_in(r), [tuple(e) for e in hist])
        self.evictions = data["evictions"]
        self._buf = None
        self._lo = self._hi = 0
        for p in self.attractions:
            self._buf_append(p.coords)


def _point_out(p: Point) -> list:
    return [p.arrival, list(p.coords)]


def _point_in(data: list) -> Point:
    return Point(data[0], tuple(data[1]))


class GuessLadder:
    """All guess states over the geometric radius grid, plus the stream clock.

    mode "fixed" requires d_min and d_max bracketing the stream's pairwise
    distances; mode "oblivious" discovers the needed grid on the fly.  A
    single instance is single-writer; reads are safe once no update runs.

    cap sets each state's capacity policy.  None keeps k + z + 1 attraction
    points and prunes orphans that can no longer reach a coreset; an integer
    c keeps at most c attraction points and at most c orphans, pruning none
    (the effective-diameter fine ladder).
    """

    def __init__(
        self,
        params: StreamParams,
        mode: str = "oblivious",
        d_min: Optional[float] = None,
        d_max: Optional[float] = None,
        metric: Metric = dist,
        *,
        attr_factor: float = 2.0,
        cap: Optional[int] = None,
    ):
        if mode not in ("fixed", "oblivious"):
            raise ValueError(f"unknown mode {mode!r}")
        self.params = params
        self.mode = mode
        self.metric = _block_metric(metric)
        self._bumps = _BumpMemo(params.lam)  # shared by every state
        self.attr_factor = attr_factor
        self.cap = cap
        self.t = 0
        self.dim: Optional[int] = None  # fixed by the first point
        self.states: dict[int, GuessState] = {}
        self.d_min = d_min
        self.d_max = d_max
        if mode == "fixed":
            if d_min is None or d_max is None or not 0 < d_min <= d_max:
                raise ValueError("fixed mode requires 0 < d_min <= d_max")
            lo, hi = self._grid_bounds()
            for e in range(lo, hi + 1):
                self.states[e] = self._new_state(e)
        else:
            self.first_point: Optional[Point] = None
            self.recent: deque[Point] = deque(maxlen=params.k + params.z + 1)
            self.d_t = 0.0
            self.D_t = 0.0
            # arrivals are consecutive, so the last N points are the window
            self.warmup: deque[Point] = deque(maxlen=params.window_len)
            self.bootstrapped = False

    # -- grid helpers --------------------------------------------------------

    def guess_value(self, exponent: int) -> float:
        return (1.0 + self.params.beta) ** exponent

    def _exp_floor(self, x: float) -> int:
        """Largest e with (1+beta)^e <= x, robust to log rounding."""
        b = 1.0 + self.params.beta
        e = math.floor(math.log(x) / math.log(b))
        while b**e > x:
            e -= 1
        while b ** (e + 1) <= x:
            e += 1
        return e

    def _exp_ceil(self, x: float) -> int:
        """Smallest e with (1+beta)^e >= x."""
        f = self._exp_floor(x)
        return f if (1.0 + self.params.beta) ** f == x else f + 1

    def _grid_bounds(self) -> tuple[int, int]:
        """Lowest and highest exponent of the grid: floor(d_min/2) and
        ceil(d_max) in fixed mode, floor(d_t/2) and ceil(2 D_t) from the
        running estimates in oblivious mode.  The fixed grid reaches down to
        d_min/2 so that points at the minimum scale can still sit in
        separate attraction sets, mirroring the oblivious grid's lower end."""
        if self.mode == "fixed":
            return self._exp_floor(self.d_min / 2.0), self._exp_ceil(self.d_max)
        return self._exp_floor(self.d_t / 2.0), self._exp_ceil(2.0 * self.D_t)

    def _new_state(self, exponent: int) -> GuessState:
        g = self.guess_value(exponent)
        params = self.params
        st = GuessState(
            guess=g,
            attr_radius=self.attr_factor * g,
            max_attractions=params.k + params.z + 1 if self.cap is None else self.cap,
            window_len=params.window_len,
            lam=params.lam,
            metric=self.metric,
            orphan_cap=self.cap,
        )
        st._bumps = self._bumps
        return st

    def exponents(self) -> list[int]:
        return sorted(self.states)

    # -- updates -------------------------------------------------------------

    def process_point(self, p: Point) -> None:
        """Feed the next stream point.  Arrivals must be consecutive from 1
        and every point must have the first point's dimension; a rejected
        point leaves the ladder untouched."""
        t = p.arrival
        if t != self.t + 1:
            raise ValueError(f"out-of-order arrival {t}, expected {self.t + 1}")
        if self.dim is not None and p.dim != self.dim:
            raise ValueError(f"dimension mismatch: {p.dim} vs the stream's {self.dim}")
        self.dim = p.dim
        self.t = t
        if self.mode == "oblivious":
            self.maintain_oblivious_ladder(p)
            if not self.bootstrapped:
                self.warmup.append(p)
                return
        for st in self.states.values():
            st.process_point(p)

    def maintain_oblivious_ladder(self, p: Point) -> None:
        """Refresh the distance estimates and retarget the grid before p is
        handed to the per-guess states.  Called by process_point exactly once
        per arrival; do not invoke separately when feeding through it."""
        t = p.arrival
        if self.first_point is None:
            self.first_point = p
        else:
            self.D_t = max(self.D_t, self.metric(self.first_point, p))
        prev_recent = list(self.recent)
        self.recent.append(p)
        d, _ = _extremes(_distances(self.recent, self.metric), len(self.recent))
        if d > 0:
            self.d_t = d
        if not self.bootstrapped:
            if t >= self.params.k + self.params.z + 2 and self.d_t > 0:
                self._bootstrap()
            return
        self._retarget(prev_recent, t)

    def _bootstrap(self) -> None:
        """First grid construction: replay the buffered prefix through empty
        states, which reproduces exactly what a from-scratch run would hold."""
        lo, hi = self._grid_bounds()
        for e in range(lo, hi + 1):
            self.states[e] = self._replayed_state(e, self.warmup)
        self.bootstrapped = True
        self.warmup.clear()

    def _retarget(self, prev_recent: list[Point], t: int) -> None:
        lo, hi = self._grid_bounds()
        old_lo = min(self.states)
        old_hi = max(self.states)
        for e in [e for e in self.states if e < lo or e > hi]:
            del self.states[e]
        for e in range(lo, old_lo):
            # the recent points are mutually farther than twice the new
            # guess, so replaying just them is what a fresh run would store
            self.states[e] = self._replayed_state(e, prev_recent)
        for e in range(max(old_hi + 1, lo), hi + 1):
            self.states[e] = self._high_guess_state(e, prev_recent, t)

    def _replayed_state(self, exponent: int, points: Sequence[Point]) -> GuessState:
        """Fresh state for the guess, fed the given points in order."""
        st = self._new_state(exponent)
        for q in points:
            st.process_point(q)
        return st

    def _high_guess_state(
        self, exponent: int, prev_recent: list[Point], t: int
    ) -> GuessState:
        """State for a guess above the previous grid.

        All prior points are within twice the new guess of each other, so a
        from-scratch run would hold a single attraction point whose
        representative is the latest point, standing for the whole window.
        The anchor is the (about to expire) oldest window point while the
        window is full, or the very first stream point before that; its
        histogram is built directly by ``synthetic_full_window``.  That
        shortcut is exact only when the attraction radius is at least twice
        the guess; narrower ladders (such as the fine one) replay the
        recent points instead.
        """
        if self.attr_factor < 2.0:
            return self._replayed_state(exponent, prev_recent)
        st = self._new_state(exponent)
        N, lam = self.params.window_len, self.params.lam
        rep = prev_recent[-1]
        m = min(N, t - 1)
        if t - 1 >= N:
            anchor = Point(t - N, rep.coords)
        else:
            anchor = self.first_point
        st.seed(anchor, rep, synthetic_full_window(t, m, lam))
        return st

    # -- extraction ----------------------------------------------------------

    def qualifies(self, exponent: int) -> bool:
        """A guess qualifies when its attraction set is small enough and a
        greedy separation pass over all its stored points selects at most
        k + z points at twice the guess radius.  The pass reads one distance
        row per point it takes, at most k + z + 1 rows."""
        st = self.states[exponent]
        cap = self.params.k + self.params.z
        if len(st.attractions) > cap:
            return False
        pts = st.union_points()
        d = _distances(pts, self.metric)
        cols = np.arange(len(pts))
        free = np.ones(len(pts), dtype=bool)  # not within twice the guess of a pick
        taken = 0
        for i in range(len(pts)):
            if free[i]:
                taken += 1
                if taken > cap:
                    return False
                free &= d([i], cols)[0] > 2.0 * st.guess
        return True

    def selected_exponent(self) -> int:
        """Smallest qualifying guess, found by scanning the grid upward."""
        exps = self.exponents()
        if not exps:
            raise RuntimeError("ladder holds no guesses yet")
        for e in exps:
            if self.qualifies(e):
                return e
        raise RuntimeError(
            "no qualifying guess: the ladder does not cover the needed radius "
            "range (check d_min/d_max in fixed mode)"
        )

    def extract_coreset(self) -> WeightedCoreset:
        """Weighted coreset for the current window: representatives and
        orphans of the smallest qualifying guess."""
        if self.mode == "oblivious" and not self.bootstrapped:
            return self.warmup_coreset()
        return self.coreset_at(self.selected_exponent())

    def warmup_coreset(self) -> WeightedCoreset:
        """Before the grid exists every window point is kept verbatim: the
        active buffer itself is an exact (radius zero) coreset."""
        pts = tuple((q, 1) for q in self.warmup)
        if not pts:
            raise RuntimeError("no points processed yet")
        return WeightedCoreset(points=pts, guess=0.0, t=self.t)

    def coreset_at(self, exponent: int) -> WeightedCoreset:
        st = self.states[exponent]
        return WeightedCoreset(
            points=tuple(st.coreset_points()), guess=st.guess, t=self.t
        )

    # -- accounting ----------------------------------------------------------

    def stored_points(self) -> int:
        n = sum(st.stored_points() for st in self.states.values())
        if self.mode == "oblivious":
            n += (0 if self.first_point is None else 1) + len(self.recent)
            if not self.bootstrapped:
                n += len(self.warmup)
        return n

    def histogram_entries(self) -> int:
        return sum(st.histogram_entries() for st in self.states.values())

    def memory_floats(self, dim: int) -> int:
        """Structure-size memory gauge: stored points times dimension, plus
        two floats per histogram entry, plus one scalar per guess and two
        mode scalars (d_min/d_max or the running distance estimates)."""
        scalars = len(self.states) + 2
        return self.stored_points() * dim + 2 * self.histogram_entries() + scalars

    def check_invariants(self) -> None:
        """Every state's invariants, plus the ladder-wide ones: the grid is
        exactly the exponent range its mode implies, and in oblivious mode
        d_t and D_t agree with the points they are derived from.  The
        first that fails raises InvariantError.

        d_t is compared with a relative tolerance of 1e-9, since a snapshot
        written before d_t came from the metric's block form holds the
        scalar form's value, which may differ in the last bits."""
        if self.mode == "oblivious":
            d, _ = _extremes(_distances(self.recent, self.metric), len(self.recent))
            if not (d == 0 or math.isclose(self.d_t, d, rel_tol=1e-9)):
                raise InvariantError(
                    f"d_t {self.d_t!r} is not the recent points' smallest distance {d!r}"
                )
            if self.first_point is not None:
                first = self.first_point
                far = max((self.metric(first, q) for q in self.recent), default=0.0)
                if not far <= self.D_t:
                    raise InvariantError(f"D_t {self.D_t!r} is below {far!r}")
            if self.bootstrapped and not (
                0 < self.d_t < math.inf and 0 < self.D_t < math.inf
            ):
                raise InvariantError(f"d_t {self.d_t!r}, D_t {self.D_t!r} not in (0, inf)")
        # no oblivious grid exists before the bootstrap
        built = self.mode == "fixed" or self.bootstrapped
        lo, hi = self._grid_bounds() if built else (0, -1)
        grid = self.exponents()
        if grid != list(range(lo, hi + 1)):
            raise InvariantError(f"grid {grid} is not [{lo}, {hi}]")
        for st in self.states.values():
            st.check_invariants(self.t)

    # -- snapshots -------------------------------------------------------------

    def to_snapshot(self) -> dict:
        """Self-describing, JSON-serializable state dump; exact round-trip."""
        snap = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "mode": self.mode,
            "params": {
                "window_len": self.params.window_len,
                "k": self.params.k,
                "z": self.params.z,
                "lam": self.params.lam,
                "beta": self.params.beta,
            },
            "config": {"attr_factor": self.attr_factor, "cap": self.cap},
            "t": self.t,
            "d_min": self.d_min,
            "d_max": self.d_max,
            "states": [
                {"exponent": e, **self.states[e].to_jsonable()}
                for e in self.exponents()
            ],
        }
        if self.mode == "oblivious":
            snap["oblivious"] = {
                "first_point": None
                if self.first_point is None
                else _point_out(self.first_point),
                "recent": [_point_out(q) for q in self.recent],
                "d_t": self.d_t,
                "D_t": self.D_t,
                "bootstrapped": self.bootstrapped,
                "warmup": [_point_out(q) for q in self.warmup],
            }
        return snap

    @classmethod
    def from_snapshot(cls, snap: dict, metric: Metric = dist) -> "GuessLadder":
        """Inverse of to_snapshot.  Older version-1 snapshots still load: a
        "high_init" config entry is ignored (it is derived from attr_factor),
        and a max_attractions/prune_orphans/orphan_cap triple is mapped to
        the cap policy it spells, or rejected if it spells neither.

        The restored ladder is verified with check_invariants; a snapshot
        that is malformed or restores a broken state raises ValueError
        ("corrupt ladder snapshot: ...").
        """
        _block_metric(metric)
        if snap.get("format") != SNAPSHOT_FORMAT:
            raise ValueError("not a ladder snapshot")
        if snap.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {snap.get('version')!r}")
        try:
            ladder = cls._restore(snap, metric)
            ladder.check_invariants()
        except (AssertionError, KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"corrupt ladder snapshot: {exc!r}") from exc
        return ladder

    @classmethod
    def _restore(cls, snap: dict, metric: Metric) -> "GuessLadder":
        params = StreamParams(**snap["params"])
        cfg = snap["config"]
        ladder = cls(
            params,
            mode=snap["mode"],
            d_min=snap["d_min"],
            d_max=snap["d_max"],
            metric=metric,
            attr_factor=cfg["attr_factor"],
            cap=cfg["cap"] if "cap" in cfg else _legacy_cap(cfg, params),
        )
        ladder.t = snap["t"]
        ladder.states = {}
        held: list[Point] = []  # any stored point fixes the stream's dimension
        for entry in snap["states"]:
            st = ladder._new_state(entry["exponent"])
            st.restore(entry)
            ladder.states[entry["exponent"]] = st
            held += st.attractions[:1]
        if ladder.mode == "oblivious":
            ob = snap["oblivious"]
            ladder.first_point = (
                None if ob["first_point"] is None else _point_in(ob["first_point"])
            )
            ladder.recent = deque(
                (_point_in(q) for q in ob["recent"]),
                maxlen=params.k + params.z + 1,
            )
            ladder.d_t = ob["d_t"]
            ladder.D_t = ob["D_t"]
            ladder.bootstrapped = ob["bootstrapped"]
            ladder.warmup.extend(_point_in(q) for q in ob["warmup"])
            held += ladder.recent
        ladder.dim = held[0].dim if held else None
        return ladder


def _block_metric(metric: Metric) -> Metric:
    """The metric, once it is known to carry a callable block form."""
    if not callable(getattr(metric, "pairwise", None)):
        raise TypeError(f"metric {metric!r} has no pairwise(xs, ys) block form")
    return metric


def _legacy_cap(cfg: dict, params: StreamParams) -> Optional[int]:
    """cap equivalent of an older snapshot's capacity fields."""
    m, prune, oc = cfg["max_attractions"], cfg["prune_orphans"], cfg["orphan_cap"]
    if prune and oc is None and m == params.k + params.z + 1:
        return None
    if not prune and oc is not None and m == oc:
        return oc
    raise ValueError(
        f"snapshot capacity max_attractions={m}, prune_orphans={prune}, "
        f"orphan_cap={oc} matches no cap policy"
    )
