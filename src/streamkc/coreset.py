"""Sliding-window weighted coreset maintenance.

Each radius guess keeps three small sets of active points, in a
``GuessState`` that it shares with the adjacent guesses of its run:

* attraction points, pairwise farther apart than the attraction radius;
* one representative per attraction point (the newest point it attracted),
  each carrying a histogram that counts the window points it stands for;
* orphans: representatives whose attraction point expired or was evicted.

Histogram stamps are arrivals, and they alone decide expiry: at arrival t
the stamp t - N leaves the one histogram it begins, with the oldest
attraction point or an orphan's oldest entry (``GuessState.sweep``).

A ``GuessLadder`` maintains these states over a geometric grid of guesses
``(1 + beta) ** i``, built and moved by one path, a retarget.  In *fixed*
mode the grid is pinned to user-supplied distance bounds; in *oblivious*
mode it tracks running estimates derived from the first stream point and
the most recent ``k + z + 1`` points, so no prior knowledge of the data's
distance scale is needed: the first grid is a retarget from none.  The
grid is a function of the two estimates, so an arrival that leaves both as
they were reads the grid's ends from its runs and does no grid upkeep; one
that moves either recomputes the ends and retargets only if they moved.

Each setting is bound once: the ladder hands the window length and its
``cap`` policy to every state it creates, and ``lam`` and the metric reach
it through the bump memo and the point store they share, so updates take
only the point, whose arrival is the clock.  The same machinery doubles as
the fine-grained layer used for effective diameter estimation, by shrinking
the attraction radius and setting ``cap``, with its runs pruned by a
validation ladder (``GuessLadder.prune_by``; see ``streamkc.effdiam``).  A
full run without a cap prunes itself by that same rule (``GuessState.prune``),
and a prune cuts a run by the splitter a step uses (``GuessLadder._split``).

Guesses of one ladder mostly hold the same stream points, so a ladder keeps
one ``_PointStore``: a coordinate row per distinct point that its states
hold as attraction points or that sits in its recent ring, with a reference
count per slot.  A state keeps only the slots of its attraction points, in
arrival order, each beside its representative.  The ladder reads only the
metric's block form, within the domain and resolution ``streamkc.core``
states: each arrival reads one row from the new point to the store, once
and before anything changes, and hands it down.  Every attraction search
gathers its slots from that row, its entries at the recent points update
each one's smallest distance to a newer one (the smallest is ``d_t``), and
its entry at the first point, whose row of arrival 1 is its one record,
updates ``D_t``.  A metric without a block form is rejected when a ladder
is built or restored.  The store and those distances are never serialized;
a restore replays the recent points into them.

Most guesses of one ladder hold equal states, so its unit of state is the
run: adjacent guesses, exponents ``lo..hi``, that share one ``GuessState``.
A guess's value and radius come from its exponent, and its evictions from a
ladder-level mapping.  A run keeps the radii of its lowest and highest
guess, which the ladder sets wherever ``lo`` or ``hi`` changes (a new run,
a split, a merge, a retarget's trim), for its probes.  Arrivals and
replays change runs by one step: the ladder sweeps each run once, probes
its hit at its lowest and its highest radius, splits it only where the two
differ, steps every run in one loop (``GuessLadder._absorb``: an insert
where a run has no hit, else a capture by the hit) and merges adjacent
runs whose contents became equal.
A probe scans small runs in plain Python and larger ones in one numpy pass.  A retarget's replay (of
the warm-up from no grid, else of the recent points) starts from one empty
run of all the guesses it builds, and takes no step when no replayed point
lies within the highest radius of another: each is then its own
attraction point.  Sharing is exact: the sweep reads the content alone, a
hit position never grows with the radius, so equal probes mean the whole
run agrees, and equal contents that get equal hits take equal steps.
``ladder.states`` maps each exponent to a plain record of its guess.

Every state of a ladder bumps through one ``_BumpMemo``, keyed by the
histogram list: each distinct list is trimmed once per arrival, and the
result is shared by every run that held it.  Histograms are therefore
values that are never changed in place (``streamkc.histogram``).  The
ladder's loop looks a trim up in the memo inline, and
``GuessState.process_point``, the one-run step that no arrival calls,
through ``_BumpMemo.bump``.  Runs, memo and store are never serialized: a
snapshot lists every guess, and the memory gauge counts every guess's
points and entries, as the paper does.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import _ALL, _BLOCK, InvariantError, Metric, Point, StreamParams, dist
from .core import _block_distances, _extremes, _require_count
from .histogram import (
    Histogram,
    bump_and_trim,
    check_invariants as check_histogram,
    new_histogram,
    synthetic_full_window,
)

SNAPSHOT_FORMAT = "streamkc-ladder"
SNAPSHOT_VERSION = 1
MAX_GRID_LEN = 100_000  # the most guesses a grid may hold
MAX_DISTANCE = 2.0**500  # oblivious mode's domain: the farthest from the first point
_PROBE_SLOTS = 256  # the most slots an attraction search scans in plain Python


@dataclass(frozen=True, slots=True, eq=False)
class WeightedCoreset:
    """Extracted coreset: points and, in step, their approximate window
    counts as int64 weights, read-only as a ladder builds them.  The sum of
    weights never exceeds the window size.  Two coresets are equal when
    their entries, (point, weight) pairs in order, are.
    """

    points: tuple[Point, ...]
    weights: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedCoreset):
            return NotImplemented
        return self.points == other.points and self.weights.tolist() == other.weights.tolist()

    def total_weight(self) -> int:
        return int(self.weights.sum())

    def __len__(self) -> int:
        return len(self.points)


@dataclass(slots=True)
class GuessRecord:
    """One guess of a ladder (``GuessLadder.states``), as it stood when read."""

    guess: float
    attr_radius: float
    evictions: int


class _BumpMemo:
    """``bump_and_trim`` results for the current arrival, keyed by the
    histogram list's identity.  Exact because the trim is a pure function of
    the histogram, the arrival and ``lam``, and ``lam`` is fixed per memo.
    Each entry holds its input list until the arrival changes, so no other
    list can take its id meanwhile.  Equal histograms are nearly always one
    list, since they come from one earlier bump or from ``new``.
    ``GuessLadder._absorb`` makes the lookup of ``bump`` inline."""

    __slots__ = ("lam", "t", "results", "fresh")

    def __init__(self, lam: float):
        self.lam = lam
        self.t = 0
        self.results: dict[int, tuple[Histogram, Histogram]] = {}  # id -> (input, output)
        self.fresh = new_histogram(0)  # no point arrives at 0

    def new(self, t: int) -> Histogram:
        """The histogram of a point inserted at t: one list per arrival."""
        if self.fresh[0][0] != t:
            self.fresh = new_histogram(t)
        return self.fresh

    def bump(self, hist: Histogram, t: int) -> Histogram:
        if t != self.t:
            self.t = t
            self.results = {}
        got = self.results.get(id(hist))
        if got is None:
            got = self.results[id(hist)] = (hist, bump_and_trim(hist, t, self.lam))
        return got[1]


class _PointStore:
    """One coordinate row per distinct point held, with a reference count.

    ``points[s]`` is the point in slot s (None once the slot is free) and
    ``coords[s]`` its coordinates.  ``slot_of`` finds a slot by arrival: a
    stream has one point per arrival, and acquiring a different point under
    a held arrival (only a corrupt snapshot can) raises InvariantError.

    ``rows(points)`` reads their distances to every slot in one block-form
    call; the store keeps no distances.
    """

    __slots__ = ("metric", "coords", "points", "refs", "slot_of", "free")

    def __init__(self, metric: Metric):
        self.metric = metric
        self.coords = np.empty((0, 0))
        self.points: list[Optional[Point]] = []
        self.refs: list[int] = []
        self.slot_of: dict[int, int] = {}
        self.free: list[int] = []

    def acquire(self, p: Point) -> int:
        """p's slot, filled if p is not held yet; one more reference to it."""
        s = self.slot_of.get(p.arrival)
        if s is None:
            return self._fill(p)
        if self.points[s] is not p and self.points[s] != p:
            raise InvariantError(f"two different points arrive at {p.arrival}")
        self.refs[s] += 1
        return s

    def _fill(self, p: Point) -> int:
        if self.free:
            s = self.free.pop()
        else:
            s = len(self.points)
            if s == len(self.coords):
                grown = np.empty((max(64, 2 * s), len(p.coords)))
                if s:
                    grown[:s] = self.coords
                self.coords = grown
            self.points.append(None)
            self.refs.append(0)
        self.coords[s] = p.coords
        self.points[s] = p
        self.refs[s] = 1
        self.slot_of[p.arrival] = s
        return s

    def release(self, s: int) -> None:
        """Drop one reference to slot s, freeing it after the last."""
        self.refs[s] -= 1
        if self.refs[s]:
            return
        del self.slot_of[self.points[s].arrival]
        self.points[s] = None
        self.free.append(s)

    def share(self, slots: Sequence[int], n: int) -> None:
        """n more references to each of slots (or -n fewer); all stay held."""
        refs = self.refs
        for s in slots:
            refs[s] += n

    def live(self) -> int:
        return len(self.points) - len(self.free)

    def rows(self, points: Sequence[Point]) -> np.ndarray:
        """The len(points) x slots block of distances to every slot; a free
        slot holds the distance to the point it last held."""
        xs = np.array([q.coords for q in points], dtype=float)
        ys = self.coords[: len(self.points)]
        if not len(ys):
            return np.empty((len(xs), 0))
        return self.metric.pairwise(xs, ys)

    def check(self, holders: Counter) -> None:
        """Raise InvariantError unless every slot's reference count is its
        number of holders, exactly the unreferenced slots are free, and each
        filled slot's coordinates and map entry are its point's."""
        n = len(self.points)
        if any(not 0 <= s < n for s in holders):
            raise InvariantError("a holder names a slot outside the store")
        free = set(self.free)
        if len(free) != len(self.free):
            raise InvariantError("a slot is freed twice")
        for s in range(n):
            p = self.points[s]
            if self.refs[s] != holders[s]:
                raise InvariantError(
                    f"slot {s} has {self.refs[s]} references and {holders[s]} holders"
                )
            if (p is None) != (s in free) or (p is None) != (self.refs[s] == 0):
                raise InvariantError(f"slot {s} is free but referenced, or the reverse")
            if p is not None and tuple(self.coords[s]) != p.coords:
                raise InvariantError(f"slot {s} holds other coordinates than its point")
        if self.slot_of != {
            p.arrival: s for s, p in enumerate(self.points) if p is not None
        }:
            raise InvariantError("the arrival map does not name every filled slot")


def _point_out(p: Point) -> list:
    return [p.arrival, list(p.coords)]


def _point_in(data: list, what: str, dim: Optional[int] = None) -> Point:
    """The point of a snapshot entry [arrival, coordinates]; InvariantError
    naming the entry (what) for any other shape, such as an arrival that is
    no int (80.0 == 80 and True == 1 would pass the later arrival checks), a
    coordinate that is no int or float (a bool is neither), or, given dim,
    another number of coordinates."""
    if type(data) is not list or not data:
        raise InvariantError(f"{what} {data!r} is no [int arrival, coordinates] pair")
    if len(data) != 2 or type(data[0]) is not int or type(data[1]) is not list:
        raise InvariantError(f"{what} of arrival {data[0]!r} is no [int arrival, coordinates] pair")
    coords = data[1]
    for c in coords:
        if type(c) is not float and type(c) is not int:
            raise InvariantError(f"{what} of arrival {data[0]} has a coordinate {c!r} "
                                 "that is no int or float")
    if dim is not None and len(coords) != dim:
        raise InvariantError(f"{what} of arrival {data[0]} has {len(coords)} coordinates, "
                             f"not the stream's {dim}")
    return Point(data[0], tuple(coords))


def _hist_in(data: list, whose: str, q: Point) -> Histogram:
    """The histogram of a snapshot entry, a list of [stamp, count] pairs
    of ints; InvariantError naming the entry and whose histogram it is
    (whose, of q) for any other, such as a stamp or count that is no int.
    Checked as it is read: a restore merges equal runs before it checks
    them, and 9.0 == 9 and True == 1 would merge a corrupt guess away."""
    for e in data:
        if type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            raise InvariantError(f"the histogram of {whose} {q.arrival} holds {e!r}, "
                                 "no [int stamp, int count] pair")
    return [tuple(e) for e in data]


class GuessState:
    """Attraction/representative/orphan bookkeeping for one run of adjacent
    radius guesses, the exponents ``lo..hi`` of a ladder.

    max_attractions caps the attraction set; inserting beyond it evicts the
    oldest attraction point (its representative becomes an orphan) and bumps
    ``evicted``.  Without an orphan_cap, a full state, one that holds
    max_attractions, prunes itself at its oldest attraction point
    (``prune``), by the rule a full validation guess applies to its fine
    guess: older orphans can never reach a usable coreset.  With one,
    orphans are pruned only by a ``prune`` call, and an insertion or prune
    that leaves more than orphan_cap of them evicts the oldest and bumps
    ``evicted``, the count of this content's evictions, which a split's
    copy inherits.  ``floor`` is the arrival of the last ``prune``, 0
    before any: the state holds no attraction point or orphan older than it.

    At arrival t the stamp t - N expires, the first entry of at most one
    histogram, by three facts ``check_invariants`` checks: a state's stamps
    are distinct arrivals, every histogram ends at its representative's
    arrival, and an attraction point's representative histogram begins at
    its arrival.  So the sweep reads the oldest attraction point's arrival
    and the orphans' first stamps, indexed in ``_first_ts`` (orphans are
    keyed by arrival), in O(1).  A sweep where the stamp begins no
    histogram changes nothing, so the ladder sweeps only the runs where one
    does (``GuessLadder._step``).

    Attraction points live in the ``_PointStore`` and bumps go through the
    ``_BumpMemo`` that every state of one ladder shares (and that holds
    ``lam``).  ``slots`` holds the store slots of the attraction points, in
    arrival order (which is expiry order), and ``reps[i]`` the
    representative of ``slots[i]`` with its histogram: the two are kept in
    step, entry by entry.
    """

    __slots__ = ("lo", "hi", "low_radius", "high_radius", "max_attractions", "orphan_cap",
                 "window_len", "slots", "reps", "orphans", "evicted", "floor", "_first_ts",
                 "_store", "_bumps")

    def __init__(self, lo: int, hi: int, max_attractions: int, window_len: int,
                 store: _PointStore, bumps: _BumpMemo, orphan_cap: Optional[int] = None):
        self.lo, self.hi = lo, hi
        # the radii of guesses lo and hi, kept by the ladder (GuessLadder._span)
        self.low_radius = self.high_radius = math.nan
        self.max_attractions = max_attractions
        self.orphan_cap = orphan_cap
        self.window_len = window_len
        self.slots = array("q")  # attraction points' store slots, oldest first (int64)
        self.reps: list[tuple[Point, Histogram]] = []  # (rep, hist) of slots[i]
        self.orphans: dict[int, tuple[Point, Histogram]] = {}  # orphan arrival -> (pt, hist)
        self.evicted = 0
        self.floor = 0  # the last prune's floor: no attraction point or orphan is older
        self._first_ts: dict[int, int] = {}  # orphan hist first timestamp -> arrival
        self._store = store
        self._bumps = bumps

    @property
    def attractions(self) -> list[Point]:
        """The attraction points, oldest first."""
        points = self._store.points
        return [points[s] for s in self.slots]

    # -- update ------------------------------------------------------------

    def process_point(self, p: Point, hit: int) -> Optional[int]:
        """Absorb p at time p.arrival, once the state is swept at p.arrival:
        the one-run step.  A ladder steps all its runs in one loop instead
        (``GuessLadder._absorb``), which does to each run what this does;
        this serves a state outside a ladder and the reference twins.

        hit is the position in ``slots`` of the oldest attraction point
        within the attraction radius of p, or -1 for none.

        Returns the arrival index of the attraction point that captured p, or
        None when p became a new attraction point.
        """
        if hit < 0:
            self._insert(p)
            return None
        _, hist = self.reps[hit]
        self.reps[hit] = (p, self._bumps.bump(hist, p.arrival))
        return self._store.points[self.slots[hit]].arrival

    def sweep(self, t: int) -> None:
        """Expiry pass at arrival t: the stamp t - N leaves the oldest
        attraction point, whose representative stays an orphan with the
        entries left, or an orphan, which loses the entry or leaves with its
        last one.  Histograms may be shared with other states, so the entry
        is sliced off, never popped."""
        stale = t - self.window_len
        if self.reps and self.reps[0][1][0][0] == stale:
            rep, hist = self._pop_oldest()
            if len(hist) > 1:
                self._add_orphan(rep, hist[1:])
            return
        owner = self._first_ts.pop(stale, None)
        if owner is not None:
            r, hist = self.orphans[owner]
            if len(hist) > 1:
                self.orphans[owner] = (r, hist[1:])
                self._first_ts[hist[1][0]] = owner
            else:
                del self.orphans[owner]

    def _pop_oldest(self) -> tuple[Point, Histogram]:
        """Drop the oldest attraction point, releasing its store slot; its
        representative and histogram."""
        self._store.release(self.slots.pop(0))
        return self.reps.pop(0)

    def _insert(self, p: Point) -> None:
        """Make p an attraction point, evicting the oldest past
        max_attractions.  A full run without an orphan_cap then prunes itself
        at the oldest attraction point it keeps (``prune``); with one, the
        evicted representative is filed and an orphan past the cap evicted."""
        slots = self.slots
        slots.append(self._store.acquire(p))
        self.reps.append((p, self._bumps.new(p.arrival)))
        over = len(slots) > self.max_attractions
        self.evicted += over
        if self.orphan_cap is None:
            if len(slots) >= self.max_attractions:
                self.prune(self._store.points[slots[1 if over else 0]].arrival)
        elif over:
            self._add_orphan(*self._pop_oldest())
            self._evict_orphans()

    def _add_orphan(self, rep: Point, hist: Histogram) -> None:
        ts = hist[0][0]
        if rep.arrival in self.orphans or ts in self._first_ts:
            raise InvariantError(f"orphan {rep.arrival} or its timestamp {ts} is filed twice")
        self.orphans[rep.arrival] = (rep, hist)
        self._first_ts[ts] = rep.arrival

    def split(self, e: int) -> "GuessState":
        """Cut the run below exponent e: this state keeps lo..e-1, and the
        returned one holds e..hi with a copy of the content, which takes
        one more store reference per slot.  Points and histograms are
        values, so the copy shares them."""
        upper = GuessState(e, self.hi, self.max_attractions, self.window_len,
                           self._store, self._bumps, self.orphan_cap)
        self.hi = e - 1
        upper.slots = self.slots[:]
        self._store.share(upper.slots, 1)
        upper.reps, upper.orphans = self.reps[:], dict(self.orphans)
        upper._first_ts, upper.evicted = dict(self._first_ts), self.evicted
        upper.floor = self.floor
        return upper

    def prune(self, floor: int) -> int:
        """Drop what is older than floor: attraction points older than it
        leave, their representatives become orphans unless they are older
        too, and older orphans are dropped, the rest kept in order and the
        new ones after them.  Orphans past the cap are then evicted
        (``_evict_orphans``).  Returns how many attraction points and
        orphans it removed."""
        points, slots = self._store.points, self.slots
        stale = [a for a in self.orphans if a < floor] if self.orphans else ()
        removed = len(stale)
        for a in stale:
            _, hist = self.orphans.pop(a)
            del self._first_ts[hist[0][0]]
        while slots and points[slots[0]].arrival < floor:
            rep, hist = self._pop_oldest()
            if rep.arrival >= floor:
                self._add_orphan(rep, hist)
            removed += 1
        self.floor = floor
        self._evict_orphans()
        return removed

    def _evict_orphans(self) -> None:
        """Evict the oldest orphans past the orphan_cap, each one bumping
        ``evicted``; without a cap, none."""
        cap = self.orphan_cap
        while cap is not None and len(self.orphans) > cap:
            _, hist = self.orphans.pop(min(self.orphans))
            del self._first_ts[hist[0][0]]
            self.evicted += 1

    def seed(self, anchor: Optional[Point], rep: Point, hist: Histogram) -> None:
        """Initialize an empty state with rep carrying a prebuilt histogram:
        as the representative of the anchor, its single attraction point, or
        without an anchor as an orphan whose attraction point has expired."""
        assert not self.slots and not self.orphans
        if anchor is None:
            self._add_orphan(rep, hist)
        else:
            self.slots.append(self._store.acquire(anchor))
            self.reps.append((rep, hist))

    # -- inspection ----------------------------------------------------------

    def union_points(self) -> list[Point]:
        """Attractions, orphans and representatives, deduplicated, in storage order."""
        held = self.attractions + [q for q, _ in self.orphans.values()]
        held += [q for q, _ in self.reps]
        return list({q.arrival: q for q in held}.values())

    def stored_points(self) -> int:
        return len(self.slots) + len(self.reps) + len(self.orphans)

    def histogram_entries(self) -> int:
        return sum(len(h) for _, h in self.reps) + sum(
            len(h) for _, h in self.orphans.values()
        )

    def check_invariants(self, t: int, radius: float) -> None:
        """Raise InvariantError unless the state is consistent at clock t,
        with attraction points pairwise farther apart than radius (the run's
        highest); the ladder that owns the store checks the store.  Stamps
        lie in (t - N, t] and keep the sweep's three facts, which place every
        point held in the window."""
        window_len, lam = self.window_len, self._bumps.lam
        attrs = self.attractions
        n = len(attrs)
        if n > self.max_attractions:
            raise InvariantError(f"{n} attraction points, cap {self.max_attractions}")
        if None in attrs:
            raise InvariantError("an attraction point sits in a free slot")
        if len(self.reps) != n:
            raise InvariantError(f"{len(self.reps)} representatives for {n} attraction points")
        if any(attrs[i - 1].arrival >= attrs[i].arrival for i in range(1, n)):
            raise InvariantError("attraction points not in arrival order")
        if n and attrs[0].arrival < self.floor or any(a < self.floor for a in self.orphans):
            raise InvariantError(f"a point held is older than the run's floor {self.floor}")
        d = _block_distances(attrs, self._store.metric)
        for r0 in range(0, n - 1, _BLOCK):
            rows = slice(r0, min(r0 + _BLOCK, n - 1))
            # pairs (i, j) with i < j: the strict upper triangle from column r0
            close = np.argwhere(np.triu(d(rows, slice(r0, n)) <= radius, 1))
            if close.size:
                i, j = r0 + close[0]
                raise InvariantError(
                    f"attraction points {attrs[i].arrival},{attrs[j].arrival} too close"
                )
        if self.orphan_cap is not None and len(self.orphans) > self.orphan_cap:
            raise InvariantError(f"{len(self.orphans)} orphans, cap {self.orphan_cap}")
        held = [*zip(attrs, self.reps), *((None, o) for o in self.orphans.values())]
        for a, (rep, hist) in held:
            check_histogram(hist, window_len, lam)
            if hist[-1][0] != rep.arrival:
                raise InvariantError(f"the histogram of {rep.arrival} ends at {hist[-1][0]}")
            if a is not None and hist[0][0] != a.arrival:
                raise InvariantError(f"the representative histogram of attraction point "
                                     f"{a.arrival} begins at {hist[0][0]}")
        entries = [e for _, (_, hist) in held for e in hist]
        stamps = [ts for ts, _ in entries]
        if any(not t - window_len < ts <= t for ts in stamps):
            raise InvariantError(f"a stamp is no arrival in ({t - window_len}, {t}]")
        if len(set(stamps)) != len(stamps):
            raise InvariantError("two histograms of one state share a stamp")
        for arrival, (r, hist) in self.orphans.items():
            if arrival != r.arrival:
                raise InvariantError(f"orphan {r.arrival} filed under {arrival}")
            if self._first_ts.get(hist[0][0]) != arrival:
                raise InvariantError(f"orphan {arrival} not in the timestamp index")
        if len(self._first_ts) != len(self.orphans):
            raise InvariantError("timestamp index out of step with the orphans")

    # -- snapshots -----------------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "attractions": [_point_out(p) for p in self.attractions],
            "reps": [
                [a.arrival, _point_out(rep), [list(e) for e in hist]]
                for a, (rep, hist) in zip(self.attractions, self.reps)
            ],
            "orphans": [
                [_point_out(r), [list(e) for e in hist]]
                for r, hist in self.orphans.values()
            ],
        }

    def restore(self, data: dict, point_in=_point_in) -> None:
        """Load a fresh state from a snapshot entry, placing its attraction
        points in its store; point_in(entry, what) reads each point, and
        ``_hist_in`` each histogram.  Each reps entry names its attraction
        point's arrival; InvariantError unless they name them all, in order."""
        attrs = [point_in(p, "an attraction point") for p in data["attractions"]]
        if [a for a, _, _ in data["reps"]] != [a.arrival for a in attrs]:
            raise InvariantError("not one representative per attraction point, in its order")
        self.slots = array("q", [self._store.acquire(a) for a in attrs])
        self.reps = []
        for _, rep, hist in data["reps"]:
            q = point_in(rep, "a representative")
            self.reps.append((q, _hist_in(hist, "representative", q)))
        for r, hist in data["orphans"]:
            q = point_in(r, "an orphan")
            self._add_orphan(q, _hist_in(hist, "orphan", q))


class GuessLadder:
    """All guess states over the geometric radius grid, plus the stream clock.

    mode "fixed" requires d_min and d_max bracketing the stream's pairwise
    distances; mode "oblivious" discovers the needed grid on the fly.  Both
    build their grid by one rule (``_grid_bounds``) and one path
    (``_retarget``), and read from it whether it exists (``bootstrapped``).
    A single instance is single-writer; reads are safe once no update runs.

    cap sets each state's capacity policy.  None keeps k + z + 1 attraction
    points and prunes orphans that can no longer reach a coreset; an integer
    c keeps at most c attraction points and at most c orphans, pruning none
    on its own (the effective-diameter fine ladder, which the validation
    ladder prunes: ``prune_by``).

    The ladder's states keep their attraction points in one ``_PointStore``
    with its recent ring and first point, held only under arrival 1.  Each recent
    point sits at ring position arrival mod (k + z + 1): ``_ring_slots``, an
    index array that gathers the ring's entries from a row, holds its store
    slot (-1 while unfilled), and ``_closest_newer``, a plain list (numpy's
    fixed cost per call exceeds the work on k + z + 1 entries), the smallest
    positive distance from it to a newer recent point (inf if none).

    ``_runs`` cuts the grid, in exponent order, into runs; the store counts
    one reference per slot of each.  Guess e took ``_evictions[e]`` plus its
    run's ``evicted`` evictions, so a step that evicts touches no per-guess
    entry.  ``_step``, for an arrival or a replayed point
    (``_replayed_runs``), and a prune (``prune_by``) split runs by ``_split``;
    an arrival's step, a replay and a restore then merge them.
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
        if cap is not None:
            _require_count("cap", cap)
            if cap < 1:
                raise ValueError(f"cap must be None or >= 1, got {cap}")
        if not 0 < attr_factor < math.inf:
            raise ValueError(f"attr_factor must be finite and positive, got {attr_factor!r}")
        self.params = params
        self.mode = mode
        self.metric = _block_metric(metric)
        self._bumps = _BumpMemo(params.lam)  # shared by every state
        self._store = _PointStore(self.metric)  # likewise
        self.attr_factor = attr_factor
        self.cap = cap
        self.t = 0
        self._runs: list[GuessState] = []
        self._evictions: Counter = Counter()  # exponent -> evictions less its run's
        self._captures = 0  # per guess, on arrivals
        self._inserts = 0
        self._retargets = 0  # grid moves on arrivals
        self._selected: Optional[int] = None  # the last selected_exponent()
        self.d_min = d_min
        self.d_max = d_max
        if mode == "fixed":
            if d_min is None or d_max is None or not 0 < d_min <= d_max < math.inf:
                raise ValueError("fixed mode requires 0 < d_min <= d_max < inf")
            self._retarget([], 0, *self._grid_bounds(d_min / 2.0, d_max))
        else:
            self._grid_bounds(1.0, 2.0)  # every grid spans a factor 2 at least (d_t <= 2 D_t)
            m = params.k + params.z + 1
            self.recent: deque[Point] = deque(maxlen=m)
            self._ring_slots = np.full(m, -1, dtype=np.intp)
            self._closest_newer = [math.inf] * m
            self.d_t = 0.0
            self.D_t = 0.0
            # arrivals are consecutive, so the last N points are the window
            self.warmup: deque[Point] = deque(maxlen=params.window_len)

    @property
    def bootstrapped(self) -> bool:
        """Whether the grid exists, read from the runs in oblivious mode."""
        return self.mode == "fixed" or bool(self._runs)

    # -- grid helpers --------------------------------------------------------

    def guess_value(self, exponent: int) -> float:
        return (1.0 + self.params.beta) ** exponent

    def _radius(self, exponent: int) -> float:
        return self.attr_factor * self.guess_value(exponent)

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

    def _grid_bounds(self, low: float, high: float, error=ValueError) -> tuple[int, int]:
        """Ends floor(low), ceil(high) of a grid of at most MAX_GRID_LEN
        guesses that fit a float, or error: low, high are d_min/2, d_max in
        fixed mode (so that points at the minimum scale can sit apart, as in
        the oblivious grid) and d_t/2, 2 D_t in oblivious mode."""
        try:
            lo, hi = self._exp_floor(low), self._exp_ceil(high)
        except (OverflowError, ValueError):  # a guess past the float range, or log(low) fails
            raise error(f"a grid from {low!r} to {high!r} leaves the float range") from None
        if hi - lo + 1 > MAX_GRID_LEN:
            raise error(f"the {self.mode} grid would hold {hi - lo + 1} guesses, more than "
                        f"{MAX_GRID_LEN}: raise beta or narrow the distance range")
        return lo, hi

    def _new_state(self, lo: int, hi: int) -> GuessState:
        """An empty run of the guesses lo..hi."""
        p = self.params
        m = p.k + p.z + 1 if self.cap is None else self.cap
        st = GuessState(lo, hi, m, p.window_len, self._store, self._bumps, orphan_cap=self.cap)
        return self._span(st, lo, hi)

    def _span(self, st: GuessState, lo: int, hi: int) -> GuessState:
        """st, given the guesses lo..hi and their lowest and highest radius,
        which a run keeps for its probes wherever lo or hi changes."""
        st.lo, st.hi = lo, hi
        st.low_radius, st.high_radius = self._radius(lo), self._radius(hi)
        return st

    @property
    def states(self) -> dict[int, GuessRecord]:
        """Exponent -> the record of its guess, in exponent order.  A guess's
        points are its run's (``_run_of``)."""
        guess_value, f, off = self.guess_value, self.attr_factor, self._evictions
        out = {}
        for st in self._runs:
            for e in range(st.lo, st.hi + 1):
                g = guess_value(e)
                out[e] = GuessRecord(g, f * g, off.get(e, 0) + st.evicted)
        return out

    def exponents(self) -> list[int]:
        runs = self._runs
        return list(range(runs[0].lo, runs[-1].hi + 1)) if runs else []

    def _run_of(self, exponent: int) -> GuessState:
        """The run that holds the guess; KeyError if it is off the grid."""
        for st in self._runs:
            if st.lo <= exponent <= st.hi:
                return st
        raise KeyError(exponent)

    def _evictions_of(self, exponent: int, run: Optional[GuessState] = None) -> int:
        """The guess's evictions: its offset plus those of its run (run)."""
        return self._evictions[exponent] + (run or self._run_of(exponent)).evicted

    # -- updates -------------------------------------------------------------

    def process_point(self, p: Point) -> None:
        """Feed the next stream point.  Arrivals must be consecutive ints
        from 1, every point must have the first point's dimension, and in oblivious
        mode lie within MAX_DISTANCE of it and keep the grid rule
        (``_estimates``); a rejected point leaves the ladder untouched.

        p's distances to the store are read once, in one row, before
        anything changes; the runs take p in one step (``_step``) from that
        row, and adjacent runs whose contents became equal are merged
        (``_merge_runs``).  Until then only p itself takes a slot, in no
        run, so the row serves every run, except on the arrival that
        bootstraps: its replay may file warm-up points that have left the
        recent ring, which the row misses, so the row is read again."""
        t = p.arrival
        if type(t) is not int or t != self.t + 1:  # stamps are int arrivals
            raise ValueError(f"out-of-order arrival {t!r}, expected {self.t + 1}")
        coords = self._store.coords  # rows of the stream's dimension once one is filled
        if len(coords) and p.dim != coords.shape[1]:
            raise ValueError(f"dimension mismatch: {p.dim} vs the stream's {coords.shape[1]}")
        row = self._store.rows([p])[0]
        oblivious = self.mode == "oblivious"
        estimates = self._estimates(p, row) if oblivious else None
        self.t = t
        if oblivious:
            bootstrap = not self.bootstrapped
            self.maintain_oblivious_ladder(p, estimates)
            if not self.bootstrapped:
                self.warmup.append(p)
                return
            if bootstrap:
                row = self._store.rows([p])[0]
        runs = self._runs
        inserts = self._step(runs, p, row)
        self._inserts += inserts
        self._captures += runs[-1].hi - runs[0].lo + 1 - inserts
        self._merge_runs(runs)

    def _estimates(self, p: Point, row: np.ndarray) -> tuple:
        """The ring's closest-newer distances, d_t, D_t and the grid's ends
        (None without a grid) after p, from row, p's distances to the store,
        with nothing changed; ValueError when p lies beyond MAX_DISTANCE or
        the grid breaks the rule of ``_grid_bounds``.  While d_t and D_t
        stay as they are, so does the grid: its ends are read from the runs."""
        if not self.t:
            return self._closest_newer, 0.0, 0.0, None
        far = float(row[self._store.slot_of[1]])
        if not far <= MAX_DISTANCE:
            raise ValueError(f"arrival {p.arrival} lies {far!r} from the first point, "
                             f"beyond MAX_DISTANCE = {MAX_DISTANCE!r}")
        closest, d = self._ring_closest(row, p.arrival)
        d_t = d if d > 0 else self.d_t
        D_t = max(self.D_t, far)
        runs = self._runs
        if runs and d_t == self.d_t and D_t == self.D_t:
            return closest, d_t, D_t, (runs[0].lo, runs[-1].hi)
        grid = self.bootstrapped or (p.arrival >= self.params.k + self.params.z + 2 and d_t > 0)
        return closest, d_t, D_t, self._grid_bounds(d_t / 2.0, 2.0 * D_t) if grid else None

    def _step(self, runs: list[GuessState], p: Point, row: np.ndarray) -> int:
        """Hand p to runs, adjacent runs changed in place, the one way a run
        changes: sweep at p.arrival each run where the stamp p.arrival - N
        begins a histogram (the oldest attraction point's or, by its index
        ``_first_ts``, an orphan's; a sweep elsewhere does nothing), probe
        each from row, p's distances to the store (``_hits``), split those
        whose guesses disagree (``_split_runs``) and step each once
        (``_absorb``).  Returns how many guesses took p as a new attraction
        point."""
        t = p.arrival
        stale = t - self.params.window_len
        for st in runs:
            if stale in st._first_ts or st.reps and st.reps[0][1][0][0] == stale:
                st.sweep(t)
        hits = self._hits(row, runs)
        if None in hits:
            hits = self._split_runs(runs, row, hits)
        return self._absorb(runs, hits, p)

    def _absorb(self, runs: list[GuessState], hits: list[int], p: Point) -> int:
        """Step each swept run once at its hit, in one loop: a run with no
        hit inserts p (``GuessState._insert``), and one with a hit makes p
        the representative of that attraction point, with its histogram
        bumped and trimmed at p.arrival through the ladder's memo, looked up
        here as ``_BumpMemo.bump`` does.  What ``GuessState.process_point``
        does to one run; returns how many guesses inserted p."""
        t = p.arrival
        memo = self._bumps
        if memo.t != t:
            memo.t, memo.results = t, {}
        trims, lam = memo.results, memo.lam
        inserted = 0
        for st, hit in zip(runs, hits):
            if hit < 0:
                st._insert(p)
                inserted += st.hi - st.lo + 1
                continue
            reps = st.reps
            hist = reps[hit][1]
            got = trims.get(id(hist))
            if got is None:
                got = trims[id(hist)] = (hist, bump_and_trim(hist, t, lam))
            reps[hit] = (p, got[1])
        return inserted

    def _hits(self, row: np.ndarray, runs: list[GuessState], exps=None) -> list[Optional[int]]:
        """Each swept run's hit, the position in its slots of the oldest
        attraction point within the radius of the probed point (-1 for
        none), or None when the run's lowest and highest guesses disagree,
        from row, the point's distances to the store; given exps, runs[i] is
        probed at exps[i].

        A run whose highest radius is below every distance in the row (free
        slots included, which only makes this rarer) holds no hit.  This
        skips on arrivals in both modes, whose row is read before they take
        a slot, and never on a replayed point, which holds a slot where its
        row reads 0.0.  The other runs are probed at their highest radius
        (a run keeps its lowest and highest; a split's probe computes each
        exponent's), in one of two ways that compare the same doubles by the
        same ``<=``: while they hold at most _PROBE_SLOTS slots in all, a
        plain-Python scan of each run's slots over the row read once as
        Python floats stops at its first hit (numpy's fixed cost per call is
        larger there); else their slots are gathered from the row into one
        flat array and the first hit of each run's segment is found by
        searchsorted over the segment starts.  A hit position never grows
        with the radius, so the lowest guess agrees exactly when that hit
        lies within its radius too; then every guess between them agrees."""
        closest = float(row.min(initial=math.inf))
        rad = self._radius
        highs = [st.high_radius for st in runs] if exps is None else [rad(e) for e in exps]
        hits: list[Optional[int]] = [-1] * len(runs)
        near = [j for j, r in enumerate(highs) if r >= closest]
        if not near:
            return hits
        segs = [runs[j].slots for j in near]
        lens = [len(sl) for sl in segs]
        if sum(lens) <= _PROBE_SLOTS:
            d = row.tolist()
            for j, sl in zip(near, segs):
                high = highs[j]
                for i, s in enumerate(sl):
                    x = d[s]
                    if x <= high:
                        hits[j] = i if exps or x <= runs[j].low_radius else None
                        break
            return hits
        bounds = list(accumulate(lens, initial=0))  # segment i is [bounds[i], bounds[i+1])
        flat = np.frombuffer(b"".join(segs), dtype=np.int64)
        near_row = row[flat]
        radii = np.array([highs[j] for j in near])
        within = (near_row <= radii.repeat(lens)).nonzero()[0]
        if within.size:
            # the first hit at or after each segment start; "clip" reads the
            # last hit, which lies before the start, where there is none
            first = within.take(within.searchsorted(bounds[:-1]), mode="clip")
            lowest = radii if exps else np.array([runs[j].low_radius for j in near])
            agree = (near_row[first] <= lowest).tolist()
            for j, f, s, e, a in zip(near, first.tolist(), bounds, bounds[1:], agree):
                if s <= f < e:
                    hits[j] = f - s if a else None
        return hits

    def _split_runs(self, runs: list[GuessState], row: np.ndarray, hits: list) -> list[int]:
        """Cut each run whose guesses disagree (hit None) in place into runs
        of equal hits, probed from row (``_split``), and return those hits."""
        cut: list[GuessState] = []
        out: list[int] = []
        for st, hit in zip(runs, hits):
            if hit is None:
                lo = st.lo
                own = self._hits(row, [st] * (st.hi - lo + 1), range(lo, st.hi + 1))
                parts = self._split(st, own)
                cut += parts
                out += [own[part.lo - lo] for part in parts]
            else:
                cut.append(st)
                out.append(hit)
        runs[:] = cut
        return out

    def _split(self, st: GuessState, keys: list) -> list[GuessState]:
        """st cut into parts where keys, one per guess from st.lo up,
        differ, each given its radii (``_span``).  st keeps the lowest part;
        every other part holds a copy of the content (``GuessState.split``)."""
        parts = [st]
        for i in range(1, len(keys)):
            if keys[i] != keys[i - 1]:
                parts.append(parts[-1].split(st.lo + i))
        for part in parts:
            self._span(part, part.lo, part.hi)
        return parts

    def _merge_runs(self, runs: list[GuessState]) -> None:
        """Join each pair of adjacent runs whose contents are equal, in place:
        the lower content stays and widens to the higher run's guesses, and
        the higher content's store references are dropped.  Runs with a gap
        between them (only a corrupt snapshot holds one) stay apart."""
        for i in range(len(runs) - 1, 0, -1):
            low, high = runs[i - 1], runs[i]
            if low.hi + 1 == high.lo and low.slots == high.slots and _same_content(low, high):
                self._store.share(high.slots, -1)
                if high.evicted != low.evicted:
                    for e in range(high.lo, high.hi + 1):
                        self._evictions[e] += high.evicted - low.evicted
                low.hi, low.high_radius = high.hi, high.high_radius
                low.floor = max(low.floor, high.floor)
                del runs[i]

    def prune_by(self, guide: "GuessLadder") -> int:
        """Prune the runs by guide's full runs, those holding more than its
        k + z attraction points, which ``qualifies`` refuses: each prunes
        the guesses it shares with a run at its oldest attraction point's
        arrival, its floor (``GuessState.prune``).  Called on a ladder with
        a cap, the fine one, before it takes an arrival; ``streamkc.effdiam``
        says why it keeps every guess a query can select as it reads.

        One pass over the runs that share guesses with a full guide run: a
        run whose floor does not move is skipped, one within a full run is
        pruned in place, cheaper than a cut, and any other is cut where the
        floors differ (``_cut``).  The arrival's step merges runs whose
        contents became equal.  Returns how many attraction points and
        orphans left, counted once per guess."""
        if self.cap is None:
            raise ValueError("only a ladder with a cap keeps what a prune removes")
        points, full = guide._store.points, guide.params.k + guide.params.z
        runs, removed, i = self._runs, 0, 0
        for j, g in enumerate(guide._runs):
            if len(g.slots) <= full:
                continue
            a = points[g.slots[0]].arrival
            while i < len(runs) and runs[i].hi < g.lo:
                i += 1
            while i < len(runs) and runs[i].lo <= g.hi:
                st = runs[i]
                if st.floor < a and g.lo <= st.lo and st.hi <= g.hi:
                    removed += st.prune(a) * (st.hi - st.lo + 1)
                elif st.floor < a:  # cut for every guide run it meets from g on
                    parts, got = self._cut(st, guide, j)
                    runs[i : i + 1] = parts
                    i += len(parts) - 1
                    removed += got
                if runs[i].hi > g.hi:  # it meets the next guide run too
                    break
                i += 1
        return removed

    def _cut(self, st: GuessState, guide: "GuessLadder", j: int) -> tuple[list[GuessState], int]:
        """st cut where its guesses' floors differ (``_split``), each part
        pruned at its floor, and how many attraction points and orphans
        left, once per guess.  A guess's floor is that of the full guide run
        holding it, from guide run j on (none before passes st's floor), or
        0, keeping the part as it stands, where none passes st's floor."""
        points, full, lo = guide._store.points, guide.params.k + guide.params.z, st.lo
        floors = [0] * (st.hi - lo + 1)
        for g in guide._runs[j:]:
            if g.lo > st.hi:
                break
            a = points[g.slots[0]].arrival if len(g.slots) > full else 0
            if a > st.floor:
                first, last = max(g.lo, lo) - lo, min(g.hi, st.hi) - lo
                floors[first : last + 1] = [a] * (last - first + 1)
        parts, removed = self._split(st, floors), 0
        for part in parts:
            a = floors[part.lo - lo]
            if a:
                removed += part.prune(a) * (part.hi - part.lo + 1)
        return parts, removed

    def maintain_oblivious_ladder(self, p: Point, estimates: tuple) -> None:
        """Take on the distance estimates and grid bounds ``_estimates``
        checked and, when the bounds differ from the grid, retarget it,
        replaying the warm-up (then cleared) or the recent points, before p
        is handed to the runs.  Called by process_point once per arrival;
        never call it on its own."""
        self._closest_newer, self.d_t, self.D_t, bounds = estimates
        if p.arrival == 1:  # the first point holds a slot for good
            self._store.acquire(p)
        runs = self._runs
        moved = bounds is not None and (not runs or bounds != (runs[0].lo, runs[-1].hi))
        if moved:
            replay = list(self.recent) if runs else self.warmup
        self.recent.append(p)
        pos = p.arrival % len(self._ring_slots)
        leaving = int(self._ring_slots[pos])
        self._ring_slots[pos] = self._store.acquire(p)
        if moved:
            self._retarget(replay, p.arrival, *bounds)
            self.warmup.clear()
            self._retargets += 1
        if leaving >= 0:  # kept in the store for the replays of the recent points
            self._store.release(leaving)

    def _ring_closest(self, row: np.ndarray, t: int) -> tuple[list[float], float]:
        """The ring's closest-newer distances once the point arriving at t
        (store row row) replaces the oldest, counting each pair at its older
        point, and their smallest (0.0 if none is finite).  A distance that
        is not positive, as at a position not filled yet, counts as none."""
        slots = self._ring_slots
        d = row.take(slots)
        if t < len(slots):
            d[slots < 0] = 0.0  # positions not filled yet
        closest = [x if 0.0 < x < c else c for x, c in zip(d.tolist(), self._closest_newer)]
        closest[t % len(slots)] = math.inf
        low = min(closest)
        return closest, (low if low < math.inf else 0.0)

    def _retarget(self, points: Sequence[Point], t: int, lo: int, hi: int) -> None:
        """Move the grid to lo..hi before arrival t, building guesses added
        below it by one replay of points (``_replayed_runs``, which takes no
        step when no point lies within the highest added radius of another,
        as is common there, where the added radii are the grid's smallest)
        and guesses added above it by one seeded run if attr_factor >= 2,
        else by a replay too.  No runs read as the empty grid (hi + 1)..hi:
        the fixed grid replays no points, the bootstrap the warm-up."""
        runs = self._runs
        old_lo, old_hi = (runs[0].lo, runs[-1].hi) if runs else (hi + 1, hi)
        # D_t never falls, so neither does hi: guesses leave from the bottom,
        # and a run left empty drops its store references
        for e in range(old_lo, min(lo, old_hi + 1)):
            self._evictions.pop(e, None)
        while runs and runs[0].hi < lo:
            for s in runs.pop(0).slots:
                self._store.release(s)
        if runs and runs[0].lo < lo:
            self._span(runs[0], lo, runs[0].hi)
        # the warm-up, or the recent points, mutually farther than twice each
        # guess added below: replaying them is what a fresh run would store
        if lo < old_lo:
            runs[:0] = self._replayed_runs(lo, old_lo - 1, points)
        top = max(old_hi + 1, lo)  # the lowest guess above the previous grid
        if top > hi:
            return
        if self.attr_factor < 2.0:
            runs += self._replayed_runs(top, hi, points)
            return
        # Above the grid, all prior points lie within twice each new guess of
        # each other, so a from-scratch run holds one attraction point whose
        # representative, the latest point, stands for the whole window (a
        # synthetic_full_window histogram): the first point while the window
        # is not full, else the oldest window point, which the sweep at t
        # expires before p is searched, leaving the representative orphaned.
        # Exact only when the attraction radius is at least twice the guess;
        # narrower ladders (such as the fine one) replay the recent points.
        st = self._new_state(top, hi)
        N = self.params.window_len
        hist = synthetic_full_window(t, min(N, t - 1), self.params.lam)
        store = self._store
        st.seed(store.points[store.slot_of[1]] if t - 1 < N else None, points[-1], hist)
        runs.append(st)

    def _replayed_runs(self, lo: int, hi: int, points: Sequence[Point]) -> list[GuessState]:
        """The runs of the guesses lo..hi fed the given points in order from
        one empty run: exactly what a from-scratch run of each guess holds.
        The points' rows are read in blocks of _BLOCK, with the block's own
        points holding a store slot meanwhile; each point takes one step
        (``_step``), and the runs are merged after it, as on an arrival.
        The points must span fewer than N arrivals, as the warm-up and the
        recent points do, so that no sweep of the replay expires one.

        No step is taken when the points fit one block and the run's cap
        and lie pairwise farther apart than the highest radius, read from
        the block with the same doubles the steps would compare: then no
        point attracts another, and each is its own attraction point and
        representative, holding the slot it was pinned to."""
        st = self._new_state(lo, hi)
        runs = [st]
        points = list(points)
        store = self._store
        direct = 0 < len(points) <= min(_BLOCK, st.max_attractions)
        for r0 in range(0, len(points), _BLOCK):
            block = points[r0 : r0 + _BLOCK]
            pinned = [store.acquire(q) for q in block]
            rows = store.rows(block)
            if direct:
                gaps = rows[:, pinned]
                np.fill_diagonal(gaps, math.inf)
                if gaps.min() > st.high_radius:
                    st.slots.extend(pinned)
                    st.reps = [(q, st._bumps.new(q.arrival)) for q in block]
                    return runs
            for q, row in zip(block, rows):
                self._step(runs, q, row)
                self._merge_runs(runs)
            for s in pinned:
                store.release(s)
        return runs

    # -- extraction ----------------------------------------------------------

    def qualifies(self, exponent: int) -> bool:
        """A guess qualifies when its attraction set is small enough and a
        greedy separation pass over all its stored points selects at most
        k + z points at twice the guess radius.  The pass reads one distance
        row per point it takes, at most k + z + 1 rows."""
        st = self._run_of(exponent)
        cap = self.params.k + self.params.z
        if len(st.slots) > cap:
            return False
        pts = st.union_points()
        d = _block_distances(pts, self.metric)
        free = np.ones(len(pts), dtype=bool)  # not within twice the guess of a pick
        separation = 2.0 * self.guess_value(exponent)
        taken = 0
        for i in range(len(pts)):
            if free[i]:
                taken += 1
                if taken > cap:
                    return False
                free &= d([i], _ALL)[0] > separation
        return True

    def selected_exponent(self) -> int:
        """Smallest qualifying guess, found by scanning the grid upward."""
        exps = self.exponents()
        if not exps:
            raise RuntimeError("ladder holds no guesses yet")
        for e in exps:
            if self.qualifies(e):
                self._selected = e
                return e
        raise RuntimeError(
            "no qualifying guess: the ladder does not cover the needed radius "
            "range (check d_min/d_max in fixed mode)"
        )

    def extract_coreset(self) -> WeightedCoreset:
        """Weighted coreset for the current window: representatives and
        orphans of the smallest qualifying guess."""
        if not self.bootstrapped:
            return self.warmup_coreset()
        return self.coreset_at(self.selected_exponent())

    def warmup_coreset(self) -> WeightedCoreset:
        """Before the grid exists every window point is kept verbatim: the
        active buffer, one entry per location (its first point, weighted by
        its copies), is an exact (radius zero) coreset."""
        if self.bootstrapped:
            raise RuntimeError("the grid exists and holds the window: extract_coreset() reads it")
        copies = Counter(q.coords for q in self.warmup)  # in order of first arrival
        if not copies:
            raise RuntimeError("no points processed yet")
        first = {q.coords: q for q in reversed(self.warmup)}
        return WeightedCoreset(tuple(first[c] for c in copies),
                               _read_only(copies.values(), len(copies)))

    def coreset_at(self, exponent: int) -> WeightedCoreset:
        """The guess's representatives and orphans, with their estimated counts."""
        st = self._run_of(exponent)
        held = [*st.reps, *st.orphans.values()]
        return WeightedCoreset(tuple(p for p, _ in held),
                               _read_only((h[0][1] for _, h in held), len(held)))

    # -- accounting ----------------------------------------------------------

    def stored_points(self) -> int:
        n = sum(st.stored_points() * (st.hi - st.lo + 1) for st in self._runs)
        if self.mode == "oblivious":
            n += min(self.t, 1) + len(self.recent) + len(self.warmup)
        return n

    def histogram_entries(self) -> int:
        return sum(st.histogram_entries() * (st.hi - st.lo + 1) for st in self._runs)

    def stats(self) -> dict[str, Optional[int]]:
        """What the ladder holds, counted on call: guesses, stored points
        (as the memory gauge counts them), distinct points in the store,
        histogram entries, the evictions of every current guess, and the
        runs.  Then what arrivals did since the ladder was built or
        restored: captures and inserts, counted once per guess (replays
        that build a new guess are not counted), and retargets, the
        arrivals that moved the grid, the bootstrap included.  Last, the exponent the
        last ``selected_exponent()`` returned, None before any; it is not
        part of a snapshot."""
        return {
            "grid_len": len(self.exponents()),
            "stored_points": self.stored_points(),
            "distinct_points": self._store.live(),
            "histogram_entries": self.histogram_entries(),
            "evictions": sum(self._evictions_of(e, st) for st in self._runs
                             for e in range(st.lo, st.hi + 1)),
            "runs": len(self._runs),
            "captures": self._captures,
            "inserts": self._inserts,
            "retargets": self._retargets,
            "selected": self._selected,
        }

    def memory_floats(self, dim: int) -> int:
        """Structure-size memory gauge: stored points times dimension, plus
        two floats per histogram entry, plus one scalar per guess and two
        mode scalars (d_min/d_max or the running distance estimates)."""
        scalars = len(self.exponents()) + 2
        return self.stored_points() * dim + 2 * self.histogram_entries() + scalars

    def check_invariants(self) -> None:
        """Every run's invariants, at its highest radius, plus the
        ladder-wide ones: the clock is an arrival count; the runs cut
        exactly the exponent range the mode implies, and evictions are kept
        for its guesses alone, each counting a non-negative integer of them
        (``_evictions_of``); in oblivious mode the recent points are the last
        arrivals, each in its ring slot, the warm-up holds the window's
        points, ending with the recent ones, until the bootstrap and none
        after it, and d_t and D_t agree with the points they are derived
        from; the store holds what the runs, the ring and, after the first
        arrival, the first point (the row of arrival 1) reference; and one
        point stands for the clock's arrival (``newest``).  The first that
        fails raises InvariantError.

        d_t and D_t are compared with a relative tolerance of 1e-9, since a
        snapshot written before they came from the metric's block form holds
        the scalar form's value, which may differ in the last bits."""
        t = self.t
        if isinstance(t, bool) or not isinstance(t, int) or t < 0:
            raise InvariantError(f"the clock {t!r} is not a count of arrivals")
        holders: Counter = Counter()
        if self.mode == "oblivious":
            slots = self._ring_slots.tolist()
            m, points = len(slots), self._store.points
            if [q.arrival for q in self.recent] != list(range(max(1, t - m + 1), t + 1)):
                raise InvariantError("recent points are not the last arrivals")
            N, ring = self.params.window_len, {q.arrival: q for q in self.recent}
            if [q.arrival for q in self.warmup] != (
                [] if self.bootstrapped else list(range(max(1, t - N + 1), t + 1))
            ) or any(ring.get(q.arrival, q) != q for q in self.warmup):
                raise InvariantError("the warm-up is not the window ending with the recent "
                                     "points before the bootstrap, or not empty after it")
            held = [slots[q.arrival % m] for q in self.recent]
            if sum(s >= 0 for s in slots) != len(held) or any(
                not 0 <= s < len(points) or points[s] != q for s, q in zip(held, self.recent)
            ):
                raise InvariantError("recent ring slots do not hold the recent points")
            holders.update(held)
            d, _ = _extremes(_block_distances(self.recent, self.metric), len(self.recent))
            # d_t keeps its value while the recent points coincide (d == 0),
            # but only after the bootstrap: a positive d_t would have built it
            if not (d == 0 and self.bootstrapped or math.isclose(self.d_t, d, rel_tol=1e-9)):
                raise InvariantError(
                    f"d_t {self.d_t!r} is not the recent points' smallest distance {d!r}"
                )
            if t:  # the first point's row, read from the coordinates a freed slot keeps
                first = self._store.slot_of.get(1, -1)
                holders[first] += 1
                coords = self._store.coords
                far = float(self.metric.pairwise(coords[first : first + 1], coords[held])
                            .max(initial=0.0))
                if far > self.D_t and not math.isclose(far, self.D_t, rel_tol=1e-9):
                    raise InvariantError(f"D_t {self.D_t!r} is below {far!r}")
            if not 0 <= self.D_t <= MAX_DISTANCE:
                raise InvariantError(f"D_t {self.D_t!r} lies outside [0, MAX_DISTANCE]")
        # no oblivious grid exists before the bootstrap, which needs positive d_t and D_t
        fixed = self.mode == "fixed"
        low, high = (self.d_min / 2.0, self.d_max) if fixed else (self.d_t / 2.0, 2.0 * self.D_t)
        lo, hi = self._grid_bounds(low, high, InvariantError) if self.bootstrapped else (0, -1)
        runs = self._runs
        grid = [e for st in runs for e in range(st.lo, st.hi + 1)]
        if any(st.lo > st.hi for st in runs) or grid != list(range(lo, hi + 1)):
            raise InvariantError(f"runs {[(st.lo, st.hi) for st in runs]} do not cut [{lo}, {hi}]")
        if not self._evictions.keys() <= set(grid):
            raise InvariantError("evictions are kept for a guess off the grid")
        for st in runs:
            holders.update(st.slots)
            for e in range(st.lo, st.hi + 1):  # an offset may be negative, a total not
                off = self._evictions[e]
                if isinstance(off, bool) or not isinstance(off, int) or off + st.evicted < 0:
                    raise InvariantError(f"guess {e} counts {off!r} + {st.evicted} evictions")
        self._store.check(holders)
        for st in runs:
            if (st.low_radius, st.high_radius) != (self._radius(st.lo), self._radius(st.hi)):
                raise InvariantError(f"run {st.lo}..{st.hi} keeps the radii {st.low_radius!r} "
                                     f"and {st.high_radius!r}, not those of its guesses")
            st.check_invariants(t, st.high_radius)
        self.newest()

    def newest(self) -> Optional[Point]:
        """The point that arrived at t, which every guess holds as a
        representative (before the bootstrap, the warm-up's last point), or
        None at t = 0; InvariantError unless exactly one such point is held."""
        if not self.t:
            return None
        if self.bootstrapped:
            held = [[r for r, _ in st.reps] for st in self._runs]
        else:
            held = [[self.warmup[-1]] if self.warmup else []]
        found = {next((q for q in h if q.arrival == self.t), None) for h in held}
        if len(found) != 1 or None in found:
            raise InvariantError(f"not one point of arrival {self.t} stands for every guess")
        return found.pop()

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
            "states": [{"exponent": e, **st.to_jsonable(), "evictions": self._evictions_of(e, st)}
                       for st in self._runs for e in range(st.lo, st.hi + 1)],
        }
        if self.mode == "oblivious":
            store = self._store
            snap["oblivious"] = {
                "first_point": _point_out(store.points[store.slot_of[1]]) if self.t else None,
                "recent": [_point_out(q) for q in self.recent],
                "d_t": self.d_t,
                "D_t": self.D_t,
                "bootstrapped": self.bootstrapped,
                "warmup": [_point_out(q) for q in self.warmup],
            }
        return snap

    @classmethod
    def from_snapshot(cls, snap: dict, metric: Metric = dist) -> "GuessLadder":
        """Inverse of to_snapshot.  The restored ladder is verified with
        check_invariants; a snapshot that is malformed, holds settings the
        constructor refuses or restores a broken state raises ValueError
        ("corrupt ladder snapshot: ...").
        """
        _block_metric(metric)
        if not isinstance(snap, dict) or snap.get("format") != SNAPSHOT_FORMAT:
            raise ValueError("not a ladder snapshot")
        if snap.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {snap.get('version')!r}")
        try:
            ladder = cls._restore(snap, metric)
            ladder.check_invariants()
        except (AssertionError, KeyError, TypeError, IndexError, OverflowError, ValueError) as exc:
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
            cap=cfg["cap"],
        )
        ladder.t = snap["t"]
        ladder._runs = []
        dim: list[int] = []  # the stream's dimension, that of the first point read

        def point_in(data: list, what: str) -> Point:
            q = _point_in(data, what, dim[0] if dim else None)
            dim[:] = [q.dim]
            return q

        for entry in snap["states"]:
            st = ladder._new_state(entry["exponent"], entry["exponent"])
            st.restore(entry, point_in)
            ladder._runs.append(st)
            ladder._evictions[st.lo] = entry["evictions"]
        if ladder.mode == "oblivious":
            ob = snap["oblivious"]
            for key, most in (("recent", len(ladder._ring_slots)), ("warmup", params.window_len)):
                if len(ob[key]) > most:  # a deque would drop the extra points unseen
                    raise InvariantError(f"the {key} list holds {len(ob[key])} points, "
                                         f"more than {most}")
            ladder.recent.extend(point_in(q, "a recent point") for q in ob["recent"])
            ladder.d_t = ob["d_t"]
            ladder.D_t = ob["D_t"]
            if ob["bootstrapped"] is not ladder.bootstrapped:
                raise InvariantError("the bootstrapped field disagrees with the states")
            ladder.warmup.extend(point_in(q, "a warmup point") for q in ob["warmup"])
            first = ob["first_point"]  # named here: the row reads below would fail unnamed
            if first is not None and (type(first) is not list or not first):
                raise InvariantError(f"the first point {first!r} is no [int arrival, "
                                     "coordinates] pair")
            got, want = None if first is None else first[0], 1 if ladder.t else None
            if got != want or type(got) is not type(want):  # True == 1.0 == 1
                raise InvariantError(f"the first point's arrival is {got!r} at clock {ladder.t!r}: "
                                     "1 after any arrival, None before")
            if first is not None:
                ladder._store.acquire(point_in(first, "the first point"))
            for q in ladder.recent:  # the snapshot's d_t and D_t stand
                row = ladder._store.rows([q])[0]
                ladder._closest_newer, _ = ladder._ring_closest(row, q.arrival)
                ladder._ring_slots[q.arrival % len(ladder._ring_slots)] = ladder._store.acquire(q)
        ladder._merge_runs(ladder._runs)
        return ladder


def _same_content(a: GuessState, b: GuessState) -> bool:
    """Whether two states hold equal contents, the cheapest checks first.
    Representatives sit beside their slots, so equal slots and equal reps
    mean equal snapshots; orphans are compared in order."""
    return (
        a.slots == b.slots
        and len(a.orphans) == len(b.orphans)
        and a.reps == b.reps
        and a.orphans == b.orphans
        and list(a.orphans) == list(b.orphans)
    )


def _read_only(counts: Iterable[int], n: int) -> np.ndarray:
    """The n counts as a read-only int64 array, a coreset's weights."""
    weights = np.fromiter(counts, np.int64, n)
    weights.flags.writeable = False
    return weights


def _block_metric(metric: Metric) -> Metric:
    """The metric, once it is known to carry a callable block form."""
    if not callable(getattr(metric, "pairwise", None)):
        raise TypeError(f"metric {metric!r} has no pairwise(xs, ys) block form")
    return metric
