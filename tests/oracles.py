"""Independent reference implementations the test suite checks against.

Everything here recomputes ground truth by brute force (full histories, no
trimming, no eviction of bookkeeping), deliberately sharing as little code
as possible with the structures under test.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
from array import array
from collections import Counter

import numpy as np
from scipy.spatial.distance import cdist, pdist

import streamkc
from streamkc import coreset
from streamkc.core import Point, StreamParams, WindowView, _distances, _extremes, dist
from streamkc.coreset import GuessLadder, WeightedCoreset, _BumpMemo
from streamkc.histogram import Histogram
from streamkc.solver import _radius_grid, outliers_cluster


class ExactHistogram:
    """Untrimmed shadow of a histogram: every assignment kept verbatim."""

    def __init__(self, t: int):
        self.entries: list[tuple[int, int]] = [(t, 1)]

    def bump(self, t: int) -> None:
        self.entries = [(ts, c + 1) for ts, c in self.entries]
        self.entries.append((t, 1))

    def expire(self, t: int, window_len: int) -> None:
        stale = t - window_len
        self.entries = [(ts, c) for ts, c in self.entries if ts != stale]

    def weight(self) -> int:
        return self.entries[0][1]


def manhattan(p: Point, q: Point) -> float:
    """L1 distance: the second metric the suite runs the engine in."""
    return sum(abs(a - b) for a, b in zip(p.coords, q.coords))


manhattan.pairwise = lambda xs, ys: cdist(xs, ys, "cityblock")


def looped(metric):
    """A twin of metric whose block form calls the scalar metric once per
    pair, for checking a metric's own block form against it."""

    def scalar(p: Point, q: Point) -> float:
        return metric(p, q)

    def pairwise(xs, ys):
        ps = [Point(1, tuple(float(c) for c in x)) for x in xs]
        qs = [Point(1, tuple(float(c) for c in y)) for y in ys]
        rows = [[metric(p, q) for q in qs] for p in ps]
        return np.array(rows, dtype=float).reshape(len(ps), len(qs))

    scalar.pairwise = pairwise
    return scalar


def expire_entry(hist: Histogram, t: int, window_len: int) -> Histogram:
    """Drop the entry stamped exactly ``t - window_len`` (it refers to the
    point expiring now).  An empty result means the proxy itself is stale and
    the owner should discard it.
    """
    stale = t - window_len
    return [(ts, c) for ts, c in hist if ts != stale]


def max_entries(window_len: int, lam: float) -> int:
    """Hard bound on histogram length implied by the histogram invariants 1,
    3 and 5 (``streamkc.histogram``).  A ``lam`` so small that ``1 + lam``
    rounds to 1 trims like ``lam == 0``."""
    if 1.0 + lam <= 1.0:
        return window_len
    return 2 * math.ceil(math.log(window_len, 1.0 + lam)) + 2


def reference_bump_and_trim(hist: Histogram, t: int, lam: float) -> Histogram:
    """The reference for ``streamkc.histogram.bump_and_trim``: bump every
    count into a new list, append ``(t, 1)``, then keep the first and last
    entries and each interior one whose last kept count is above ``(1 + lam)``
    times the count after it."""
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


def reference_outliers_cluster(points, weights, k, rho, eps, metric=dist, candidates=None):
    """Scalar greedy of Charikar, Khuller, Mount & Narasimhan: the reference
    for ``streamkc.solver.outliers_cluster``.

    Runs at most k rounds.  Each round scans all points, or the indices
    candidates(round) when given, scoring each afresh by the total weight of
    uncovered points within (1 + 2*eps)*rho, picks the first best in scan
    order, and covers (removes) all uncovered points within (3 + 4*eps)*rho
    of it.  Returns the chosen centers and the uncovered points with their
    weights.
    """
    n = len(points)
    cover_r = (1.0 + 2.0 * eps) * rho
    removal_r = (3.0 + 4.0 * eps) * rho
    uncovered = list(range(n))
    centers = []
    for r in range(k):
        if not uncovered:
            break
        best_i = -1
        best_w = -1
        for i in range(n) if candidates is None else [int(c) for c in candidates(r)]:
            w = 0
            pi = points[i]
            for j in uncovered:
                if metric(pi, points[j]) <= cover_r:
                    w += weights[j]
            if w > best_w:
                best_i, best_w = i, w
        x = points[best_i]
        centers.append(x)
        uncovered = [j for j in uncovered if metric(x, points[j]) > removal_r]
    return centers, [(points[j], weights[j]) for j in uncovered]


def reference_radius_excluding(centers, window: WindowView, z: int, metric=dist) -> float:
    """Scalar center scoring: the reference for ``streamkc.core.radius_excluding``.

    Each window point's smallest scalar distance to a center, sorted; the
    largest after dropping the z largest."""
    dists = sorted(min(metric(p, c) for c in centers) for p in window.points)
    return dists[len(dists) - 1 - z]


def runs_by_guess(ladder: GuessLadder) -> dict:
    """Exponent -> the run (``GuessState``) that holds its guess, in
    exponent order: where a guess's points are read."""
    return {e: ladder._run_of(e) for e in ladder.exponents()}


def reference_qualifies(ladder: GuessLadder, exponent: int) -> bool:
    """Scalar qualification test: the reference for
    ``streamkc.coreset.GuessLadder.qualifies``.

    A guess qualifies when it holds at most k + z attraction points and a
    greedy pass over its stored points in storage order, taking each point
    farther than twice the guess from every point taken so far, takes at
    most k + z points.
    """
    st = ladder._run_of(exponent)
    cap = ladder.params.k + ladder.params.z
    if len(st.attractions) > cap:
        return False
    threshold = 2.0 * ladder.guess_value(exponent)
    chosen: list[Point] = []
    for q in st.union_points():
        if all(ladder.metric(q, c) > threshold for c in chosen):
            chosen.append(q)
            if len(chosen) > cap:
                return False
    return True


def reference_gonzalez(window: WindowView, k: int, metric=dist) -> list[Point]:
    """Scalar farthest-first traversal seeded at the first window point, the
    first farthest point on ties: the reference for ``streamkc.solver.gonzalez``."""
    pts = window.points
    centers = [pts[0]]
    mind = [metric(p, pts[0]) for p in pts]
    while len(centers) < min(k, len(pts)):
        i = max(range(len(pts)), key=lambda j: mind[j])
        centers.append(pts[i])
        for j in range(len(pts)):
            d = metric(pts[j], pts[i])
            if d < mind[j]:
                mind[j] = d
    return centers


def reference_scan(grid, pts, wts, k, z, eps, metric=dist, candidates=None):
    """Unpruned radius scan: the reference for the scans of
    ``streamkc.solver``, which skip radii below their separation bound.

    Runs the greedy at every grid radius, upward, and returns (rho, centers,
    uncovered weight) of the first run that leaves at most z uncovered
    weight.  The grid itself is built as the solver builds it, so both scans
    visit the same floats.
    """
    for rho in grid:
        centers, uncovered = outliers_cluster(pts, wts, k, rho, eps, metric, candidates)
        uw = sum(w for _, w in uncovered)
        if uw <= z:
            return rho, centers, uw
    raise RuntimeError("radius grid exhausted without covering enough weight")


def reference_solution_scan(ladder: GuessLadder, eps=None):
    """(grid, scan result) of ``compute_solution`` on ladder, unpruned."""
    params, metric = ladder.params, ladder.metric
    eps = 4.0 * (1.0 + params.beta) if eps is None else eps
    coreset = ladder.extract_coreset()
    pts, wts = list(coreset.points), coreset.weights.tolist()
    if ladder.mode == "fixed":
        lo, cap = ladder.d_min / 2.0, ladder.d_max * (1.0 + params.beta)
    elif ladder.bootstrapped:
        lo, cap = ladder.d_t / 2.0, 4.0 * ladder.D_t
    else:
        lo, hi = _extremes(_distances(pts, metric), len(pts))
        cap = 4.0 * hi
    grid = _radius_grid(lo, cap, 1.0 + params.beta)
    return grid, reference_scan(grid, pts, wts, params.k, params.z, eps, metric)


def reference_window_scan(window: WindowView, k, z, step=0.5, metric=dist,
                          sample_size=None, seed=0):
    """(grid, scan result) of ``charikar`` on window, unpruned; of
    ``samp_charikar`` with its Bernoulli sampler when sample_size is given."""
    pts = list(window.points)
    n = len(pts)
    lo, hi = _extremes(_distances(pts, metric), n)
    grid = _radius_grid(lo, hi, 1.0 + step)
    candidates = None
    if sample_size is not None and sample_size < n:
        rng = np.random.default_rng(seed)
        prob = sample_size / n

        def candidates(_round):
            picked = np.flatnonzero(rng.random(n) < prob)
            return picked if picked.size else np.arange(n)

    return grid, reference_scan(grid, pts, [1] * n, k, z, 0.0, metric, candidates)


def reference_coreset_effective_diameter(
    coreset: WeightedCoreset, alpha: float, window_size: int
) -> tuple[float, bool]:
    """Two-branch, stable-sort pair-mass search over every pair at once:
    the reference for ``streamkc.effdiam.coreset_effective_diameter`` read
    from ``PairMassTable().update(coreset)``, which sorts only the pairs of
    the one distance bucket that holds the level.

    Smallest coreset pair distance whose cumulative ordered-pair weight mass
    reaches alpha * window_size^2, or the largest coreset distance with the
    saturation flag set when the threshold is unreachable.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    n = len(coreset)
    if n == 0:
        raise ValueError("empty coreset")
    w = coreset.weights.astype(float)
    need = alpha * window_size * window_size
    mass0 = float((w * w).sum())  # self-pairs, distance zero
    if mass0 >= need:
        return 0.0, False
    if n == 1:
        return 0.0, True
    coords = np.array([p.coords for p in coreset.points])
    d = pdist(coords)
    # pair masses in condensed (row-major i<j) order
    masses = np.empty_like(d)
    pos = 0
    for i in range(n - 1):
        m = n - 1 - i
        np.multiply(w[i + 1 :], 2.0 * w[i], out=masses[pos : pos + m])
        pos += m
    order = np.argsort(d, kind="stable")
    cum = mass0 + np.cumsum(masses[order])
    hit = int(np.searchsorted(cum, need, side="left"))
    if hit >= len(cum):
        return float(d.max()), True
    return float(d[order[hit]]), False


class LadderShadow:
    """Feeds a fixed-mode ladder through its own ``process_point`` while
    recording, for every guess, which attraction point captured each
    arrival: after the step, the one whose representative is the arrival.
    From that full history it can answer exact proxies and exact per-proxy
    weights.  ``inserts`` and ``captures`` count the last arrival's, summed
    over guesses."""

    def __init__(self, ladder: GuessLadder):
        assert ladder.mode == "fixed", "the shadow only replays fixed grids"
        assert ladder.t == 0, "attach the shadow before streaming"
        self.ladder = ladder
        self.attractor_of: dict[int, dict[int, int]] = {
            e: {} for e in self.ladder.states
        }
        self.last_rep: dict[int, dict[int, Point]] = {e: {} for e in self.ladder.states}
        self.inserts = self.captures = 0

    @classmethod
    def standard(cls, params: StreamParams, d_min: float, d_max: float):
        return cls(GuessLadder(params, "fixed", d_min, d_max))

    def feed(self, p: Point) -> None:
        self.ladder.process_point(p)
        found: dict[int, int] = {}  # id of a content's reps -> p's attractor
        self.inserts = 0
        for e, st in runs_by_guess(self.ladder).items():
            attr = found.get(id(st.reps))
            if attr is None:
                attr = next(a.arrival for a, (rep, _) in zip(st.attractions, st.reps)
                            if rep is p)
                found[id(st.reps)] = attr
            self.inserts += attr == p.arrival
            self.attractor_of[e][p.arrival] = attr
            self.last_rep[e][attr] = p
        self.captures = len(self.ladder.states) - self.inserts

    def proxy(self, exponent: int, q: Point) -> Point:
        return self.last_rep[exponent][self.attractor_of[exponent][q.arrival]]

    def exact_weights(self, exponent: int, active: list[Point]) -> Counter:
        """Exact proxy multiplicities over the given active points."""
        w: Counter = Counter()
        for q in active:
            w[self.proxy(exponent, q).arrival] += 1
        return w


def one_run_steps(runs: list, hits: list, p: Point) -> int:
    """``GuessLadder._absorb`` as one ``GuessState.process_point`` call per
    run, each bumping through the run's own memo: how many guesses inserted
    p, those whose run's step returned None."""
    return sum(st.hi - st.lo + 1 for st, hit in zip(runs, hits)
               if st.process_point(p, hit) is None)


def unshared(ladder: GuessLadder) -> GuessLadder:
    """The ladder, changed so that every guess is its own run and memo,
    never merged: each run it holds or later creates covers one guess and
    bumps through a memo of its own.  This is the twin that steps every
    guess on its own and shares no histogram between guesses, against which
    the ladder-wide memo and the runs are compared.  Each run takes its
    step through ``GuessState.process_point`` (``one_run_steps``), not the
    ladder's loop, which bumps through the ladder's memo.  A replay (the
    bootstrap or a retarget's) is one replay per guess, each through the
    ladder's own step.  The runs it holds, and the run a retarget seeds
    above the grid, are rebuilt one per guess, each from its guess's
    snapshot entry, not through the ladder's own split."""
    make, replay, retarget = ladder._new_state, ladder._replayed_runs, ladder._retarget

    def new_state(lo: int, hi: int):
        st = make(lo, hi)
        st._bumps = _BumpMemo(st._bumps.lam)
        return st

    def apart(runs: list) -> list:
        """runs, each not yet a run of one guess with its own memo rebuilt as
        one per guess; a rebuilt run drops its store references."""
        out = []
        for st in runs:
            if st.lo == st.hi and st._bumps is not ladder._bumps:
                out.append(st)
                continue
            entry = st.to_jsonable()
            for e in range(st.lo, st.hi + 1):
                one = new_state(e, e)
                one.restore(entry)  # its attraction points take store references
                ladder._evictions[e] += st.evicted
                out.append(one)
            for s in st.slots:
                ladder._store.release(s)
        return out

    def replayed_runs(lo: int, hi: int, points) -> list:
        return [run for e in range(lo, hi + 1) for run in replay(e, e, points)]

    def retargeted(points, t: int, lo: int, hi: int) -> None:
        retarget(points, t, lo, hi)
        ladder._runs = apart(ladder._runs)

    ladder._runs = apart(ladder._runs)
    ladder._new_state = new_state
    ladder._replayed_runs = replayed_runs
    ladder._retarget = retargeted
    ladder._merge_runs = lambda runs: None
    ladder._absorb = one_run_steps
    return ladder


def stepped_runs(ladder: GuessLadder, lo: int, hi: int, points) -> list:
    """The runs of the guesses lo..hi fed points in order from one empty
    run, each point through the ladder's own ``_step`` and ``_merge_runs``
    and nothing else: the reference for ``GuessLadder._replayed_runs``,
    which builds the run without a step when no point attracts another.
    The points' rows are read in blocks of _BLOCK, as the ladder reads
    them, with the block's points holding a store slot meanwhile."""
    runs = [ladder._new_state(lo, hi)]
    points = list(points)
    store = ladder._store
    for r0 in range(0, len(points), coreset._BLOCK):
        block = points[r0 : r0 + coreset._BLOCK]
        pinned = [store.acquire(q) for q in block]
        for q, row in zip(block, store.rows(block)):
            ladder._step(runs, q, row)
            ladder._merge_runs(runs)
        for s in pinned:
            store.release(s)
    return runs


def store_fields(ladder: GuessLadder) -> dict:
    """Every field of the ladder's point store (``_PointStore.__slots__``),
    as values that compare equal exactly when the fields are unchanged: an
    array by shape, dtype and bytes, unfilled rows included; any other field
    by a shallow copy (its points are immutable)."""
    store = ladder._store
    out = {}
    for name in type(store).__slots__:
        v = getattr(store, name)
        if isinstance(v, np.ndarray):
            v = (v.shape, v.dtype.str, v.tobytes())
        out[name] = copy.copy(v)
    return out


def filled_store(ladder: GuessLadder) -> dict:
    """The ladder's store as two ladders built alike can compare it: the
    fields of ``store_fields`` with the coordinates of filled rows only."""
    fields = store_fields(ladder)
    n = len(ladder._store.points)
    fields["coords"] = ladder._store.coords[:n].tobytes()
    return fields


def retargets_every_arrival(ladder: GuessLadder) -> GuessLadder:
    """The ladder, changed so that once its grid exists every arrival takes
    its grid's ends from ``_grid_bounds`` and calls ``_retarget`` with them
    and the recent points, whether or not d_t, D_t or the grid moved: the
    twin against which the ladder's grid upkeep, which skips both while the
    grid stands, is compared."""
    estimates = ladder._estimates

    def every_time(p: Point, row) -> tuple:
        closest, d_t, D_t, bounds = estimates(p, row)
        if ladder.bootstrapped:
            bounds = ladder._grid_bounds(d_t / 2.0, 2.0 * D_t)
        return closest, d_t, D_t, bounds

    def maintain(p: Point, got: tuple) -> None:
        ladder._closest_newer, ladder.d_t, ladder.D_t, bounds = got
        if p.arrival == 1:
            ladder._store.acquire(p)
        replay = list(ladder.recent) if ladder.bootstrapped else ladder.warmup
        ladder.recent.append(p)
        ring = ladder._ring_slots
        pos = p.arrival % len(ring)
        leaving = int(ring[pos])
        ring[pos] = ladder._store.acquire(p)
        if bounds is not None:
            ladder._retarget(replay, p.arrival, *bounds)
            ladder.warmup.clear()
        if leaving >= 0:
            ladder._store.release(leaving)

    ladder._estimates = every_time
    ladder.maintain_oblivious_ladder = maintain
    return ladder


def float_bits(values) -> bytes:
    """The bytes of values as C doubles: equal exactly when every value has
    the same bits, so 0.0 and -0.0 differ and a NaN equals its own bits."""
    return array("d", values).tobytes()


def reference_insert(st, p: Point) -> None:
    """``GuessState._insert`` as a plain reading of its rule: append p as an
    attraction point; past max_attractions evict the oldest, filing its
    representative as an orphan; then, without an orphan_cap, once the run
    holds max_attractions - 1 or more, prune every orphan older than the
    oldest attraction point, the evicted one included, or, with one, evict
    the oldest orphan past the cap."""
    st.slots.append(st._store.acquire(p))
    st.reps.append((p, st._bumps.new(p.arrival)))
    if len(st.slots) > st.max_attractions:
        st._add_orphan(*st._pop_oldest())
        st.evicted += 1
    if st.orphan_cap is None:
        if len(st.slots) > st.max_attractions - 1:
            oldest = st._store.points[st.slots[0]].arrival
            for arrival in [a for a in st.orphans if a < oldest]:
                _, hist = st.orphans.pop(arrival)
                st._first_ts.pop(hist[0][0], None)
    elif len(st.orphans) > st.orphan_cap:
        victim = min(st.orphans)
        _, hist = st.orphans.pop(victim)
        st._first_ts.pop(hist[0][0], None)
        st.evicted += 1


def reference_ring_closest(ladder: GuessLadder, row, t: int) -> tuple[list, float]:
    """``GuessLadder._ring_closest`` in numpy over the whole ring: the
    gathered row entries, inf where a distance is not positive or a
    position is unfilled, the element-wise minimum with the closest-newer
    distances, inf at the position the point arriving at t takes, and
    their smallest (0.0 if none is finite)."""
    slots = np.array(ladder._ring_slots, dtype=np.intp)
    d = row[slots]
    d[d <= 0.0] = math.inf
    d[slots < 0] = math.inf
    closest = np.minimum(np.array(ladder._closest_newer, dtype=float), d)
    closest[t % len(slots)] = math.inf
    low = float(closest.min())
    return closest.tolist(), (low if low < math.inf else 0.0)


def reference_arrivals(ladder: GuessLadder) -> GuessLadder:
    """The ladder, changed so that each of its arrivals inserts by
    ``reference_insert``, reads its ring by ``reference_ring_closest`` and
    sweeps every run at every step, replays included: the twin against
    which the ladder's arrival path is compared.  ``GuessState._insert`` is
    swapped on the class for the length of each ``process_point`` call (a
    state has no instance dictionary), so the twin's arrivals must not
    interleave with another ladder's."""
    process = ladder.process_point

    def process_point(p: Point) -> None:
        insert = coreset.GuessState._insert
        coreset.GuessState._insert = reference_insert
        try:
            process(p)
        finally:
            coreset.GuessState._insert = insert

    def step(runs: list, p: Point, row) -> int:
        for st in runs:
            st.sweep(p.arrival)
        hits = ladder._hits(row, runs)
        if None in hits:
            hits = ladder._split_runs(runs, row, hits)
        return one_run_steps(runs, hits, p)

    ladder.process_point = process_point
    ladder._ring_closest = lambda row, t: reference_ring_closest(ladder, row, t)
    ladder._step = step
    return ladder


def _optimized(code: str, arg: str, stdin: str) -> str:
    """The stdout of code run with arg in a ``python -O`` child, which
    strips assert statements, reading stdin; the library comes from this
    checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(streamkc.__file__)))
    child = subprocess.run(
        [sys.executable, "-O", "-c", code, arg],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return child.stdout


_REFUSALS_CHILD = """\
import importlib, json, sys
module, name = sys.argv[1].rsplit(".", 1)
load = getattr(importlib.import_module(module), name).from_snapshot
assert False, "asserts are on"
out = []
for snap in json.load(sys.stdin):
    try:
        load(snap)
        out.append("loaded")
    except ValueError as exc:
        out.append(str(exc))
print(json.dumps(out))
"""


def refusals(cls, snaps: list, optimized: bool = False) -> list[str]:
    """What ``cls.from_snapshot`` says of each JSON snapshot: "loaded", or
    the text of the ValueError it raises.  With optimized, the snapshots are
    loaded in a ``python -O`` child, which strips assert statements (the
    child fails unless they are stripped)."""
    if not optimized:
        out = []
        for snap in snaps:
            try:
                cls.from_snapshot(copy.deepcopy(snap))
                out.append("loaded")
            except ValueError as exc:
                out.append(str(exc))
        return out
    return json.loads(_optimized(_REFUSALS_CHILD, f"{cls.__module__}.{cls.__name__}",
                                 json.dumps(snaps)))


_MUTATION_CHILD = """\
import json, sys
from streamkc.core import InvariantError
from streamkc.coreset import GuessLadder
assert False, "asserts are on"
lad = GuessLadder.from_snapshot(json.load(sys.stdin))
exec(sys.argv[1])
try:
    lad.check_invariants()
    print("passed")
except InvariantError as exc:
    print(exc)
"""


def optimized_check(snap: dict, mutation: str) -> str:
    """What ``check_invariants`` says, in a ``python -O`` child, of the
    ladder restored from snap once the statement mutation (which names it
    ``lad``) has changed it: "passed", or the text of the InvariantError."""
    return _optimized(_MUTATION_CHILD, mutation, json.dumps(snap)).strip()


def reference_first_within(st, p: Point, radius: float) -> int:
    """Per-guess attraction search: the reference for the ladder's one-row
    search over its point store.  Reads one block-form row from p to the
    state's own attraction points, rebuilt from the points themselves, and
    returns the position of the oldest one within radius, or -1 for none."""
    attrs = st.attractions
    if not attrs:
        return -1
    ys = np.array([a.coords for a in attrs], dtype=float)
    near = st._store.metric.pairwise(np.array([p.coords], dtype=float), ys)[0]
    hits = np.flatnonzero(near <= radius)
    return int(hits[0]) if hits.size else -1


def per_guess_search(ladder: GuessLadder) -> GuessLadder:
    """The ladder, changed so that every attraction search it makes, per
    arrival and in replays, is ``reference_first_within`` at one exponent's
    radius at a time: the twin against which the shared row is compared.
    Per step that is each run's lowest and highest exponent, as the ladder
    probes them, and each exponent of a run whose two probes differ."""
    step = ladder._step
    stepping = []  # the point the current step hands the runs

    def stepped(runs, p: Point, row):
        stepping[:] = [p]
        return step(runs, p, row)

    def hits(row, runs, exps=None) -> list:
        p, out = stepping[0], []
        for i, st in enumerate(runs):
            lo, hi = (st.lo, st.hi) if exps is None else (exps[i], exps[i])
            low, high = (reference_first_within(st, p, ladder._radius(e)) for e in (lo, hi))
            out.append(low if low == high else None)
        return out

    ladder._step = stepped
    ladder._hits = hits
    return ladder


def adversarial_stream(rng: np.random.Generator, n: int, dim: int) -> list[Point]:
    """Random stream in segments that stress the update path: each segment
    sits at a scale that jumps up or down by up to 10^3 from the last
    (re-anchoring an oblivious grid), and holds runs of one repeated point
    and bursts of outliers 10^3 scales away."""
    coords = []
    scale = 1.0
    while len(coords) < n:
        scale *= 10.0 ** rng.uniform(-3.0, 3.0)
        center = rng.normal(size=dim) * scale * 10.0
        for _ in range(int(rng.integers(5, 40))):
            kind = rng.random()
            if kind < 0.15:  # a run of duplicates
                q = center + rng.normal(size=dim) * scale
                coords += [q] * int(rng.integers(2, 12))
            elif kind < 0.25:  # an outlier burst
                far = rng.normal(size=(int(rng.integers(1, 6)), dim)) * scale * 1e3
                coords += list(center + far)
            else:
                coords.append(center + rng.normal(size=dim) * scale)
    return [Point(i + 1, tuple(float(c) for c in row)) for i, row in enumerate(coords[:n])]


def make_stream(rng: np.random.Generator, n: int, dim: int, style: str = "blobs"):
    """Random test stream: either a few gaussian blobs with sporadic far
    points, or plain uniform noise."""
    if style == "uniform":
        coords = rng.random((n, dim)) * 10.0
    else:
        centers = rng.random((rng.integers(2, 5), dim)) * 20.0
        idx = rng.integers(0, len(centers), size=n)
        coords = centers[idx] + rng.normal(scale=1.0, size=(n, dim))
        far = rng.random(n) < 0.05
        coords[far] += rng.normal(scale=50.0, size=(far.sum(), dim))
    return [Point(i + 1, tuple(float(c) for c in row)) for i, row in enumerate(coords)]


def stream_extremes(points: list[Point], metric=dist) -> tuple[float, float]:
    """Exact min/max positive pairwise distance of a full (small) stream."""
    best, worst = np.inf, 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = metric(points[i], points[j])
            if d > 0:
                best = min(best, d)
            worst = max(worst, d)
    return float(best), float(worst)


def active_window(points: list[Point], t: int, window_len: int) -> WindowView:
    pts = tuple(p for p in points[:t] if p.arrival > t - window_len)
    return WindowView(points=pts, t=t)


def coverage_radius(window: WindowView, coreset_points, metric=dist) -> float:
    """max over window points of the distance to the nearest coreset point."""
    return max(
        min(metric(p, c) for c in coreset_points) for p in window.points
    )


def weighted(entries) -> WeightedCoreset:
    """The coreset of (point, weight) entries, in their order."""
    entries = list(entries)
    return WeightedCoreset(tuple(p for p, _ in entries),
                           np.array([w for _, w in entries], dtype=np.int64))


def entries_of(coreset: WeightedCoreset) -> tuple[tuple[Point, int], ...]:
    """The coreset's (point, weight) entries, in order, with int weights."""
    return tuple(zip(coreset.points, coreset.weights.tolist()))


def unpruned(state):
    """The effective-diameter state, changed so that each arrival feeds its
    validation ladder and then its fine ladder and nothing else, skipping
    the prune of the fine ladder by the validation ladder
    (``GuessLadder.prune_by``): the twin a pruned state is compared with."""

    def process_point(p: Point) -> None:
        state.validation.process_point(p)
        state.fine.process_point(p)

    state.process_point = process_point
    return state


def prune_stream(rng: np.random.Generator, n: int, dim: int) -> list[Point]:
    """A small test stream for the prune: gaussian blobs with sporadic far
    points (``make_stream``), a tenth of the points replaced by copies of
    an earlier point's coordinates."""
    pts = make_stream(rng, n, dim)
    coords = [p.coords for p in pts]
    for i in range(1, n):
        if rng.random() < 0.1:
            coords[i] = coords[int(rng.integers(i))]
    return [Point(i + 1, c) for i, c in enumerate(coords)]
