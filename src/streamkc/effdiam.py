"""Effective diameter of the sliding window: exact oracle, streaming
estimator, and the bucketed sequential baseline.

The effective diameter at level alpha is the smallest distance d such that
at least alpha * n^2 of the n^2 ordered point pairs (self-pairs included)
are within d.  The streaming estimator runs two guess ladders side by side:
a coarse *validation* ladder (one center, no outliers) that picks the right
guess, and a *fine* ladder with a much smaller attraction radius whose
representatives and orphans form the weighted coreset the estimate is
computed on.  The estimator keeps one table of that coreset's pairs
between queries (``PairMassTable``): their distances, a 16-bit distance
bucket per pair and the pair mass per bucket.  A query updates it by the
coreset entries that entered, left or changed weight since the last one,
refilling it from empty when over a third of them changed or the coreset
no longer fits the table's row capacity (at most twice the coreset), and
reads each level from it by sorting only the pairs of the one bucket that
holds the level (``coreset_effective_diameter``).  Distances are Euclidean
throughout, like the exact oracle.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from typing import Optional, Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .core import Point, StreamParams, WindowView, _require_count
from .coreset import GuessLadder, WeightedCoreset

# largest window whose squared size, the total ordered-pair mass, is below
# 2^53, so that every cumulative pair mass is an exact integer
MAX_WINDOW_LEN = math.isqrt(2**53 - 1)

SNAPSHOT_FORMAT = "streamkc-effdiam"
SNAPSHOT_VERSION = 1


def exact_effective_diameter(window: WindowView, alpha: float) -> float:
    """Rank statistic over all ordered pair distances (self-pairs count)."""
    n = len(window.points)
    if n < 1:
        raise ValueError("window must be non-empty")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    rank = math.ceil(alpha * n * n)
    if rank <= n:
        return 0.0
    d = pdist(np.array([p.coords for p in window.points]))
    j = math.ceil((rank - n) / 2)  # each unordered pair appears twice
    d.partition(j - 1)  # in place: no second pair-sized array
    return float(d[j - 1])


# A pair's bucket id: its distance's bit pattern >> _SHIFT (256 ids a binade)
# minus a base set by a refill, _HEADROOM ids above the largest distance it
# can see; ids 1 and _IDS-1 also catch keys below and above, 0 marks no pair.
# Cumulative masses are kept per _GROUP ids, and pairs change in blocks of
# about _CHUNK.
_SHIFT = 44
_IDS = 1 << 16
_HEADROOM = 8 << 8
_GROUP = 1 << 8
_CHUNK = 1 << 16


class PairMassTable:
    """A weighted coreset's pairs with their ordered-pair masses summed per
    distance bucket, kept so that ``update`` touches only changed entries.

    Each (point, weight) entry holds a row keyed by the Point object, which
    the table keeps alive, so no other object takes the key.  The pair of
    rows i < j sits at position starts[i] + j of ``dists`` (float64) and
    ``ids`` (16-bit bucket ids, 0 while a row is free), the upper triangle
    row by row: 10 bytes per pair of row capacity.  A refill gives its
    entries the top rows, so its pairs are the tail of both arrays, in
    ``pdist`` order.  ``masses[b]`` sums 2 * w_i * w_j over bucket b; ``cum[g]`` is
    ``self_mass`` (sum of w^2) plus the masses of buckets below (g+1)*_GROUP."""

    def __init__(self):
        self._clear(0, 0)
        self.added = self.removed = self.refills = 0  # rows, at the last update

    def _clear(self, cap: int, dim: int) -> None:
        m = cap * (cap - 1) // 2
        self.dists = self.ids = None  # the old arrays go first
        self.dists, self.ids = np.empty(m), np.zeros(m, dtype=np.uint16)
        self.weights, self._live = np.zeros(cap), np.zeros(cap, dtype=bool)
        self._coords = np.empty((cap, dim))
        self._rows: dict[int, int] = {}  # id(point) -> row
        self._points: list[Optional[Point]] = [None] * cap  # row -> point
        self._firsts = np.arange(cap) * np.arange(2 * cap - 1, cap - 1, -1) // 2  # pair (i, i+1)
        self._starts = self._firsts - np.arange(1, cap + 1)
        self.masses, self.cum = np.zeros(_IDS), np.zeros(_IDS // _GROUP)
        self.self_mass = 0.0

    def update(self, coreset: WeightedCoreset) -> "PairMassTable":
        """Make the table hold coreset's pairs, and return it: rows that left
        or changed weight first subtract their pairs, then entering entries
        take free rows and add theirs.  Over a third of the rows changing, a
        coreset above the row capacity or below half of it, or a distance
        above the ids refills the table from empty.  Masses are integers
        below 2^53 (``MAX_WINDOW_LEN``), so every sum is exact."""
        if not coreset.points:
            raise ValueError("empty coreset")
        points, weights = zip(*coreset.points)
        keys = list(map(id, points))
        if len(set(keys)) < len(keys):  # a Point object repeats: rows for fresh copies
            points = [Point(p.arrival, p.coords) for p in points]
            keys = list(map(id, points))
        w = np.array(weights, dtype=float)
        rows = np.fromiter(map(self._rows.get, keys, repeat(-1)), np.intp, len(keys))
        same = rows >= 0
        same[same] = self.weights[rows[same]] == w[same]
        stay = np.zeros(len(self._points), dtype=bool)
        stay[rows[same]] = True
        leave, enter = np.flatnonzero(self._live & ~stay), np.flatnonzero(~same)
        held, n = len(self._rows), len(keys)
        few = 3 * (leave.size + enter.size) <= n <= len(self._points) <= 2 * n + 8
        if few:
            self._remove(leave)
        new = [points[i] for i in enter]
        if few and self._add(new, w[enter], np.array([p.coords for p in new], dtype=float)):
            self.added, self.removed = enter.size, leave.size
        else:
            # heaviest first, so that past the first rows the pairs among the
            # rest have one mass, which _blocks gives as one number
            order = np.argsort(-w, kind="stable")
            points, w = [points[i] for i in order], w[order]
            x = np.array([p.coords for p in points], dtype=float)
            self._clear(n + n // 16 + 8, x.shape[1])
            # no pair is farther apart than twice the farthest from entry 0
            far = cdist(x[:1], x).max()
            self._base = (int(far.view(np.int64)) >> _SHIFT) - (_IDS - 1 - _HEADROOM)
            self._add(points, w, x)  # fits: no distance exceeds 2 * far
            self.added, self.removed, self.refills = n, held, self.refills + 1
        np.cumsum(self.masses.reshape(-1, _GROUP).sum(axis=1), out=self.cum)
        self.cum += self.self_mass
        return self

    def _add(self, points: Sequence[Point], w: np.ndarray, x: np.ndarray) -> bool:
        """Give the points (weights w, coordinates x) the highest free rows,
        the top rows in a refill, in order, and add their pairs: with the
        other live rows by ``cdist`` blocks, among themselves by one
        ``pdist``, which writes them into the table's tail when the points
        took the top rows.  False, for a refill, when a distance lies above
        the ids."""
        k, cap = len(points), len(self._points)
        if not k:
            return True
        rows = np.flatnonzero(~self._live)[-k:]
        for r, p in zip(rows.tolist(), points):
            self._rows[id(p)] = r
            self._points[r] = p
        self._coords[rows], self.weights[rows], self._live[rows] = x, w, True
        self.self_mass += float(w @ w)
        tail = int(self._firsts[rows[0]]) if rows[0] == cap - k else None
        among = pdist(x, out=None if tail is None else self.dists[tail:])
        keys = np.empty(min(max(_CHUNK, cap), k * cap), dtype=np.int64)
        for pos, mass, src in self._blocks(rows, tail):
            if isinstance(src, slice):
                d = among[src]
            else:
                d = cdist(self._coords[src[0]], self._coords[src[1]], out=src[2]).ravel()
            if tail is None or not isinstance(src, slice):
                self.dists[pos] = d
            b = np.right_shift(d.view(np.int64), _SHIFT, out=keys[: d.size])
            b -= self._base
            if b.max() >= _IDS:
                return False
            if b.min() < 1:
                np.maximum(b, 1, out=b)
            self.ids[pos] = b
            np.add.at(self.masses, b, mass)
        return True

    def _remove(self, rows: np.ndarray) -> None:
        """Free the rows, subtracting their pairs' masses."""
        for pos, mass, _ in self._blocks(rows, None):
            np.subtract.at(self.masses, self.ids[pos], mass)
            self.ids[pos] = 0
        self.self_mass -= float(self.weights[rows] @ self.weights[rows])
        self.weights[rows], self._live[rows] = 0.0, False
        for r in rows.tolist():
            del self._rows[id(self._points[r])]
            self._points[r] = None

    def _blocks(self, rows: np.ndarray, tail: Optional[int]):
        """The pairs of the sorted rows, each once, in blocks of about
        _CHUNK: (positions, masses 2 * w_i * w_j or their one value, source).
        Pairs with the other live rows come first, with source (rows,
        columns, scratch for their ``cdist`` block); then pairs among the
        rows, with source their span of ``pdist`` over the rows, positioned
        from tail if given (the rows are then the top ones)."""
        w, starts, k = self.weights, self._starts, rows.size
        others = self._live.copy()
        others[rows] = False
        others = np.flatnonzero(others)
        buf = np.empty((2, min(max(_CHUNK, w.size), k * w.size)))  # holds any block
        step = max(1, _CHUNK // max(1, others.size))
        for i in range(0, k if others.size else 0, step):
            r = rows[i : i + step, None]
            out, mass = buf[:, : r.size * others.size].reshape(2, r.size, others.size)
            np.multiply(2.0 * w[r], w[others], out=mass)
            pos = np.where(r < others, starts[r] + others, starts[others] + r)
            yield pos.ravel(), mass.ravel(), (r.ravel(), others, out)
        first = np.arange(k + 1) * np.arange(2 * k - 1, k - 2, -1) // 2  # pdist's (a, a+1)
        a0 = 0
        while a0 < k - 1:
            a1 = min(k - 1, a0 + max(1, _CHUNK // (k - 1 - a0)))
            ra, rb, wr = rows[a0:a1, None], rows[a0 + 1 :], w[rows[a0:]]
            span, one = slice(int(first[a0]), int(first[a1])), wr.min() == wr.max()
            keep = None if one and tail is not None else ra < rb
            if tail is None:
                pos = (starts[ra] + rb)[keep]
            else:
                pos = slice(tail + span.start, tail + span.stop)
            if one:
                yield pos, 2.0 * wr[0] ** 2, span
            else:
                mass = buf[1, : keep.size].reshape(keep.shape)
                yield pos, np.multiply(2.0 * w[ra], w[rb], out=mass)[keep], span
            a0 = a1

    def pairs_in(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Distances and masses of bucket b's pairs, found by one scan of the ids."""
        pos = np.flatnonzero(self.ids == b)
        i = self._firsts.searchsorted(pos, side="right") - 1
        return self.dists[pos], 2.0 * self.weights[i] * self.weights[pos - self._starts[i]]


def coreset_effective_diameter(
    table: PairMassTable, alpha: float, window_size: int
) -> tuple[float, bool]:
    """Smallest pair distance in a ``PairMassTable`` at which the cumulative
    ordered-pair weight mass, self-pairs included, reaches
    alpha * window_size^2.  The self-pairs answer 0.0 when they alone reach
    it, as they do for a one-point coreset of full weight.

    Because stored weights underestimate true counts, the threshold can be
    unreachable; in that case the largest coreset distance (0.0 for a single
    point) is returned with the saturation flag set.

    The read is an exact selection over one bucketing, the table's ids.
    The cumulative bucket masses give the first id that reaches the
    threshold and the mass below it; one scan of the ids gathers that
    bucket's pairs, with masses from the weights (``pairs_in``), and a sort
    of just those pairs and a binary search over their cumulative masses
    pick the pair.  This is the value of a full sort.  An id never orders
    two pairs against their distances (it is a fixed shift of the
    distance's bit pattern, clamped to the id range), so the mass below the
    bucket is that of every nearer pair, and equal distances give one value
    in any order.  Masses stay exact: weights are integer counts and
    (sum of w)^2 <= window_size^2 < 2^53 (``MAX_WINDOW_LEN``), so every mass
    and partial sum is an exact integer in any summation order, and so is
    every bucket mass between queries, as removing rows only takes away
    terms it holds.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    need = alpha * window_size * window_size
    if table.self_mass >= need:
        return 0.0, False
    if table.cum[-1] < need:
        top = int(table.ids.max(initial=0))  # the farthest pairs' bucket
        return (float(table.pairs_in(top)[0].max()) if top else 0.0), True
    # the first id reaching need, found per group of _GROUP ids, then in it
    g = int(np.searchsorted(table.cum, need, side="left"))
    below = float(table.cum[g - 1]) if g else table.self_mass
    inner = np.cumsum(table.masses[g * _GROUP : (g + 1) * _GROUP]) + below
    b = int(np.searchsorted(inner, need, side="left"))
    below = float(inner[b - 1]) if b else below
    dists, masses = table.pairs_in(g * _GROUP + b)
    order = np.argsort(dists)
    cum = np.cumsum(masses[order])
    cum += below
    return float(dists[order[np.searchsorted(cum, need, side="left")]]), False


def eff_sequential(window: WindowView, alpha: float, bucket_step: float = 0.01) -> float:
    """Exact pair enumeration into geometric buckets; returns the lower edge
    of the first bucket whose cumulative pair count reaches the rank."""
    n = len(window.points)
    if n < 2:
        raise ValueError("window must hold at least two points")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if not 0 < bucket_step < math.inf:
        raise ValueError("bucket_step must be finite and positive")
    rank = math.ceil(alpha * n * n)
    d = pdist(np.array([p.coords for p in window.points]))
    pos = d[d > 0]
    zeros = n + 2 * (d.size - pos.size)
    if zeros >= rank or pos.size == 0:
        return 0.0
    dmin = float(pos.min())
    idx = np.floor(np.log(pos / dmin) / math.log1p(bucket_step)).astype(int)
    np.clip(idx, 0, None, out=idx)
    counts = np.bincount(idx) * 2
    cum = zeros + np.cumsum(counts)
    i = int(np.searchsorted(cum, rank, side="left"))
    return dmin * (1.0 + bucket_step) ** i


@dataclass(frozen=True, slots=True)
class EffDiameterConfig:
    """Estimator knobs.

    alpha: pair-fraction level of the effective diameter.
    eps: target relative accuracy of the estimates (must be < 1 to query).
    eta: known lower bound on effective diameter / full diameter.
    lam / beta: fine-ladder histogram accuracy and grid granularity, as elsewhere.
    fine_cap: hard cap on fine-layer attraction points per guess; overflow
        evicts the oldest and marks the estimate as saturated.
    """

    alpha: float
    eps: float
    eta: float
    lam: float = 0.5
    beta: float = 0.5
    fine_cap: int = 4096

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be finite and positive")
        if not 0 < self.eta < 1:
            raise ValueError("eta must be in (0, 1)")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and >= 0")
        if not 0 < self.beta <= 1 or 1.0 + self.beta == 1.0:
            raise ValueError("beta must be in (0, 1], with 1 + beta above 1")
        _require_count("fine_cap", self.fine_cap)
        if self.fine_cap < 1:
            raise ValueError("fine_cap must be >= 1")

    @property
    def fine_precision(self) -> float:
        """Proxy-error budget of the fine layer, as a fraction of the guess.

        eps*eta/2 would make the worst-case proxy error at the selected guess
        (eps/2) times the effective diameter; the extra (1 + beta) absorbs
        the grid's overshoot of the optimal radius so the budget still holds
        at the guess actually selected.
        """
        return self.eps * self.eta / (2.0 * (1.0 + self.beta))


@dataclass(frozen=True, slots=True)
class EffDiameterEstimate:
    """Lower/upper estimates bracketing the window's effective diameter.

    Three causes can void the guarantee, each its own flag: overflowed (the
    fine state at the selected guess evicted attraction points at its cap),
    short_lower and short_upper (the coreset's weight mass cannot reach the
    pair fraction of the lower or the upper level, so that level falls back
    to the largest coreset distance).  saturated is set when any of them is.
    """

    lower: float
    upper: float
    coreset_size: int
    overflowed: bool
    short_lower: bool
    short_upper: bool

    @property
    def saturated(self) -> bool:
        return self.overflowed or self.short_lower or self.short_upper


class FineCoresetState:
    """Two-ladder streaming state for effective diameter estimation.

    The validation ladder is the one-center machinery at lam = window_len:
    it only picks the guess, which reads the points a guess holds, never a
    weight, so it keeps each histogram's first and last entries alone
    (``streamkc.histogram``).  The fine ladder stores, per guess, attraction
    points pairwise farther than (fine_precision / 2) * guess, so its
    coreset has proxy error at most fine_precision * guess.  Single-writer.

    Between queries the state keeps one ``PairMassTable`` of the last
    query's fine coreset, and the next query updates it by the entries that
    changed.  It is query scratch, outside the state: 10 bytes per pair of
    its row capacity (at least the coreset size and at most twice it plus
    8 rows), a coordinate row per row and 2^16 bucket masses.
    ``memory_floats`` does not count it, and snapshots do not hold it.
    """

    def __init__(
        self,
        cfg: EffDiameterConfig,
        window_len: int,
        mode: str = "oblivious",
        d_min: Optional[float] = None,
        d_max: Optional[float] = None,
    ):
        if window_len > MAX_WINDOW_LEN:
            raise ValueError(
                f"window_len must be at most {MAX_WINDOW_LEN}: beyond it "
                "window_len^2 reaches 2^53 and pair masses stop being exact"
            )
        self.cfg = cfg
        params = StreamParams(window_len, k=1, z=0, lam=cfg.lam, beta=cfg.beta)
        self.validation = GuessLadder(replace(params, lam=float(window_len)), mode, d_min, d_max)
        self.fine = GuessLadder(
            params,
            mode,
            d_min,
            d_max,
            attr_factor=cfg.fine_precision / 2.0,
            cap=cfg.fine_cap,
        )
        self._pairs = PairMassTable()
        self._last_coreset: Optional[tuple[int, float]] = None  # (size, guess)

    @property
    def t(self) -> int:
        return self.validation.t

    def process_point(self, p: Point) -> None:
        self.validation.process_point(p)
        self.fine.process_point(p)

    def fine_coreset(self) -> tuple[WeightedCoreset, bool]:
        """Fine coreset at the validation-selected guess, plus whether that
        fine state ever overflowed its cap."""
        val = self.validation
        if not val.bootstrapped:
            return val.warmup_coreset(), False
        e = val.selected_exponent()
        return self.fine.coreset_at(e), self.fine._evictions_of(e) > 0

    def estimate(self) -> EffDiameterEstimate:
        """Lower and upper estimates for the current window: the kept pair
        table, updated to the fine coreset, read at the shrunk level
        alpha/(1+lam)^2 for the lower estimate and at alpha for the upper
        one."""
        cfg = self.cfg
        if cfg.eps >= 1:
            raise ValueError("estimates require eps < 1")
        wsize = min(self.t, self.validation.params.window_len)
        if wsize < 1:
            raise RuntimeError("no points processed yet")
        coreset, overflowed = self.fine_coreset()
        table = self._pairs.update(coreset)
        self._last_coreset = (len(coreset), coreset.guess)
        shrunk = cfg.alpha / (1.0 + cfg.lam) ** 2
        low_raw, short_lower = coreset_effective_diameter(table, shrunk, wsize)
        up_raw, short_upper = coreset_effective_diameter(table, cfg.alpha, wsize)
        return EffDiameterEstimate(
            lower=low_raw / (1.0 + cfg.eps),
            upper=up_raw / (1.0 - cfg.eps),
            coreset_size=len(coreset),
            overflowed=overflowed,
            short_lower=short_lower,
            short_upper=short_upper,
        )

    def stats(self) -> dict:
        """Plain integers, counted on call or kept by the queries: each
        ladder's ``GuessLadder.stats()``; the last query's coreset size and
        selected guess exponent (None before the first query, and for the
        exact coreset of the oblivious warm-up); the pair table's rows added
        and removed by the last query; and its refills so far."""
        size, guess = self._last_coreset or (0, 0.0)
        pairs = self._pairs
        return {
            "validation": self.validation.stats(),
            "fine": self.fine.stats(),
            "coreset_size": size,
            "exponent": self.fine._exp_floor(guess) if guess > 0 else None,
            "rows_added": pairs.added,
            "rows_removed": pairs.removed,
            "refills": pairs.refills,
        }

    def memory_floats(self, dim: int) -> int:
        return self.validation.memory_floats(dim) + self.fine.memory_floats(dim)

    # -- snapshots -------------------------------------------------------------

    def to_snapshot(self) -> dict:
        """JSON-serializable dump of cfg and both ladders' snapshots; the
        pair table is scratch, so a restored state starts with an empty one."""
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "config": asdict(self.cfg),
            "validation": self.validation.to_snapshot(),
            "fine": self.fine.to_snapshot(),
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "FineCoresetState":
        """Inverse of to_snapshot.  Each ladder is verified by
        ``GuessLadder.from_snapshot``; then both must be the ladders cfg
        builds (window length at most MAX_WINDOW_LEN, parameters, mode,
        bounds, and the fine ladder's attr_factor and cap from cfg), on the
        same clock, and must have been fed one stream: in oblivious mode
        their distance estimates and warm-up are equal, and both hold the
        same newest point (``GuessLadder.newest``).  Anything else raises
        ValueError; a cfg, a ladder or a window length that is refused on
        its own is reported as "corrupt effective-diameter snapshot: ...",
        with the refusal."""
        if not isinstance(snap, dict) or snap.get("format") != SNAPSHOT_FORMAT:
            raise ValueError("not an effective-diameter snapshot")
        if snap.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {snap.get('version')!r}")
        try:
            cfg = EffDiameterConfig(**snap["config"])
            val = GuessLadder.from_snapshot(snap["validation"])
            fine = GuessLadder.from_snapshot(snap["fine"])
            state = cls(cfg, val.params.window_len, val.mode, val.d_min, val.d_max)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"corrupt effective-diameter snapshot: {exc!r}") from exc
        for name, got, want in (("validation", val, state.validation), ("fine", fine, state.fine)):
            for attr in ("params", "mode", "d_min", "d_max", "attr_factor", "cap"):
                if getattr(got, attr) != getattr(want, attr):
                    raise ValueError(
                        f"corrupt effective-diameter snapshot: the {name} ladder's "
                        f"{attr} {getattr(got, attr)!r} is not cfg's {getattr(want, attr)!r}"
                    )
        if val.t != fine.t:
            raise ValueError(
                f"corrupt effective-diameter snapshot: clocks {val.t} and {fine.t} differ"
            )
        if snap["validation"].get("oblivious") != snap["fine"].get("oblivious") or (
            val.newest() != fine.newest()
        ):
            raise ValueError("corrupt effective-diameter snapshot: ladders fed different streams")
        state.validation, state.fine = val, fine
        return state
