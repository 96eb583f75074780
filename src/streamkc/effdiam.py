"""Effective diameter of the sliding window: exact oracle, streaming
estimator, and the bucketed sequential baseline.

The effective diameter at level alpha is the smallest distance d such that
at least alpha * n^2 of the n^2 ordered point pairs (self-pairs included)
are within d.  The streaming estimator runs two guess ladders side by side:
a coarse *validation* ladder (one center, no outliers) that picks the right
guess, and a *fine* ladder with a much smaller attraction radius whose
representatives and orphans form the weighted coreset the estimate is
computed on.  The estimator keeps one table of that coreset's pairs
between queries (``PairMassTable``): a 16-bit distance bucket per pair and
the pair mass per bucket, but no distance.  A query updates it by the
coreset entries that entered, left or changed weight since the last one,
refilling it from empty when over a third of them changed or the coreset
no longer fits the table's row capacity (at most twice the coreset), and
reads each level from it by recomputing and sorting only the pairs of the
one bucket that holds the level (``coreset_effective_diameter``).
Distances are Euclidean throughout, with the bits of the exact oracle's.

The validation ladder prunes the fine one (``GuessLadder.prune_by``).  After
the validation ladder takes arrival p and before the fine ladder does, each
full validation guess, one that holds k + z + 1 = 2 attraction points,
prunes its fine guess at its floor a, the arrival of its oldest attraction
point: fine attraction points older than a leave, their representatives
become orphans unless they are older than a too, and orphans older than a
are dropped.  This is the rule by which a full sliding guess prunes
itself (``GuessState.prune``), and a fine run that spans validation runs of
different floors is cut where they differ by the splitter the step uses.
Every query still selects the guess it would without the prune and, where
that guess never overflowed, reads there a coreset with the same
guarantees:

* A full guess stays full until a expires.  An insertion into it evicts its
  oldest attraction point, so it stays full and its oldest arrival never
  falls; it loses a point only when a sweep expires its oldest, at an
  arrival t >= a + N.  Until then ``GuessLadder.qualifies`` refuses it, so
  no query selects it, and the validation ladder, which the prune leaves
  alone, selects every guess it would without it.
* Whatever the prune drops is older than a: an attraction point, which is
  no coreset entry, or a representative or orphan, whose histogram holds
  stamps no later than its own arrival.  By the time the guess can be
  selected again it has all left the window (arrivals up to t - N).  A
  representative no older than a stays, an orphan with its histogram, as an
  eviction files it, so every window point keeps a proxy within twice the
  fine attraction radius, fine_precision * guess, and is counted in one
  histogram, within (1 + lam).  Points that a pruned attraction point would
  have captured are captured by another or become attraction points, under
  the same bounds.
* Oblivious retargets rebuild the same guesses in both ladders.  A guess
  added below the grid is replayed from the same recent points in both,
  with nothing pruned; one added above is seeded in the validation ladder
  with at most one attraction point, so it is not full and prunes nothing
  until arrivals fill it; a dropped guess vanishes from both with its
  state, and is rebuilt from scratch if it returns.  Each prune's argument
  holds from its own arrival on.  A prune reads the fine grid before the
  fine ladder retargets for p: a guess the validation ladder has just
  dropped is dropped from the fine one next, and one it has just added is
  pruned from the next arrival on.
* The prune runs before the fine ladder's step, so it never orphans p,
  which becomes the newest representative of every fine guess, as
  ``GuessLadder.newest`` requires.

A prune is no eviction: it evicts only orphans it files past the cap,
oldest first, and counts them as an insertion's are.  At a binding cap it
can still change later evictions, and so ``overflowed``: a pruned guess can
hold more attraction points than the unpruned one (points a pruned
attraction point would have captured attract on their own), so its
insertions can evict where the unpruned ladder's do not, and it can hold
fewer, so the reverse happens too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

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
# Cumulative masses are kept per _GROUP ids, and pairs change or are read in
# blocks of about _CHUNK.
_SHIFT = 44
_IDS = 1 << 16
_HEADROOM = 8 << 8
_GROUP = 1 << 8
_CHUNK = 1 << 16


def _euclidean(x: np.ndarray, i: np.ndarray, j: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Distances of the pairs (rows i, rows j) of x, written into out with
    the bits of scipy's ``cdist`` and ``pdist``: squared differences summed
    left to right (not numpy's sum order), a square root, and inf unwarned."""
    out[:] = 0.0
    with np.errstate(over="ignore"):
        for col in x.T:
            out += np.square(col[i] - col[j])
    return np.sqrt(out, out=out)


class PairMassTable:
    """A weighted coreset's pairs with their ordered-pair masses summed per
    distance bucket, kept so that ``update`` touches only changed entries.

    Each coreset entry holds a row of ``keys`` (its arrival, 0 while
    the row is free, so a table follows the coresets of one stream),
    ``weights`` and coordinates.  The pair of rows i < j sits at position
    starts[i] + j of ``ids`` (16-bit bucket ids, 0 while a row is free), the
    upper triangle row by row: 2 bytes per pair of row capacity, and no
    distance (``pairs_in`` recomputes a bucket's).
    ``masses[b]`` sums 2 * w_i * w_j over bucket b; ``cum[g]`` is
    ``self_mass`` (sum of w^2) plus the masses of buckets below (g+1)*_GROUP."""

    def __init__(self):
        self._clear(0, 0)
        self.added = self.removed = self.refills = 0  # rows, at the last update

    def _clear(self, cap: int, dim: int) -> None:
        self.ids = None  # the old array goes first
        self.ids = np.zeros(cap * (cap - 1) // 2, dtype=np.uint16)
        self.keys, self.weights = np.zeros(cap, dtype=np.int64), np.zeros(cap)
        self._coords = np.empty((cap, dim))
        self._firsts = np.arange(cap) * np.arange(2 * cap - 1, cap - 1, -1) // 2  # pair (i, i+1)
        self._starts = self._firsts - np.arange(1, cap + 1)
        self.masses, self.cum = np.zeros(_IDS), np.zeros(_IDS // _GROUP)
        self.self_mass = 0.0

    def update(self, coreset: WeightedCoreset) -> "PairMassTable":
        """Make the table hold coreset's pairs, and return it: rows that left
        or changed weight first subtract their pairs, then entering entries
        take free rows and add theirs.  Over a third of the rows changing, a
        coreset above the row capacity or below half of it, an arrival
        repeated within it, or a distance above the ids refills the table
        from empty.  Masses are integers below 2^53 (``MAX_WINDOW_LEN``), so
        every sum is exact."""
        entries, w = coreset.points, coreset.weights
        if not entries:
            raise ValueError("empty coreset")
        keys = np.fromiter((p.arrival for p in entries), np.int64, len(entries))
        n, cap, held = keys.size, self.keys.size, np.count_nonzero(self.keys)
        ranked = np.sort(keys)
        few = n <= cap <= 2 * n + 8 and not np.any(ranked[1:] == ranked[:-1])
        if few:
            # the row holding each entry's key, where one does
            order = np.argsort(self.keys)
            rows = order[np.minimum(np.searchsorted(self.keys, keys, sorter=order), cap - 1)]
            same = (self.keys[rows] == keys) & (self.weights[rows] == w)
            stay = np.zeros(cap, dtype=bool)
            stay[rows[same]] = True
            leave, enter = np.flatnonzero((self.keys > 0) & ~stay), np.flatnonzero(~same)
            few = 3 * (leave.size + enter.size) <= n
        if few:
            self._remove(leave)
            x = np.array([entries[i].coords for i in enter.tolist()], dtype=float)
        if few and self._add(keys[enter], w[enter], x):
            self.added, self.removed = enter.size, leave.size
        else:
            # heaviest first, so that past the first rows the pairs among the
            # rest have one mass, which _blocks gives as one number
            order = np.argsort(-w, kind="stable")
            x = np.array([entries[i].coords for i in order.tolist()], dtype=float)
            self._clear(n + n // 16 + 8, x.shape[1])
            # no pair is farther apart than twice the farthest from entry 0
            far = cdist(x[:1], x).max()
            self._base = (int(far.view(np.int64)) >> _SHIFT) - (_IDS - 1 - _HEADROOM)
            self._add(keys[order], w[order], x)  # fits: no distance exceeds 2 * far
            self.added, self.removed, self.refills = n, held, self.refills + 1
        np.cumsum(self.masses.reshape(-1, _GROUP).sum(axis=1), out=self.cum)
        self.cum += self.self_mass
        return self

    def _add(self, keys: np.ndarray, w: np.ndarray, x: np.ndarray) -> bool:
        """Give the entries (keys, weights w, coordinates x) the highest free
        rows, the top rows in a refill, in order, and add their pairs, with
        distances by ``cdist`` blocks.  False, for a refill, when a distance
        lies above the ids."""
        k = keys.size
        if not k:
            return True
        rows = np.flatnonzero(self.keys == 0)[-k:]
        self.keys[rows], self.weights[rows], self._coords[rows] = keys, w, x
        self.self_mass += float(w @ w)
        for pos, mass, (r, c, keep, out) in self._blocks(rows):
            b = cdist(self._coords[r], self._coords[c], out=out)[keep].ravel().view(np.int64)
            b >>= _SHIFT  # the distances' bits, shifted in place
            b -= self._base
            if b.max() >= _IDS:
                return False
            np.maximum(b, 1, out=b)
            self.ids[pos] = b
            np.add.at(self.masses, b, mass)
        return True

    def _remove(self, rows: np.ndarray) -> None:
        """Free the rows, subtracting their pairs' masses."""
        for pos, mass, _ in self._blocks(rows):
            np.subtract.at(self.masses, self.ids[pos], mass)
            self.ids[pos] = 0
        self.self_mass -= float(self.weights[rows] @ self.weights[rows])
        self.keys[rows], self.weights[rows] = 0, 0.0

    def _blocks(self, rows: np.ndarray):
        """The pairs of the sorted rows, each once, in blocks of about
        _CHUNK: (positions, masses 2 * w_i * w_j or their one value, block).
        A block (r, c, keep, out) holds the pairs of rows r with rows c where
        the mask keep is True, or all of them for keep ``...``, and out is
        scratch for their ``cdist``.  Pairs with the other live rows come
        first; then each run of the rows gives its pairs with the later rows
        and those among itself."""
        w, starts, k = self.weights, self._starts, rows.size
        others = self.keys > 0
        others[rows] = False
        others = np.flatnonzero(others)
        buf = np.empty((2, min(max(_CHUNK, 2 * w.size), k * w.size)))  # holds any block
        step = max(1, _CHUNK // max(1, others.size))
        for i in range(0, k if others.size else 0, step):
            r = rows[i : i + step, None]
            out, mass = buf[:, : r.size * others.size].reshape(2, r.size, others.size)
            np.multiply(2.0 * w[r], w[others], out=mass)
            pos = np.where(r < others, starts[r] + others, starts[others] + r)
            yield pos.ravel(), mass.ravel(), (r.ravel(), others, ..., out)
        a0 = 0
        while a0 < k - 1:
            a1 = min(k, a0 + max(2, _CHUNK // (k - a0)))
            ra, wr = rows[a0:a1, None], w[rows[a0:]]
            for rb, keep in ((rows[a1:], ...), (rows[a0:a1], ra < rows[a0:a1])):
                out, mass = buf[:, : ra.size * rb.size].reshape(2, ra.size, rb.size)
                if wr.min() < wr.max():
                    mass = np.multiply(2.0 * w[ra], w[rb], out=mass)[keep].ravel()
                else:
                    mass = 2.0 * wr[0] ** 2
                if rb.size:
                    yield (starts[ra] + rb)[keep].ravel(), mass, (ra.ravel(), rb, keep, out)
            a0 = a1

    def pairs_in(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Distances and masses of bucket b's pairs: one scan of the ids
        finds them, and ``_euclidean`` recomputes their distances from the
        coordinate rows, _CHUNK pairs at a time."""
        pos = np.flatnonzero(self.ids == b)
        dists, masses = np.empty(pos.size), np.empty(pos.size)
        for s in range(0, pos.size, _CHUNK):
            p = pos[s : s + _CHUNK]
            i = self._firsts.searchsorted(p, side="right") - 1
            j = p - self._starts[i]
            _euclidean(self._coords, i, j, dists[s : s + _CHUNK])
            np.multiply(2.0 * self.weights[i], self.weights[j], out=masses[s : s + _CHUNK])
        return dists, masses


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
    bucket's pairs, with distances recomputed from the coordinates and
    masses from the weights (``pairs_in``), and a sort of just those pairs
    and a binary search over their cumulative masses pick the pair.  This
    is the value of a full sort.  An id never orders two pairs against their
    distances (it is a fixed shift of the distance's bit pattern, clamped
    to the id range, and the recomputed distance has the bits the id was
    taken from), so the mass below the bucket is that of every nearer pair,
    and equal distances give one value in any order.  Masses stay exact:
    weights are integer counts and (sum of w)^2 <= window_size^2 < 2^53
    (``MAX_WINDOW_LEN``), so every mass and partial sum is an exact integer
    in any summation order, and so is every bucket mass between queries, as
    removing rows only takes away terms it holds.
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
    cum = np.cumsum(masses[order], out=masses)  # in distance order, in place
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
    coreset has proxy error at most fine_precision * guess, and keeps
    nothing older than its full validation guess's oldest attraction point
    (the prune, in the module docstring).  Single-writer.

    Between queries the state keeps one ``PairMassTable`` of the last
    query's fine coreset, and the next query updates it by the entries that
    changed.  It is query scratch, outside the state: 2 bytes per pair of
    its row capacity (at least the coreset size and at most twice it plus
    8 rows), a key, weight and coordinate row per row and 2^16 bucket masses.
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
        self._last_size = 0  # the last query's coreset size
        self._pruned = 0  # fine attraction points and orphans pruned, per guess

    @property
    def t(self) -> int:
        return self.validation.t

    def process_point(self, p: Point) -> None:
        """Feed p to the validation ladder, prune the fine ladder by it
        (``GuessLadder.prune_by``), then feed p to the fine ladder.  The
        ladders refuse the same points, so a refused one changes neither."""
        self.validation.process_point(p)
        self._pruned += self.fine.prune_by(self.validation)
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
        self._last_size = len(coreset)
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
        """Plain integers or None, counted on call or kept by the queries:
        each ladder's ``GuessLadder.stats()`` (a query selects its guess on
        the validation ladder; the fine ladder's ``selected`` is None); the
        fine attraction points and orphans the prune removed since the state
        was built or restored, counted once per guess
        (``GuessLadder.prune_by``); the last query's coreset size; the pair
        table's rows added and removed by the last query, its refills, and
        its arrays' bytes."""
        pairs = self._pairs
        return {
            "validation": self.validation.stats(),
            "fine": self.fine.stats(),
            "pruned": self._pruned,
            "coreset_size": self._last_size,
            "rows_added": pairs.added,
            "rows_removed": pairs.removed,
            "refills": pairs.refills,
            "pair_bytes": sum(a.nbytes for a in vars(pairs).values() if isinstance(a, np.ndarray)),
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
