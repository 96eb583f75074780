"""Effective diameter of the sliding window: exact oracle, streaming
estimator, and the bucketed sequential baseline.

The effective diameter at level alpha is the smallest distance d such that
at least alpha * n^2 of the n^2 ordered point pairs (self-pairs included)
are within d.  The streaming estimator runs two guess ladders side by side:
a coarse *validation* ladder (one center, no outliers) that picks the right
guess, and a *fine* ladder with a much smaller attraction radius whose
representatives and orphans form the weighted coreset the estimate is
computed on.  A query builds one table of that coreset's pairs
(``pair_masses``), its distances written into a buffer the estimator keeps
between queries, and reads both of its levels from it by exact bucketed
selection, sorting only the few pairs around each level
(``coreset_effective_diameter``).  Distances are Euclidean throughout, like
the exact oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.spatial.distance import pdist

from .core import Point, StreamParams, WindowView
from .coreset import GuessLadder, WeightedCoreset

# largest window whose squared size, the total ordered-pair mass, is below
# 2^53, so that every cumulative pair mass is an exact integer
MAX_WINDOW_LEN = math.isqrt(2**53 - 1)


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


# A level read selects by bucketing: one pass splits the pairs into
# 2^_BUCKET_BITS buckets by distance, and a bucket of at most _SORT_AT pairs
# is sorted outright instead of split again.  A table's bucket masses are
# summed over row-aligned chunks of about _CHUNK pairs, so that no array
# other than the distances has one entry per pair.
_BUCKET_BITS = 12
_SORT_AT = 8192
_CHUNK = 1 << 15


class PairMassTable(NamedTuple):
    """A coreset's pairs, built once per query by ``pair_masses``.

    Each pair i < j stands for two ordered pairs of mass 2 * w_i * w_j.
    When shift is None the table holds at most _SORT_AT pairs, dists is
    sorted and cum[i] is self_mass plus the mass of pairs 0..i.  Otherwise
    dists is in condensed (row-major i < j) order, a pair's bucket is
    (key - lo) >> shift, key being its distance's bit pattern as an int64
    (``_select``), and cum[b] is self_mass plus the mass of buckets 0..b;
    a pair's mass is recomputed from weights when its bucket is read.
    """

    self_mass: float  # sum of w^2: the self-pairs, at distance 0
    dists: np.ndarray
    weights: np.ndarray
    lo: int
    shift: Optional[int]
    cum: np.ndarray


def _select(
    dists: np.ndarray, masses: np.ndarray, below: float
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
    """dists, masses, bucket and cum of the given pairs, whose cumulative
    masses start from below: sorted like a ``PairMassTable`` when bucket is
    None, and otherwise bucketed, with bucket holding each pair's bucket.

    At most _SORT_AT pairs, or one distance, come back sorted (one distance
    needs no argsort).  More are bucketed by the bits of their distances: a
    non-negative double orders as its bit pattern read as an int64 (+0.0,
    subnormals and inf included), so bucket = (key - min key) >> shift is
    exact integer arithmetic that never puts a larger distance in a smaller
    bucket, and equal distances share a bucket.  shift leaves at most
    2^_BUCKET_BITS buckets, so each pass narrows the key span by that factor
    and a read takes at most ceil(63 / _BUCKET_BITS) passes.
    """
    keys = dists.view(np.int64)
    lo, hi = (int(keys.min()), int(keys.max())) if dists.size else (0, 0)
    if dists.size <= _SORT_AT or lo == hi:
        if lo < hi:
            order = np.argsort(dists)
            dists, masses = dists[order], masses[order]
        cum = np.cumsum(masses)
        cum += below
        return dists, masses, None, cum
    shift = _shift(lo, hi)
    bucket = keys - lo
    bucket >>= shift
    cum = np.bincount(bucket, weights=masses)
    np.cumsum(cum, out=cum)
    cum += below
    return dists, masses, bucket, cum


def _shift(lo: int, hi: int) -> int:
    """The shift that splits keys lo..hi into at most 2^_BUCKET_BITS buckets."""
    return max(0, (hi - lo).bit_length() - _BUCKET_BITS)


def _row_starts(n: int) -> np.ndarray:
    """Condensed position of each row i's first pair (i, i + 1); the last
    entry, for the empty row n - 1, is the number of pairs."""
    return np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))


def _pair_weights(
    w: np.ndarray, starts: np.ndarray, pos: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """2 * w_i * w_j of the pairs (i, j) at condensed positions pos, whose
    rows i are rows (``_row_starts`` gives starts)."""
    cols = pos - starts.take(rows) + rows + 1
    masses = w.take(rows)
    masses *= 2.0
    masses *= w.take(cols)
    return masses


def pair_masses(
    coreset: WeightedCoreset, out: Optional[np.ndarray] = None
) -> PairMassTable:
    """The coreset's pair-mass table (``PairMassTable``): its self-pair
    mass, and its pair distances, sorted with their cumulative masses when
    there are at most _SORT_AT pairs and bucketed by distance otherwise.
    Built once per query and read by ``coreset_effective_diameter`` at any
    number of levels.

    out, a float64 array with one entry per pair, receives the distances;
    without it a new array is allocated.  A bucketed table reads its
    distances there and holds no other pair-sized array: its bucket masses
    are summed over row-aligned chunks of about _CHUNK pairs, each chunk's
    pair masses built in chunk scratch.  Reading a level gathers the
    selected bucket's pairs (``coreset_effective_diameter``).
    """
    pts = coreset.points
    n = len(pts)
    if n == 0:
        raise ValueError("empty coreset")
    w = np.array([wt for _, wt in pts], dtype=float)
    dists = pdist(np.array([p.coords for p, _ in pts], dtype=float), out=out)
    self_mass = float((w * w).sum())
    starts = _row_starts(n)
    if dists.size <= _SORT_AT:
        pos = np.arange(dists.size)
        rows = starts.searchsorted(pos, side="right") - 1
        masses = _pair_weights(w, starts, pos, rows)
        dists, _, _, cum = _select(dists, masses, self_mass)
        return PairMassTable(self_mass, dists, w, 0, None, cum)
    keys = dists.view(np.int64)
    lo, hi = int(keys.min()), int(keys.max())
    shift = _shift(lo, hi)
    cum = np.zeros(((hi - lo) >> shift) + 1)
    size = max(min(_CHUNK, dists.size), n - 1)
    masses, bucket = np.empty(size), np.empty(size, dtype=np.int64)
    r0 = 0
    while r0 < n - 1:
        # rows r0..r1-1: at most _CHUNK pairs, or the one row r0
        r1 = int(starts.searchsorted(starts[r0] + _CHUNK, side="right")) - 1
        r1 = min(max(r1, r0 + 1), n - 1)
        p0, p1 = int(starts[r0]), int(starts[r1])
        m = masses[: p1 - p0]
        np.concatenate([w[i + 1 :] for i in range(r0, r1)], out=m)
        m *= np.repeat(2.0 * w[r0:r1], np.diff(starts[r0 : r1 + 1]))
        b = np.subtract(keys[p0:p1], lo, out=bucket[: p1 - p0])
        b >>= shift
        cum += np.bincount(b, weights=m, minlength=cum.size)
        r0 = r1
    np.cumsum(cum, out=cum)
    cum += self_mass
    return PairMassTable(self_mass, dists, w, lo, shift, cum)


def _bucket_pairs(table: PairMassTable, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and masses of the pairs in top-level bucket b of a bucketed
    table: the pairs whose keys lie in [first, first + 2^shift), first being
    the smallest key of bucket b, compared in chunks of _CHUNK pairs.  With
    finite coordinates a distance is at most inf, whose key plus 2^shift
    stays below 2^63."""
    dists, w = table.dists, table.weights
    keys = dists.view(np.int64)
    first = table.lo + (b << table.shift)
    end = first + (1 << table.shift)
    inside, below_end = np.empty(_CHUNK, dtype=bool), np.empty(_CHUNK, dtype=bool)
    found = []
    for c in range(0, keys.size, _CHUNK):
        part = keys[c : c + _CHUNK]
        hit, less = inside[: part.size], below_end[: part.size]
        np.greater_equal(part, first, out=hit)
        np.less(part, end, out=less)
        hit &= less
        found.append(np.flatnonzero(hit) + c)
    pos = np.concatenate(found)
    starts = _row_starts(w.size)
    rows = starts.searchsorted(pos, side="right") - 1
    return dists.take(pos), _pair_weights(w, starts, pos, rows)


def coreset_effective_diameter(
    table: PairMassTable, alpha: float, window_size: int
) -> tuple[float, bool]:
    """Smallest pair distance in a coreset's pair-mass table
    (``pair_masses``) at which the cumulative ordered-pair weight mass,
    self-pairs included, reaches alpha * window_size^2.  The self-pairs
    answer 0.0 when they alone reach it, as they do for a one-point coreset
    of full weight.

    Because stored weights underestimate true counts, the threshold can be
    unreachable; in that case the largest coreset distance (0.0 for a single
    point) is returned with the saturation flag set.

    The read is an exact selection.  A binary search over the cumulative
    bucket masses finds the first bucket that reaches the threshold and the
    mass below it; that bucket's pairs are gathered, with their masses
    recomputed from the weights (``_bucket_pairs``), and bucketed again, or
    sorted (``_select``), until they are sorted, and a last binary search
    picks the pair.  A top-level bucket of one key (shift 0) answers with
    that key's distance without a gather.  This gives the value a full sort
    would: bucket order never contradicts distance order, so the mass below
    a bucket is the mass of every nearer pair.  Weights are integer counts
    and (sum of w)^2 <= window_size^2 < 2^53 (``MAX_WINDOW_LEN``), so every
    mass and every partial sum is an exact integer in any summation order.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    need = alpha * window_size * window_size
    below, dists, cum = table.self_mass, table.dists, table.cum
    if below >= need:
        return 0.0, False
    if not cum.size or cum[-1] < need:
        return float(dists.max(initial=0.0)), True
    if table.shift is None:
        return float(dists[np.searchsorted(cum, need, side="left")]), False
    b = int(np.searchsorted(cum, need, side="left"))
    if table.shift == 0:
        return float(np.int64(table.lo + b).view(np.float64)), False
    if b:
        below = float(cum[b - 1])
    dists, masses, bucket, cum = _select(*_bucket_pairs(table, b), below)
    while bucket is not None:
        b = int(np.searchsorted(cum, need, side="left"))
        if b:
            below = float(cum[b - 1])
        inside = np.flatnonzero(bucket == b)  # faster than a boolean mask
        dists, masses, bucket, cum = _select(dists.take(inside), masses.take(inside), below)
    return float(dists[np.searchsorted(cum, need, side="left")]), False


def eff_sequential(window: WindowView, alpha: float, bucket_step: float = 0.01) -> float:
    """Exact pair enumeration into geometric buckets; returns the lower edge
    of the first bucket whose cumulative pair count reaches the rank."""
    n = len(window.points)
    if n < 2:
        raise ValueError("window must hold at least two points")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if bucket_step <= 0:
        raise ValueError("bucket_step must be positive")
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
    lam / beta: histogram accuracy and guess grid granularity, as elsewhere.
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
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not 0 < self.eta < 1:
            raise ValueError("eta must be in (0, 1)")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must be in (0, 1]")
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

    The validation ladder is the plain one-center machinery and only picks
    the guess; the fine ladder stores, per guess, attraction points that are
    pairwise farther than (fine_precision / 2) * guess, so its coreset has
    proxy error at most fine_precision * guess.  Single-writer, like
    GuessLadder.

    Queries keep one float64 buffer of pair distances as scratch: about 8
    bytes per coreset pair of the last query.  It grows when a query needs
    more pairs and is reallocated smaller when one needs fewer than a
    quarter of it; it is not part of the state, so ``memory_floats`` does
    not count it.
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
        self.validation = GuessLadder(params, mode, d_min, d_max)
        self.fine = GuessLadder(
            params,
            mode,
            d_min,
            d_max,
            attr_factor=cfg.fine_precision / 2.0,
            cap=cfg.fine_cap,
        )
        self._pair_buf = np.empty(0)

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
        if val.mode == "oblivious" and not val.bootstrapped:
            return val.warmup_coreset(), False
        e = val.selected_exponent()
        if e not in self.fine.states:
            raise RuntimeError(f"fine ladder lost guess exponent {e}")
        return self.fine.coreset_at(e), self.fine.states[e].evictions > 0

    def estimate(self) -> EffDiameterEstimate:
        """Lower and upper estimates for the current window: one pair-mass
        table of the fine coreset, read at the shrunk level alpha/(1+lam)^2
        for the lower estimate and at alpha for the upper one."""
        cfg = self.cfg
        if cfg.eps >= 1:
            raise ValueError("estimates require eps < 1")
        wsize = min(self.t, self.validation.params.window_len)
        if wsize < 1:
            raise RuntimeError("no points processed yet")
        coreset, overflowed = self.fine_coreset()
        table = pair_masses(coreset, self._pair_scratch(len(coreset)))
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

    def _pair_scratch(self, n: int) -> np.ndarray:
        """The query buffer's first n * (n - 1) / 2 entries, reallocated
        when it is too small or more than four times too large."""
        m = n * (n - 1) // 2
        if not m <= self._pair_buf.size <= 4 * m:
            self._pair_buf = np.empty(m)
        return self._pair_buf[:m]

    def saturation_events(self) -> int:
        return sum(st.evictions for st in self.fine.states.values())

    def memory_floats(self, dim: int) -> int:
        return self.validation.memory_floats(dim) + self.fine.memory_floats(dim)
