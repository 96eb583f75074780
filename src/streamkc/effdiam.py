"""Effective diameter of the sliding window: exact oracle, streaming
estimator, and the bucketed sequential baseline.

The effective diameter at level alpha is the smallest distance d such that
at least alpha * n^2 of the n^2 ordered point pairs (self-pairs included)
are within d.  The streaming estimator runs two guess ladders side by side:
a coarse *validation* ladder (one center, no outliers) that picks the right
guess, and a *fine* ladder with a much smaller attraction radius whose
representatives and orphans form the weighted coreset the estimate is
computed on.  A query sorts that coreset's pairs once (``pair_masses``) and
reads both of its levels from the one table.  Distances are Euclidean
throughout, like the exact oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
    d = np.sort(pdist(np.array([p.coords for p in window.points])))
    j = math.ceil((rank - n) / 2)  # each unordered pair appears twice
    return float(d[j - 1])


def pair_masses(coreset: WeightedCoreset) -> tuple[np.ndarray, np.ndarray]:
    """The coreset's pair-mass table: its pair distances in ascending
    order, and the cumulative ordered-pair weight mass at each of them.

    Entry 0 stands for the self-pairs (distance 0.0, mass sum of w^2); each
    later entry is one pair i < j with mass 2 * w_i * w_j, so the last
    cumulative mass is (sum of w)^2.  Built once per query and read by
    ``coreset_effective_diameter`` at any number of levels.
    """
    pts = coreset.points
    n = len(pts)
    if n == 0:
        raise ValueError("empty coreset")
    w = np.array([wt for _, wt in pts], dtype=float)
    m = n * (n - 1) // 2
    # both columns are filled in place (pdist's out=, an in-place cumsum), so
    # a query holds at most four pair-sized arrays at once
    dists = np.empty(m + 1)
    dists[0] = 0.0
    pdist(np.array([p.coords for p, _ in pts], dtype=float), out=dists[1:])
    masses = np.empty(m + 1)
    masses[0] = (w * w).sum()
    # pair masses in condensed (row-major i<j) order, built row by row to
    # avoid materializing the full n x n product
    pos = 1
    for i in range(n - 1):
        np.multiply(w[i + 1 :], 2.0 * w[i], out=masses[pos : pos + n - 1 - i])
        pos += n - 1 - i
    # An unstable sort is safe: weights are integer counts, so every mass is
    # an integer and every cumulative mass is exact while it stays below
    # 2^53 (window_size^2 < 2^53, which FineCoresetState enforces).  The
    # cumulative mass before and after a run of equal distances is then the
    # same in any order, so the first entry that reaches a threshold has
    # the same distance whichever way the run is ordered.
    order = np.argsort(dists[1:])
    dists[1:] = dists[1:][order]
    masses[1:] = masses[1:][order]
    return dists, np.cumsum(masses, out=masses)


def coreset_effective_diameter(
    pairs: tuple[np.ndarray, np.ndarray], alpha: float, window_size: int
) -> tuple[float, bool]:
    """Smallest distance in a coreset's pair-mass table (``pair_masses``)
    whose cumulative ordered-pair weight mass reaches alpha * window_size^2:
    one binary search.  The self-pair entry answers 0.0 when the self-pairs
    alone reach the threshold, as they do for a one-point coreset of full
    weight.

    Because stored weights underestimate true counts, the threshold can be
    unreachable; in that case the largest coreset distance (0.0 for a single
    point) is returned with the saturation flag set.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    dists, cum = pairs
    hit = int(np.searchsorted(cum, alpha * window_size * window_size, side="left"))
    if hit == len(cum):
        return float(dists[-1]), True
    return float(dists[hit]), False


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
        pairs = pair_masses(coreset)
        shrunk = cfg.alpha / (1.0 + cfg.lam) ** 2
        low_raw, short_lower = coreset_effective_diameter(pairs, shrunk, wsize)
        up_raw, short_upper = coreset_effective_diameter(pairs, cfg.alpha, wsize)
        return EffDiameterEstimate(
            lower=low_raw / (1.0 + cfg.eps),
            upper=up_raw / (1.0 - cfg.eps),
            coreset_size=len(coreset),
            overflowed=overflowed,
            short_lower=short_lower,
            short_upper=short_upper,
        )

    def saturation_events(self) -> int:
        return sum(st.evictions for st in self.fine.states.values())

    def memory_floats(self, dim: int) -> int:
        return self.validation.memory_floats(dim) + self.fine.memory_floats(dim)
