"""Effective diameter of the sliding window: exact oracle, streaming
estimator, and the bucketed sequential baseline.

The effective diameter at level alpha is the smallest distance d such that
at least alpha * n^2 of the n^2 ordered point pairs (self-pairs included)
are within d.  The streaming estimator runs two guess ladders side by side:
a coarse *validation* ladder (one center, no outliers) that picks the right
guess, and a *fine* ladder with a much smaller attraction radius whose
representatives and orphans form the weighted coreset the estimate is
computed on.  Distances are Euclidean throughout, like the exact oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial.distance import pdist

from .core import Point, StreamParams, WindowView
from .coreset import GuessLadder, WeightedCoreset


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


def coreset_effective_diameter(
    coreset: WeightedCoreset, alpha: float, window_size: int
) -> tuple[float, bool]:
    """Smallest coreset pair distance whose cumulative ordered-pair weight
    mass reaches alpha * window_size^2.

    Because stored weights underestimate true counts, the threshold can be
    unreachable; in that case the largest coreset distance is returned with
    the saturation flag set.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    pts = coreset.points
    n = len(pts)
    if n == 0:
        raise ValueError("empty coreset")
    w = np.array([wt for _, wt in pts], dtype=float)
    need = alpha * window_size * window_size
    mass0 = float((w * w).sum())  # self-pairs, distance zero
    if mass0 >= need:
        return 0.0, False
    if n == 1:
        return 0.0, True
    coords = np.array([p.coords for p, _ in pts])
    d = pdist(coords)
    # pair masses in condensed (row-major i<j) order, built row by row to
    # avoid materializing the full n x n product
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

    saturated is set when the fine layer overflowed its cap or the weight
    mass could not reach the requested pair fraction; such estimates fall
    back to the largest coreset distance and carry no bracketing guarantee.
    """

    lower: float
    upper: float
    coreset_size: int
    saturated: bool


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
        """Lower and upper estimates for the current window."""
        cfg = self.cfg
        if cfg.eps >= 1:
            raise ValueError("estimates require eps < 1")
        wsize = min(self.t, self.validation.params.window_len)
        if wsize < 1:
            raise RuntimeError("no points processed yet")
        coreset, overflowed = self.fine_coreset()
        shrunk = cfg.alpha / (1.0 + cfg.lam) ** 2
        low_raw, sat_low = coreset_effective_diameter(coreset, shrunk, wsize)
        up_raw, sat_up = coreset_effective_diameter(coreset, cfg.alpha, wsize)
        return EffDiameterEstimate(
            lower=low_raw / (1.0 + cfg.eps),
            upper=up_raw / (1.0 - cfg.eps),
            coreset_size=len(coreset),
            saturated=overflowed or sat_low or sat_up,
        )

    def saturation_events(self) -> int:
        return sum(st.evictions for st in self.fine.states.values())

    def memory_floats(self, dim: int) -> int:
        return self.validation.memory_floats(dim) + self.fine.memory_floats(dim)
