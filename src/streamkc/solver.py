"""Center selection on weighted point sets, sequential baselines, and the
exhaustive oracle used to verify them.

``outliers_cluster`` is the one greedy weighted routine behind every solver
here (Charikar, Khuller, Mount & Narasimhan, SODA 2001): each round picks the
candidate whose small ball captures the most uncovered weight, then discards
everything inside a larger ball around it.  ``compute_solution`` and the
``charikar`` baselines drive it over the same geometric radius grid
(``_radius_grid``), scanning radii upward from zero and stopping at the first
one whose run leaves at most z uncovered weight.  Distances are read in
the metric's own block form.  A scan builds one reader, ``core._distances``,
and runs the greedy's kernel, ``_greedy``, on it at every radius it tries:
on a set of at most ``core._MATRIX_POINTS`` points (1,024, an 8 MiB matrix)
the reader computes the full pairwise matrix once, so the scan computes
each distance once; a larger set is read in blocks of at most ``_BLOCK``
rows on each read.  Callers that read each row once (``outliers_cluster``
and ``gonzalez``) read blocks (``core._block_distances``).  A run reads one
scoring pass of its candidates, then each round's removal row, and
subtracts what each round removed from the scores through the removed
points' rows of the cover test; this is exact while the weights are
integers below 2^53.  On a set of at most ``core._MATRIX_POINTS`` points
the run keeps the cover-test rows its first scoring pass computes, so a
whole-window run reads each distance at most once; a removed point
without such a row has its distances read again.

Before a scan, a farthest-first traversal (Gonzalez, TCS 1985; also the
``gonzalez`` baseline) picks k + z + 1 points and measures their smallest
pairwise distance, the separation.  A radius whose removal balls are less
than half that wide cannot succeed: each ball holds at most one of those
points, so at least z + 1 of them, each of weight at least 1, stay
uncovered.  The scan skips such radii without a run; every radius it does
try is the same grid value as in a full scan, so its outcome is the same.

``compute_solution`` takes k, z, beta and the metric from the ladder it
solves on, so the coreset is always clustered in the metric it was built in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import core
# radius_excluding is imported, not called (callers score the centers they get):
# perfbench's tracer patches solver.radius_excluding, which tests/test_tracer.py checks
from .core import _ALL, _BLOCK, Distances, Index, Metric, Point, WindowView, dist, radius_excluding
from .core import _block_distances, _distances, _extremes, _require_count
from .coreset import GuessLadder


@dataclass(frozen=True, slots=True)
class SolveOutcome:
    """Result of a clustering run.

    uncovered_weight is the aggregate (estimated) weight left uncovered at
    the returned radius rho_min.  Scoring the centers against the true
    window is the caller's: ``core.radius_excluding``.
    """

    centers: tuple[Point, ...]
    uncovered_weight: int
    rho_min: float
    coreset_size: Optional[int] = None


def _radius_grid(lo: float, cap: float, ratio: float) -> list[float]:
    """0, then lo * ratio**i up to cap, then one step past cap so that
    success at the bound is reachable.  Just [0] when lo is not positive;
    ValueError when cap is not finite, where the grid would never end."""
    if not cap < math.inf:
        raise ValueError(f"radius grid cap {cap!r} is not finite: a distance overflows")
    grid = [0.0]
    if lo > 0:
        rho = lo
        while rho <= cap:
            grid.append(rho)
            rho *= ratio
        grid.append(rho)
    return grid


def _check_step(step: float) -> None:
    """Reject a radius-grid step unless its ratio 1 + step is a finite
    number above 1: at a ratio of 1 or below the grid never ends."""
    if not 1.0 < 1.0 + step < math.inf:
        raise ValueError(f"step must be finite with 1 + step above 1, got {step!r}")


def outliers_cluster(
    points: Sequence[Point],
    weights: Sequence[int],
    k: int,
    rho: float,
    eps: float,
    metric: Metric = dist,
    candidates: Optional[Callable[[int], np.ndarray]] = None,
) -> tuple[list[Point], list[tuple[Point, int]]]:
    """Greedy weighted center selection at radius guess rho.

    Runs at most k rounds.  Each round scores every candidate by the total
    weight of uncovered points within (1 + 2*eps)*rho, picks the first best
    in candidate order, and covers (removes) all uncovered points within
    (3 + 4*eps)*rho of it.  Candidates are all points in storage order, or
    the non-empty index array candidates(round) when given.  The weights are
    integers below 2^53, one per point, which keeps the scores exact
    (``_greedy``); k is an integer >= 0.  Returns the chosen centers and the
    uncovered points with their weights.
    """
    _require_count("k", k)
    if k < 0:
        raise ValueError("k must be >= 0")
    if len(weights) != len(points):
        raise ValueError(f"weights must hold one entry per point: "
                         f"{len(weights)} for {len(points)} points")
    d = _block_distances(points, metric)
    w = np.asarray(weights, dtype=float)
    centers, uncovered = _greedy(d, w, k, rho, eps, candidates)
    return [points[i] for i in centers], [(points[j], weights[j]) for j in uncovered]


def _greedy(
    d: Distances,
    w: np.ndarray,
    k: int,
    rho: float,
    eps: float,
    candidates: Optional[Callable[[int], np.ndarray]] = None,
) -> tuple[list[int], np.ndarray]:
    """``outliers_cluster`` on the points d reads, whose weights are w:
    the indices of the chosen centers and of the uncovered points.  The
    radius scans call it with the one reader d of their query.

    A candidate is scored once, against the points still uncovered, in the
    first round that draws it; after each round but the last, every scored
    candidate loses the weight the round removed within its small ball,
    read from the removed points' rows of the cover test d <= (1 + 2*eps)*rho.
    Round 0 scores its candidates against every point, and on a set of at
    most ``core._MATRIX_POINTS`` points (at most 1 MiB of bools) it keeps
    those rows of the test; a removed point with a kept row is subtracted
    through it, its distances not read again.  So a run whose round 0
    scores every point reads one scoring pass and the k removal rows: at
    most n^2 + kn entries.  A removed point without a kept row (on a larger
    set, or drawn first after round 0 in a sampled run) has its row read
    once more: at most 2n^2 + kn entries in all.  A read that takes every
    row or column asks for a slice, which a matrix reader serves as a view.
    The scores are sums of the weights, exact while the weights are
    integers below 2^53, and the block form is symmetric, so they equal a
    full rescoring.  They are summed in float32 while the weights total at
    most 2^24, which holds every partial sum exactly, and in float64 above
    that.  ValueError unless rho >= 0 and eps is finite and
    >= 0: a NaN radius would remove every point with the first center."""
    if not rho >= 0:
        raise ValueError(f"rho must be >= 0, got {rho!r}")
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")
    n = w.size
    # float32 products take about half the time of float64 ones
    w = w.astype(np.float32) if w.sum() <= 2.0**24 else w
    cover_r = (1.0 + 2.0 * eps) * rho
    removal_r = (3.0 + 4.0 * eps) * rho
    everyone = uncovered = np.arange(n)
    scores = np.zeros(n)
    known = np.zeros(n, dtype=bool)
    scored = everyone[known]
    # covers[i] is point i's cover test against every point, for the rows
    # round 0 scores (kept[i]) on a set of at most _MATRIX_POINTS points
    covers = np.empty((n, n), dtype=bool) if n <= core._MATRIX_POINTS else None
    kept = np.zeros(n, dtype=bool)
    centers: list[int] = []
    for r in range(k):
        if not uncovered.size:
            break
        cand = everyone if candidates is None else candidates(r)
        new = cand[~known[cand]]
        if new.size:
            cols, w_unc = _columns(uncovered, n), w[uncovered]
            keep = covers is not None and cols is _ALL
            for c0 in range(0, new.size, _BLOCK):
                rows = slice(c0, c0 + _BLOCK) if new.size == n else new[c0 : c0 + _BLOCK]
                cover = d(rows, cols) <= cover_r
                if keep:
                    covers[rows] = cover
                scores[rows] = cover @ w_unc
            kept[new] = keep
            known[new] = True
            scored = everyone[known]
        best = int(scores.argmax() if candidates is None else cand[scores[cand].argmax()])
        centers.append(best)
        far = d([best], _columns(uncovered, n))[0] > removal_r
        gone, uncovered = uncovered[~far], uncovered[far]
        if r + 1 < k and uncovered.size:
            cols = _columns(scored, n)
            mine = kept[gone]
            held, unheld = gone[mine], gone[~mine]
            for g0 in range(0, held.size, _BLOCK):
                rows = held[g0 : g0 + _BLOCK]
                scores[cols] -= w[rows] @ covers[rows][:, cols]
            for g0 in range(0, unheld.size, _BLOCK):  # read again
                rows = unheld[g0 : g0 + _BLOCK]
                scores[cols] -= w[rows] @ (d(rows, cols) <= cover_r)
    return centers, uncovered


def _columns(index: np.ndarray, n: int) -> Index:
    """A sorted subset of range(n) as a reader's index: a slice when it
    holds all n."""
    return _ALL if index.size == n else index


def _farthest_first(d: Distances, n: int, m: int) -> tuple[list[int], float]:
    """Farthest-first traversal (Gonzalez, TCS 1985) of n >= 1 points,
    seeded at point 0: the first min(m, n) picks, each the first point
    farthest from the picks before it, read one distance row per pick.
    Also returns the picks' smallest pairwise distance (inf for one pick),
    which is the smallest distance from a pick to the picks before it."""
    picks, sep = [0], math.inf
    near = d([0], _ALL)[0]
    while len(picks) < min(m, n):
        i = int(np.argmax(near))
        picks.append(i)
        sep = min(sep, float(near[i]))
        near = np.minimum(near, d([i], _ALL)[0])
    return picks, sep


def _first_covering(
    grid: list[float],
    pts: Sequence[Point],
    wts: Sequence[int],
    d: Distances,
    k: int,
    z: int,
    eps: float,
    candidates: Optional[Callable[[int], np.ndarray]] = None,
) -> tuple[float, list[Point], int]:
    """(rho, centers, uncovered weight) of the first grid radius whose
    greedy run leaves at most z uncovered weight; every weight is >= 1.

    A radius is skipped without a run when 2 * (3 + 4*eps) * rho is below
    the separation of k + z + 1 farthest-first picks: every removal ball
    then holds at most one pick, so z + 1 picks stay uncovered after the k
    rounds, and the run fails.  With fewer than k + z + 1 points the
    separation is 0 and nothing is skipped.  A failing run takes all k
    rounds, since uncovered picks remain, so a skip still draws the k
    candidate sets the run would have drawn.
    """
    n = len(pts)
    w = np.asarray(wts, dtype=float)
    sep = 0.0 if n < k + z + 1 else _farthest_first(d, n, k + z + 1)[1]
    for rho in grid:
        # the relative margin absorbs rounding in the distances the bound
        # and the run read: a radius that near the bound is always run
        if 2.0 * (3.0 + 4.0 * eps) * rho * (1.0 + 1e-9) < sep:
            if candidates is not None:
                for r in range(k):
                    candidates(r)
            continue
        centers, uncovered = _greedy(d, w, k, rho, eps, candidates)
        uw = int(w[uncovered].sum())  # exact: integer weights below 2^53
        if uw <= z:
            return rho, [pts[i] for i in centers], uw
    # a whole-window or oblivious grid ends past a radius that covers every point
    raise RuntimeError("radius grid exhausted without covering enough weight: a fixed "
                       "ladder's d_max lies below the data's scale (check d_min/d_max)")


def compute_solution(ladder: GuessLadder) -> SolveOutcome:
    """Extract a coreset and find the smallest grid radius whose greedy run
    leaves at most the ladder's z uncovered weight with its k centers.

    The radius grid starts at zero (degenerate exact covers), then walks
    geometrically with step (1 + beta) from the ladder's lower distance bound;
    radii below the separation bound are skipped (``_first_covering``).
    The greedy's eps is 4*(1 + beta), matching the coreset's dilation.
    Distances are the ladder's metric.
    """
    params, metric = ladder.params, ladder.metric
    k, z = params.k, params.z
    eps = 4.0 * (1.0 + params.beta)
    coreset = ladder.extract_coreset()
    d = _distances(coreset.points, metric)

    if ladder.mode == "fixed":
        lo, cap = ladder.d_min / 2.0, ladder.d_max * (1.0 + params.beta)
    elif ladder.bootstrapped:
        lo, cap = ladder.d_t / 2.0, 4.0 * ladder.D_t
    else:
        # warm-up: the coreset is the exact buffer, bound the grid by it;
        # without a positive distance, radius 0 already covers every point
        lo, hi = _extremes(d, len(coreset))
        cap = 4.0 * hi

    grid = _radius_grid(lo, cap, 1.0 + params.beta)
    rho, centers, uw = _first_covering(grid, coreset.points, coreset.weights, d, k, z, eps)
    return SolveOutcome(
        centers=tuple(centers),
        uncovered_weight=uw,
        rho_min=rho,
        coreset_size=len(coreset),
    )


# -- oracle ----------------------------------------------------------------

MAX_ORACLE_WINDOW = 40
MAX_ORACLE_K = 4


def brute_force_optimum(
    window: WindowView, k: int, z: int, metric: Metric = dist
) -> tuple[tuple[Point, ...], float]:
    """Exact optimum by enumerating every k-subset of the window.

    Guarded to tiny instances; this is the reference the approximation
    bounds are tested against, never a production path.
    """
    n = len(window.points)
    if n > MAX_ORACLE_WINDOW or k > MAX_ORACLE_K:
        raise ValueError(
            f"instance too large for enumeration (n={n} k={k}), "
            f"limits are n<={MAX_ORACLE_WINDOW}, k<={MAX_ORACLE_K}"
        )
    if not 1 <= k:
        raise ValueError("k must be >= 1")
    if not 0 <= z < n:
        raise ValueError("z must satisfy 0 <= z < window size")
    pts = window.points
    D = np.empty((n, n))
    for i in range(n):
        D[i, i] = 0.0
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = metric(pts[i], pts[j])
    keep = n - 1 - z  # index of the max after dropping the z largest
    best_r = math.inf
    best: tuple[int, ...] = ()
    for combo in itertools.combinations(range(n), min(k, n)):
        d = D[:, combo].min(axis=1)
        r = np.partition(d, keep)[keep]
        if r < best_r:
            best_r = r
            best = combo
    return tuple(pts[i] for i in best), float(best_r)


# -- baselines ---------------------------------------------------------------


def gonzalez(window: WindowView, k: int, metric: Metric = dist) -> list[Point]:
    """Farthest-first traversal, seeded at the first window point."""
    _require_count("k", k)
    if k < 1:
        raise ValueError("k must be >= 1")
    pts = window.points
    if not pts:
        raise ValueError("window must be non-empty")
    picks, _ = _farthest_first(_block_distances(pts, metric), len(pts), k)
    return [pts[i] for i in picks]


def _whole_window(
    window: WindowView,
    k: int,
    z: int,
    step: float,
    metric: Metric,
    candidates: Optional[Callable[[int], np.ndarray]] = None,
) -> SolveOutcome:
    """Smallest rho on a geometric grid (ratio 1 + step, spanning the
    window's positive pairwise distances) for which the unit-weight greedy
    run leaves at most z uncovered points."""
    _check_step(step)
    for name, value, least in (("k", k, 1), ("z", z, 0)):
        _require_count(name, value)
        if value < least:
            raise ValueError(f"{name} must be >= {least}")
    pts = list(window.points)
    n = len(pts)
    d = _distances(pts, metric)
    lo, hi = _extremes(d, n)
    grid = _radius_grid(lo, hi, 1.0 + step)
    rho, centers, uw = _first_covering(grid, pts, [1] * n, d, k, z, 0.0, candidates)
    return SolveOutcome(centers=tuple(centers), uncovered_weight=uw, rho_min=rho)


def charikar(
    window: WindowView,
    k: int,
    z: int,
    step: float = 0.5,
    metric: Metric = dist,
) -> SolveOutcome:
    """Whole-window baseline: the greedy scans every window point as a
    candidate center at each radius of the grid."""
    return _whole_window(window, k, z, step, metric)


def samp_charikar(
    window: WindowView,
    k: int,
    z: int,
    step: float = 0.5,
    sample_size: int = 1000,
    seed: int = 0,
) -> SolveOutcome:
    """charikar with each center-selection scan restricted to a Bernoulli
    sample of the window of expected size sample_size (all points when a
    draw comes out empty).  Euclidean only."""
    _require_count("sample_size", sample_size)
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    n = len(window.points)
    rng = np.random.default_rng(seed)
    prob = min(1.0, sample_size / n)

    def sample(_round: int) -> np.ndarray:
        picked = np.flatnonzero(rng.random(n) < prob)
        return picked if picked.size else np.arange(n)

    return _whole_window(window, k, z, step, dist, None if prob >= 1.0 else sample)
