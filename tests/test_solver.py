import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from streamkc import core, solver
from streamkc.core import Point, StreamParams, WindowView, dist, radius_excluding
from streamkc.coreset import GuessLadder
from streamkc.experiment import generate_ball_stream
from streamkc.solver import (
    brute_force_optimum,
    charikar,
    compute_solution,
    gonzalez,
    outliers_cluster,
    samp_charikar,
)
from oracles import (
    make_stream,
    manhattan,
    reference_gonzalez,
    reference_outliers_cluster,
    reference_solution_scan,
    reference_window_scan,
    stream_extremes,
)


def wv(*coords_1d):
    return WindowView.from_coords([[c] for c in coords_1d])


class TestOutliersCluster:
    def test_greedy_picks_heavy_then_leaves_far_singleton(self):
        w = wv(0, 10, 100)
        weights = [5, 5, 1]
        centers, uncovered = outliers_cluster(list(w.points), weights, 2, 1.0, 0.0)
        assert [c.coords[0] for c in centers] == [0.0, 10.0]
        assert [(p.coords[0], wt) for p, wt in uncovered] == [(100.0, 1)]

    def test_everything_covered_by_one_big_ball(self):
        w = wv(0, 1, 2, 3)
        centers, uncovered = outliers_cluster(list(w.points), [1] * 4, 4, 3.0, 0.0)
        assert len(centers) == 1 and uncovered == []

    def test_k_zero_returns_everything_uncovered(self):
        w = wv(0, 5)
        centers, uncovered = outliers_cluster(list(w.points), [1, 1], 0, 1.0, 0.0)
        assert centers == [] and len(uncovered) == 2

    def test_scores_above_two_to_the_24_stay_exact(self):
        # 2^24 + 1 has no float32: summed in float32 it would tie with the
        # first point's 2^24 and lose the tie
        pts = list(wv(0, 100, 100).points)
        weights = [2**24, 2**24, 1]
        got = outliers_cluster(pts, weights, 1, 1.0, 0.0)
        assert got == reference_outliers_cluster(pts, weights, 1, 1.0, 0.0, dist)
        assert got[0] == [pts[1]]

    def test_ties_resolved_by_scan_order(self):
        w = wv(0, 10)
        for _ in range(3):
            centers, _ = outliers_cluster(list(w.points), [1, 1], 1, 1.0, 0.0)
            assert centers[0].coords[0] == 0.0

    def test_rejects_negative_rho(self):
        with pytest.raises(ValueError):
            outliers_cluster([Point(1, (0.0,))], [1], 1, -1.0, 0.0)

    @pytest.mark.parametrize("metric", [dist, manhattan])
    @pytest.mark.parametrize("block", [7, solver._BLOCK])
    def test_matches_scalar_reference(self, metric, block, monkeypatch):
        # the blocked kernel must pick the same centers in the same order and
        # strand the same points as the scalar greedy; lattice instances with
        # unit weights tie scores everywhere, and the small block size makes
        # the tie-break span several blocks
        monkeypatch.setattr(solver, "_BLOCK", block)
        rng = np.random.default_rng(53)
        for trial in range(12):
            n = int(rng.integers(1, 40))
            if trial % 2 == 0:
                coords = rng.integers(0, 6, size=(n, 2))
                weights = [1] * n
            else:
                coords = rng.random((n, 3)) * 5.0
                weights = [int(w) for w in rng.integers(1, 6, size=n)]
            pts = [Point(i + 1, tuple(float(c) for c in row)) for i, row in enumerate(coords)]
            for k in (1, 3):
                for rho in (0.0, 0.9, 1.3, 2.1):
                    for eps in (0.0, 0.25, 0.5):
                        got = outliers_cluster(pts, weights, k, rho, eps, metric)
                        want = reference_outliers_cluster(pts, weights, k, rho, eps, metric)
                        assert got == want, (trial, k, rho, eps)

    @pytest.mark.parametrize("metric", [dist, manhattan])
    def test_sampled_rounds_match_the_scalar_reference(self, metric, monkeypatch):
        # samp_charikar's rounds draw their own candidates: a candidate drawn
        # again keeps the score it was given when first drawn, less what
        # each round since removed, and must still pick what a full
        # rescoring of the round's candidates picks, ties included
        monkeypatch.setattr(solver, "_BLOCK", 7)
        rng = np.random.default_rng(67)
        for trial in range(12):
            n = int(rng.integers(2, 40))
            if trial % 2 == 0:
                coords = rng.integers(0, 6, size=(n, 2))
                weights = [1] * n
            else:
                coords = rng.random((n, 3)) * 5.0
                weights = [int(w) for w in rng.integers(1, 6, size=n)]
            pts = [Point(i + 1, tuple(float(c) for c in row)) for i, row in enumerate(coords)]
            for k in (1, 3, 5):
                subsets = []
                for _ in range(k):
                    picked = np.flatnonzero(rng.random(n) < 0.4)
                    subsets.append(picked if picked.size else np.arange(n))
                for rho in (0.0, 0.9, 1.3, 2.1):
                    for eps in (0.0, 0.25):
                        got = outliers_cluster(pts, weights, k, rho, eps, metric,
                                               subsets.__getitem__)
                        want = reference_outliers_cluster(pts, weights, k, rho, eps, metric,
                                                          subsets.__getitem__)
                        assert got == want, (trial, k, rho, eps)

    def test_candidates_restrict_the_centers(self):
        w = wv(0, 1, 2, 50)
        pts = list(w.points)
        centers, uncovered = outliers_cluster(
            pts, [1] * 4, 1, 1.0, 0.0, candidates=lambda _round: np.array([3])
        )
        assert centers == [pts[3]]
        assert [p for p, _ in uncovered] == pts[:3]


class TestBruteForce:
    def test_one_center_one_outlier(self):
        w = wv(0, 1, 2, 100)
        centers, r = brute_force_optimum(w, 1, 1)
        assert centers[0].coords[0] == 1.0
        assert r == 1.0

    def test_two_centers_no_outliers(self):
        w = wv(0, 1, 2, 100)
        _, r = brute_force_optimum(w, 2, 0)
        assert r == 1.0

    def test_everything_outlier(self):
        w = wv(3, 7, 50)
        _, r = brute_force_optimum(w, 1, 2)
        assert r == 0.0

    def test_size_guard(self):
        big = WindowView.from_coords([[float(i)] for i in range(41)])
        with pytest.raises(ValueError):
            brute_force_optimum(big, 1, 0)
        small = wv(0, 1, 2)
        with pytest.raises(ValueError):
            brute_force_optimum(small, 5, 0)


class TestGonzalez:
    def test_farthest_first(self):
        w = wv(0, 1, 9, 10)
        centers = gonzalez(w, 2)
        assert sorted(c.coords[0] for c in centers) == [0.0, 10.0]

    def test_k_at_least_n_returns_all(self):
        w = wv(4, 7)
        assert {c.coords[0] for c in gonzalez(w, 5)} == {4.0, 7.0}

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_a_k_that_is_not_an_integer_is_refused(self, k):
        # 2.5 would return three centers
        with pytest.raises(ValueError, match="k must be an integer"):
            gonzalez(wv(0, 1, 9, 10), k)
        assert len(gonzalez(wv(0, 1, 9, 10), np.int64(2))) == 2

    def test_two_approximation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(5, 25))
            k = int(rng.integers(1, 4))
            w = WindowView.from_coords(rng.random((n, 2)) * 10)
            centers = gonzalez(w, k)
            _, r_star = brute_force_optimum(w, k, 0)
            assert radius_excluding(centers, w, 0) <= 2.0 * r_star + 1e-9


    @pytest.mark.parametrize("metric", [dist, manhattan], ids=["euclidean", "manhattan"])
    def test_matches_the_scalar_reference(self, metric):
        # row reads in place of scalar calls: same picks, ties included
        rng = np.random.default_rng(71)
        for trial in range(30):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(1, 12))
            if trial % 3:
                coords = rng.random((n, 3)) * 10
            else:
                coords = rng.integers(0, 4, size=(n, 2)).astype(float)
            w = WindowView.from_coords(coords)
            got = gonzalez(w, k, metric)
            assert [c.arrival for c in got] == [
                c.arrival for c in reference_gonzalez(w, k, metric)
            ]
            _, sep = solver._farthest_first(
                solver._distances(w.points, metric), n, k
            )
            pairs = [metric(p, q) for i, p in enumerate(got) for q in got[:i]]
            assert sep == pytest.approx(min(pairs, default=math.inf), rel=1e-12)


class TestCharikar:
    def test_outlier_ignored_within_bound(self):
        w = wv(0, 1, 2, 100)
        out = charikar(w, 1, 1, step=0.5)
        _, r_star = brute_force_optimum(w, 1, 1)
        assert radius_excluding(out.centers, w, 1) <= 3.0 * (1.0 + 0.5) * r_star + 1e-9

    def test_all_outliers_succeeds_immediately(self):
        w = wv(0, 50, 100)
        out = charikar(w, 1, 3, step=0.5)
        assert out.rho_min == 0.0
        assert out.uncovered_weight <= 3

    def test_radius_bound_random(self):
        rng = np.random.default_rng(19)
        for _ in range(15):
            n = int(rng.integers(6, 30))
            k = int(rng.integers(1, 4))
            z = int(rng.integers(0, 4))
            if z >= n:
                continue
            step = float(rng.choice([0.3, 0.5, 1.0]))
            w = WindowView.from_coords(rng.random((n, 2)) * 20)
            out = charikar(w, k, z, step=step)
            _, r_star = brute_force_optimum(w, k, z)
            assert out.uncovered_weight <= z
            assert radius_excluding(out.centers, w, z) <= 3.0 * (1.0 + step) * r_star + 1e-9

    def test_identical_points_radius_zero(self):
        w = WindowView.from_coords([[2.0, 2.0]] * 5)
        out = charikar(w, 1, 0)
        assert radius_excluding(out.centers, w, 0) == 0.0 and out.rho_min == 0.0

    @pytest.mark.parametrize("step", [0.0, -0.5, 1e-17, math.nan, math.inf])
    def test_a_step_whose_grid_never_ends_is_rejected(self, step):
        w = wv(0, 1, 2, 100)
        with pytest.raises(ValueError, match="step"):
            charikar(w, 1, 1, step=step)
        with pytest.raises(ValueError, match="step"):
            samp_charikar(w, 1, 1, step=step, sample_size=2)

    def test_a_window_whose_block_distances_overflow_is_rejected(self):
        # the block form reads the pairs with (1e200, 0) as inf, and a radius
        # grid up to an infinite cap would never end
        w = WindowView.from_coords([[0.0, 0.0], [1.0, 0.0], [1e200, 0.0]])
        with pytest.raises(ValueError, match="not finite"):
            charikar(w, 1, 1)
        with pytest.raises(ValueError, match="not finite"):
            samp_charikar(w, 1, 1, sample_size=2)
        with pytest.raises(ValueError, match="not finite"):
            solver._radius_grid(1.0, math.inf, 1.5)

    def test_samp_charikar_rejects_an_empty_sample(self):
        with pytest.raises(ValueError, match="sample_size"):
            samp_charikar(wv(0, 1, 2, 100), 1, 1, sample_size=0)

    def test_grid_anchored_at_smallest_pair_distance(self):
        # far points make the squared-norm expansion of a point's distance to
        # itself leave a positive residue; the grid must still start at the
        # smallest positive distance between two distinct points
        coords = np.vstack(
            [
                generate_ball_stream(120, dim=4, seed=3),
                generate_ball_stream(4, dim=4, outlier_rate=1.0, outlier_norm=200.0, seed=4),
            ]
        )
        d = pdist(coords)
        minpos = float(d[d > 0].min())
        w = WindowView.from_coords(coords)
        n, step = len(coords), 0.5
        for out in (
            charikar(w, 2, 2, step=step),
            samp_charikar(w, 2, 2, step=step, sample_size=n),
        ):
            if out.rho_min == 0.0:
                continue
            i = round(math.log(out.rho_min / minpos) / math.log1p(step))
            assert out.rho_min == pytest.approx(minpos * (1.0 + step) ** i, rel=1e-9)

    def test_blocked_memory_on_a_large_window(self):
        rng = np.random.default_rng(61)
        w = WindowView.from_coords(rng.random((2000, 4)))
        tracemalloc.start()
        try:
            charikar(w, 2, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestSampCharikar:
    def test_degenerates_to_charikar_when_sampling_everything(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            n = int(rng.integers(8, 40))
            w = WindowView.from_coords(rng.random((n, 3)) * 5)
            a = charikar(w, 2, 2, step=0.5)
            b = samp_charikar(w, 2, 2, step=0.5, sample_size=n, seed=7)
            assert a == b

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(31)
        w = WindowView.from_coords(rng.random((60, 2)) * 5)
        a = samp_charikar(w, 2, 3, sample_size=10, seed=42)
        b = samp_charikar(w, 2, 3, sample_size=10, seed=42)
        assert a == b
        c = samp_charikar(w, 2, 3, sample_size=10, seed=43)
        assert c.uncovered_weight <= 3  # different seed still valid


class TestComputeSolution:
    def _ladder(self, stream, k, z, lam=0.5, beta=0.5, mode="fixed"):
        params = StreamParams(len(stream), k, z, lam, beta)
        if mode == "fixed":
            d_min, d_max = stream_extremes(stream)
            lad = GuessLadder(params, "fixed", d_min, d_max)
        else:
            lad = GuessLadder(params, "oblivious")
        for p in stream:
            lad.process_point(p)
        return lad

    def test_few_distinct_locations_radius_zero(self):
        coords = [[0.0, 0.0]] * 4 + [[5.0, 5.0]] * 4
        stream = [Point(i + 1, tuple(c)) for i, c in enumerate(coords)]
        lad = self._ladder(stream, k=2, z=0)
        out = compute_solution(lad)
        assert radius_excluding(out.centers, WindowView(points=tuple(stream), t=8), 0) == 0.0
        assert out.rho_min == 0.0
        assert out.uncovered_weight == 0

    def test_a_fixed_grid_below_the_streams_scale_exhausts_the_radius_grid(self):
        # two far clusters of weight 50 each, k = z = 1 and d_max far below
        # their distance: the guess qualifies, but no radius of the grid
        # lets one center leave at most one uncovered
        lad = GuessLadder(StreamParams(100, 1, 1), "fixed", 0.01, 0.01)
        for t in range(1, 101):
            lad.process_point(Point(t, ((0.0 if t % 2 else 100.0) + 1e-4 * (t % 3),)))
        assert lad.extract_coreset().weights.tolist() == [50, 50]
        hint = "a fixed ladder's d_max lies below the data's scale (check d_min/d_max)"
        with pytest.raises(RuntimeError, match=re.escape(
                f"radius grid exhausted without covering enough weight: {hint}")):
            compute_solution(lad)

    @pytest.mark.parametrize("mode", ["fixed", "oblivious"])
    def test_bicriteria_bounds_random(self, mode):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(10, 30))
            k = int(rng.integers(1, 4))
            z = int(rng.integers(0, 4))
            if k + z + 1 > n:
                continue
            lam, beta = 0.5, 0.5
            stream = make_stream(rng, n, 2)
            lad = self._ladder(stream, k, z, lam, beta, mode)
            window = WindowView(points=tuple(stream), t=n)
            out = compute_solution(lad)
            assert out.uncovered_weight <= z
            assert len(out.centers) <= k
            _, r_star = brute_force_optimum(window, k, z)
            bound = (23.0 + 55.0 * beta) * r_star + 1e-9
            beyond = sum(
                1 for p in window.points
                if min(dist(p, c) for c in out.centers) > bound
            )
            assert beyond <= (1.0 + lam) * z

    def test_rho_min_close_to_optimum(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(10, 25))
            k, z, beta = 2, 1, 0.5
            stream = make_stream(rng, n, 2)
            lad = self._ladder(stream, k, z, beta=beta)
            window = WindowView(points=tuple(stream), t=n)
            _, r_star = brute_force_optimum(window, k, z)
            out = compute_solution(lad)
            assert out.rho_min <= (1.0 + beta) * r_star + 1e-9

    def test_uncovered_weight_bounded_at_optimal_rho(self):
        # at any rho >= r*, the greedy pass on the coreset must strand at
        # most z units of estimated weight
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(10, 25))
            k, z, beta = 2, 2, 0.5
            stream = make_stream(rng, n, 2)
            lad = self._ladder(stream, k, z, beta=beta)
            window = WindowView(points=tuple(stream), t=n)
            _, r_star = brute_force_optimum(window, k, z)
            coreset = lad.extract_coreset()
            pts, wts = list(coreset.points), coreset.weights.tolist()
            eps = 4.0 * (1.0 + beta)
            for rho in (r_star, 1.5 * r_star + 1e-12, 4.0 * r_star + 1e-12):
                _, uncovered = outliers_cluster(pts, wts, k, rho, eps)
                assert sum(w for _, w in uncovered) <= z

    def test_solution_during_oblivious_warmup(self):
        params = StreamParams(50, 2, 1, 0.5, 0.5)
        lad = GuessLadder(params, "oblivious")
        lad.process_point(Point(1, (3.0, 4.0)))
        out = compute_solution(lad)
        assert out.rho_min == 0.0
        assert out.centers[0].coords == (3.0, 4.0)

    def test_solves_in_the_ladders_metric(self):
        # a Manhattan ladder's coreset is clustered in Manhattan distance:
        # the same grid scan done by hand must agree
        rng = np.random.default_rng(59)
        k, z, beta = 2, 1, 0.5
        eps = 4.0 * (1.0 + beta)
        for _ in range(20):
            n = int(rng.integers(8, 20))
            stream = make_stream(rng, 2 * n, 2)
            params = StreamParams(n, k, z, 0.5, beta)
            lad = GuessLadder(params, "oblivious", metric=manhattan)
            for p in stream:
                lad.process_point(p)
            assert lad.bootstrapped
            out = compute_solution(lad)
            coreset = lad.extract_coreset()
            pts, wts = list(coreset.points), coreset.weights.tolist()
            for rho in solver._radius_grid(lad.d_t / 2.0, 4.0 * lad.D_t, 1.0 + beta):
                centers, uncovered = outliers_cluster(pts, wts, k, rho, eps, manhattan)
                uw = sum(w for _, w in uncovered)
                if uw <= z:
                    break
            assert out.centers == tuple(centers)
            assert out.rho_min == rho
            assert out.uncovered_weight == uw


def _points(coords):
    return [Point(i + 1, tuple(float(c) for c in row)) for i, row in enumerate(coords)]


def _ball_with_far_points(n, seed):
    rng = np.random.default_rng(seed)
    coords = generate_ball_stream(n, dim=3, seed=seed)
    far = rng.random(n) < 0.05
    coords[far] *= 40.0
    return coords


def _lattice(n, seed):
    return np.random.default_rng(seed).integers(0, 6, size=(n, 2)).astype(float)


def _few_locations(n, seed):
    # three locations: fewer than k + z + 1 distinct points
    return np.random.default_rng(seed).integers(0, 3, size=(n, 1)) * np.array([[1.0, 2.0]])


def _blobs(n, seed, style="blobs"):
    rng = np.random.default_rng(seed)
    return np.array([p.coords for p in make_stream(rng, n, 2, style)])


# (name, coords, window_len, k, z, mode, metric) for compute_solution
LADDER_CASES = [
    ("ball-fixed", _ball_with_far_points(150, 1), 150, 3, 4, "fixed", dist),
    ("blobs-fixed", _blobs(200, 3), 150, 3, 4, "fixed", dist),
    ("uniform-fixed", _blobs(200, 2, "uniform"), 150, 3, 4, "fixed", dist),
    ("ball-oblivious", _ball_with_far_points(200, 2), 60, 3, 4, "oblivious", dist),
    ("blobs-oblivious", _blobs(200, 1), 100, 4, 6, "oblivious", dist),
    ("warm-up", _ball_with_far_points(7, 3), 30, 3, 4, "oblivious", dist),
    ("few-locations", _few_locations(120, 4), 60, 2, 2, "oblivious", dist),
    ("n-below-k-plus-z", _ball_with_far_points(7, 5), 8, 3, 4, "fixed", dist),
    ("lattice", _lattice(150, 6), 80, 2, 3, "oblivious", dist),
    ("manhattan", _blobs(200, 2), 80, 3, 3, "oblivious", manhattan),
]

# (name, coords, k, z, metric) for charikar and samp_charikar
WINDOW_CASES = [
    ("ball", _ball_with_far_points(200, 11), 3, 5, dist),
    ("few-locations", _few_locations(90, 12), 2, 3, dist),
    ("n-below-k-plus-z", _ball_with_far_points(5, 13), 2, 3, dist),
    ("lattice", _lattice(120, 14), 2, 4, dist),
    ("manhattan", _ball_with_far_points(150, 15), 3, 3, manhattan),
]


def _ladder_for(case):
    _, coords, window_len, k, z, mode, metric = case
    stream = _points(coords)
    params = StreamParams(window_len, k, z, 0.5, 0.5)
    bounds = stream_extremes(stream, metric) if mode == "fixed" else (None, None)
    lad = GuessLadder(params, mode, *bounds, metric=metric)
    for p in stream:
        lad.process_point(p)
    return lad


def _recording(monkeypatch):
    """Radii at which the solver runs the greedy, in call order."""
    run, kernel = [], solver._greedy

    def recorded(d, w, k, rho, *args, **kw):
        run.append(rho)
        return kernel(d, w, k, rho, *args, **kw)

    monkeypatch.setattr(solver, "_greedy", recorded)
    return run


class TestSeparationSkip:
    """The scans skip radii whose runs provably fail; what they return is
    exactly what the unpruned scan returns."""

    @pytest.mark.parametrize("case", LADDER_CASES, ids=lambda c: c[0])
    def test_compute_solution_matches_the_unpruned_scan(self, case):
        lad = _ladder_for(case)
        if lad.mode == "oblivious":
            assert lad.bootstrapped == (case[0] != "warm-up")
        _, (rho, centers, uw) = reference_solution_scan(lad)
        out = compute_solution(lad)
        assert [c.arrival for c in out.centers] == [c.arrival for c in centers]
        assert out.uncovered_weight == uw
        assert out.rho_min == rho

    @pytest.mark.parametrize("case", WINDOW_CASES, ids=lambda c: c[0])
    def test_charikar_matches_the_unpruned_scan(self, case):
        _, coords, k, z, metric = case
        w = WindowView(points=tuple(_points(coords)), t=len(coords))
        _, (rho, centers, uw) = reference_window_scan(w, k, z, metric=metric)
        out = charikar(w, k, z, metric=metric)
        assert [c.arrival for c in out.centers] == [c.arrival for c in centers]
        assert out.uncovered_weight == uw
        assert out.rho_min == rho

    @pytest.mark.parametrize("case", [c for c in WINDOW_CASES if c[4] is dist],
                             ids=lambda c: c[0])
    @pytest.mark.parametrize("sample_size", [3, 20, 1000])
    def test_samp_charikar_matches_the_unpruned_scan(self, case, sample_size):
        _, coords, k, z, _ = case
        w = WindowView(points=tuple(_points(coords)), t=len(coords))
        _, (rho, centers, uw) = reference_window_scan(
            w, k, z, sample_size=sample_size, seed=5
        )
        out = samp_charikar(w, k, z, sample_size=sample_size, seed=5)
        assert [c.arrival for c in out.centers] == [c.arrival for c in centers]
        assert out.uncovered_weight == uw
        assert out.rho_min == rho

    def test_a_query_builds_one_distance_reader(self, monkeypatch):
        built, real = [], solver._distances
        monkeypatch.setattr(solver, "_distances", lambda *a: built.append(a) or real(*a))
        run = _recording(monkeypatch)
        lad = _ladder_for(LADDER_CASES[0])
        compute_solution(lad)
        _, coords, k, z, _ = WINDOW_CASES[0]
        charikar(WindowView(points=tuple(_points(coords)), t=len(coords)), k, z)
        assert len(run) > 2 and len(built) == 2

    def test_every_skipped_radius_fails(self, monkeypatch):
        run = _recording(monkeypatch)
        scans = []  # (grid, rho_min, radii run, pts, wts, k, z, eps, metric)
        for case in LADDER_CASES:
            lad = _ladder_for(case)
            grid, _ = reference_solution_scan(lad)
            run.clear()
            out = compute_solution(lad)
            coreset = lad.extract_coreset()
            pts, wts = list(coreset.points), coreset.weights.tolist()
            eps = 4.0 * (1.0 + lad.params.beta)
            k, z = lad.params.k, lad.params.z
            scans.append((grid, out.rho_min, list(run), pts, wts, k, z, eps, lad.metric))
        for _, coords, k, z, metric in WINDOW_CASES:
            w = WindowView(points=tuple(_points(coords)), t=len(coords))
            grid, _ = reference_window_scan(w, k, z, metric=metric)
            run.clear()
            out = charikar(w, k, z, metric=metric)
            n = len(coords)
            scans.append((grid, out.rho_min, list(run), list(w.points), [1] * n,
                          k, z, 0.0, metric))
        monkeypatch.undo()
        skipped = 0
        for grid, rho_min, ran, pts, wts, k, z, eps, metric in scans:
            tried = grid[: grid.index(rho_min) + 1]
            # only grid radii up to rho_min are run, upward, each once
            assert ran == [rho for rho in tried if rho in ran]
            for rho in tried:
                if rho not in ran:
                    skipped += 1
                    _, uncovered = outliers_cluster(pts, wts, k, rho, eps, metric)
                    assert sum(w for _, w in uncovered) > z
        assert skipped > 0

    def test_a_radius_at_the_bound_within_rounding_is_run(self):
        # m sits on the segment from p to q, and the block form rounds the
        # two halves down and the whole up: 2 * 3 * rho reads below the
        # separation |pq| although the removal ball 3 * rho around m holds
        # both.  The run at rho covers everything, so it must not be skipped.
        pts = _points([[7.054855021227487, 0.24149657770626942],
                       [5.888932567562967, 3.4922604615822728],
                       [6.471893794395227, 1.866878519644271]])
        d = solver._distances(pts, dist)
        rho = 0.5755876464939427
        sep = d([0], [1])[0, 0]
        assert 2.0 * 3.0 * rho < sep and d([2], [0, 1]).max() <= 3.0 * rho
        # weight 2 on m makes it the greedy's first pick
        got = solver._first_covering([rho], pts, [1, 1, 2], d, 1, 0, 0.0)
        assert got == (rho, [pts[2]], 0)

    def test_nothing_is_skipped_below_k_plus_z_plus_one_distinct_points(
        self, monkeypatch
    ):
        run = _recording(monkeypatch)
        for name, coords, k, z, _ in WINDOW_CASES:
            if name not in ("few-locations", "n-below-k-plus-z"):
                continue
            w = WindowView(points=tuple(_points(coords)), t=len(coords))
            grid, (rho, _, _) = reference_window_scan(w, k, z)
            run.clear()
            charikar(w, k, z)
            assert run == grid[: grid.index(rho) + 1]

    def test_charikar_on_500_points_skips_radii(self, monkeypatch):
        w = _window_of_500()
        grid, (rho, _, _) = reference_window_scan(w, 10, 10)
        unpruned = grid.index(rho) + 1
        run = _recording(monkeypatch)
        out = charikar(w, 10, 10)
        assert out.rho_min == rho
        assert len(run) * 2 <= unpruned, (len(run), unpruned)


def _window_of_500() -> WindowView:
    coords = np.vstack(
        [
            generate_ball_stream(490, dim=4, seed=21),
            generate_ball_stream(10, dim=4, outlier_rate=1.0, outlier_norm=50.0, seed=22),
        ]
    )
    return WindowView(points=tuple(_points(coords)), t=len(coords))


def test_a_greedy_run_reads_each_distance_at_most_once(monkeypatch):
    # a run scores each candidate once and keeps the cover tests of that
    # pass, then reads only the removal rows: at most n^2 + k*n entries,
    # where reading the removed points' rows again read up to 2*n^2 + k*n,
    # and rescoring every candidate each round about k*n*|uncovered|
    reads, runs = [0], []
    reader, kernel = solver._distances, solver._greedy

    def counting(points, metric):
        d = reader(points, metric)

        def read(rows, cols):
            block = d(rows, cols)
            reads[0] += block.size
            return block

        return read

    def run(*args, **kw):
        reads[0] = 0
        out = kernel(*args, **kw)
        runs.append(reads[0])
        return out

    monkeypatch.setattr(solver, "_distances", counting)
    monkeypatch.setattr(solver, "_greedy", run)
    n, k = 500, 10
    charikar(_window_of_500(), k, 10)
    assert runs and max(runs) <= n * n + k * n, runs


def test_a_charikar_query_computes_each_distance_once():
    calls = []

    def metric(p, q):
        return dist(p, q)

    def pairwise(xs, ys):
        calls.append((len(xs), len(ys)))
        return dist.pairwise(xs, ys)

    metric.pairwise = pairwise
    w = _window_of_500()
    out = charikar(w, 10, 10, metric=metric)
    assert calls == [(500, 500)]
    assert out == charikar(w, 10, 10)


def test_a_sampled_run_on_blocks_reads_only_uncovered_or_scored_columns(monkeypatch):
    # above the matrix size each read computes its distances, so a round
    # after the first scores against the uncovered points, not all n
    monkeypatch.setattr(core, "_MATRIX_POINTS", 0)
    runs, kernel = [], solver._greedy

    def run(d, *args, **kw):
        reads = []

        def read(rows, cols):
            block = d(rows, cols)
            reads.append(block.shape)
            return block

        out = kernel(read, *args, **kw)
        runs.append(reads)
        return out

    monkeypatch.setattr(solver, "_greedy", run)
    n = 500
    samp_charikar(_window_of_500(), 10, 10, sample_size=50, seed=5)
    assert runs
    for reads in runs:
        assert sum(r * c for r, c in reads) < sum(r for r, _ in reads) * n
        assert [c for _, c in reads].count(n) <= 2  # round 0's scoring and removal row


def test_single_pass_readers_compute_only_the_rows_they_read():
    # gonzalez and guess qualification read each row once, so they read
    # blocks: no whole matrix for the rows they never read
    calls = []

    def metric(p, q):
        return dist(p, q)

    def pairwise(xs, ys):
        calls.append((len(xs), len(ys)))
        return dist.pairwise(xs, ys)

    metric.pairwise = pairwise
    w = _window_of_500()
    assert gonzalez(w, 10, metric) == gonzalez(w, 10)
    assert calls == [(1, 500)] * 10
    lad = _ladder_for((*LADDER_CASES[0][:-1], metric))
    read = 0
    for e in lad.exponents():
        calls.clear()
        lad.qualifies(e)
        n = len(lad._run_of(e).union_points())
        assert len(calls) <= lad.params.k + lad.params.z + 1
        assert set(calls) <= {(1, n)}
        read += len(calls)
    assert read


def _reader_outputs(ladders, windows) -> list:
    """What the radius scans and the extremes return: centers by arrival,
    rho_min and uncovered weight of each scan, and the extremes."""
    out = []

    def scanned(s):
        return [c.arrival for c in s.centers], s.rho_min, s.uncovered_weight

    for lad in ladders:
        out.append(scanned(compute_solution(lad)))
    for _, coords, k, z, metric in windows:
        w = WindowView(points=tuple(_points(coords)), t=len(coords))
        out.append(scanned(charikar(w, k, z, metric=metric)))
        if metric is dist:
            out += [scanned(samp_charikar(w, k, z, sample_size=m, seed=5)) for m in (3, 20)]
        out.append(core._extremes(core._distances(w.points, metric), len(w.points)))
    return out


def test_the_matrix_and_the_block_reader_give_the_same_outputs(monkeypatch):
    # a matrix entry is the block form's value for its one pair, so reading
    # a set's whole matrix once returns what reading it block by block
    # returns: ties, duplicate points and the manhattan metric included
    ladders = [_ladder_for(case) for case in LADDER_CASES]
    duplicates = ("duplicates", np.repeat(_lattice(30, 16), 3, axis=0), 2, 3, dist)
    windows = [*WINDOW_CASES, duplicates]
    assert max(len(c[1]) for c in windows) <= core._MATRIX_POINTS
    outputs = []
    for size in (0, core._MATRIX_POINTS):  # every set above the size, then below it
        monkeypatch.setattr(core, "_MATRIX_POINTS", size)
        outputs.append(_reader_outputs(ladders, windows))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: brute_force_optimum(wv(0.0, 1.0, 2.0), 0, 0), "k must be >= 1",
                 id="brute_force-k-0"),
    pytest.param(lambda: brute_force_optimum(wv(0.0, 1.0, 2.0), 1, 3),
                 "z must satisfy 0 <= z < window size", id="brute_force-z-window"),
    pytest.param(lambda: gonzalez(wv(0.0, 1.0), 0), "k must be >= 1", id="gonzalez-k-0"),
    # the whole-window baselines check both counts before they scan: a bad
    # k or z once exhausted the grid, failed raw, or was answered
    *(pytest.param(lambda solve=solve, k=k, z=z: solve(wv(0.0, 1.0, 9.0, 10.0), k, z), message,
                   id=f"{solve.__name__}-k-{k}-z-{z}")
      for solve in (charikar, samp_charikar)
      for k, z, message in ((0, 1, "k must be >= 1"), (1, -1, "z must be >= 0"),
                            (2.5, 1, "k must be an integer, got 2.5"),
                            (1, 1.5, "z must be an integer, got 1.5"),
                            (True, 1, "k must be an integer, got True"))),
    # a NaN radius or eps once removed every point with the first center
    pytest.param(lambda: outliers_cluster(list(wv(0, 1, 5, 9).points), [1] * 4, 2,
                                          math.nan, 0.0),
                 "rho must be >= 0, got nan", id="outliers_cluster-rho-nan"),
    pytest.param(lambda: outliers_cluster(list(wv(0, 1, 5, 9).points), [1] * 4, 2, 1.0,
                                          math.nan),
                 "eps must be finite and >= 0, got nan", id="outliers_cluster-eps-nan"),
    pytest.param(lambda: outliers_cluster(list(wv(0, 1, 5, 9).points), [1] * 4, 2, 0.0,
                                          math.inf),
                 "eps must be finite and >= 0, got inf", id="outliers_cluster-eps-inf"),
    pytest.param(lambda: outliers_cluster(list(wv(0, 1, 5, 9).points), [1] * 4, True, 1.0, 0.0),
                 "k must be an integer, got True", id="outliers_cluster-k-bool"),
    pytest.param(lambda: outliers_cluster(list(wv(0, 1, 5, 9).points), [1] * 4, -1, 1.0, 0.0),
                 "k must be >= 0", id="outliers_cluster-k-negative"),
    pytest.param(lambda: outliers_cluster(list(wv(0, 1, 5, 9).points), [1] * 3, 2, 1.0, 0.0),
                 "weights must hold one entry per point: 3 for 4 points",
                 id="outliers_cluster-weights-short"),
    *(pytest.param(lambda size=size: samp_charikar(wv(0.0, 1.0, 9.0, 10.0), 1, 1,
                                                   sample_size=size),
                   f"sample_size must be an integer, got {size!r}",
                   id=f"samp_charikar-sample_size-{size!r}")
      for size in (2.5, True, math.nan, "3")),
    pytest.param(lambda: gonzalez(WindowView(points=(), t=0), 1), "window must be non-empty",
                 id="gonzalez-empty-window"),
])
def test_each_refusal_of_an_argument_is_raised(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
