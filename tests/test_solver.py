import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from streamkc import solver
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
    active_window,
    make_stream,
    manhattan,
    reference_outliers_cluster,
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

    def test_two_approximation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(5, 25))
            k = int(rng.integers(1, 4))
            w = WindowView.from_coords(rng.random((n, 2)) * 10)
            centers = gonzalez(w, k)
            _, r_star = brute_force_optimum(w, k, 0)
            assert radius_excluding(centers, w, 0) <= 2.0 * r_star + 1e-9


class TestCharikar:
    def test_outlier_ignored_within_bound(self):
        w = wv(0, 1, 2, 100)
        out = charikar(w, 1, 1, step=0.5)
        _, r_star = brute_force_optimum(w, 1, 1)
        assert out.achieved_radius <= 3.0 * (1.0 + 0.5) * r_star + 1e-9

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
            assert out.achieved_radius <= 3.0 * (1.0 + step) * r_star + 1e-9

    def test_identical_points_radius_zero(self):
        w = WindowView.from_coords([[2.0, 2.0]] * 5)
        out = charikar(w, 1, 0)
        assert out.achieved_radius == 0.0 and out.rho_min == 0.0

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
        out = compute_solution(lad, window=WindowView(points=tuple(stream), t=8))
        assert out.achieved_radius == 0.0
        assert out.rho_min == 0.0
        assert out.uncovered_weight == 0

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
            out = compute_solution(lad, window=window)
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
            pts = [p for p, _ in coreset.points]
            wts = [w for _, w in coreset.points]
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
        # a Manhattan ladder's coreset is clustered, and the centers scored,
        # in Manhattan distance: the same grid scan done by hand must agree
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
            window = active_window(stream, lad.t, n)
            out = compute_solution(lad, window=window)
            coreset = lad.extract_coreset()
            pts = [p for p, _ in coreset.points]
            wts = [w for _, w in coreset.points]
            for rho in solver._radius_grid(lad.d_t / 2.0, 4.0 * lad.D_t, 1.0 + beta):
                centers, uncovered = outliers_cluster(pts, wts, k, rho, eps, manhattan)
                uw = sum(w for _, w in uncovered)
                if uw <= z:
                    break
            assert out.centers == tuple(centers)
            assert out.rho_min == rho
            assert out.uncovered_weight == uw
            assert out.achieved_radius == radius_excluding(centers, window, z, manhattan)

    def test_eps_override(self):
        stream = [Point(1, (0.0,)), Point(2, (1.0,)), Point(3, (9.0,))]
        lad = self._ladder(stream, 1, 1)
        out = compute_solution(lad, eps=0.0)
        assert out.uncovered_weight <= 1
