import json
import math
import re
from itertools import accumulate, islice

import numpy as np
import pytest

from streamkc import coreset
from streamkc.core import InvariantError, Point, StreamParams, WindowView, dist
from streamkc.core import _distances, _extremes
from streamkc.coreset import GuessLadder, GuessState, _BumpMemo, _PointStore
from streamkc.effdiam import EffDiameterConfig, FineCoresetState
from streamkc.experiment import generate_ball_stream, inject_outliers, injection_prob
from streamkc.histogram import new_histogram, synthetic_full_window
from streamkc.solver import brute_force_optimum, compute_solution
from oracles import (
    LadderShadow,
    active_window,
    adversarial_stream,
    coverage_radius,
    entries_of,
    filled_store,
    float_bits,
    looped,
    optimized_check,
    make_stream,
    manhattan,
    max_entries,
    per_guess_search,
    reference_arrivals,
    reference_first_within,
    reference_qualifies,
    refusals,
    runs_by_guess,
    stepped_runs,
    store_fields,
    stream_extremes,
    retargets_every_arrival,
    unshared,
    weighted,
)


def pt(arrival, *coords):
    return Point(arrival, tuple(float(c) for c in coords))


def lone_state(max_attractions, window_len, orphan_cap=None):
    """A run of one guess outside any ladder, with a point store and a memo
    of its own."""
    return GuessState(0, 0, max_attractions, window_len,
                      _PointStore(dist), _BumpMemo(0.5), orphan_cap)


def step(st, p, radius):
    """Feed p to a lone state as a ladder would at the attraction radius:
    sweep, search, absorb."""
    st.sweep(p.arrival)
    return st.process_point(p, reference_first_within(st, p, radius))


class TestGuessState:
    @staticmethod
    def _three_spots(orphan_cap):
        """A lone state of three attraction points, at 0, 10 and 20, the
        first two of which captured a point at their spot: attractions 1, 2,
        5 with representatives 3, 4, 5."""
        st = lone_state(max_attractions=3, window_len=50, orphan_cap=orphan_cap)
        for i, x in enumerate((0.0, 10.0, 0.0, 10.0, 20.0)):
            step(st, pt(i + 1, x), 1.0)
        assert ([a.arrival for a in st.attractions], [r.arrival for r, _ in st.reps]) == (
            [1, 2, 5], [3, 4, 5])
        return st

    def test_a_prune_orphans_the_newer_representatives(self):
        st = self._three_spots(orphan_cap=3)
        step(st, pt(6, 10.0), 1.0)  # representative 6 for attraction point 2
        assert st.prune(4) == 2  # attraction points 1 and 2 leave
        assert [a.arrival for a in st.attractions] == [5]
        assert list(st.orphans) == [6]  # 3 is older than the floor, 6 is not
        assert (st.evicted, st.floor) == (0, 4)
        st.check_invariants(6, 1.0)
        assert st.prune(6) == 1  # attraction point 5 and its representative leave
        assert (st.attractions, list(st.orphans), st.floor) == ([], [6], 6)
        st.check_invariants(6, 1.0)

    def test_a_prune_past_the_orphan_cap_evicts_the_oldest(self):
        st = self._three_spots(orphan_cap=1)
        assert st.prune(3) == 2
        assert (list(st.orphans), st.evicted) == ([4], 1)
        st.check_invariants(5, 1.0)

    def test_a_point_older_than_the_floor_fails_the_state_check(self):
        st = self._three_spots(orphan_cap=3)
        st.prune(2)
        st.floor = 3
        with pytest.raises(InvariantError, match="older than the run's floor 3"):
            st.check_invariants(5, 1.0)

    def test_two_far_points_both_attract(self):
        st = lone_state(max_attractions=5, window_len=100)
        step(st, pt(1, 0), 2.0)
        step(st, pt(2, 5), 2.0)
        assert [a.coords for a in st.attractions] == [(0.0,), (5.0,)]
        assert len(st.reps) == len(st.attractions)
        for a, (rep, hist) in zip(st.attractions, st.reps):
            assert rep is a and hist == [(a.arrival, 1)]

    def test_close_point_becomes_representative(self):
        st = lone_state(max_attractions=5, window_len=100)
        step(st, pt(1, 0), 2.0)
        captured = step(st, pt(2, 1), 2.0)
        assert captured == 1
        assert [a.coords for a in st.attractions] == [(0.0,)]
        rep, hist = st.reps[0]  # the representative of the attraction point at 1
        assert rep.coords == (1.0,)
        assert hist == [(1, 2), (2, 1)]

    def test_capture_prefers_oldest_attraction(self):
        st = lone_state(max_attractions=5, window_len=100)
        step(st, pt(1, 0), 2.0)
        step(st, pt(2, 3), 2.0)
        # within 2.0 of both attraction points; the older one wins
        assert step(st, pt(3, 1.5), 2.0) == 1

    def test_eviction_at_capacity(self):
        cap = 4
        st = lone_state(max_attractions=cap, window_len=100)
        for i in range(cap):
            step(st, pt(i + 1, i), 0.2)
        assert len(st.attractions) == cap and not st.orphans
        step(st, pt(cap + 1, cap), 0.2)
        assert len(st.attractions) == cap
        assert st.evicted == 1
        # the evicted point's representative became an orphan, then was
        # discarded for being older than the new oldest attraction point
        assert st.orphans == {}

    def test_orphans_kept_when_below_prune_threshold(self):
        st = lone_state(max_attractions=10, window_len=10)
        step(st, pt(1, 0), 0.2)
        for t in range(2, 10):
            step(st, pt(t, 100.0 + 300 * t), 0.2)
        step(st, pt(10, 0.05), 0.2)  # representative of point 1
        # point 1 expires at t=11; its live representative becomes an orphan
        step(st, pt(11, 20), 0.2)
        assert list(st.orphans) == [10]
        # a new attraction point without capacity pressure keeps the orphan
        step(st, pt(12, 30), 0.2)
        assert list(st.orphans) == [10]

    def test_expiry_order_attractions_then_orphans(self):
        st = lone_state(max_attractions=5, window_len=3)
        step(st, pt(1, 0), 2.0)
        step(st, pt(2, 1), 2.0)
        # at t=4 the attraction point (arrival 1) expires; its representative
        # (arrival 2) survives as an orphan with the stale entry removed
        step(st, pt(4, 10), 2.0)
        assert st.attractions[0].arrival == 4
        assert list(st.orphans) == [2]
        assert st.orphans[2][1] == [(2, 1)]

    def test_randomized_separation_and_sizes(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            k_z = int(rng.integers(1, 6))
            n = int(rng.integers(10, 80))
            window_len = int(rng.integers(k_z + 2, 40))
            st = lone_state(max_attractions=k_z + 1, window_len=window_len)
            for i in range(n):
                p = pt(i + 1, *rng.random(2) * 8)
                step(st, p, 1.0)
                st.check_invariants(i + 1, 1.0)
                assert len(st.attractions) <= k_z + 1
                assert len(st.reps) <= k_z + 1
                assert len(st.orphans) <= k_z + 1, "orphans exceeded bound"


def _check_proxies(shadow, stream):
    """Whenever a guess holds at most k + z attraction points, every active
    point sits within 4 guess of its shadow proxy, which the guess stores."""
    lad = shadow.ladder
    k_z = lad.params.k + lad.params.z
    window = active_window(stream, lad.t, lad.params.window_len)
    for e, st in runs_by_guess(lad).items():
        if len(st.attractions) <= k_z:
            stored = {q.arrival for q in lad.coreset_at(e).points}
            for q in window.points:
                proxy = shadow.proxy(e, q)
                assert dist(q, proxy) <= 4.0 * lad.guess_value(e) + 1e-9
                assert proxy.arrival in stored, (
                    "proxy of an active point missing from the stored sets"
                )


def _check_weight_sandwich(shadow, stream):
    """The extracted coreset's weights are within a factor 1 + lam below the
    exact counts of the active points each one is the shadow proxy of."""
    lad = shadow.ladder
    lam = lad.params.lam
    window = active_window(stream, lad.t, lad.params.window_len)
    coreset = lad.extract_coreset()
    e = lad.selected_exponent()
    exact = shadow.exact_weights(e, list(window.points))
    total = 0
    for p, w in entries_of(coreset):
        true_w = exact[p.arrival]
        assert true_w / (1.0 + lam) <= w <= true_w
        total += w
    assert total <= len(window)
    assert len(window) <= (1.0 + lam) * total
    assert sum(exact.values()) == len(window)


class TestFixedLadder:
    def _run(self, rng, n=60, dim=2, k=2, z=1, lam=0.5, beta=0.5, window_len=None):
        stream = make_stream(rng, n, dim)
        d_min, d_max = stream_extremes(stream)
        params = StreamParams(window_len or n, k, z, lam, beta)
        shadow = LadderShadow.standard(params, d_min, d_max)
        for p in stream:
            shadow.feed(p)
        return stream, shadow

    def test_proxy_distance_bound(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            stream, shadow = self._run(rng, n=int(rng.integers(30, 80)),
                                       window_len=int(rng.integers(10, 40)))
            _check_proxies(shadow, stream)

    def test_weight_sandwich_against_shadow(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            stream, shadow = self._run(
                rng, n=int(rng.integers(25, 60)), lam=float(rng.choice([0.1, 0.5, 1.0]))
            )
            _check_weight_sandwich(shadow, stream)

    def test_coreset_quality_vs_oracle(self):
        rng = np.random.default_rng(23)
        for trial in range(15):
            n = int(rng.integers(10, 35))
            k = int(rng.integers(1, 4))
            z = int(rng.integers(0, 3))
            if k + z + 1 > n:
                continue
            beta = float(rng.choice([0.5, 1.0]))
            stream = make_stream(rng, n, 2)
            d_min, d_max = stream_extremes(stream)
            params = StreamParams(n, k, z, 0.5, beta)
            lad = GuessLadder(params, "fixed", d_min, d_max)
            for p in stream:
                lad.process_point(p)
            window = WindowView(points=tuple(stream), t=n)
            _, r_star = brute_force_optimum(window, k, z)
            coreset = lad.extract_coreset()
            assert len(coreset) <= 2 * (k + z + 1)
            cov = coverage_radius(window, coreset.points)
            assert cov <= 4.0 * (1.0 + beta) * r_star + 1e-9

    def test_selected_guess_close_to_optimum(self):
        # the selected guess never overshoots (1+beta) times the optimal
        # radius of the (k+z)-center relaxation
        rng = np.random.default_rng(29)
        for trial in range(10):
            n = int(rng.integers(10, 25))
            k, z = 2, 1
            beta = 1.0
            stream = make_stream(rng, n, 2)
            d_min, d_max = stream_extremes(stream)
            lad = GuessLadder(StreamParams(n, k, z, 0.5, beta), "fixed", d_min, d_max)
            for p in stream:
                lad.process_point(p)
            window = WindowView(points=tuple(stream), t=n)
            _, r_relaxed = brute_force_optimum(window, k + z, 0)
            coreset = lad.extract_coreset()
            assert lad.guess_value(lad.selected_exponent()) <= (1.0 + beta) * r_relaxed + 1e-9

    def test_a_point_exactly_twice_the_guess_from_a_pick_is_covered(self):
        # exponent 0 (guess 1) keeps its picks more than 2 apart: the point at
        # distance exactly 2 is covered by the pick at 0, so one pick
        # (k + z = 1) qualifies it
        lad = GuessLadder(StreamParams(10, 1, 0, 0.5, 1.0), "fixed", 2.0, 2.0)
        lad.process_point(pt(1, 0.0))
        lad.process_point(pt(2, 2.0))
        assert lad.exponents() == [0, 1]
        assert lad.qualifies(0)
        assert lad.selected_exponent() == 0

    def test_single_point_window_extraction(self):
        lad = GuessLadder(StreamParams(10, 1, 0, 0.5, 0.5), "fixed", 0.5, 8.0)
        lad.process_point(pt(1, 2.5))
        coreset = lad.extract_coreset()
        assert entries_of(coreset) == ((pt(1, 2.5), 1),)
        assert coreset.weights.dtype == np.int64
        # a lone point qualifies at the lowest rung of the grid
        assert lad.selected_exponent() == min(lad.states)

    def test_pluggable_metric(self):
        params = StreamParams(20, 1, 0, 0.5, 0.5)
        lad = GuessLadder(params, "fixed", 0.5, 64.0, metric=manhattan)
        lad.process_point(Point(1, (0.0, 0.0)))
        lad.process_point(Point(2, (1.5, 1.5)))  # manhattan 3.0, euclidean 2.12
        # at guess 1.0 the manhattan attraction radius is 2.0 < 3.0: two
        # separate attraction points, although euclidean would merge them
        e0 = [e for e in lad.exponents() if abs(lad.guess_value(e) - 1.0) < 1e-9]
        assert e0, "grid must contain the unit guess"
        assert len(lad._run_of(e0[0]).attractions) == 2

    def test_memory_instrumentation_bounds(self):
        rng = np.random.default_rng(37)
        stream, shadow = self._run(rng, n=80, window_len=30, k=3, z=2)
        lad = shadow.ladder
        k_z1 = lad.params.k + lad.params.z + 1
        n_guesses = len(lad.states)
        assert sum(st.stored_points() for st in runs_by_guess(lad).values()) <= 3 * k_z1 * n_guesses
        bound = n_guesses * 2 * k_z1 * max_entries(lad.params.window_len, lad.params.lam)
        assert lad.histogram_entries() <= bound
        gauge = lad.memory_floats(2)
        assert gauge == lad.stored_points() * 2 + 2 * lad.histogram_entries() + n_guesses + 2

    def test_misconfigured_ladder_raises(self):
        # guesses all far below the data scale: nothing qualifies
        stream = [pt(1, 0.0), pt(2, 1000.0), pt(3, 2000.0), pt(4, 3500.0)]
        lad = GuessLadder(StreamParams(4, 1, 0, 0.5, 0.5), "fixed", 1e-4, 1e-3)
        for p in stream:
            lad.process_point(p)
        with pytest.raises(RuntimeError, match="no qualifying guess"):
            lad.extract_coreset()

    @pytest.mark.parametrize("d_min, d_max", [(1.0, math.inf), (math.inf, math.inf),
                                              (math.nan, 1.0), (1.0, math.nan)])
    def test_non_finite_bounds_rejected(self, d_min, d_max):
        with pytest.raises(ValueError, match="d_max < inf"):
            GuessLadder(StreamParams(10, 1, 0, 0.5, 0.5), "fixed", d_min, d_max)

    def test_a_grid_beyond_the_bound_is_rejected_before_any_run_is_built(self, monkeypatch):
        # beta = 1e-12 over [1, 10] spells about 3.0e12 guesses
        with pytest.raises(ValueError, match="fixed grid would hold"):
            GuessLadder(StreamParams(10, 1, 0, 0.5, 1e-12), "fixed", 1.0, 10.0)
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.5, beta=1e-12)
        with pytest.raises(ValueError, match="fixed grid would hold"):
            FineCoresetState(cfg, 10, "fixed", 1.0, 10.0)
        # a grid of exactly the bound is built
        params = StreamParams(10, 1, 0, 0.5, 0.5)
        n = len(GuessLadder(params, "fixed", 1.0, 10.0).exponents())
        monkeypatch.setattr(coreset, "MAX_GRID_LEN", n)
        assert len(GuessLadder(params, "fixed", 1.0, 10.0).states) == n
        monkeypatch.setattr(coreset, "MAX_GRID_LEN", n - 1)
        with pytest.raises(ValueError, match=f"would hold {n} guesses, more than {n - 1}"):
            GuessLadder(params, "fixed", 1.0, 10.0)

    def test_out_of_order_arrival_rejected(self):
        lad = GuessLadder(StreamParams(10, 1, 0, 0.5, 0.5), "fixed", 0.1, 10.0)
        lad.process_point(pt(1, 0))
        with pytest.raises(ValueError):
            lad.process_point(pt(3, 1))

    @pytest.mark.parametrize("arrival", [2.0, np.int64(2)], ids=["float", "numpy_int"])
    def test_an_arrival_that_is_no_int_is_rejected_before_any_change(self, arrival):
        # it would become a histogram stamp, which the state check refuses
        lad = GuessLadder(StreamParams(10, 1, 0, 0.5, 0.5), "fixed", 0.1, 10.0)
        lad.process_point(pt(1, 0))
        before = lad.to_snapshot()
        with pytest.raises(ValueError, match="out-of-order arrival"):
            lad.process_point(Point(arrival, (1.0,)))
        assert lad.to_snapshot() == before
        lad.process_point(pt(2, 1))
        lad.check_invariants()

    def test_wrong_dimension_rejected_before_any_change(self):
        lad = GuessLadder(StreamParams(10, 1, 0, 0.5, 0.5), "fixed", 0.1, 10.0)
        lad.process_point(pt(1, 0, 0))
        before = lad.to_snapshot()
        with pytest.raises(ValueError, match="dimension"):
            lad.process_point(pt(2, 1))
        assert lad.to_snapshot() == before
        lad.process_point(pt(2, 1, 1))
        assert lad.t == 2
        lad.check_invariants()

    def test_stats_name_the_last_selected_guess(self):
        rng = np.random.default_rng(19)
        stream = make_stream(rng, 40, 2)
        lad = GuessLadder(StreamParams(20, 2, 1), "fixed", *stream_extremes(stream))
        assert lad.stats()["selected"] is None
        for p in stream:
            lad.process_point(p)
        assert lad.stats()["selected"] is None  # arrivals select no guess
        e = lad.selected_exponent()
        assert type(e) is int and lad.stats()["selected"] == e
        compute_solution(lad)
        assert lad.stats()["selected"] == e
        # the selection is no state: a snapshot leaves it out
        snap = lad.to_snapshot()
        assert "selected" not in json.dumps(snap)
        assert GuessLadder.from_snapshot(snap).stats()["selected"] is None


class TestObliviousLadder:
    @pytest.mark.parametrize("far", [(-1.7e308, 1.7e308), (9e307, 0.0)],
                             ids=["D_t_overflows", "twice_D_t_overflows"])
    @pytest.mark.parametrize("n", [3, 10], ids=["warm_up", "bootstrapped"])
    def test_a_point_beyond_the_grid_is_rejected_before_any_change(self, n, far):
        lad = GuessLadder(StreamParams(50, 2, 2, 0.5, 0.5), "oblivious")
        rng = np.random.default_rng(7)
        for t in range(1, n + 1):
            lad.process_point(pt(t, *rng.random(2)))
        assert lad.bootstrapped == (n == 10)
        before = lad.to_snapshot()
        with pytest.raises(ValueError, match="from the first point"):
            lad.process_point(pt(n + 1, *far))
        assert lad.to_snapshot() == before
        lad.check_invariants()
        lad.process_point(pt(n + 1, *rng.random(2)))
        lad.check_invariants()
        assert lad.t == n + 1

    def test_warmup_answers_by_buffer(self):
        lad = GuessLadder(StreamParams(100, 2, 2, 0.5, 0.5), "oblivious")
        lad.process_point(pt(1, 0.0))
        coreset = lad.extract_coreset()
        assert entries_of(coreset) == ((pt(1, 0.0), 1),)
        assert coreset.weights.dtype == np.int64

    @pytest.mark.parametrize("mode", ["fixed", "oblivious"])
    def test_the_warmup_coreset_after_the_bootstrap_names_the_grid(self, mode):
        rng = np.random.default_rng(29)
        if mode == "fixed":
            lad = GuessLadder(StreamParams(20, 2, 1), "fixed", 0.01, 2.0)
        else:
            lad = GuessLadder(StreamParams(20, 2, 1), "oblivious")
        for i in range(1, 30):
            lad.process_point(pt(i, *rng.random(2)))
        assert lad.bootstrapped
        with pytest.raises(RuntimeError, match=r"grid exists.*extract_coreset\(\) reads it"):
            lad.warmup_coreset()

    def test_bootstrap_happens_after_buffering(self):
        k, z = 2, 1
        lad = GuessLadder(StreamParams(50, k, z, 0.5, 0.5), "oblivious")
        rng = np.random.default_rng(2)
        i = 0
        while not lad.bootstrapped:
            i += 1
            lad.process_point(pt(i, *rng.random(2)))
        assert i == k + z + 2
        lad.check_invariants()

    def test_stationary_stream_keeps_ladder(self, monkeypatch):
        # same recent distances step after step: the guess range is stable,
        # and no guess is rebuilt
        lad = GuessLadder(StreamParams(60, 1, 1, 0.5, 0.5), "oblivious")
        for i in range(1, 30):
            lad.process_point(pt(i, i % 2))  # alternating 0, 1
        assert lad.bootstrapped
        exps = lad.exponents()

        def rebuilt(lo, hi):
            raise AssertionError(f"guesses {lo}..{hi} were rebuilt")

        monkeypatch.setattr(lad, "_new_state", rebuilt)
        lad.process_point(pt(30, 0))
        assert lad.exponents() == exps

    def test_far_point_creates_high_guess_with_synthetic_histogram(self):
        N = 10
        lam = 0.5
        lad = GuessLadder(StreamParams(N, 1, 1, lam, 0.5), "oblivious")
        rng = np.random.default_rng(4)
        t = 0
        for _ in range(25):
            t += 1
            lad.process_point(pt(t, *(rng.random(2))))
        old_hi = max(lad.exponents())
        far = 10000.0
        t += 1
        lad.process_point(pt(t, far, far))
        new_exps = [e for e in lad.exponents() if e > old_hi]
        assert new_exps, "doubling the max distance must add high guesses"
        st = lad._run_of(new_exps[0])
        # after the placeholder expired, the synthetic histogram lives on the
        # orphaned representative, minus the entry that expired at creation
        expected = synthetic_full_window(t, min(N, t - 1), lam)
        stale = t - N
        expected = [e for e in expected if e[0] != stale]
        assert st.orphans and next(iter(st.orphans.values()))[1] == expected
        lad.check_invariants()

    def test_low_guess_creation_on_close_pair(self):
        lad = GuessLadder(StreamParams(40, 1, 1, 0.5, 0.5), "oblivious")
        t = 0
        for i in range(12):
            t += 1
            lad.process_point(pt(t, float(i)))
        lo_before = min(lad.exponents())
        t += 1
        lad.process_point(pt(t, lad.recent[-1].coords[0] + 1e-4))
        assert min(lad.exponents()) < lo_before
        lad.check_invariants()

    def test_oblivious_matches_fixed_quality(self):
        rng = np.random.default_rng(41)
        for trial in range(8):
            n = int(rng.integers(12, 30))
            k = int(rng.integers(1, 3))
            z = int(rng.integers(0, 3))
            beta = 0.5
            stream = make_stream(rng, n, 2)
            params = StreamParams(n, k, z, 0.5, beta)
            d_min, d_max = stream_extremes(stream)
            fixed = GuessLadder(params, "fixed", d_min, d_max)
            obliv = GuessLadder(params, "oblivious")
            for p in stream:
                fixed.process_point(p)
                obliv.process_point(p)
            window = WindowView(points=tuple(stream), t=n)
            _, r_star = brute_force_optimum(window, k, z)
            bound = 4.0 * (1.0 + beta) * r_star + 1e-9
            for lad in (fixed, obliv):
                cov = coverage_radius(window, lad.extract_coreset().points)
                assert cov <= bound

    def test_duplicate_prefix_defers_bootstrap(self):
        lad = GuessLadder(StreamParams(30, 1, 1, 0.5, 0.5), "oblivious")
        for i in range(1, 9):
            lad.process_point(pt(i, 5.0, 5.0))
        assert not lad.bootstrapped
        coreset = lad.extract_coreset()
        assert coreset.total_weight() == 8
        lad.process_point(pt(9, 6.0, 5.0))
        assert lad.bootstrapped
        lad.check_invariants()
        coreset = lad.extract_coreset()
        cov = coverage_radius(
            WindowView(points=tuple(lad.warmup), t=9) if lad.warmup else
            active_window([pt(i, 5.0, 5.0) for i in range(1, 9)] + [pt(9, 6.0, 5.0)], 9, 30),
            coreset.points,
        )
        assert cov <= 4.0 * (1.0 + 0.5) * 0.5 + 1e-9  # r*_{1,1} = 0.5 here

    def test_constant_stream_warmup_stays_within_the_window(self):
        N, k, z = 100, 2, 2
        lad = GuessLadder(StreamParams(N, k, z, 0.5, 0.5), "oblivious")
        for t in range(1, 5001):
            lad.process_point(pt(t, 1.0, 1.0))
            assert lad.stored_points() <= N + k + z + 2
        assert not lad.bootstrapped
        lad.process_point(pt(5001, 2.0, 1.0))
        assert lad.bootstrapped
        lad.check_invariants()
        assert lad.extract_coreset().total_weight() <= N

    def test_constant_stream_queries_read_one_weighted_location(self):
        # no positive distance, so no bootstrap: the warm-up coreset holds
        # the location once, at the window's weight, and so does every query
        N, k, z = 2000, 10, 10
        lad = GuessLadder(StreamParams(N, k, z, 0.5, 0.5), "oblivious")
        fine = FineCoresetState(EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.1), N)
        for t in range(1, 2 * N + 1):
            p = Point(t, (1.0, 2.0, 3.0, 4.0))
            lad.process_point(p)
            fine.process_point(p)
        assert not lad.bootstrapped and not fine.validation.bootstrapped
        coreset = lad.extract_coreset()
        assert [(q.arrival, w) for q, w in entries_of(coreset)] == [(N + 1, N)]
        est = fine.estimate()
        assert est.coreset_size == 1
        assert est.lower == est.upper == 0.0
        sol = compute_solution(lad)
        assert sol.coreset_size == 1
        assert sol.rho_min == 0.0 and sol.uncovered_weight == 0

    def test_the_warmup_coreset_weights_each_location_by_its_copies(self):
        lad = GuessLadder(StreamParams(8, 3, 3, 0.5, 0.5), "oblivious")  # bootstraps at t >= 8
        for t, x in enumerate([3.0, 5.0, 3.0, 3.0, 7.0, 5.0, 3.0], start=1):
            lad.process_point(pt(t, x))
        assert not lad.bootstrapped
        got = [(q.arrival, q.coords, w) for q, w in entries_of(lad.warmup_coreset())]
        assert got == [(1, (3.0,), 4), (2, (5.0,), 2), (5, (7.0,), 1)]


def _counted(metric):
    """A twin of metric that counts its scalar and its block-form calls."""
    calls = {"scalar": 0, "pairwise": 0}

    def scalar(p, q):
        calls["scalar"] += 1
        return metric(p, q)

    def pairwise(xs, ys):
        calls["pairwise"] += 1
        return metric.pairwise(xs, ys)

    scalar.pairwise = pairwise
    return scalar, calls


class TestDistanceDomain:
    """The oblivious ladder reads every distance, D_t included, from the
    metric's block form, and checks an arrival against the domain and the
    grid rule before it changes anything."""

    def test_a_stream_alternating_far_scales_answers_on_the_accepted_points(self):
        # the block form reads the pairs near 1e-300 as duplicates and the
        # pairs that reach 1e300 as inf: the far points are refused, and the
        # warm-up answers at radius 0 on the accepted ones
        rng = np.random.default_rng(113)
        lad = GuessLadder(StreamParams(20, 2, 2, 0.5, 0.5), "oblivious")
        accepted = []
        for i in range(20):
            scale = 1e-300 if i % 2 == 0 else 1e300
            p = Point(lad.t + 1, tuple(map(float, scale * (1.0 + rng.random(2)))))
            before, store = lad.to_snapshot(), store_fields(lad)
            try:
                lad.process_point(p)
            except ValueError as exc:
                assert "from the first point" in str(exc)
                assert lad.to_snapshot() == before and store_fields(lad) == store
            else:
                accepted.append(p)
            lad.check_invariants()
        assert len(accepted) == 10 and all(max(p.coords) < 1e-299 for p in accepted)
        out = compute_solution(lad)
        assert out.rho_min == 0.0 and out.uncovered_weight == 0
        assert set(out.centers) <= set(accepted)

    def test_a_point_whose_block_distance_overflows_is_rejected(self):
        lad = GuessLadder(StreamParams(10, 1, 1, 0.5, 0.5), "oblivious")
        lad.process_point(pt(1, 0, 0))
        lad.process_point(pt(2, 1, 0))
        before, store = lad.to_snapshot(), store_fields(lad)
        # and the two refusals made before any distance is read; none
        # leaves a trace, in the snapshot or in any field of the store
        for p, match in ((pt(3, 1e200, 0), "from the first point"),
                         (pt(4, 2, 0), "out-of-order"), (pt(3, 2, 0, 0), "dimension")):
            with pytest.raises(ValueError, match=match):
                lad.process_point(p)
            assert lad.to_snapshot() == before and store_fields(lad) == store
        lad.process_point(pt(3, 2, 0))
        assert compute_solution(lad).uncovered_weight <= 1

    @pytest.mark.parametrize("beta", [1e-12, 5e-6, 6.9e-6])
    def test_a_beta_no_grid_can_fit_is_rejected_by_the_constructor(self, beta):
        # every oblivious grid spans a factor 2 at least (d_t <= 2 D_t), which
        # takes more than MAX_GRID_LEN guesses below beta = 7e-6
        with pytest.raises(ValueError, match="oblivious grid would hold"):
            GuessLadder(StreamParams(20, 2, 2, 0.5, beta), "oblivious")

    def test_the_smallest_beta_a_grid_can_fit_is_accepted(self):
        lad = GuessLadder(StreamParams(20, 2, 2, 0.5, 7e-6), "oblivious")
        lad.process_point(pt(1, 0, 0))
        for t in range(2, 7):  # d_t = 2 D_t = 2: a grid from 1 to 2
            lad.process_point(pt(t, (-1) ** t, 0))
        assert lad.bootstrapped and len(lad.exponents()) == 99023
        lad.check_invariants()

    def test_a_grid_beyond_the_bound_is_rejected_at_the_bootstrap(self):
        # beta = 1e-5 over d_t/2 = 0.05 to 2 D_t = 9.8 spells 527,816
        # guesses: the arrival that would build them is refused
        lad = GuessLadder(StreamParams(20, 2, 2, 0.5, 1e-5), "oblivious")
        for t in range(1, 6):
            lad.process_point(pt(t, t / 10.0, 0))
        before, store = lad.to_snapshot(), store_fields(lad)
        with pytest.raises(ValueError, match="oblivious grid would hold 527816 guesses"):
            lad.process_point(pt(6, 5.0, 0))
        assert lad.to_snapshot() == before and not lad.bootstrapped
        assert store_fields(lad) == store
        lad.check_invariants()

    @pytest.mark.parametrize("mode", ["oblivious", "fixed"])
    @pytest.mark.parametrize("metric", [dist, manhattan], ids=["dist", "manhattan"])
    def test_an_arrival_reads_one_block_row_and_no_scalar_distance(self, metric, mode):
        counted, calls = _counted(metric)
        stream = make_stream(np.random.default_rng(127), 200, 2)
        bounds = stream_extremes(stream, metric) if mode == "fixed" else ()
        lad = GuessLadder(StreamParams(40, 2, 1, 0.5, 0.5), mode, *bounds, metric=counted)
        steady = 0  # arrivals after the bootstrap that left the grid as it was
        for p in stream:
            grid = lad.exponents()
            calls.update(scalar=0, pairwise=0)
            lad.process_point(p)
            assert calls["scalar"] == 0
            # the first arrival finds an empty store and reads no distance
            built = mode == "fixed" or lad.bootstrapped
            if built and p.arrival > 1 and lad.exponents() == grid:
                assert calls["pairwise"] == 1
                steady += 1
        assert steady > 50


class TestLadderSoak:
    def test_every_step_invariants_both_modes(self):
        rng = np.random.default_rng(53)
        for trial in range(12):
            n = int(rng.integers(20, 90))
            window_len = int(rng.integers(5, 40))
            k = int(rng.integers(1, 4))
            z = int(rng.integers(0, 4))
            window_len = max(window_len, k + z + 1)
            lam = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
            stream = make_stream(rng, n, int(rng.integers(1, 4)))
            d_min, d_max = stream_extremes(stream)
            params = StreamParams(window_len, k, z, lam, 0.5)
            ladders = [
                GuessLadder(params, "oblivious"),
                GuessLadder(params, "fixed", d_min, d_max),
            ]
            for p in stream:
                for lad in ladders:
                    lad.process_point(p)
                    lad.check_invariants()
            for lad in ladders:
                coreset = lad.extract_coreset()
                assert coreset.total_weight() <= min(n, window_len)


class TestWeightedCoreset:
    """A coreset is a value: equal entries make equal coresets, and the
    weights a ladder builds are read-only."""

    @staticmethod
    def _coresets():
        """(the warm-up coreset, the grid's coreset) of one stream, two
        entries each."""
        lad = GuessLadder(StreamParams(10, 1, 1, 0.5, 0.5), "oblivious")
        for t, x in enumerate((0.0, 5.0, 0.0), start=1):
            lad.process_point(pt(t, x))
        warm = lad.warmup_coreset()
        lad.process_point(pt(4, 9.0))
        assert lad.bootstrapped
        return warm, lad.extract_coreset()

    def test_equal_entries_make_equal_coresets(self):
        (warm, grid), (warm_again, grid_again) = self._coresets(), self._coresets()
        assert len(warm) == len(grid) == 2
        assert warm == warm_again and grid == grid_again and warm != grid
        assert warm == weighted(entries_of(warm))
        assert warm != weighted([(warm.points[0], 3), (warm.points[1], 1)])
        assert warm != weighted([(pt(9, 0.0), 2), (warm.points[1], 1)])
        assert warm != entries_of(warm)

    def test_weights_are_read_only(self):
        for coreset_ in self._coresets():
            before = coreset_.weights.tolist()
            with pytest.raises(ValueError, match="read-only"):
                coreset_.weights[0] = 5
            assert coreset_.weights.tolist() == before


class TestSnapshot:
    def test_round_trip_mid_stream(self):
        rng = np.random.default_rng(43)
        stream = make_stream(rng, 60, 2)
        params = StreamParams(25, 2, 1, 0.5, 0.5)
        lad = GuessLadder(params, "oblivious")
        for p in stream[:30]:
            lad.process_point(p)
        snap = json.loads(json.dumps(lad.to_snapshot()))
        restored = GuessLadder.from_snapshot(snap)
        for p in stream[30:]:
            lad.process_point(p)
            restored.process_point(p)
        assert lad.to_snapshot() == restored.to_snapshot()
        assert lad.extract_coreset() == restored.extract_coreset()

    def test_round_trip_during_warmup(self):
        lad = GuessLadder(StreamParams(20, 2, 2, 0.5, 0.5), "oblivious")
        lad.process_point(pt(1, 1.25))
        snap = json.loads(json.dumps(lad.to_snapshot()))
        restored = GuessLadder.from_snapshot(snap)
        assert restored.to_snapshot() == lad.to_snapshot()

    @pytest.mark.parametrize("mode", ["fixed", "oblivious"])
    def test_restored_ladder_keeps_the_dimension(self, mode):
        params = StreamParams(20, 1, 1, 0.5, 0.5)
        lad = GuessLadder(params, mode, *((0.1, 10.0) if mode == "fixed" else ()))
        lad.process_point(pt(1, 0.5, 0.5))
        snap = json.loads(json.dumps(lad.to_snapshot()))
        restored = GuessLadder.from_snapshot(snap)
        with pytest.raises(ValueError, match="dimension"):
            restored.process_point(pt(2, 1.0))
        assert restored.to_snapshot() == snap
        restored.process_point(pt(2, 1.0, 1.0))

    @staticmethod
    def _refuse_older_capacity_fields(cap, max_attractions, prune_orphans, orphan_cap):
        # a snapshot that spells capacity as the max_attractions/prune_orphans/
        # orphan_cap triple of before the cap entry is not read, whatever the
        # triple spells
        lad = GuessLadder(StreamParams(25, 2, 1, 0.5, 0.5), "oblivious", cap=cap)
        lad.process_point(pt(1, 0.5))
        snap = json.loads(json.dumps(lad.to_snapshot()))
        snap["config"] = {"attr_factor": 2.0, "max_attractions": max_attractions,
                          "prune_orphans": prune_orphans, "orphan_cap": orphan_cap}
        with pytest.raises(ValueError, match=re.escape("corrupt ladder snapshot: KeyError('cap')")):
            GuessLadder.from_snapshot(snap)

    @pytest.mark.parametrize("cap", [None, 7])
    def test_refuses_the_older_capacity_fields(self, cap):
        # the triples that spelled cap None and cap 7
        k_z = 2 + 1
        self._refuse_older_capacity_fields(
            cap, k_z + 1 if cap is None else cap, cap is None, cap)

    @pytest.mark.parametrize(
        "max_attractions, prune_orphans, orphan_cap",
        [(5, True, None), (4, False, None), (4, True, 4), (4, False, 5)],
    )
    def test_rejects_older_capacity_fields_matching_no_policy(
        self, max_attractions, prune_orphans, orphan_cap
    ):
        # triples that spelled no cap policy are refused at the same check
        self._refuse_older_capacity_fields(None, max_attractions, prune_orphans, orphan_cap)

    def test_refuses_a_cap_the_constructor_refuses(self):
        # a restore builds its ladder through the constructor: cap 0 is
        # refused there, before any state is read
        snap = json.loads(json.dumps(_mid_stream_ladder().to_snapshot()))
        snap["config"]["cap"] = 0
        message = "corrupt ladder snapshot: ValueError('cap must be None or >= 1, got 0')"
        with pytest.raises(ValueError, match=re.escape(message)):
            GuessLadder.from_snapshot(snap)

    def test_round_trip_with_a_lam_that_rounds_away(self):
        # 1 + 1e-17 == 1.0: histograms trim as at lam == 0, and the restored
        # ladder verifies them so
        lad = GuessLadder(StreamParams(50, 2, 1, lam=1e-17), "oblivious")
        for p in make_stream(np.random.default_rng(5), 119, 2):
            lad.process_point(p)
        snap = json.loads(json.dumps(lad.to_snapshot()))
        assert GuessLadder.from_snapshot(snap).to_snapshot() == snap

    def test_version_check(self):
        lad = GuessLadder(StreamParams(20, 2, 2, 0.5, 0.5), "oblivious")
        snap = lad.to_snapshot()
        snap["version"] = 99
        with pytest.raises(ValueError, match="version"):
            GuessLadder.from_snapshot(snap)


def _crowd_attractions(snap, t, window_len):
    st = next(s for s in snap["states"] if len(s["attractions"]) >= 2)
    st["attractions"][1][1] = list(st["attractions"][0][1])


def _flatten_counts(snap, t, window_len):
    hist = next(h for s in snap["states"] for _, _, h in s["reps"] if len(h) >= 2)
    hist[1][1] = hist[0][1]


def _age_an_orphan(snap, t, window_len):
    orphan = next(o for s in snap["states"] for o in s["orphans"])
    orphan[0][0] = orphan[1][0][0] = t - window_len  # arrival and first timestamp


def _orphan_a_representative(snap, t, window_len):
    snap["states"][0]["reps"][0][0] += 10**6


def _drop_a_field(snap, t, window_len):
    del snap["states"][0]["evictions"]


def _rewind_the_clock(snap, t, window_len):
    snap["t"] = t - 10  # stored points would arrive after the clock


def _inflate_d_t(snap, t, window_len):
    snap["oblivious"]["d_t"] = 1e6


def _split_a_point(snap, t, window_len):
    # the newest point as a guess holds it, and as the recent points hold it
    newest = next(a for st in snap["states"] for a in st["attractions"] if a[0] == t)
    newest[1] = [c + 1.0 for c in newest[1]]


def _drop_a_middle_guess(snap, t, window_len):
    states = snap["states"]
    del states[len(states) // 2]


def _overflow_an_exponent(snap, t, window_len):
    snap["states"][0]["exponent"] = 10**6  # (1 + beta) ** e overflows a float


def _shrink_beta(snap, t, window_len):
    snap["params"]["beta"] = 5e-6  # no oblivious grid fits MAX_GRID_LEN


def _zero_k(snap, t, window_len):
    snap["params"]["k"] = 0


def _spell_no_cap_policy(snap, t, window_len):
    snap["config"] = {"attr_factor": 2.0, "max_attractions": 5, "prune_orphans": False,
                      "orphan_cap": None}


def _repeat_an_orphan(snap, t, window_len):
    orphans = next(s["orphans"] for s in snap["states"] if s["orphans"])
    orphans.append(orphans[0])


def _leave_a_warmup(snap, t, window_len):
    snap["oblivious"]["warmup"] = list(snap["oblivious"]["recent"])


def _deny_the_bootstrap(snap, t, window_len):
    snap["oblivious"]["bootstrapped"] = False


def _reverse_the_warmup(snap, t, window_len):
    snap["oblivious"]["warmup"].reverse()


def _drop_the_first_warmup_point(snap, t, window_len):
    del snap["oblivious"]["warmup"][0]


def _move_a_ring_point(snap, t, window_len):
    # 1.0, 2.0, 0.0 keep d_t = 1 and D_t = 2, while the warm-up holds 3.0
    snap["oblivious"]["recent"][-1][1] = [0.0]


def _claim_the_bootstrap(snap, t, window_len):
    snap["oblivious"]["bootstrapped"] = True


def _move_the_first_point_onto_the_newest(snap, t, window_len):
    snap["oblivious"]["first_point"] = snap["oblivious"]["recent"][-1]


def _renumber_the_first_point(snap, t, window_len):
    snap["oblivious"]["first_point"][0] = 5


def _drop_the_first_point(snap, t, window_len):
    snap["oblivious"]["first_point"] = None


def _make_the_first_arrival_a_bool(snap, t, window_len):
    snap["oblivious"]["first_point"][0] = True  # equal to 1, and loaded as it


def _give_a_first_point_before_any_arrival(snap, t, window_len):
    snap["oblivious"]["first_point"] = [1, [1.0]]


def _shift_the_first_point(snap, t, window_len):
    # arrival 1 kept, but not at the ring's arrival-1 point
    snap["oblivious"]["first_point"][1] = [0.5]


def _clock_below_zero(snap, t, window_len):
    snap["t"] = -3


def _clock_past_every_guess(snap, t, window_len):
    snap["t"] = 7  # no guess holds a point of arrival 7


def _clock_as_a_bool(snap, t, window_len):
    snap["t"] = True


def _evictions_as(value, name):
    def corrupt(snap, t, window_len):
        snap["states"][0]["evictions"] = value

    corrupt.__name__ = f"_evictions_as_{name}"
    return corrupt


_EVICTION_COUNTS = [(-1, "minus_one"), (1.5, "one_and_a_half"), (True, "true"),
                    ("x", "a_string"), (None, "none")]


def _mid_stream_ladder() -> GuessLadder:
    lad = GuessLadder(StreamParams(25, 2, 1, 0.5, 0.5), "oblivious")
    for p in make_stream(np.random.default_rng(67), 80, 2):
        lad.process_point(p)
    return lad


def _warmup_ladder() -> GuessLadder:
    lad = GuessLadder(StreamParams(30, 2, 2, 0.5, 0.5), "oblivious")
    for t in range(1, 4):
        lad.process_point(pt(t, float(t)))
    return lad


def _fresh_fixed_ladder() -> GuessLadder:
    return GuessLadder(StreamParams(30, 2, 2, 0.5, 0.5), "fixed", 0.1, 10.0)


def _corrupted(lad: GuessLadder, corrupt) -> dict:
    snap = json.loads(json.dumps(lad.to_snapshot()))
    corrupt(snap, lad.t, lad.params.window_len)
    return json.loads(json.dumps(snap))


_MID_STREAM_CORRUPTIONS = [
    _crowd_attractions,  # two attraction points within the radius
    _flatten_counts,  # histogram counts that do not decrease
    _age_an_orphan,  # an orphan older than the window
    _orphan_a_representative,  # a reps entry with no attraction point
    _drop_a_field,
    _rewind_the_clock,
    _inflate_d_t,  # not the recent points' smallest distance
    _split_a_point,  # two different points with one arrival
    _drop_a_middle_guess,  # a gap in the grid
    _overflow_an_exponent,
    _shrink_beta,  # settings the constructor refuses
    _zero_k,  # settings StreamParams refuses
    _spell_no_cap_policy,  # older capacity fields, and no cap entry
    _repeat_an_orphan,  # one orphan listed twice
    _leave_a_warmup,  # a warm-up kept past the bootstrap
    _deny_the_bootstrap,  # a bootstrapped field its states contradict
    _move_the_first_point_onto_the_newest,  # a first point of arrival t
    _renumber_the_first_point,  # a first point of arrival 5
    *(_evictions_as(v, name) for v, name in _EVICTION_COUNTS),  # no count of evictions
]
_WARMUP_CORRUPTIONS = [
    _reverse_the_warmup,
    _drop_the_first_warmup_point,  # a window point missing
    _move_a_ring_point,  # a recent point that is not the warm-up's
    _claim_the_bootstrap,
    _drop_the_first_point,  # no first point after arrivals
    _shift_the_first_point,
]
_CLOCK_CORRUPTIONS = [_clock_below_zero, _clock_past_every_guess, _clock_as_a_bool]


def _coincident_warmup_ladder() -> GuessLadder:
    # five copies of one point: no positive distance, so d_t is 0.0
    lad = GuessLadder(StreamParams(30, 1, 0, 0.5, 0.5), "oblivious")
    for t in range(1, 6):
        lad.process_point(pt(t, 1.0))
    return lad


def _d_t_as(value, name):
    def corrupt(snap, t, window_len):
        snap["oblivious"]["d_t"] = value

    corrupt.__name__ = f"_d_t_as_{name}"
    return corrupt


_COINCIDENT_WARMUP_CORRUPTIONS = [
    _d_t_as(v, name) for v, name in ((math.inf, "inf"), (1e-320, "a_subnormal"),
                                     (True, "true"), (math.nan, "nan"), (-3.0, "minus_three"))
]


def _name(corrupt) -> str:
    return "valid" if corrupt is None else corrupt.__name__.strip("_")


class TestSnapshotVerification:
    """from_snapshot verifies what it restored: a JSON round-trip of a
    corrupted snapshot fails loudly instead of yielding a broken ladder."""

    @pytest.mark.parametrize("corrupt", [None, *_MID_STREAM_CORRUPTIONS], ids=_name)
    def test_round_trip(self, corrupt):
        lad = _mid_stream_ladder()
        snap = json.loads(json.dumps(lad.to_snapshot()))
        if corrupt is None:
            assert GuessLadder.from_snapshot(snap).to_snapshot() == lad.to_snapshot()
            return
        with pytest.raises(ValueError, match="corrupt ladder snapshot"):
            GuessLadder.from_snapshot(_corrupted(lad, corrupt))

    @pytest.mark.parametrize("build, corrupt", [
        *(pytest.param(_warmup_ladder, c, id=_name(c)) for c in [None, *_WARMUP_CORRUPTIONS]),
        *(pytest.param(_coincident_warmup_ladder, c, id=f"coincident_{_name(c)}")
          for c in [None, *_COINCIDENT_WARMUP_CORRUPTIONS]),
    ])
    def test_round_trip_of_a_warmup(self, build, corrupt):
        # before the bootstrap the warm-up is the window, in order, and ends
        # with the recent points, and d_t is their smallest positive distance,
        # 0.0 where they coincide; a restore checks all four (a d_t of inf
        # restored there, and then refused every further copy of the point)
        lad = build()
        assert not lad.bootstrapped
        if corrupt is None:
            snap = json.loads(json.dumps(lad.to_snapshot()))
            assert GuessLadder.from_snapshot(snap).to_snapshot() == lad.to_snapshot()
            return
        with pytest.raises(ValueError, match="corrupt ladder snapshot"):
            GuessLadder.from_snapshot(_corrupted(lad, corrupt))

    @pytest.mark.parametrize("corrupt", [None, *_CLOCK_CORRUPTIONS], ids=_name)
    def test_a_clock_that_is_no_arrival_count_is_refused(self, corrupt):
        # a fixed ladder has no recent points to check the clock by: a clock
        # below zero wedged it for good, and one no guess holds restored
        lad = _fresh_fixed_ladder()
        if corrupt is None:
            restored = GuessLadder.from_snapshot(json.loads(json.dumps(lad.to_snapshot())))
            assert restored.newest() is None
            restored.process_point(pt(1, 1.0))
            assert restored.newest() == pt(1, 1.0)
            return
        with pytest.raises(ValueError, match="corrupt ladder snapshot"):
            GuessLadder.from_snapshot(_corrupted(lad, corrupt))

    @pytest.mark.parametrize("snap", [None, [], "snapshot"], ids=["none", "list", "str"])
    def test_a_snapshot_that_is_not_a_dict_is_rejected(self, snap):
        with pytest.raises(ValueError, match="not a ladder snapshot"):
            GuessLadder.from_snapshot(snap)

    def test_checks_survive_optimized_mode(self):
        # python -O strips assert statements; the checks raise explicitly,
        # so every corruption above is refused there with the same message
        snaps = [
            _corrupted(build(), corrupt)
            for build, corruptions in ((_mid_stream_ladder, _MID_STREAM_CORRUPTIONS),
                                       (_warmup_ladder, _WARMUP_CORRUPTIONS),
                                       (_coincident_warmup_ladder,
                                        _COINCIDENT_WARMUP_CORRUPTIONS),
                                       (_fresh_fixed_ladder, _CLOCK_CORRUPTIONS))
            for corrupt in corruptions
        ] + [_corrupted(build(), corrupt) for build, corrupt, _ in _PINNED_SNAPSHOTS]
        said = refusals(GuessLadder, snaps)
        assert all(s.startswith("corrupt ladder snapshot: ") for s in said)
        assert refusals(GuessLadder, snaps, optimized=True) == said

    def test_separation_check_reads_row_blocks(self, monkeypatch):
        # a fine-style state with more attraction points than one block
        monkeypatch.setattr(coreset, "_BLOCK", 5)
        st = lone_state(max_attractions=64, window_len=100)
        for i in range(1, 24):
            step(st, pt(i, float(i)), 0.5)
        st.check_invariants(23, 0.5)
        slot = st.slots[17]  # the store slot of the point at 18.0
        st._store.points[slot] = pt(18, 3.25)  # within 0.5 of the point at 3.0
        st._store.coords[slot] = (3.25,)
        with pytest.raises(AssertionError, match="attraction points 3,18 too close"):
            st.check_invariants(23, 0.5)


def _ball_ladder(cap=None) -> GuessLadder:
    """A fixed ladder fed 300 points of a seeded 2-d ball: at t = 300 its
    guesses hold up to six attraction points, long histograms and, in the
    middle of the grid (at its cap with one), orphans."""
    lad = GuessLadder(StreamParams(100, 3, 2), "fixed", 1e-3, 4.0, cap=cap)
    for i, row in enumerate(generate_ball_stream(300, dim=2, seed=3)):
        lad.process_point(Point(i + 1, tuple(map(float, row))))
    return lad


_SELECTED = -2  # the ball ladder's selected guess


def _histograms(snap):
    """Every histogram of a snapshot, each with the stamps of its state."""
    for st in snap["states"]:
        hists = [h for _, _, h in st["reps"]] + [h for _, h in st["orphans"]]
        for h in hists:
            yield h, {e[0] for other in hists if other is not h for e in other}


def _end_a_histogram_after_the_clock(snap, t, window_len):
    # the wedge: the next capture at this guess bumps at t + 1 < 305
    entry = next(s for s in snap["states"] if s["exponent"] == _SELECTED)
    entry["reps"][0][2][-1][0] = t + 5


def _stamp_an_orphan_before_the_window(snap, t, window_len):
    orphan = next(o for s in snap["states"] for o in s["orphans"] if len(o[1]) >= 2)
    orphan[1][0][0] = t - window_len  # no sweep would ever trim it


def _begin_a_histogram_before_its_attraction_point(snap, t, window_len):
    hist = next(h for s in snap["states"] for _, _, h in s["reps"] if len(h) >= 2)
    hist[0][0] -= 1


def _stamp_between_arrivals(snap, t, window_len):
    hist = next(h for h, _ in _histograms(snap) if len(h) >= 3)
    hist[1][0] += 0.5


def _share_a_stamp(snap, t, window_len):
    # an inner stamp of one histogram moved onto a stamp of another that
    # lies between its neighbours: each histogram stays valid on its own
    for hist, others in _histograms(snap):
        for i in range(1, len(hist) - 1):
            shared = [ts for ts in others if hist[i - 1][0] < ts < hist[i + 1][0]]
            if shared:
                hist[i][0] = shared[0]
                return
    raise AssertionError("no stamp to share")


def _swap_two_attraction_points(snap, t, window_len):
    st = next(s for s in snap["states"] if len(s["attractions"]) >= 2)
    for key in ("attractions", "reps"):
        st[key][:2] = st[key][1::-1]


def _lower_k(snap, t, window_len):
    snap["params"]["k"] = 1  # a cap of 1 + 2 + 1 attraction points


def _add_an_orphan_past_the_cap(snap, t, window_len):
    # a representative of the state filed as an orphan too: a new arrival
    # and first stamp, so only the orphan count gives it away
    st = next(s for s in snap["states"] if len(s["orphans"]) == snap["config"]["cap"])
    _, rep, hist = st["reps"][0]
    st["orphans"].append([rep, [hist[-1]]])


def _zero_D_t(snap, t, window_len):
    snap["oblivious"]["D_t"] = 0.0


def _push_D_t_past_the_domain(snap, t, window_len):
    snap["oblivious"]["D_t"] = 1e200


def _pad_the_recent_points(snap, t, window_len):
    # a deque of k + z + 1 points would drop the two leading entries unseen
    snap["oblivious"]["recent"][:0] = [[999, [5, 5]], [1000, [7, 7]]]


def _constant_warmup_ladder() -> GuessLadder:
    # no positive distance, so the ladder never bootstraps: a full warm-up
    lad = GuessLadder(StreamParams(30, 2, 2, 0.5, 0.5), "oblivious")
    for t in range(1, 41):
        lad.process_point(pt(t, 1.0))
    assert not lad.bootstrapped and len(lad.warmup) == 30
    return lad


def _pad_the_warmup(snap, t, window_len):
    snap["oblivious"]["warmup"][:0] = [[5, [123.0]], [2, [-4.0]]]


def _arrive_as(key: str, value):
    """A corruption that writes the last point of the oblivious list key
    with the arrival value, an equal number that is not an int."""

    def corrupt(snap, t, window_len):
        snap["oblivious"][key][-1][0] = value(t)

    corrupt.__name__ = f"_give_the_last_{key}_point_a_{type(value(1)).__name__}_arrival"
    return corrupt


def _pad(name: str, entry):
    """A corruption that appends an element to the point entry that
    entry(snap) finds."""

    def corrupt(snap, t, window_len):
        entry(snap).append(0)

    corrupt.__name__ = f"_pad_{name}"
    return corrupt


def _write_the_last_recent_point_as(name: str, entry):
    """A corruption that writes entry in place of the last recent point."""

    def corrupt(snap, t, window_len):
        snap["oblivious"]["recent"][-1] = entry

    corrupt.__name__ = f"_write_the_last_recent_point_as_{name}"
    return corrupt


def _write_the_first_point_as(name: str, entry):
    """A corruption that writes entry in place of the first point."""

    def corrupt(snap, t, window_len):
        snap["oblivious"]["first_point"] = entry

    corrupt.__name__ = f"_write_the_first_point_as_{name}"
    return corrupt


def _give_the_first_warmup_point_a_second_coordinate(snap, t, window_len):
    snap["oblivious"]["warmup"][0][1].append(0.0)  # the warm-up ladder's stream is 1-d


def _write_a_coordinate_of_the_last_representative_as_a_str(snap, t, window_len):
    snap["states"][0]["reps"][-1][1][1][0] = "x"


def _count_a_representative_in_a_float(snap, t, window_len):
    # the lowest guess holding the histogram, so that no merge drops it
    hist = next(h for s in snap["states"] for _, _, h in s["reps"] if len(h) >= 2)
    hist[0][1] = float(hist[0][1])  # equal to the int, and loaded as it


def _count_an_orphan_in_a_bool(snap, t, window_len):
    next(o for s in snap["states"] for o in s["orphans"])[1][-1][1] = True  # equal to 1


_MERGED = 4  # a guess of the ball ladder above the lowest of its run


def _merged_histogram(snap):
    """The first representative histogram of guess _MERGED, whose entry a
    restore merges into the equal one below it unless it refuses it first."""
    return next(s for s in snap["states"] if s["exponent"] == _MERGED)["reps"][0][2]


def _count_at_a_merged_guess_in_a_float(snap, t, window_len):
    first = _merged_histogram(snap)[0]
    first[1] = float(first[1])


def _count_at_a_merged_guess_in_a_bool(snap, t, window_len):
    _merged_histogram(snap)[-1][1] = True  # the last count is 1


def _stamp_at_a_merged_guess_in_a_float(snap, t, window_len):
    first = _merged_histogram(snap)[0]
    first[0] = float(first[0])


_PINNED_SNAPSHOTS = [
    (_ball_ladder, _end_a_histogram_after_the_clock, "the histogram of 300 ends at 305"),
    (_ball_ladder, _stamp_an_orphan_before_the_window, "a stamp is no arrival in (200, 300]"),
    (_ball_ladder, _begin_a_histogram_before_its_attraction_point,
     "histogram of attraction point"),
    (_ball_ladder, _stamp_between_arrivals,
     "the histogram of orphan 290 holds [286.5, 2], no [int stamp, int count] pair"),
    (_ball_ladder, _share_a_stamp, "two histograms of one state share a stamp"),
    (_ball_ladder, _count_a_representative_in_a_float,
     "the histogram of representative 295 holds [294, 2.0], no [int stamp, int count] pair"),
    (_ball_ladder, _count_an_orphan_in_a_bool,
     "the histogram of orphan 290 holds [290, True], no [int stamp, int count] pair"),
    (_ball_ladder, _count_at_a_merged_guess_in_a_float,
     "the histogram of representative 300 holds [201, 100.0], no [int stamp, int count] pair"),
    (_ball_ladder, _count_at_a_merged_guess_in_a_bool,
     "the histogram of representative 300 holds [300, True], no [int stamp, int count] pair"),
    (_ball_ladder, _stamp_at_a_merged_guess_in_a_float,
     "the histogram of representative 300 holds [201.0, 100], no [int stamp, int count] pair"),
    (_ball_ladder, _swap_two_attraction_points, "attraction points not in arrival order"),
    (_ball_ladder, _lower_k, "6 attraction points, cap 4"),
    (lambda: _ball_ladder(cap=4), _add_an_orphan_past_the_cap, "5 orphans, cap 4"),
    (_mid_stream_ladder, _zero_D_t, "D_t 0.0 is below"),
    (_mid_stream_ladder, _push_D_t_past_the_domain, "D_t 1e+200 lies outside [0, MAX_DISTANCE]"),
    (_mid_stream_ladder, _renumber_the_first_point, "the first point's arrival is 5 at clock 80"),
    (_mid_stream_ladder, _make_the_first_arrival_a_bool,
     "the first point's arrival is True at clock 80"),
    (_warmup_ladder, _drop_the_first_point, "the first point's arrival is None at clock 3"),
    (lambda: GuessLadder(StreamParams(30, 2, 2, 0.5, 0.5), "oblivious"),
     _give_a_first_point_before_any_arrival, "the first point's arrival is 1 at clock 0"),
    (_mid_stream_ladder, _pad_the_recent_points, "the recent list holds 6 points, more than 4"),
    (_constant_warmup_ladder, _pad_the_warmup, "the warmup list holds 32 points, more than 30"),
    (_mid_stream_ladder, _arrive_as("recent", float),
     "a recent point of arrival 80.0 is no [int arrival, coordinates] pair"),
    (_mid_stream_ladder, _arrive_as("recent", lambda t: True),
     "a recent point of arrival True is no [int arrival, coordinates] pair"),
    (_warmup_ladder, _arrive_as("warmup", float),
     "a warmup point of arrival 3.0 is no [int arrival, coordinates] pair"),
    (_warmup_ladder, _arrive_as("warmup", lambda t: True),
     "a warmup point of arrival True is no [int arrival, coordinates] pair"),
    (_ball_ladder, _pad("an_attraction_point", lambda snap: snap["states"][0]["attractions"][-1]),
     "an attraction point of arrival 300 is no [int arrival, coordinates] pair"),
    (_ball_ladder, _pad("a_representative", lambda snap: snap["states"][0]["reps"][-1][1]),
     "a representative of arrival 300 is no [int arrival, coordinates] pair"),
    (_ball_ladder, _pad("an_orphan", lambda snap: next(
        o for s in snap["states"] for o in s["orphans"])[0]),
     "an orphan of arrival 290 is no [int arrival, coordinates] pair"),
    (_mid_stream_ladder, _pad("a_recent_point", lambda snap: snap["oblivious"]["recent"][-1]),
     "a recent point of arrival 80 is no [int arrival, coordinates] pair"),
    (_mid_stream_ladder, _pad("the_first_point", lambda snap: snap["oblivious"]["first_point"]),
     "the first point of arrival 1 is no [int arrival, coordinates] pair"),
    *((_mid_stream_ladder, _write_the_last_recent_point_as(name, entry),
       f"a recent point {said} is no [int arrival, coordinates] pair")
      for name, entry, said in (
          ("an_empty_list", [], "[]"), ("an_int", 7, "7"), ("null", None, "None"),
          ("a_dict", {"a": 1}, "{'a': 1}"), ("int_coordinates", [80, 7], "of arrival 80"),
          ("null_coordinates", [80, None], "of arrival 80"))),
    *((_mid_stream_ladder, _write_the_first_point_as(name, entry),
       f"the first point {said} is no [int arrival, coordinates] pair")
      for name, entry, said in (
          ("an_empty_list", [], "[]"), ("an_int", 7, "7"), ("a_dict", {"a": 1}, "{'a': 1}"))),
    (_mid_stream_ladder, _write_the_last_recent_point_as("str_coordinates", [80, ["a", "b"]]),
     "a recent point of arrival 80 has a coordinate 'a' that is no int or float"),
    (_mid_stream_ladder, _write_the_last_recent_point_as("bool_coordinates", [80, [0.5, True]]),
     "a recent point of arrival 80 has a coordinate True that is no int or float"),
    (_mid_stream_ladder, _write_the_last_recent_point_as("one_coordinate", [80, [1.0]]),
     "a recent point of arrival 80 has 1 coordinates, not the stream's 2"),
    (_warmup_ladder, _give_the_first_warmup_point_a_second_coordinate,
     "a warmup point of arrival 1 has 2 coordinates, not the stream's 1"),
    (_ball_ladder, _write_a_coordinate_of_the_last_representative_as_a_str,
     "a representative of arrival 300 has a coordinate 'x' that is no int or float"),
]


def _name_a_slot_outside_the_store(lad):
    lad._runs[0].slots.append(len(lad._store.points))


def _swap_two_ring_slots(lad):
    lad._ring_slots[:2] = lad._ring_slots[1::-1].copy()


def _unmap_the_first_point(lad):
    del lad._store.slot_of[1]  # the first point's holder names no slot


def _count_evictions_off_the_grid(lad):
    lad._evictions[lad._runs[0].lo - 1] = 1


def _drop_a_representative(lad):
    next(st for st in lad._runs if st.reps).reps.pop()


def _orphaned_run(lad):
    return next(st for st in lad._runs if st.orphans)


def _refile_an_orphan(lad):
    orphans = _orphaned_run(lad).orphans
    arrival = next(iter(orphans))
    orphans[arrival + 10**6] = orphans.pop(arrival)


def _unindex_an_orphan(lad):
    st = _orphaned_run(lad)
    arrival, (_, hist) = next(iter(st.orphans.items()))
    st._first_ts[hist[0][0]] = arrival + 1


def _index_a_stray_stamp(lad):
    _orphaned_run(lad)._first_ts[-1] = -1


_STALE_A_RADIUS = "lad._runs[-1].high_radius = lad._radius(lad._runs[-1].hi - 1)"


def _stale_a_radius(lad):
    exec(_STALE_A_RADIUS)  # the radius of the guess below the top


_PINNED_MUTATIONS = [
    (_ball_ladder, _name_a_slot_outside_the_store, "a holder names a slot outside the store"),
    (_mid_stream_ladder, _swap_two_ring_slots, "recent ring slots do not hold the recent points"),
    (_mid_stream_ladder, _unmap_the_first_point, "a holder names a slot outside the store"),
    (_ball_ladder, _count_evictions_off_the_grid, "evictions are kept for a guess off the grid"),
    (_ball_ladder, _drop_a_representative, "5 representatives for 6 attraction points"),
    (_ball_ladder, _refile_an_orphan, "filed under"),
    (_ball_ladder, _unindex_an_orphan, "not in the timestamp index"),
    (_ball_ladder, _index_a_stray_stamp, "timestamp index out of step with the orphans"),
    (_ball_ladder, _stale_a_radius, "keeps the radii"),
]


def _pinned_name(case) -> str:
    return case[1].__name__.strip("_")


class TestPinnedRefusals:
    """Each invariant refusal, reached by an input that fails at that check
    and at no earlier one: a snapshot where one can reach it, else a live
    ladder or state changed in place."""

    @pytest.mark.parametrize("case", _PINNED_SNAPSHOTS, ids=_pinned_name)
    def test_a_snapshot_is_refused_at_its_check(self, case):
        build, corrupt, message = case
        lad = build()
        lad.check_invariants()
        with pytest.raises(ValueError, match=re.escape(message)) as refused:
            GuessLadder.from_snapshot(_corrupted(lad, corrupt))
        assert str(refused.value).startswith("corrupt ladder snapshot: InvariantError(")

    @pytest.mark.parametrize("case", _PINNED_MUTATIONS, ids=_pinned_name)
    def test_a_changed_ladder_fails_at_its_check(self, case):
        build, mutate, message = case
        lad = build()
        lad.check_invariants()
        mutate(lad)
        with pytest.raises(InvariantError, match=re.escape(message)):
            lad.check_invariants()

    def test_a_stale_radius_is_refused_in_optimized_mode(self):
        # python -O strips assert statements; the radius check raises
        # explicitly, so the stale radius is refused there with one message
        lad = _ball_ladder()
        _stale_a_radius(lad)
        with pytest.raises(InvariantError) as refused:
            lad.check_invariants()
        assert str(refused.value).startswith(f"run {lad._runs[-1].lo}..")
        said = optimized_check(_ball_ladder().to_snapshot(), _STALE_A_RADIUS)
        assert said == str(refused.value)
        assert optimized_check(_ball_ladder().to_snapshot(), "pass") == "passed"

    def test_the_wedge_corrupts_the_selected_guess(self):
        assert _ball_ladder().selected_exponent() == _SELECTED

    def test_the_merged_guess_shares_its_run_with_the_guess_below(self):
        run = _ball_ladder()._run_of(_MERGED)
        assert run.lo < _MERGED <= run.hi

    def test_an_attraction_point_in_a_free_slot_fails_the_state_check(self):
        # a ladder's store check refuses a freed slot first, so a lone state
        st = lone_state(max_attractions=5, window_len=100)
        for i in range(1, 4):
            step(st, pt(i, 10.0 * i), 2.0)
        st.check_invariants(3, 2.0)
        st._store.points[st.slots[1]] = None
        with pytest.raises(InvariantError, match="an attraction point sits in a free slot"):
            st.check_invariants(3, 2.0)

    @pytest.mark.parametrize("value, name", _EVICTION_COUNTS, ids=[n for _, n in _EVICTION_COUNTS])
    def test_an_eviction_count_that_is_no_count_is_refused(self, value, name):
        # these loaded and skewed stats()["evictions"], or made it raise
        lad = _mid_stream_ladder()
        lo = lad._runs[0].lo
        with pytest.raises(ValueError, match=re.escape(f"guess {lo} counts {value!r} + 0")):
            GuessLadder.from_snapshot(_corrupted(lad, _evictions_as(value, name)))


def _fixed_ladder() -> GuessLadder:
    return GuessLadder(StreamParams(10, 1, 1), "fixed", 1.0, 4.0)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: GuessLadder(StreamParams(10, 1, 1), "adaptive"), ValueError,
                 "unknown mode 'adaptive'", id="unknown-mode"),
    # half the smallest subnormal rounds to 0.0, whose logarithm fails
    pytest.param(lambda: GuessLadder(StreamParams(10, 1, 1), "fixed", 5e-324, 1.0), ValueError,
                 "a grid from 0.0 to 1.0 leaves the float range", id="subnormal-d_min"),
    pytest.param(lambda: _fixed_ladder().coreset_at(100), KeyError, "100", id="off-the-grid"),
    pytest.param(lambda: GuessLadder(StreamParams(10, 1, 1)).selected_exponent(), RuntimeError,
                 "ladder holds no guesses yet", id="no-guesses"),
    pytest.param(lambda: GuessLadder(StreamParams(10, 1, 1)).warmup_coreset(), RuntimeError,
                 "no points processed yet", id="empty-warmup"),
    # a cap below 1 let states fail their own checks after arrivals, and a
    # non-int cap or an attr_factor that is not finite and positive ran
    *(pytest.param(lambda cap=cap: GuessLadder(StreamParams(10, 1, 1), cap=cap), ValueError,
                   message, id=f"cap-{cap}")
      for cap, message in ((0, "cap must be None or >= 1, got 0"),
                           (-2, "cap must be None or >= 1, got -2"),
                           (2.5, "cap must be an integer, got 2.5"),
                           (True, "cap must be an integer, got True"))),
    *(pytest.param(lambda f=f: GuessLadder(StreamParams(10, 1, 1), attr_factor=f), ValueError,
                   f"attr_factor must be finite and positive, got {f!r}", id=f"attr_factor-{f}")
      for f in (0.0, -1.0, math.nan, math.inf)),
])
def test_each_refusal_of_an_argument_or_call_is_raised(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestBlockMetric:
    """Every bulk distance pass reads the metric's own block form."""

    def test_metric_without_pairwise_is_rejected(self):
        params = StreamParams(20, 1, 1, 0.5, 0.5)

        def scalar_only(p, q):
            return dist(p, q)

        with pytest.raises(TypeError, match="pairwise"):
            GuessLadder(params, "oblivious", metric=scalar_only)
        snap = GuessLadder(params, "oblivious").to_snapshot()
        with pytest.raises(TypeError, match="pairwise"):
            GuessLadder.from_snapshot(snap, metric=scalar_only)

    def test_manhattan_block_form_matches_a_looped_twin(self):
        # the ladder holds 48 or more attraction points per guess, all
        # searched through one row of Manhattan's block form per arrival
        stream = make_stream(np.random.default_rng(71), 200, 3, "uniform")
        params = StreamParams(120, 2, 1, 0.5, 0.5)

        def run(metric):
            lad = GuessLadder(params, "oblivious", metric=metric, attr_factor=0.2, cap=64)
            most = 0
            for p in stream:
                lad.process_point(p)
                most = max([most] + [len(st.attractions) for st in lad._runs])
            return most, lad.to_snapshot()

        most, snap = run(manhattan)
        assert most >= 48
        assert run(looped(manhattan)) == (most, snap)

    @pytest.mark.parametrize("metric", [dist, manhattan])
    def test_d_t_is_the_smallest_positive_recent_distance(self, metric):
        rng = np.random.default_rng(73)
        lad = GuessLadder(StreamParams(40, 3, 2, 0.5, 0.5), "oblivious", metric=metric)
        stream = make_stream(rng, 150, 3)
        lad.process_point(stream[0])
        for p in stream[1:]:
            lad.process_point(p)
            want = stream_extremes(list(lad.recent), metric)[0]
            assert math.isclose(lad.d_t, want, rel_tol=1e-12)

    @pytest.mark.parametrize("metric", [dist, manhattan])
    def test_a_restore_replays_the_ring_bit_for_bit(self, metric):
        # restored at every step: while the ring fills (t < k + z + 1),
        # and with duplicate points, whose zero distances count as none
        stream = adversarial_stream(np.random.default_rng(75), 120, 2)
        lad = GuessLadder(StreamParams(30, 3, 2, 0.5, 0.5), "oblivious", metric=metric)
        filling = duplicates = 0
        for p in stream:
            lad.process_point(p)
            restored = _round_trip(lad, metric)
            assert type(restored._closest_newer) is list
            assert float_bits(restored._closest_newer) == float_bits(lad._closest_newer)
            filling += lad.t < len(lad._ring_slots)
            duplicates += len({q.coords for q in lad.recent}) < len(lad.recent)
        assert filling and duplicates

    @pytest.mark.parametrize("metric", [dist, manhattan])
    def test_qualifies_matches_the_scalar_reference(self, metric):
        rng = np.random.default_rng(79)
        checked = rejected = 0
        for trial in range(6):
            k, z = int(rng.integers(1, 4)), int(rng.integers(0, 3))
            params = StreamParams(30, k, z, 0.5, 0.5)
            lad = GuessLadder(params, "oblivious", metric=metric)
            for p in make_stream(rng, 90, 2, "uniform" if trial % 2 else "blobs"):
                lad.process_point(p)
                if p.arrival % 9 == 0:
                    for e in lad.exponents():
                        got = lad.qualifies(e)
                        assert got == reference_qualifies(lad, e)
                        checked += 1
                        rejected += not got
        assert checked > rejected > 0


def _parent_exp_ceil(b: float, x: float) -> int:
    """The earlier two-loop search for the smallest e with b**e >= x."""
    e = math.ceil(math.log(x) / math.log(b))
    while b**e < x:
        e += 1
    while b ** (e - 1) >= x:
        e -= 1
    return e


@pytest.mark.parametrize("beta", [0.1, 0.25, 1 / 3, 0.5, 1.0])
def test_exp_ceil_matches_the_two_loop_search(beta):
    lad = GuessLadder(StreamParams(20, 1, 1, 0.5, beta), "oblivious")
    b = 1.0 + beta
    rng = np.random.default_rng(83)
    xs = list(10.0 ** rng.uniform(-12.0, 12.0, 20_000))
    lo, hi = math.floor(math.log(1e-12, b)), math.ceil(math.log(1e12, b))
    for e in range(lo, hi + 1):
        x = b**e
        xs += [x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, math.inf))]
    for x in xs:
        assert lad._exp_ceil(x) == _parent_exp_ceil(b, x), x


def _round_trip(ladder: GuessLadder, metric=dist) -> GuessLadder:
    return GuessLadder.from_snapshot(json.loads(json.dumps(ladder.to_snapshot())), metric)


def _equal_content_groups(ladder: GuessLadder) -> int:
    """Maximal groups of adjacent guesses whose snapshots agree but for
    their evictions."""
    views = ladder.to_snapshot()["states"]
    for view in views:
        del view["exponent"], view["evictions"]
    return sum(i == 0 or v != views[i - 1] for i, v in enumerate(views))


def _shared_lists(ladder: GuessLadder) -> int:
    """Histogram list objects held by more than one state (run) of the
    ladder; the guesses of one run hold its lists once."""
    holders: dict[int, set] = {}
    for st in ladder._runs:
        for _, h in [*st.reps, *st.orphans.values()]:
            holders.setdefault(id(h), set()).add(st.lo)
    return sum(len(es) > 1 for es in holders.values())


class TestBumpMemo:
    """Every state of a ladder bumps through one memo of the current
    arrival's trims, so equal histograms end up as one shared list."""

    @pytest.mark.parametrize("metric", [dist, manhattan], ids=["dist", "manhattan"])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("mode", ["oblivious", "fixed"])
    def test_matches_an_unshared_twin_at_every_step(self, mode, lam, metric):
        rng = np.random.default_rng(89)
        stream = make_stream(rng, 160, 2)
        params = StreamParams(40, 2, 1, lam, 0.5)
        bounds = stream_extremes(stream, metric) if mode == "fixed" else ()
        lad = GuessLadder(params, mode, *bounds, metric=metric)
        twin = unshared(GuessLadder(params, mode, *bounds, metric=metric))
        shared = 0
        for p in stream:
            if p.arrival == 90:
                lad = _round_trip(lad, metric)  # a restart mid-stream
                assert _shared_lists(lad) == 0
            lad.process_point(p)
            twin.process_point(p)
            assert lad.to_snapshot() == twin.to_snapshot()
            shared = max(shared, _shared_lists(lad))
            assert _shared_lists(twin) == 0
        memos = {id(st._bumps) for st in twin._runs}
        assert len(memos) == len(twin._runs) == len(twin.states) > 1
        assert {id(st._bumps) for st in lad._runs} == {id(lad._bumps)}
        assert shared > 0

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 1.0])
    def test_fine_coreset_ladders_match_unshared_twins(self, lam):
        stream = make_stream(np.random.default_rng(97), 140, 2)
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.5, lam=lam)
        d_min, d_max = stream_extremes(stream)
        state = FineCoresetState(cfg, 40, "fixed", d_min, d_max)
        twin = FineCoresetState(cfg, 40, "fixed", d_min, d_max)
        unshared(twin.validation)
        unshared(twin.fine)
        for p in stream:
            if p.arrival == 70:
                state.validation = _round_trip(state.validation)
                state.fine = _round_trip(state.fine)
            state.process_point(p)
            twin.process_point(p)
            assert state.validation.to_snapshot() == twin.validation.to_snapshot()
            assert state.fine.to_snapshot() == twin.fine.to_snapshot()
        assert state.estimate() == twin.estimate()

    def test_sweeping_a_shared_orphan_leaves_the_other_holder_alone(self):
        # a evicts its only attraction point, so the representative's
        # histogram, shared with b's representative, becomes a's orphan;
        # the memo shares the bump of one list, so both start from one
        a = lone_state(max_attractions=1, window_len=5, orphan_cap=4)
        b = lone_state(max_attractions=4, window_len=5)
        b._bumps = a._bumps
        first = pt(1, 0.0)
        hist = new_histogram(1)
        a.seed(first, first, hist)
        b.seed(first, first, hist)
        for p in (pt(2, 0.1), pt(3, 50.0)):
            step(a, p, 2.0)
            step(b, p, 2.0)
        held = b.reps[0][1]  # the histogram of b's attraction point at 1
        assert a.orphans[2][1] is held == [(1, 2), (2, 1)]
        a.sweep(6)  # timestamp 1 leaves a's window
        assert a.orphans[2][1] == [(2, 1)]
        assert b.reps[0][1] is held == [(1, 2), (2, 1)]
        a.check_invariants(6, 2.0)

    def test_most_captures_reuse_a_trim(self, monkeypatch):
        calls = 0
        trim = coreset.bump_and_trim

        def counted_trim(hist, t, lam):
            nonlocal calls
            calls += 1
            return trim(hist, t, lam)

        monkeypatch.setattr(coreset, "bump_and_trim", counted_trim)
        # the sliding benchmark's recipe: 4-d ball data plus z/2 outliers
        # per window at 100 diameters, which puts many guesses above the
        # ball's scale, where every guess holds the same histogram
        ball = generate_ball_stream(3000, 4, seed=1)
        window = [Point(i + 1, tuple(map(float, row))) for i, row in enumerate(ball)]
        stream = inject_outliers(window, injection_prob(10, 1000), 100.0, 1, 2.0)
        lad = GuessLadder(StreamParams(1000, 10, 10, 0.5, 0.5), "oblivious")
        for p in islice(stream, 3000):
            lad.process_point(p)
        captures = lad.stats()["captures"]  # one per guess that captured
        assert 0 < 2 * calls <= captures


def _sliding_soak_case(seed):
    """(rng, params, stream) of TestAdversarialSoak's oblivious sliding case."""
    rng = np.random.default_rng(1000 + seed)
    k, z = int(rng.integers(1, 4)), int(rng.integers(0, 4))
    lam = (0.0, 0.1, 0.5, 1.0)[seed]
    params = StreamParams(int(rng.integers(k + z + 1, 60)), k, z, lam, 0.5)
    return rng, params, adversarial_stream(rng, 300, int(rng.integers(1, 4)))


def _fine_soak_case(seed):
    """(rng, state, stream) of TestAdversarialSoak's fixed-mode
    FineCoresetState case."""
    rng = np.random.default_rng(2000 + seed)
    lam = (0.1, 1.0)[seed]
    cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.5, lam=lam, fine_cap=64)
    stream = adversarial_stream(rng, 200, 2)
    state = FineCoresetState(cfg, int(rng.integers(20, 60)), "fixed", *stream_extremes(stream))
    return rng, state, stream


class TestAdversarialSoak:
    """Seeded streams with duplicate runs, scale jumps both ways and outlier
    bursts: every step keeps the invariants, and a ladder restored from a
    snapshot at a random step ends where the original does.  A fixed-grid
    ladder can also be fed through a shadow, against whose exact proxies
    and weights it is checked at every step."""

    @staticmethod
    def _soak(rng, ladders, stream, shadow=None):
        """Returns how many steps ended with the shadowed ladder holding
        fewer runs than guesses."""
        restart_at = set(rng.choice(np.arange(2, len(stream)), size=3, replace=False).tolist())
        restored = []
        shared = 0
        for p in stream:
            if p.arrival in restart_at:
                restored += [(i, _round_trip(lad)) for i, lad in enumerate(ladders)]
            for lad in ladders:
                if shadow is not None and lad is shadow.ladder:
                    shared += TestAdversarialSoak._shadow_step(shadow, stream, p)
                else:
                    lad.process_point(p)
                lad.check_invariants()
            for _, lad in restored:
                lad.process_point(p)
        for i, lad in restored:
            assert lad.to_snapshot() == ladders[i].to_snapshot()
        return shared

    @staticmethod
    def _shadow_step(shadow, stream, p) -> bool:
        """Feed p through the shadow and check the ladder against it: the
        proxies, the weight sandwich, and the step's inserts and captures
        over all guesses.  Whether the ladder holds fewer runs than guesses."""
        before = shadow.ladder.stats()
        shadow.feed(p)
        after = shadow.ladder.stats()
        assert shadow.inserts == after["inserts"] - before["inserts"]
        assert shadow.captures == after["captures"] - before["captures"]
        _check_proxies(shadow, stream)
        _check_weight_sandwich(shadow, stream)
        return after["runs"] < after["grid_len"]

    @pytest.mark.parametrize("seed", range(4))
    def test_oblivious_sliding_ladder(self, seed):
        rng, params, stream = _sliding_soak_case(seed)
        lad = GuessLadder(params, "oblivious")
        self._soak(rng, [lad], stream)
        assert lad.bootstrapped

    @pytest.mark.parametrize("seed", range(4))
    def test_fixed_sliding_ladder_against_the_shadow(self, seed):
        _, params, stream = _sliding_soak_case(seed)
        shadow = LadderShadow.standard(params, *stream_extremes(stream))
        rng = np.random.default_rng(3000 + seed)
        assert self._soak(rng, [shadow.ladder], stream, shadow) > 0

    @pytest.mark.parametrize("seed", range(2))
    def test_fixed_fine_coreset_ladders(self, seed):
        rng, state, stream = _fine_soak_case(seed)
        shadow = LadderShadow(state.validation)
        assert self._soak(rng, [state.validation, state.fine], stream, shadow) > 0
        state.estimate()


def _spans(ladder: GuessLadder) -> list[tuple[int, int]]:
    """Each run's exponent range."""
    return [(st.lo, st.hi) for st in ladder._runs]


class TestSharedStates:
    """Adjacent guesses whose states are equal hold one content, swept,
    probed and stepped once per arrival: at every step the ladder equals a
    twin that steps each guess on its own."""

    @staticmethod
    def _lockstep(rng, ladders, stream):
        """Feed each ladder and an unshared twin of it the stream; after
        every step their snapshots agree and the ladder's invariants hold.
        Each ladder is restarted from its JSON snapshot at one random step.
        Returns how many steps split a run and how many merged two, with
        the grid unchanged."""
        twins = [unshared(_round_trip(lad)) for lad in ladders]
        restart = int(rng.integers(2, len(stream)))
        splits = merges = 0
        for p in stream:
            if p.arrival == restart:
                ladders = [_round_trip(lad) for lad in ladders]
            for lad, twin in zip(ladders, twins):
                before = lad.stats()
                lad.process_point(p)
                twin.process_point(p)
                assert lad.to_snapshot() == twin.to_snapshot()
                lad.check_invariants()
                after = lad.stats()
                if after["grid_len"] == before["grid_len"]:
                    splits += after["runs"] > before["runs"]
                    merges += after["runs"] < before["runs"]
                assert twin.stats()["runs"] == twin.stats()["grid_len"]
        return splits, merges

    @pytest.mark.parametrize("mode", ["oblivious", "fixed"])
    @pytest.mark.parametrize("seed", range(4))
    def test_sliding_ladder_matches_an_unshared_twin(self, seed, mode):
        rng, params, stream = _sliding_soak_case(seed)
        bounds = stream_extremes(stream) if mode == "fixed" else ()
        lad = GuessLadder(params, mode, *bounds)
        splits, merges = self._lockstep(rng, [lad], stream)
        assert splits > 0 and merges > 0

    @pytest.mark.parametrize("seed", range(2))
    def test_fixed_fine_coreset_ladders_match_unshared_twins(self, seed):
        rng, state, stream = _fine_soak_case(seed)
        splits, merges = self._lockstep(rng, [state.validation, state.fine], stream)
        assert splits > 0 and merges > 0

    def test_a_point_between_two_radii_splits_a_run_until_it_expires(self):
        # two guesses, radii 2 and 4; window 3, at most 2 attraction points
        params = StreamParams(3, 1, 0, 0.5, 1.0)
        lad = GuessLadder(params, "fixed", 2.0, 2.0)
        twin = unshared(GuessLadder(params, "fixed", 2.0, 2.0))
        low, high = lad.states[0], lad.states[1]
        assert (low.attr_radius, high.attr_radius) == (2.0, 4.0)
        store = lad._store
        runs = []
        for t, x in enumerate([0.0, 3.0, 0.0, 0.0, 0.0], start=1):
            lad.process_point(pt(t, x))
            twin.process_point(pt(t, x))
            assert lad.to_snapshot() == twin.to_snapshot()
            lad.check_invariants()
            runs.append(lad.stats()["runs"])
            if t == 1:  # both inserted the first point: one run
                assert _spans(lad) == [(0, 1)]
                assert store.refs[store.slot_of[1]] == 1
            if t == 2:  # 3.0 is within 4 of 0.0, not within 2
                assert [a.arrival for a in lad._run_of(0).attractions] == [1, 2]
                assert [a.arrival for a in lad._run_of(1).attractions] == [1]
                assert _spans(lad) == [(0, 0), (1, 1)]
                assert store.refs[store.slot_of[1]] == 2
        # the point at 3.0 leaves the window at t=5, and the two agree again
        assert runs == [1, 2, 2, 2, 1]
        assert _spans(lad) == [(0, 1)]
        assert store.refs[store.slot_of[4]] == 1
        assert [st.evictions for st in lad.states.values()] == [0, 0]

    def test_the_validation_ladder_shares_states_on_the_benchmark_recipe(self):
        # the eff-fixed-n1k benchmark recipe up to the end of its window
        # fill: 4-d ball data, far points at rate 0.001 and norm 10 (placed
        # by the benchmark's fixed generator; none falls in the fill)
        n = 1000
        coords = generate_ball_stream(n, 4, seed=1)
        far = np.random.default_rng(20_220_107).random(n) < 0.001
        coords[far] *= 10.0 / np.linalg.norm(coords[far], axis=1, keepdims=True)
        cfg = EffDiameterConfig(alpha=0.9, eps=0.9, eta=0.05, lam=0.5, beta=0.5)
        state = FineCoresetState(cfg, n, "fixed", 0.01, 1e4)
        for i, row in enumerate(coords.tolist()):
            state.process_point(Point(i + 1, tuple(row)))
        validation, fine = state.validation.stats(), state.fine.stats()
        assert validation["grid_len"] == 38 and validation["runs"] <= 10
        assert fine["runs"] < fine["grid_len"]
        assert validation["captures"] + validation["inserts"] == 38 * n


def _block_tie(rng, radius=None):
    """Two seeded random 4-d points whose block-form distance r is one ulp
    below math.dist, and r; with a radius, the second point is drawn on the
    sphere of that radius around the origin and r equals it."""
    while True:
        if radius is None:
            a, b = (tuple(map(float, x)) for x in rng.normal(size=(2, 4)))
        else:
            u = rng.normal(size=4)
            a, b = (0.0,) * 4, tuple(map(float, u / np.linalg.norm(u) * radius))
        r = float(dist.pairwise([a], [b])[0, 0])
        if math.dist(a, b) > r and radius in (None, r):
            return a, b, r


def _add_a_reference(store):
    store.refs[store.slot_of[max(store.slot_of)]] += 1


def _move_a_point(store):
    store.coords[store.slot_of[max(store.slot_of)]] += 1.0


def _free_a_held_slot(store):
    s = store.slot_of[min(store.slot_of)]  # an attraction point, not a recent one
    store.points[s] = None
    store.free.append(s)


def _free_a_slot_twice(store):
    store.free.append(store.free[0])


def _file_a_stray_arrival(store):
    store.slot_of[10**6] = 0


class TestPointStore:
    """Every guess of a ladder searches one row of distances from the new
    point to the ladder's point store."""

    def test_attraction_search_reads_the_block_form(self):
        # a point at exactly the attraction radius is captured, as the
        # block-form separation check of check_invariants requires
        a, b, r = _block_tie(np.random.default_rng(101))
        params = StreamParams(10, 2, 2, 0.5, 0.5)
        shadow = LadderShadow(GuessLadder(params, "fixed", 1.0, 1.0, attr_factor=r))
        assert shadow.ladder.states[0].attr_radius == r
        shadow.feed(Point(1, a))
        shadow.feed(Point(2, b))
        # the first point is inserted, the second captured by it
        assert shadow.attractor_of[0] == {1: 1, 2: 1}
        shadow.ladder.check_invariants()

    def test_a_tie_at_a_ladder_radius_survives_a_snapshot(self):
        a, b, _ = _block_tie(np.random.default_rng(103), radius=2.0)
        lad = GuessLadder(StreamParams(10, 1, 1, 0.5, 0.5), "fixed", 1.0, 4.0)
        assert lad.states[0].attr_radius == 2.0
        lad.process_point(Point(1, a))
        lad.process_point(Point(2, b))
        assert len(lad._run_of(0).slots) == 1
        restored = _round_trip(lad)
        assert restored.to_snapshot() == lad.to_snapshot()
        rng = np.random.default_rng(107)
        for t in range(3, 30):
            p = Point(t, tuple(map(float, rng.normal(size=4))))
            lad.process_point(p)
            restored.process_point(p)
        assert restored.to_snapshot() == lad.to_snapshot()
        restored.check_invariants()

    @pytest.mark.parametrize("mode", ["oblivious", "fixed"])
    def test_stats_count_the_distinct_points_held(self, mode):
        rng = np.random.default_rng(109)
        stream = make_stream(rng, 150, 2)
        bounds = stream_extremes(stream) if mode == "fixed" else ()
        lad = GuessLadder(StreamParams(40, 2, 1, 0.5, 0.5), mode, *bounds)
        captures = inserts = retargets = 0
        for p in stream:
            grid = lad.exponents()
            lad.process_point(p)
            retargets += lad.exponents() != grid
            stats = lad.stats()
            held = {q for st in lad._runs for q in st.attractions}
            if mode == "oblivious":  # the first point holds a slot for good
                held.update([lad._store.points[lad._store.slot_of[1]], *lad.recent])
            # p is now each guess's newest attraction point or representative
            new = sum(p.arrival in [a.arrival for a in st.attractions]
                      for st in runs_by_guess(lad).values())
            inserts += new
            captures += len(lad.states) - new
            assert stats == {
                "grid_len": len(lad.states),
                "stored_points": lad.stored_points(),
                "distinct_points": len(held),
                "histogram_entries": lad.histogram_entries(),
                "evictions": sum(st.evictions for st in lad.states.values()),
                "runs": _equal_content_groups(lad),
                "captures": captures,
                "inserts": inserts,
                "retargets": retargets,
                "selected": None,  # arrivals select no guess
            }
            assert all(type(v) is int for key, v in stats.items() if key != "selected")
            assert stats["distinct_points"] <= stats["stored_points"]
        assert stats["distinct_points"] < sum(len(st.slots) for st in runs_by_guess(lad).values())

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            pytest.param(_add_a_reference, "references and", id="add_a_reference"),
            pytest.param(_move_a_point, "other coordinates", id="move_a_point"),
            pytest.param(_free_a_held_slot, "free but referenced", id="free_a_held_slot"),
            pytest.param(_free_a_slot_twice, "freed twice", id="free_a_slot_twice"),
            pytest.param(_file_a_stray_arrival, "arrival map", id="file_a_stray_arrival"),
        ],
    )
    def test_a_corrupt_store_fails_the_check(self, corrupt, message):
        lad = GuessLadder(StreamParams(25, 2, 1, 0.5, 0.5), "oblivious")
        for p in make_stream(np.random.default_rng(67), 80, 2):
            lad.process_point(p)
        lad.check_invariants()
        corrupt(lad._store)
        with pytest.raises(InvariantError, match=message):
            lad.check_invariants()

    def test_a_retarget_replays_the_guesses_it_adds_below_from_one_block(self):
        # however many guesses a retarget adds below the grid, one replay of
        # the recent points builds them all, from one block of their rows
        counted, calls = _counted(dist)
        lad = GuessLadder(StreamParams(20, 2, 2, 0.5, 0.5), "oblivious", metric=counted)
        retarget, added = lad._retarget, []

        def spy(points, t, lo, hi):
            if not lad._runs:  # the bootstrap
                return retarget(points, t, lo, hi)
            below, reads = lad._runs[0].lo - lo, calls["pairwise"]
            retarget(points, t, lo, hi)
            if below > 0:
                assert calls["pairwise"] == reads + 1
                added.append(below)

        lad._retarget = spy
        for p in adversarial_stream(np.random.default_rng(131), 300, 2):
            lad.process_point(p)
        lad.check_invariants()
        assert sum(n >= 2 for n in added) > 5

    @pytest.mark.parametrize("beta", [0.5, 0.01])
    def test_a_bootstrap_replays_the_warmup_once_for_the_whole_grid(self, beta, monkeypatch):
        # 17 buffered points in blocks of 5: 4 block reads, whatever the grid
        monkeypatch.setattr(coreset, "_BLOCK", 5)
        counted, calls = _counted(dist)
        lad = GuessLadder(StreamParams(40, 8, 8, 0.5, beta), "oblivious", metric=counted)
        retarget, reads = lad._retarget, []

        def spy(points, t, lo, hi):
            before, bootstrap = calls["pairwise"], not lad._runs
            retarget(points, t, lo, hi)
            if bootstrap:
                reads.append(calls["pairwise"] - before)

        lad._retarget = spy
        for p in make_stream(np.random.default_rng(137), 18, 2):
            lad.process_point(p)
        assert lad.bootstrapped and reads == [4]
        assert len(lad.exponents()) > (100 if beta < 0.1 else 4)
        lad.check_invariants()

    @staticmethod
    def _lockstep(rng, ladders, stream, metric):
        """Feed each ladder and a per-guess-search twin of it the stream;
        after every step their snapshots agree and an oblivious ladder's d_t
        is the recent points' smallest block-form distance.  Each ladder is
        restored from its JSON snapshot at one random step."""
        twins = [per_guess_search(_round_trip(lad, metric)) for lad in ladders]
        restart = int(rng.integers(2, len(stream)))
        for p in stream:
            if p.arrival == restart:
                ladders = [_round_trip(lad, metric) for lad in ladders]
            for lad, twin in zip(ladders, twins):
                lad.process_point(p)
                twin.process_point(p)
                assert lad.to_snapshot() == twin.to_snapshot()
                if lad.mode == "oblivious":
                    recent = list(lad.recent)
                    low = _extremes(_distances(recent, metric), len(recent))[0]
                    assert low == 0 or lad.d_t == low
        for lad in ladders:
            lad.check_invariants()
        return ladders

    @pytest.mark.parametrize("metric", [dist, manhattan], ids=["dist", "manhattan"])
    @pytest.mark.parametrize("seed", range(2))
    def test_oblivious_ladder_matches_per_guess_search(self, seed, metric, monkeypatch):
        full = []  # arrivals at which guesses are added above a full window
        retarget = GuessLadder._retarget

        def spy(self, points, t, lo, hi):
            if self._runs and hi > self._runs[-1].hi and t - 1 >= self.params.window_len:
                full.append(t)
            return retarget(self, points, t, lo, hi)

        monkeypatch.setattr(GuessLadder, "_retarget", spy)
        rng = np.random.default_rng(3000 + seed)
        stream = adversarial_stream(rng, 300, 2)
        lad = GuessLadder(StreamParams(20, 2, 2, 0.5, 0.5), "oblivious", metric=metric)
        self._lockstep(rng, [lad], stream, metric)
        assert full

    @pytest.mark.parametrize("metric", [dist, manhattan], ids=["dist", "manhattan"])
    def test_fixed_ladder_matches_per_guess_search(self, metric):
        rng = np.random.default_rng(3100)
        stream = adversarial_stream(rng, 250, 3)
        bounds = stream_extremes(stream, metric)
        lad = GuessLadder(StreamParams(30, 3, 2, 0.5, 0.5), "fixed", *bounds, metric=metric)
        self._lockstep(rng, [lad], stream, metric)

    @pytest.mark.parametrize("metric", [dist, manhattan], ids=["dist", "manhattan"])
    @pytest.mark.parametrize("mode", ["fixed", "oblivious"])
    def test_fine_coreset_ladders_match_per_guess_search(self, mode, metric):
        rng = np.random.default_rng(3200)
        stream = adversarial_stream(rng, 200, 2)
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.5, lam=0.5, fine_cap=64)
        bounds = stream_extremes(stream, metric) if mode == "fixed" else ()
        state = FineCoresetState(cfg, 40, mode, *bounds)
        # the same two ladders, in the metric under test
        state.validation, state.fine = (
            GuessLadder(lad.params, mode, *bounds, metric=metric,
                        attr_factor=lad.attr_factor, cap=lad.cap)
            for lad in (state.validation, state.fine)
        )
        assert state.validation._store is not state.fine._store
        state.validation, state.fine = self._lockstep(
            rng, [state.validation, state.fine], stream, metric
        )
        state.estimate()

    def test_a_late_bootstrap_matches_per_guess_search(self):
        # consecutive points 1e-162 apart read as duplicates in the block
        # form, so d_t stays 0 and the warm-up outlasts the window, while
        # points two apart read apart: the bootstrap's replay keeps attraction
        # points that were not in the store when the arrival's row was read
        rng = np.random.default_rng(3300)
        lad = GuessLadder(StreamParams(20, 1, 0, 0.5, 0.5), "oblivious")
        for t in range(1, 31):
            lad.process_point(pt(t, t * 1e-162))
        assert not lad.bootstrapped and lad.d_t == 0.0
        stream = [pt(31, 33e-162)]
        stream += [pt(t, 40e-162 * rng.normal()) for t in range(32, 60)]
        self._lockstep(rng, [lad], stream, dist)


def _powers_ladder(window_len=20) -> GuessLadder:
    """A fixed ladder with beta = 1, so each radius 2 * 2**e is a power of
    two that a 1-d distance can equal exactly, and k = z = 1, so a run
    holds at most 3 attraction points; its grid is not read."""
    return GuessLadder(StreamParams(window_len, 1, 1, 0.5, 1.0), "fixed", 1.0, 64.0)


def _line(*placed) -> list[Point]:
    """1-d points from (arrival, position) pairs."""
    return [pt(a, x) for a, x in placed]


def _runs_out(runs) -> list:
    return [(st.lo, st.hi, st.evicted, st.to_jsonable()) for st in runs]


class TestReplayShortcut:
    """``_replayed_runs`` builds the run without a step exactly when no
    replayed point attracts another, and then holds what a step-only replay
    (``oracles.stepped_runs``) holds, store references included."""

    CASES = {
        # guesses -1..1: radii 1, 2 and 4; a run holds at most 3 points
        "pairwise_apart": (True, _line((1, 0.0), (2, 10.0), (3, 20.0))),
        "a_duplicate_in_the_ring": (False, _line((1, 0.0), (2, 10.0), (3, 10.0))),
        "the_leaving_point_within_the_radius_of_a_kept_one":
            (False, _line((1, 0.0), (2, 10.0), (3, 3.0))),
        "a_pair_exactly_at_the_highest_radius": (False, _line((1, 0.0), (2, 4.0), (3, 20.0))),
        "more_points_than_the_cap":
            (False, _line((1, 0.0), (2, 10.0), (3, 20.0), (4, 30.0))),
    }

    @staticmethod
    def _replay_both(build, lo, hi, points):
        """(runs, store fields, steps taken) of the ladder's replay, and
        (runs, store fields) of the step-only one, each on a fresh ladder."""
        lad, ref = build(), build()
        step, steps = lad._step, []

        def counted(runs, p, row):
            steps.append(p.arrival)
            return step(runs, p, row)

        lad._step = counted
        got = _runs_out(lad._replayed_runs(lo, hi, points))
        want = _runs_out(stepped_runs(ref, lo, hi, points))
        return (got, filled_store(lad), steps), (want, filled_store(ref))

    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_the_replay_matches_a_step_only_replay(self, case):
        direct, points = self.CASES[case]
        (got, store, steps), (want, ref_store) = self._replay_both(_powers_ladder, -1, 1, points)
        assert got == want and store == ref_store
        assert (steps == []) == direct
        if direct:
            assert len(got) == 1 and len(got[0][3]["attractions"]) == len(points)

    @pytest.mark.parametrize("grid", ["below", "bootstrap"])
    def test_a_warmup_matches_a_step_only_replay(self, grid):
        # the warm-up of an oblivious ladder (0, 10 and 20 on a line),
        # replayed over guesses whose radii lie below its distances, and over
        # the grid its bootstrap builds from d_t = 10 and D_t = 20, whose
        # highest radius lies above them all
        def build():
            lad = GuessLadder(StreamParams(20, 2, 1, 0.5, 1.0), "oblivious")
            for p in _line((1, 0.0), (2, 10.0), (3, 20.0)):
                lad.process_point(p)
            assert not lad.bootstrapped
            return lad

        lo, hi = (-1, 1) if grid == "below" else build()._grid_bounds(10.0 / 2.0, 2.0 * 20.0)
        warmup = list(build().warmup)
        (got, store, steps), (want, ref_store) = self._replay_both(build, lo, hi, warmup)
        assert got == want and store == ref_store
        assert (steps == []) == (grid == "below")

    @pytest.mark.parametrize("seed", range(2))
    def test_a_ladder_matches_one_that_replays_step_by_step(self, seed):
        # both sides of the shortcut, on a stream: after every arrival the
        # snapshot and the store equal those of a twin whose every replay,
        # the bootstrap's included, is step-only; and every replay, of the
        # warm-up or of the recent points, spans fewer than N arrivals, as
        # _replayed_runs requires
        rng = np.random.default_rng(3400 + seed)
        lad = GuessLadder(StreamParams(20, 2, 2, 0.5, 0.5), "oblivious")
        twin = GuessLadder(StreamParams(20, 2, 2, 0.5, 0.5), "oblivious")
        twin._replayed_runs = lambda lo, hi, points: stepped_runs(twin, lo, hi, points)
        step, replay, steps, direct, spans = lad._step, lad._replayed_runs, [], [], []
        lad._step = lambda runs, p, row: steps.append(p) or step(runs, p, row)

        def spy(lo, hi, points):
            spans.append((lad.bootstrapped, points[-1].arrival - points[0].arrival))
            before = len(steps)
            runs = replay(lo, hi, points)
            direct.append(len(steps) == before)
            return runs

        lad._replayed_runs = spy
        for p in adversarial_stream(rng, 300, 2):
            lad.process_point(p)
            twin.process_point(p)
            assert lad.to_snapshot() == twin.to_snapshot()
            assert filled_store(lad) == filled_store(twin)
        lad.check_invariants()
        assert True in direct and False in direct
        assert {bootstrapped for bootstrapped, _ in spans} == {False, True}
        assert max(span for _, span in spans) < lad.params.window_len


def _ends(lad: GuessLadder) -> tuple:
    """The exponents at the grid's ends, () without a grid."""
    exps = lad.exponents()
    return tuple(exps[:1] + exps[-1:])


class TestGridUpkeep:
    """An arrival that leaves d_t and D_t as they were reads the grid's ends
    from its runs and leaves the grid alone; one that moves either reads the
    ends from ``_grid_bounds`` and retargets exactly when they moved.  Each
    run keeps its lowest and highest radius, set wherever its ends move."""

    def test_only_a_moved_estimate_reads_the_bounds_and_a_moved_grid_retargets(
            self, monkeypatch):
        lad = GuessLadder(StreamParams(20, 2, 2, 0.5, 0.5), "oblivious")
        calls = {"_grid_bounds": 0, "_retarget": 0}
        for name in calls:
            method = getattr(lad, name)

            def counted(*args, _name=name, _method=method):
                calls[_name] += 1
                return _method(*args)

            monkeypatch.setattr(lad, name, counted)
        seen = set()
        for p in adversarial_stream(np.random.default_rng(3401), 400, 2):
            bootstrapped, d_t, D_t, ends = lad.bootstrapped, lad.d_t, lad.D_t, _ends(lad)
            calls.update(dict.fromkeys(calls, 0))
            lad.process_point(p)
            if not bootstrapped:
                continue
            moved = (lad.d_t != d_t, lad.D_t != D_t, _ends(lad) != ends)
            assert calls == {"_grid_bounds": int(any(moved[:2])), "_retarget": int(moved[2])}
            seen.add(moved)
        lad.check_invariants()
        # still, moved d_t alone, D_t alone, both, with and without a retarget
        assert seen >= {(False, False, False), (True, False, False), (True, False, True),
                        (False, True, False), (False, True, True)}

    @pytest.mark.parametrize("stream", ["adversarial", "ball"])
    def test_a_ladder_matches_one_that_retargets_every_arrival(self, stream):
        # after every arrival the snapshot, the store and each run's kept
        # radii equal those of a twin that reads the grid's ends and
        # retargets on every arrival past its bootstrap
        rng = np.random.default_rng(3402)
        if stream == "adversarial":
            points = adversarial_stream(rng, 400, 2)
        else:
            coords = generate_ball_stream(400, 2, seed=3403)
            points = list(inject_outliers((pt(i + 1, *row) for i, row in enumerate(coords)),
                                          injection_prob(2, 50), 100.0, 3404, 2.0))
        params = StreamParams(50, 2, 2, 0.5, 0.5)
        lad, twin = GuessLadder(params), retargets_every_arrival(GuessLadder(params))
        for p in points:
            lad.process_point(p)
            twin.process_point(p)
            assert lad.to_snapshot() == twin.to_snapshot()
            assert filled_store(lad) == filled_store(twin)
            assert ([(st.lo, st.hi, st.low_radius, st.high_radius) for st in lad._runs]
                    == [(st.lo, st.hi, st.low_radius, st.high_radius) for st in twin._runs])
        lad.check_invariants()
        twin.check_invariants()


    def test_retargets_count_the_arrivals_that_move_the_grid(self):
        # a 1-d stream cycling through 0, 1, 2, 3 keeps d_t at 1 and D_t at
        # 3 but for one far point at 100: the bootstrap and that D_t jump
        # are the only grid moves
        params = StreamParams(50, 2, 2, 0.5, 0.5)
        lad = GuessLadder(params, "oblivious")
        fixed = GuessLadder(params, "fixed", 1.0, 100.0)
        moved = []
        for t in range(1, 121):
            p = pt(t, 100.0 if t == 40 else float((t - 1) % 4))
            before = lad.stats()["retargets"]
            lad.process_point(p)
            fixed.process_point(p)
            assert type(lad.stats()["retargets"]) is int
            if lad.stats()["retargets"] != before:
                moved.append(t)
            if t == 60:
                restored = _round_trip(lad)
        assert moved == [params.k + params.z + 2, 40]
        assert lad.stats()["retargets"] == 2
        assert fixed.stats()["retargets"] == 0  # a fixed grid never moves on an arrival
        assert restored.stats()["retargets"] == 0  # counted since the restore
        for t in range(61, 121):
            restored.process_point(pt(t, float((t - 1) % 4)))
        assert restored.stats()["retargets"] == 0
        lad.check_invariants()


class TestLeanArrivals:
    """A full run's insert, without an orphan cap, prunes the old orphans
    before it files the evicted representative, and files it only if it
    survives the prune; the ring's closest-newer distances are a plain list,
    read from the row in one comprehension; a step sweeps
    only the runs where the stamp t - N begins a histogram.  After every
    arrival the ladder equals a twin that inserts, reads its ring and sweeps
    as the references do (``oracles.reference_arrivals``): by snapshot,
    store, closest-newer bits and stats."""

    @staticmethod
    def _stream(kind: str) -> list[Point]:
        rng = np.random.default_rng(3501)
        if kind == "adversarial":  # duplicates, whose zero distances count as none
            return adversarial_stream(rng, 400, 2)
        coords = generate_ball_stream(600, 2, seed=3502)
        return list(inject_outliers((pt(i + 1, *row) for i, row in enumerate(coords)),
                                    injection_prob(2, 50), 100.0, 3503, 2.0))

    @pytest.mark.parametrize("kind", ["far", "adversarial"])
    @pytest.mark.parametrize("mode, cap, attr_factor",
                             [("oblivious", None, 2.0), ("oblivious", 4, 0.5),
                              ("fixed", None, 2.0), ("fixed", 4, 0.5)])
    def test_a_ladder_matches_the_reference_arrivals(self, monkeypatch, kind, mode, cap,
                                                     attr_factor):
        stream = self._stream(kind)
        insert = GuessState._insert
        kept = []  # per full-run insert without a cap: whether the evicted representative stayed

        def watched(st, p):
            full = st.orphan_cap is None and len(st.slots) == st.max_attractions
            left = st.reps[0][0] if full else None
            insert(st, p)
            if full:
                kept.append(left.arrival in st.orphans)

        monkeypatch.setattr(GuessState, "_insert", watched)
        params = StreamParams(50, 2, 2, 0.5, 0.5)
        bounds = stream_extremes(stream) if mode == "fixed" else (None, None)

        def build():
            return GuessLadder(params, mode, *bounds, attr_factor=attr_factor, cap=cap)

        lad, twin = build(), reference_arrivals(build())
        for p in stream:
            lad.process_point(p)
            twin.process_point(p)
            assert lad.to_snapshot() == twin.to_snapshot()
            assert filled_store(lad) == filled_store(twin)
            if mode == "oblivious":
                assert type(lad._closest_newer) is list
                assert float_bits(lad._closest_newer) == float_bits(twin._closest_newer)
                assert lad._ring_slots.tolist() == twin._ring_slots.tolist()
            assert lad.stats() == twin.stats()
        lad.check_invariants()
        twin.check_invariants()
        assert GuessState._insert is watched  # the twin put the ladder's own insert back
        if cap is None:  # some evicted representatives survive the prune, some do not
            assert True in kept and False in kept


def _hand_run(lad: GuessLadder, lo: int, hi: int, placed) -> GuessState:
    """A run of the guesses lo..hi holding the 1-d points placed, as
    (arrival, position) pairs, as its attraction points, oldest first."""
    st = lad._new_state(lo, hi)
    for q in _line(*placed):
        st.slots.append(lad._store.acquire(q))
        st.reps.append((q, new_histogram(q.arrival)))
    return st


class TestProbePaths:
    """``_hits`` scans runs of at most _PROBE_SLOTS slots in all in plain
    Python and larger ones in one flat numpy pass; both find the same hits,
    each run's per-guess reference search at its lowest and highest radius."""

    @staticmethod
    def _probe(monkeypatch, lad, p, runs, exps=None):
        """The hits from the plain-Python scan, from the numpy pass, from
        the module's own choice (and whether it took numpy), and from
        ``reference_first_within`` at each run's lowest and highest radius."""
        row = lad._store.rows([p])[0]
        chosen = coreset._PROBE_SLOTS
        out = {}
        for name, most in (("python", math.inf), ("numpy", -1), ("chosen", chosen)):
            monkeypatch.setattr(coreset, "_PROBE_SLOTS", most)
            flat = []
            monkeypatch.setattr(coreset, "accumulate",
                                lambda *a, **kw: flat.append(1) or accumulate(*a, **kw))
            out[name] = (lad._hits(row, runs, exps), bool(flat))
        reference = []
        for i, st in enumerate(runs):
            lo, hi = (st.lo, st.hi) if exps is None else (exps[i], exps[i])
            low, high = (reference_first_within(st, p, lad._radius(e)) for e in (lo, hi))
            reference.append(low if low == high else None)
        assert not out["python"][1]
        assert out["python"][0] == out["numpy"][0] == out["chosen"][0] == reference
        return out["chosen"]

    def test_at_the_slot_bound_and_one_past_it(self, monkeypatch):
        lad = _powers_ladder(window_len=2000)
        n = coreset._PROBE_SLOTS
        for total, flat in ((n, False), (n + 1, True)):
            # three runs over guesses -1..1, 0..0 and 1..2, points 10 apart
            ends = [0, total // 3, 2 * total // 3, total]
            first = 1 + 1000 * (total - n)
            runs = [_hand_run(lad, lo, hi, [(first + i, 10.0 * i) for i in range(a, b)])
                    for (lo, hi), a, b in zip(((-1, 1), (0, 0), (1, 2)), ends, ends[1:])]
            # 1.5 from the first point of the middle run: every run is near
            hits, took_numpy = self._probe(monkeypatch, lad, pt(10**6, 10.0 * ends[1] + 1.5), runs)
            assert hits == [-1, 0, -1] and took_numpy is flat
            for x in (3.0, 10.0 * (total - 1) + 4.0, -50.0):
                self._probe(monkeypatch, lad, pt(10**6, x), runs)

    def test_a_split_probe_reads_one_radius_per_run(self, monkeypatch):
        lad = _powers_ladder()
        st = _hand_run(lad, -1, 2, [(1, 0.0), (2, 3.0), (3, 20.0)])
        hits, _ = self._probe(monkeypatch, lad, pt(9, 2.5), [st] * 4, range(-1, 3))
        assert hits == [1, 1, 0, 0]  # radii 1, 2, 4, 8: 0.5 from 3.0, 2.5 from 0.0

    def test_a_distance_equal_to_a_radius_is_a_hit(self, monkeypatch):
        lad = _powers_ladder()
        runs = [_hand_run(lad, 1, 1, [(1, 0.0), (2, 10.0)]),
                _hand_run(lad, -1, 1, [(3, 30.0)])]
        hits, _ = self._probe(monkeypatch, lad, pt(9, 4.0), runs)
        assert hits == [0, -1]
        hits, _ = self._probe(monkeypatch, lad, pt(9, 34.0), runs)
        assert hits == [-1, None]  # 4.0 is radius 4 at guess 1, not radius 1 at -1

    def test_a_free_slot_in_the_row(self, monkeypatch):
        # a freed slot keeps its last point's coordinates, here those of the
        # probed point, so its entry (0.0) makes every run near
        lad = _powers_ladder()
        free = lad._store.acquire(pt(7, 5.0))
        runs = [_hand_run(lad, -1, 0, [(1, 0.0), (2, 20.0)])]
        lad._store.release(free)
        assert lad._store.points[free] is None
        hits, _ = self._probe(monkeypatch, lad, pt(9, 5.0), runs)
        assert hits == [-1]
        hits, _ = self._probe(monkeypatch, lad, pt(9, 19.5), runs)
        assert hits == [1]

    def test_a_run_whose_lowest_and_highest_guesses_disagree(self, monkeypatch):
        lad = _powers_ladder()
        runs = [_hand_run(lad, -1, 1, [(1, 0.0), (2, 3.5)]),
                _hand_run(lad, 2, 3, [(3, 50.0)])]
        # 3.0 from 0.0 (within radius 4, not 1); 0.5 from 3.5 (within 1)
        hits, _ = self._probe(monkeypatch, lad, pt(9, 3.0), runs)
        assert hits == [None, -1]
