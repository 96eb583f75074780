import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from streamkc import effdiam
from streamkc.core import Point, WindowView
from streamkc.coreset import WeightedCoreset
from streamkc.effdiam import (
    MAX_WINDOW_LEN,
    EffDiameterConfig,
    FineCoresetState,
    coreset_effective_diameter,
    eff_sequential,
    exact_effective_diameter,
    pair_masses,
)
from streamkc.experiment import generate_ball_stream
from oracles import LadderShadow, reference_coreset_effective_diameter, stream_extremes


def wv(*coords_1d):
    return WindowView.from_coords([[c] for c in coords_1d])


def stream_points(coords):
    return [Point(i + 1, tuple(float(c) for c in row)) for i, row in enumerate(coords)]


class TestExactOracle:
    def test_three_points(self):
        assert exact_effective_diameter(wv(0, 1, 100), 0.5) == 1.0

    def test_alpha_one_is_diameter(self):
        w = wv(3, 9, 4, 7)
        assert exact_effective_diameter(w, 1.0) == 6.0

    def test_single_point(self):
        assert exact_effective_diameter(wv(42), 0.7) == 0.0

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            coords = rng.random((n, 2)) * 5
            w = WindowView.from_coords(coords)
            alpha = float(rng.uniform(0.05, 0.999))
            ordered = sorted(
                math.dist(a, b) for a in coords.tolist() for b in coords.tolist()
            )
            want = ordered[math.ceil(alpha * n * n) - 1]
            assert exact_effective_diameter(w, alpha) == pytest.approx(want)

    @pytest.mark.parametrize("style", ["uniform", "lattice", "duplicates"])
    def test_partition_matches_the_sorted_rank(self, style):
        rng = np.random.default_rng(17)
        levels = {"rank <= n": 0, "alpha = 1": 0, "pairs": 0}
        for _ in range(30):
            T = _random_coreset(rng, style)
            coords = [p.coords for p, _ in T.points]
            n = len(coords)
            window = WindowView.from_coords(coords)
            d = np.sort(pdist(np.array(coords)))
            for alpha in (float(rng.uniform(0.01, 1.0)), 0.5 / n, 1.0):
                rank = math.ceil(alpha * n * n)
                want = 0.0 if rank <= n else float(d[math.ceil((rank - n) / 2) - 1])
                assert exact_effective_diameter(window, alpha) == want
                levels["rank <= n" if rank <= n else "alpha = 1" if alpha == 1 else "pairs"] += 1
        assert min(levels.values()) > 0, levels

    def test_partitions_its_own_distances_in_place(self):
        coords = np.random.default_rng(4).normal(size=(1000, 4))
        window = WindowView.from_coords(coords)
        d = pdist(coords)
        m = d.size
        for alpha in (0.9, 0.5, 1.0):
            j = math.ceil((math.ceil(alpha * 1000 * 1000) - 1000) / 2)
            want = float(np.partition(d, j - 1)[j - 1])
            tracemalloc.start()
            try:
                got = exact_effective_diameter(window, alpha)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want
            assert peak < 1.3 * 8 * m, peak / (8 * m)


class TestCoresetEstimate:
    def _coreset(self, pairs):
        pts = tuple(
            (Point(i + 1, (float(c),)), w) for i, (c, w) in enumerate(pairs)
        )
        return WeightedCoreset(points=pts, guess=1.0, t=len(pairs))

    def test_self_pairs_reach_threshold(self):
        T = self._coreset([(0, 2), (10, 1)])
        value, saturated = coreset_effective_diameter(pair_masses(T), 0.5, 3)
        assert value == 0.0 and not saturated

    def test_cross_pairs_needed(self):
        T = self._coreset([(0, 2), (10, 1)])
        value, saturated = coreset_effective_diameter(pair_masses(T), 0.9, 3)
        assert value == 10.0 and not saturated

    def test_single_point_full_weight(self):
        for alpha in (0.1, 0.5, 0.99):
            T = self._coreset([(5, 7)])
            value, saturated = coreset_effective_diameter(pair_masses(T), alpha, 7)
            assert value == 0.0 and not saturated

    def test_saturation_when_weights_insufficient(self):
        T = self._coreset([(0, 1), (3, 1)])
        value, saturated = coreset_effective_diameter(pair_masses(T), 0.9, 100)
        assert saturated and value == 3.0

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(9)
        pairs = [(float(c), int(w)) for c, w in zip(rng.random(12) * 4, rng.integers(1, 5, 12))]
        T = self._coreset(pairs)
        total = sum(w for _, w in pairs)
        prev = -1.0
        for alpha in np.linspace(0.05, 0.999, 17):
            value, _ = coreset_effective_diameter(pair_masses(T), float(alpha), total)
            assert value >= prev
            prev = value


def _random_coreset(rng, style):
    """Seeded coreset with integer weights; "lattice" and "duplicates" make
    many exactly equal pair distances."""
    n = int(rng.integers(1, 30))
    dim = int(rng.integers(1, 4))
    if style == "lattice":
        coords = rng.integers(0, 3, size=(n, dim)).astype(float)
    elif style == "duplicates":
        base = rng.random((max(1, n // 3), dim)) * 5
        coords = base[rng.integers(0, len(base), size=n)]
    else:
        coords = rng.random((n, dim)) * 5
    pts = tuple(
        (Point(i + 1, tuple(float(c) for c in row)), int(w))
        for i, (row, w) in enumerate(zip(coords, rng.integers(1, 6, size=n)))
    )
    return WeightedCoreset(points=pts, guess=1.0, t=n)


def _large_coreset(rng, style, n):
    """Seeded coreset of n points with integer weights 1..5 on the spreads
    that stress a bucketed selection: one point 10^6 times farther than the
    rest ("far"), coordinates scaled by 1e-300 (every distance 0.0), by
    1e-160 (squared distances subnormal) or by 1e200 (infinite distances),
    a third of the points scaled by 1e155 ("partly_huge": finite and
    infinite distances), one location ("duplicates"), one repeated point
    ("one_duplicate": a single zero distance) and an integer lattice (heavy
    ties)."""
    coords = rng.normal(size=(n, 4))
    if style == "far":
        coords[0] *= 1e6
    elif style == "tiny":
        coords *= 1e-300
    elif style == "subnormal_squares":
        coords *= 1e-160
    elif style == "huge":
        coords *= 1e200
    elif style == "partly_huge":
        coords[: n // 3] *= 1e155
    elif style == "duplicates":
        coords[:] = coords[0]
    elif style == "one_duplicate":
        coords[1] = coords[0]
    elif style == "lattice":
        coords = rng.integers(0, 4, size=(n, 3)).astype(float)
    pts = tuple(
        (Point(i + 1, tuple(float(c) for c in row)), int(w))
        for i, (row, w) in enumerate(zip(coords, rng.integers(1, 6, size=n)))
    )
    return WeightedCoreset(points=pts, guess=1.0, t=n)


class TestPairMassTable:
    def test_lookup_matches_the_two_pass_reference(self):
        rng = np.random.default_rng(71)
        seen = {"n1": 0, "ties": 0, "saturated": 0, "unsaturated": 0}
        for trial in range(240):
            T = _random_coreset(rng, ("uniform", "lattice", "duplicates")[trial % 3])
            total = T.total_weight()
            window_size = total + int(rng.integers(0, total + 1))
            pairs = pair_masses(T)
            d = pdist(np.array([p.coords for p, _ in T.points]))
            seen["n1"] += len(T) == 1
            seen["ties"] += len(np.unique(d)) < len(d)
            # both levels of a default query, then one random level
            for alpha in (0.9 / 1.5**2, 0.9, float(rng.uniform(0.01, 1.0))):
                got = coreset_effective_diameter(pairs, alpha, window_size)
                assert got == reference_coreset_effective_diameter(T, alpha, window_size)
                seen["saturated" if got[1] else "unsaturated"] += 1
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("style, n", [("lattice", 20), ("ball", 300)])
    def test_table_holds_the_self_and_total_mass(self, style, n):
        T = _large_coreset(np.random.default_rng(3), style, n)
        table = pair_masses(T)
        w = [wt for _, wt in T.points]
        assert table.self_mass == sum(x * x for x in w)
        assert table.cum[-1] == sum(w) ** 2
        assert np.all(np.diff(table.cum) >= 0)
        # 190 pairs are sorted outright, 44,850 are bucketed
        assert (table.shift is None) == (n == 20)
        keys = np.sort(table.dists).view(np.int64)
        if table.shift is None:
            assert np.array_equal(table.dists.view(np.int64), keys)
            assert table.cum.size == table.dists.size
        else:
            assert table.lo == keys[0]
            assert table.cum.size == ((keys[-1] - table.lo) >> table.shift) + 1
            assert table.cum.size <= 2**effdiam._BUCKET_BITS

    @pytest.mark.parametrize(
        "style, n",
        [("ball", 300), ("ball", 1000), ("ball", 1500), ("far", 1000),
         ("tiny", 600), ("subnormal_squares", 600), ("huge", 600),
         ("partly_huge", 600), ("duplicates", 600), ("one_duplicate", 1000),
         ("lattice", 1000), ("ball", 1), ("ball", 2)],
    )
    def test_selection_matches_the_sorted_reference_at_real_sizes(
        self, monkeypatch, style, n
    ):
        selected = []
        real = effdiam._select
        monkeypatch.setattr(
            effdiam, "_select",
            lambda d, m, below: selected.append(d.size) or real(d, m, below),
        )
        rng = np.random.default_rng(n)
        T = _large_coreset(rng, style, n)
        table = pair_masses(T)
        # the same table built into a reused buffer that held larger distances
        m = n * (n - 1) // 2
        used = np.full(m + 7, 1e300)
        reused = pair_masses(T, out=used[:m])
        total = T.total_weight()
        for window_size in (total, total + int(rng.integers(1, total + 1))):
            for alpha in (0.9 / 1.5**2, 0.9, float(rng.uniform(0.01, 1.0)), 1.0):
                want = reference_coreset_effective_diameter(T, alpha, window_size)
                assert coreset_effective_diameter(table, alpha, window_size) == want
                assert coreset_effective_diameter(reused, alpha, window_size) == want
        if style in ("lattice", "one_duplicate"):
            # a zero or heavily repeated distance leaves a top-level bucket
            # of more than _SORT_AT pairs, which a read splits again
            assert table.shift is not None
            assert max(selected[1:]) > effdiam._SORT_AT

    def test_building_and_reading_stay_below_four_and_a_half_pair_arrays(self):
        T = _large_coreset(np.random.default_rng(8), "ball", 1000)
        m = 1000 * 999 // 2
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            table = pair_masses(T)
            for alpha in (0.9 / 1.5**2, 0.9):
                coreset_effective_diameter(table, alpha, T.total_weight())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shift is not None
        assert peak < 4.5 * 8 * m, peak / (8 * m)

    def test_estimate_builds_one_table_per_query(self, monkeypatch):
        calls = []
        real = effdiam.pair_masses
        monkeypatch.setattr(
            effdiam, "pair_masses", lambda c, out=None: calls.append(c) or real(c, out)
        )
        cfg = EffDiameterConfig(alpha=0.9, eps=0.9, eta=0.1)
        state = FineCoresetState(cfg, window_len=40, mode="fixed", d_min=0.01, d_max=100.0)
        for p in stream_points(generate_ball_stream(30, dim=2, seed=5)):
            state.process_point(p)
        state.estimate()
        assert len(calls) == 1

    def test_a_second_estimate_reuses_the_pair_buffer(self, monkeypatch):
        T = _large_coreset(np.random.default_rng(8), "ball", 1000)
        m = 1000 * 999 // 2
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.1)
        state = FineCoresetState(cfg, 10_000, "fixed", d_min=0.01, d_max=100.0)
        state.process_point(Point(1, (0.0,) * 4))
        monkeypatch.setattr(state, "fine_coreset", lambda: (T, False))
        first = state.estimate()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            second = state.estimate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second == first
        assert peak < 0.25 * 8 * m, peak / (8 * m)

    def test_estimates_match_the_reference_as_the_buffer_grows_and_shrinks(self):
        # 300 spread points grow the fine coreset past _SORT_AT pairs; then
        # the window fills with three locations and the coreset shrinks
        rng = np.random.default_rng(12)
        spots = rng.random((3, 2))
        coords = np.vstack([rng.random((300, 2)) * 4, spots[rng.integers(0, 3, 450)]])
        pts = stream_points(coords)
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.05)
        state = FineCoresetState(cfg, 150, "fixed", *stream_extremes(pts))
        shrunk = cfg.alpha / (1.0 + cfg.lam) ** 2
        sizes = []
        for p in pts:
            state.process_point(p)
            if p.arrival % 25:
                continue
            got = state.estimate()
            coreset, overflowed = state.fine_coreset()
            wsize = min(state.t, 150)
            ref = reference_coreset_effective_diameter
            low, short_lower = ref(coreset, shrunk, wsize)
            up, short_upper = ref(coreset, cfg.alpha, wsize)
            assert got == effdiam.EffDiameterEstimate(
                low / (1.0 + cfg.eps), up / (1.0 - cfg.eps), len(coreset),
                overflowed, short_lower, short_upper,
            )
            sizes.append((len(coreset), state._pair_buf.size))
        pairs = [n * (n - 1) // 2 for n, _ in sizes]
        bufs = [b for _, b in sizes]
        assert max(pairs) > effdiam._SORT_AT
        assert any(b > a for a, b in zip(bufs, bufs[1:]))  # grown
        assert any(b < a for a, b in zip(bufs, bufs[1:]))  # reallocated smaller
        assert all(m <= b <= 4 * m for m, b in zip(pairs, bufs))

    def test_estimate_leaves_an_unbuffered_table_alone(self):
        rng = np.random.default_rng(5)
        pts = stream_points(rng.random((400, 2)) * 4)
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.05)
        state = FineCoresetState(cfg, 200, "fixed", *stream_extremes(pts))
        for p in pts[:300]:
            state.process_point(p)
        state.estimate()
        coreset, _ = state.fine_coreset()
        table = pair_masses(coreset)
        assert table.shift is not None
        kept = [np.copy(a) for a in (table.dists, table.weights, table.cum)]
        want = coreset_effective_diameter(table, cfg.alpha, 200)
        for p in pts[300:]:
            state.process_point(p)
            state.estimate()
        assert not np.shares_memory(table.dists, state._pair_buf)
        for a, b in zip(kept, (table.dists, table.weights, table.cum)):
            assert np.array_equal(a, b)
        assert coreset_effective_diameter(table, cfg.alpha, 200) == want

    def test_window_len_bound_keeps_pair_masses_exact(self, monkeypatch):
        assert MAX_WINDOW_LEN**2 < 2**53 <= (MAX_WINDOW_LEN + 1) ** 2
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.1)
        FineCoresetState(cfg, window_len=MAX_WINDOW_LEN)  # allocates nothing per slot
        built = []
        monkeypatch.setattr(effdiam, "GuessLadder", lambda *a, **kw: built.append(a))
        with pytest.raises(ValueError, match="window_len must be at most 94906265"):
            FineCoresetState(cfg, window_len=MAX_WINDOW_LEN + 1)
        assert built == []


class TestEffSequential:
    def test_all_identical(self):
        assert eff_sequential(wv(4, 4, 4), 0.9) == 0.0

    def test_three_points_within_bucket(self):
        value = eff_sequential(wv(0, 1, 100), 0.5, 0.01)
        assert 1.0 <= value <= 1.01

    def test_agreement_with_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(5, 60))
            w = WindowView.from_coords(rng.random((n, 3)) * 8)
            alpha = float(rng.uniform(0.1, 0.99))
            exact = exact_effective_diameter(w, alpha)
            approx = eff_sequential(w, alpha, 0.01)
            if exact == 0.0:
                assert approx == 0.0
            else:
                assert approx <= exact * 1.0000001
                assert exact <= approx * 1.01 * 1.0000001


class TestConfig:
    def test_fine_precision(self):
        cfg = EffDiameterConfig(alpha=0.9, eps=0.9, eta=0.05, beta=0.5)
        assert cfg.fine_precision == pytest.approx(0.9 * 0.05 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EffDiameterConfig(alpha=1.2, eps=0.5, eta=0.1)
        with pytest.raises(ValueError):
            EffDiameterConfig(alpha=0.9, eps=0.0, eta=0.1)
        with pytest.raises(ValueError):
            EffDiameterConfig(alpha=0.9, eps=0.5, eta=1.0)
        with pytest.raises(ValueError):
            EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.1, fine_cap=0)


class TestFineState:
    def test_identical_points_share_one_fine_attraction(self):
        cfg = EffDiameterConfig(alpha=0.9, eps=0.9, eta=0.1, lam=0.5, beta=0.5)
        state = FineCoresetState(cfg, window_len=50, mode="fixed", d_min=0.1, d_max=10.0)
        state.process_point(Point(1, (2.0, 2.0)))
        state.process_point(Point(2, (2.0, 2.0)))
        for st in state.fine.states.values():
            assert len(st.attractions) == 1
            rep, hist = st.reps[1]
            assert rep.arrival == 2
            assert hist == [(1, 2), (2, 1)]

    def test_identical_window_estimates_zero(self):
        cfg = EffDiameterConfig(alpha=0.9, eps=0.9, eta=0.1)
        state = FineCoresetState(cfg, window_len=40, mode="fixed", d_min=0.1, d_max=10.0)
        for i in range(12):
            state.process_point(Point(i + 1, (1.0, 1.0)))
        est = state.estimate()
        assert est.lower == 0.0 and est.upper == 0.0 and not est.saturated

    def test_estimate_requires_eps_below_one(self):
        cfg = EffDiameterConfig(alpha=0.9, eps=1.5, eta=0.1)
        state = FineCoresetState(cfg, window_len=40)
        state.process_point(Point(1, (0.0,)))
        with pytest.raises(ValueError, match="eps"):
            state.estimate()

    def test_wrong_dimension_leaves_both_ladders_untouched(self):
        # the fine ladder holds dozens of attraction points per guess
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.1)
        state = FineCoresetState(cfg, window_len=100, mode="fixed", d_min=0.01, d_max=100.0)
        pts = stream_points(generate_ball_stream(60, dim=4, seed=2))
        for p in pts:
            state.process_point(p)
        assert max(len(st.attractions) for st in state.fine.states.values()) >= 48
        before = (state.validation.to_snapshot(), state.fine.to_snapshot())
        with pytest.raises(ValueError, match="dimension"):
            state.process_point(Point(61, (0.5,)))
        assert (state.validation.to_snapshot(), state.fine.to_snapshot()) == before
        state.process_point(Point(61, (0.1, 0.2, 0.3, 0.4)))
        assert state.t == 61
        state.estimate()

    def test_saturation_counter_and_flag(self):
        cfg = EffDiameterConfig(alpha=0.9, eps=0.9, eta=0.5, fine_cap=3)
        state = FineCoresetState(cfg, window_len=100, mode="fixed", d_min=0.05, d_max=30.0)
        rng = np.random.default_rng(0)
        for i in range(40):
            state.process_point(Point(i + 1, tuple(rng.random(2) * 10)))
        assert state.saturation_events() > 0
        est = state.estimate()
        assert est.saturated and est.overflowed

    def test_overflow_alone(self):
        # three far points overflow the two-point cap; once they expire, the
        # window's points all sit at one spot and keep their full weight
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.5, fine_cap=2)
        state = FineCoresetState(cfg, window_len=5, mode="fixed", d_min=0.05, d_max=30.0)
        for i, x in enumerate([0.0, 10.0, 20.0] + [20.0] * 7):
            state.process_point(Point(i + 1, (x,)))
        est = state.estimate()
        assert (est.overflowed, est.short_lower, est.short_upper) == (True, False, False)
        assert est.saturated

    @pytest.mark.parametrize(
        "weights, flags",
        # 10 window points, alpha 0.9, lam 0.5: the levels need ordered-pair
        # masses of 40 and 90; two points of weight 4 reach 64, of weight 2 16
        [((4, 4), (False, False, True)), ((2, 2), (False, True, True))],
        ids=["upper_only", "both_levels"],
    )
    def test_mass_shortfall(self, monkeypatch, weights, flags):
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.5, lam=0.5)
        state = FineCoresetState(cfg, window_len=10, mode="fixed", d_min=0.05, d_max=30.0)
        for i in range(10):
            state.process_point(Point(i + 1, (float(i % 2),)))
        light = WeightedCoreset(
            points=tuple((Point(i + 1, (float(i),)), w) for i, w in enumerate(weights)),
            guess=1.0,
            t=10,
        )
        monkeypatch.setattr(state, "fine_coreset", lambda: (light, False))
        est = state.estimate()
        assert (est.overflowed, est.short_lower, est.short_upper) == flags
        assert est.saturated

    def test_sandwich_on_ball_windows(self):
        cfg = EffDiameterConfig(alpha=0.9, eps=0.9, eta=0.05, lam=0.5, beta=0.5,
                                fine_cap=2048)
        for seed in range(4):
            n = 250
            coords = generate_ball_stream(n, dim=3, outlier_rate=1 / 1000,
                                          outlier_norm=10.0, seed=seed)
            pts = stream_points(coords)
            state = FineCoresetState(cfg, window_len=n)
            for p in pts:
                state.process_point(p)
            window = WindowView(points=tuple(pts), t=n)
            exact = exact_effective_diameter(window, cfg.alpha)
            diameter = exact_effective_diameter(window, 1.0)
            if exact < cfg.eta * diameter:
                continue  # the promised lower bound fails for this window
            est = state.estimate()
            if est.saturated:
                continue
            assert est.lower <= exact <= est.upper

    def test_fine_proxy_error_within_budget(self):
        # at the validation-selected guess, the realized max proxy distance
        # must stay within (eps/2) of the exact effective diameter whenever
        # the eta promise holds for the window
        cfg = EffDiameterConfig(alpha=0.9, eps=0.9, eta=0.05, lam=0.5, beta=0.5,
                                fine_cap=4096)
        for seed in (1, 2, 3):
            n = 220
            coords = generate_ball_stream(n, dim=3, outlier_rate=2 / 1000,
                                          outlier_norm=10.0, seed=seed)
            pts = stream_points(coords)
            state = FineCoresetState(cfg, window_len=n, mode="fixed",
                                     d_min=0.01, d_max=1e4)
            shadow = LadderShadow(state.fine)
            for p in pts:
                state.validation.process_point(p)
                shadow.feed(p)
            window = WindowView(points=tuple(pts), t=n)
            exact = exact_effective_diameter(window, cfg.alpha)
            diameter = exact_effective_diameter(window, 1.0)
            if exact < cfg.eta * diameter:
                continue
            e = state.validation.selected_exponent()
            guess = state.validation.states[e].guess
            d_hat = max(
                math.dist(q.coords, shadow.proxy(e, q).coords) for q in pts
            )
            assert d_hat <= cfg.fine_precision * guess + 1e-12
            assert d_hat <= (cfg.eps / 2.0) * exact + 1e-12

    def test_fine_layer_size_insensitive_to_eta(self):
        # conservative (small) eta shrinks the attraction radius, but for
        # ball-with-noise data the stored fine layer is sample-limited, so
        # memory barely moves
        sizes = {}
        for eta in (1 / 20, 1 / 2000):
            cfg = EffDiameterConfig(alpha=0.9, eps=0.9, eta=eta, lam=0.5,
                                    beta=0.5, fine_cap=4096)
            n = 400
            coords = generate_ball_stream(n, dim=4, outlier_rate=1 / 1000,
                                          outlier_norm=10.0, seed=11)
            state = FineCoresetState(cfg, window_len=n, mode="fixed",
                                     d_min=0.01, d_max=1e4)
            for p in stream_points(coords):
                state.process_point(p)
            assert state.saturation_events() == 0
            coreset, overflowed = state.fine_coreset()
            assert not overflowed
            sizes[eta] = len(coreset)
        assert sizes[1 / 2000] <= 2 * sizes[1 / 20]

    def test_weight_sandwich_exact_vs_estimated(self):
        cfg = EffDiameterConfig(alpha=0.9, eps=0.9, eta=0.1, lam=0.5, beta=0.5,
                                fine_cap=4096)
        rng = np.random.default_rng(21)
        coords = rng.random((120, 2)) * 4
        pts = stream_points(coords)
        d_min, d_max = stream_extremes(pts)
        state = FineCoresetState(cfg, window_len=60, mode="fixed",
                                 d_min=d_min, d_max=d_max)
        shadow = LadderShadow(state.fine)
        for p in pts:
            state.validation.process_point(p)
            shadow.feed(p)
        coreset, overflowed = state.fine_coreset()
        assert not overflowed
        e = state.validation.selected_exponent()
        active = [p for p in pts if p.arrival > state.t - 60]
        exact_w = shadow.exact_weights(e, active)
        exact_coreset = WeightedCoreset(
            points=tuple((p, exact_w[p.arrival]) for p, _ in coreset.points),
            guess=coreset.guess,
            t=coreset.t,
        )
        wsize = len(active)
        shrunk = cfg.alpha / (1.0 + cfg.lam) ** 2
        pairs = pair_masses(coreset)
        lo_est, _ = coreset_effective_diameter(pairs, shrunk, wsize)
        mid_exact, _ = coreset_effective_diameter(pair_masses(exact_coreset), cfg.alpha, wsize)
        hi_est, _ = coreset_effective_diameter(pairs, cfg.alpha, wsize)
        assert lo_est <= mid_exact <= hi_est
