import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from streamkc import effdiam
from streamkc.core import Point, StreamParams, WindowView
from streamkc.coreset import GuessLadder, WeightedCoreset
from streamkc.effdiam import (
    MAX_WINDOW_LEN,
    EffDiameterConfig,
    FineCoresetState,
    PairMassTable,
    coreset_effective_diameter,
    eff_sequential,
    exact_effective_diameter,
)
from streamkc.experiment import generate_ball_stream
from oracles import (
    LadderShadow,
    reference_coreset_effective_diameter,
    refusals,
    stream_extremes,
)


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
        value, saturated = coreset_effective_diameter(PairMassTable().update(T), 0.5, 3)
        assert value == 0.0 and not saturated

    def test_cross_pairs_needed(self):
        T = self._coreset([(0, 2), (10, 1)])
        value, saturated = coreset_effective_diameter(PairMassTable().update(T), 0.9, 3)
        assert value == 10.0 and not saturated

    def test_single_point_full_weight(self):
        for alpha in (0.1, 0.5, 0.99):
            T = self._coreset([(5, 7)])
            value, saturated = coreset_effective_diameter(PairMassTable().update(T), alpha, 7)
            assert value == 0.0 and not saturated

    def test_saturation_when_weights_insufficient(self):
        T = self._coreset([(0, 1), (3, 1)])
        value, saturated = coreset_effective_diameter(PairMassTable().update(T), 0.9, 100)
        assert saturated and value == 3.0

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(9)
        pairs = [(float(c), int(w)) for c, w in zip(rng.random(12) * 4, rng.integers(1, 5, 12))]
        T = self._coreset(pairs)
        total = sum(w for _, w in pairs)
        prev = -1.0
        for alpha in np.linspace(0.05, 0.999, 17):
            table = PairMassTable().update(T)
            value, _ = coreset_effective_diameter(table, float(alpha), total)
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


def _coreset_walk(rng, style, steps, n=150):
    """Seeded coresets, one per step: each drops, reweights and adds about a
    twelfth of its entries (growing for the first half of the walk and
    shrinking after), and every fifth replaces more than a third.  Styles:
    "ball", "lattice" (heavy ties), "repeats" (points at five spots: zero
    distances), "subnormal_squares" and "tiny" (coordinates scaled by 1e-160
    and 1e-300), "partly_huge" (a third scaled by 1e155: infinite
    distances)."""
    spots = rng.normal(size=(5, 3))
    arrival = 0

    def point():
        nonlocal arrival
        arrival += 1
        if style == "lattice":
            coords = rng.integers(0, 4, size=3).astype(float)
        elif style == "repeats":
            coords = spots[rng.integers(0, 5)]
        else:
            coords = rng.normal(size=3)
            coords *= {"subnormal_squares": 1e-160, "tiny": 1e-300}.get(style, 1.0)
            if style == "partly_huge" and rng.random() < 1 / 3:
                coords *= 1e155
        return Point(arrival, tuple(float(c) for c in coords))

    entries = [(point(), int(rng.integers(1, 6))) for _ in range(n)]
    for step in range(steps):
        yield WeightedCoreset(tuple(entries), 1.0, arrival)
        k = len(entries) // 2 if step % 5 == 4 else len(entries) // 12
        rng.shuffle(entries)
        entries = entries[k:]
        for i in range(k // 2):
            p, w = entries[i]
            entries[i] = (p, w + 1)
        grow = k + len(entries) // 10 if step < steps // 2 else k // 2
        entries += [(point(), int(rng.integers(1, 6))) for _ in range(grow)]


def _reference_estimate(state, coreset, overflowed):
    """The estimate the state's query should return for coreset, read by
    the reference at both levels."""
    cfg = state.cfg
    wsize = min(state.t, state.validation.params.window_len)
    shrunk = cfg.alpha / (1.0 + cfg.lam) ** 2
    low, short_lower = reference_coreset_effective_diameter(coreset, shrunk, wsize)
    up, short_upper = reference_coreset_effective_diameter(coreset, cfg.alpha, wsize)
    return effdiam.EffDiameterEstimate(
        low / (1.0 + cfg.eps), up / (1.0 - cfg.eps), len(coreset),
        overflowed, short_lower, short_upper,
    )


def _live_dists(table):
    """The distances of the table's live pairs as ``pairs_in`` reads them:
    bucket by bucket in id order, each bucket sorted."""
    buckets = np.unique(table.ids[table.ids > 0])
    return np.concatenate([np.empty(0), *(np.sort(table.pairs_in(b)[0]) for b in buckets)])


class TestPairMassTable:
    def test_lookup_matches_the_two_pass_reference(self):
        rng = np.random.default_rng(71)
        seen = {"n1": 0, "ties": 0, "saturated": 0, "unsaturated": 0}
        for trial in range(240):
            T = _random_coreset(rng, ("uniform", "lattice", "duplicates")[trial % 3])
            total = T.total_weight()
            window_size = total + int(rng.integers(0, total + 1))
            pairs = PairMassTable().update(T)
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
        table = PairMassTable().update(T)
        w = [wt for _, wt in T.points]
        assert table.self_mass == sum(x * x for x in w)
        assert table.cum[-1] == sum(w) ** 2
        assert table.masses.sum() == sum(w) ** 2 - table.self_mass
        assert table.masses[0] == 0  # id 0 marks slots without a live pair
        assert np.all(np.diff(table.cum) >= 0)
        # every pair once, read back with pdist's distance, and ids in
        # distance order: the buckets, each sorted, concatenate in order
        assert np.count_nonzero(table.ids) == n * (n - 1) // 2
        dists = _live_dists(table)
        assert dists.size == n * (n - 1) // 2
        want = np.sort(pdist(np.array([p.coords for p, _ in T.points])))
        assert np.array_equal(np.sort(dists).view(np.int64), want.view(np.int64))
        assert np.all(dists[1:] >= dists[:-1])

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
        gathered = []
        real = effdiam.PairMassTable.pairs_in

        def pairs_in(table, b):
            out = real(table, b)
            gathered.append(out[0].size)
            return out

        monkeypatch.setattr(effdiam.PairMassTable, "pairs_in", pairs_in)
        rng = np.random.default_rng(n)
        T = _large_coreset(rng, style, n)
        table = PairMassTable().update(T)
        # the same coreset in a kept table that held a tenth other entries,
        # reached without a refill from 300 entries up
        other = list(T.points)
        for i in range(0, n, 10):
            other[i] = (Point(n + 1 + i, tuple(2.0 * c for c in other[i][0].coords)), 3)
        kept = PairMassTable().update(WeightedCoreset(tuple(other), 1.0, 2 * n)).update(T)
        assert kept.refills == (1 if n >= 300 else 2)
        total = T.total_weight()
        for window_size in (total, total + int(rng.integers(1, total + 1))):
            for alpha in (0.9 / 1.5**2, 0.9, float(rng.uniform(0.01, 1.0)), 1.0):
                want = reference_coreset_effective_diameter(T, alpha, window_size)
                assert coreset_effective_diameter(table, alpha, window_size) == want
                assert coreset_effective_diameter(kept, alpha, window_size) == want
        if style in ("lattice", "partly_huge"):
            # a heavily repeated distance, or the finite distances that fall
            # below the ids of the infinite ones, fill a bucket of more than
            # 8,192 pairs, which a read gathers and sorts whole
            assert max(gathered) > 8192

    def test_building_and_reading_stay_below_four_and_a_half_pair_arrays(self):
        T = _large_coreset(np.random.default_rng(8), "ball", 1000)
        m = 1000 * 999 // 2
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            table = PairMassTable().update(T)
            for alpha in (0.9 / 1.5**2, 0.9):
                coreset_effective_diameter(table, alpha, T.total_weight())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (table.refills, table.added) == (1, 1000)
        assert peak < 4.5 * 8 * m, peak / (8 * m)

    def test_the_table_holds_two_bytes_a_pair_and_reads_within_two_pair_arrays(self):
        # no distance is kept: after a fresh build the table holds its 16-bit
        # ids, per-row arrays and the bucket masses; building and both reads
        # peak below two float64 arrays of the coreset's pairs
        T = _large_coreset(np.random.default_rng(8), "ball", 1000)
        m = 1000 * 999 // 2
        tracemalloc.start()
        try:
            table = PairMassTable().update(T)
            held = tracemalloc.get_traced_memory()[0]
            for alpha in (0.9 / 1.5**2, 0.9):
                coreset_effective_diameter(table, alpha, T.total_weight())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= 0.5 * 8 * m, held / (8 * m)
        assert peak < 2 * 8 * m, peak / (8 * m)
        pair_sized = [(name, a.dtype) for name, a in vars(table).items()
                      if isinstance(a, np.ndarray) and a.size >= m]
        assert pair_sized == [("ids", np.uint16)]

    def test_reading_a_bucket_of_most_pairs_recomputes_it_in_chunks(self, monkeypatch):
        # partly_huge: the upper level's bucket holds the 99,900 infinite
        # distances of 179,700 pairs, recomputed in blocks of _CHUNK pairs;
        # the table and both reads peak at most where the kept distances did
        n = 600
        T = _large_coreset(np.random.default_rng(n), "partly_huge", n)
        m = n * (n - 1) // 2
        chunks = []
        real = effdiam._euclidean
        monkeypatch.setattr(
            effdiam, "_euclidean", lambda x, i, j, out: chunks.append(i.size) or real(x, i, j, out)
        )
        tracemalloc.start()
        try:
            table = PairMassTable().update(T)
            tracemalloc.reset_peak()
            got = [coreset_effective_diameter(table, alpha, T.total_weight())
                   for alpha in (0.9 / 1.5**2, 0.9)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[1] == (math.inf, False)
        assert np.count_nonzero(table.ids == table.ids.max()) > effdiam._CHUNK
        assert max(chunks) == effdiam._CHUNK and sum(chunks) > effdiam._CHUNK
        assert peak <= 5.21 * 8 * m, peak / (8 * m)

    def test_estimate_builds_one_table_per_query(self, monkeypatch):
        # the state keeps one table and updates it once per query; no query
        # builds a fresh one
        updates = []
        real = effdiam.PairMassTable.update
        monkeypatch.setattr(
            effdiam.PairMassTable, "update",
            lambda table, c: updates.append((table, c)) or real(table, c),
        )
        cfg = EffDiameterConfig(alpha=0.9, eps=0.9, eta=0.1)
        state = FineCoresetState(cfg, window_len=40, mode="fixed", d_min=0.01, d_max=100.0)
        pts = stream_points(generate_ball_stream(60, dim=2, seed=5))
        for p in pts[:30]:
            state.process_point(p)
        for p in [None, *pts[30:]]:
            if p is not None:
                state.process_point(p)
            before = len(updates)
            got = state.estimate()
            assert len(updates) == before + 1
            coreset, overflowed = state.fine_coreset()
            assert got == _reference_estimate(state, coreset, overflowed)
        assert {id(table) for table, _ in updates} == {id(state._pairs)}

    def test_a_second_estimate_reuses_the_pair_buffer(self, monkeypatch):
        # an unchanged coreset leaves the kept table's rows alone: no pair is
        # added or removed and no pair-sized array is allocated
        T = _large_coreset(np.random.default_rng(8), "ball", 1000)
        m = 1000 * 999 // 2
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.1)
        state = FineCoresetState(cfg, 10_000, "fixed", d_min=0.01, d_max=100.0)
        state.process_point(Point(1, (0.0,) * 4))
        monkeypatch.setattr(state, "fine_coreset", lambda: (T, False))
        first = state.estimate()
        table = state._pairs
        ids = table.ids
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            second = state.estimate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second == first == _reference_estimate(state, T, False)
        assert state._pairs is table and table.ids is ids
        stats = state.stats()
        assert (stats["rows_added"], stats["rows_removed"], stats["refills"]) == (0, 0, 1)
        assert peak < 0.25 * 8 * m, peak / (8 * m)

    def test_estimates_match_the_reference_as_the_buffer_grows_and_shrinks(self):
        # 300 spread points grow the fine coreset past 8,192 pairs; then
        # the window fills with three locations and the coreset shrinks
        rng = np.random.default_rng(12)
        spots = rng.random((3, 2))
        coords = np.vstack([rng.random((300, 2)) * 4, spots[rng.integers(0, 3, 450)]])
        pts = stream_points(coords)
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.05)
        state = FineCoresetState(cfg, 150, "fixed", *stream_extremes(pts))
        sizes = []
        for p in pts:
            state.process_point(p)
            if p.arrival % 25:
                continue
            got = state.estimate()
            coreset, overflowed = state.fine_coreset()
            assert got == _reference_estimate(state, coreset, overflowed)
            rows = len(state._pairs.weights)
            assert state._pairs.ids.size == rows * (rows - 1) // 2
            sizes.append((len(coreset), rows, state._pairs.refills))
        pairs = [n * (n - 1) // 2 for n, _, _ in sizes]
        rows = [r for _, r, _ in sizes]
        assert max(pairs) > 8192
        assert any(b > a for a, b in zip(rows, rows[1:]))  # grown
        assert any(b < a for a, b in zip(rows, rows[1:]))  # reallocated smaller
        # the row capacity holds the coreset and stays within about twice it
        assert all(n <= r <= 2 * n + 8 for (n, _, _), r in zip(sizes, rows))
        # the window's turnover updated the kept rows in place; growing past
        # the capacity, and changing more than a third of the rows, refilled
        refills = [f for _, _, f in sizes]
        assert sum(a == b for a, b in zip(refills, refills[1:])) >= 5
        assert refills[-1] > 2

    def test_estimate_leaves_an_unbuffered_table_alone(self):
        rng = np.random.default_rng(5)
        pts = stream_points(rng.random((400, 2)) * 4)
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.05)
        state = FineCoresetState(cfg, 200, "fixed", *stream_extremes(pts))
        for p in pts[:300]:
            state.process_point(p)
        state.estimate()
        coreset, _ = state.fine_coreset()
        table = PairMassTable().update(coreset)
        assert table is not state._pairs
        fields = ("ids", "keys", "weights", "_coords", "masses", "cum")
        kept = [np.copy(getattr(table, f)) for f in fields]
        want = coreset_effective_diameter(table, cfg.alpha, 200)
        assert want == reference_coreset_effective_diameter(coreset, cfg.alpha, 200)
        for p in pts[300:]:
            state.process_point(p)
            state.estimate()
        assert state._pairs.added + state._pairs.removed > 0
        for f, a in zip(fields, kept):
            assert not np.shares_memory(getattr(table, f), getattr(state._pairs, f))
            assert np.array_equal(a, getattr(table, f))
        assert coreset_effective_diameter(table, cfg.alpha, 200) == want

    @pytest.mark.parametrize(
        "style", ["ball", "lattice", "repeats", "subnormal_squares", "partly_huge", "tiny"]
    )
    def test_a_kept_table_equals_a_fresh_one_and_the_reference(self, style):
        # a walk of coresets that grow, shrink, change weights, repeat points
        # and, every fifth step, replace more than a third of their entries
        rng = np.random.default_rng(len(style))
        kept = effdiam.PairMassTable()
        for T in _coreset_walk(rng, style, steps=15):
            kept.update(T)
            total = T.total_weight()
            fresh = PairMassTable().update(T)
            # the two may place their ids differently (each refill takes its
            # base from its own entries), but hold the same pairs
            assert fresh.self_mass == kept.self_mass
            assert fresh.cum[-1] == kept.cum[-1] == total**2
            assert np.count_nonzero(kept.ids) == len(T) * (len(T) - 1) // 2
            assert np.array_equal(
                np.sort(_live_dists(kept)).view(np.int64),
                np.sort(_live_dists(fresh)).view(np.int64),
            )
            for window_size in (total, total + int(rng.integers(1, total + 1))):
                alphas = [0.9 / 1.5**2, 0.9, 1.0, *rng.uniform(0.01, 1.0, 4)]
                for alpha in map(float, alphas):
                    want = reference_coreset_effective_diameter(T, alpha, window_size)
                    assert coreset_effective_diameter(kept, alpha, window_size) == want
                    assert coreset_effective_diameter(fresh, alpha, window_size) == want
        assert 1 < kept.refills < 15

    def test_a_point_repeated_in_the_coreset_counts_each_time(self):
        rng = np.random.default_rng(6)
        T = _random_coreset(rng, "uniform")
        (p, w), rest = T.points[0], T.points[1:]
        twice = WeightedCoreset((*T.points, (p, w), (p, w + 1), rest[0]), 1.0, T.t)
        kept = PairMassTable().update(T).update(twice)
        assert kept.refills == 2  # a repeated arrival refills the table
        for table in (PairMassTable().update(twice), kept):
            assert table.self_mass + table.masses.sum() == twice.total_weight() ** 2
            for alpha in (0.05, 0.4, 0.9, 1.0):
                want = reference_coreset_effective_diameter(twice, alpha, 3 * T.t)
                assert coreset_effective_diameter(table, alpha, 3 * T.t) == want

    def test_a_distance_above_the_ids_rebases_through_a_refill(self):
        T = _large_coreset(np.random.default_rng(2), "ball", 200)
        far = WeightedCoreset((*T.points, (Point(201, (1e6, 0.0, 0.0, 0.0)), 1)), 1.0, 201)
        table = PairMassTable().update(T).update(far)
        assert (table.refills, table.added, table.removed) == (2, 201, 200)
        total = far.total_weight()
        for alpha in (0.5, 0.9, 0.999, 1.0):
            want = reference_coreset_effective_diameter(far, alpha, total)
            assert coreset_effective_diameter(table, alpha, total) == want
        # a near point is added in place, with no refill
        near = WeightedCoreset((*far.points, (Point(202, (0.5, 0.5, 0.5, 0.5)), 2)), 1.0, 202)
        table.update(near)
        assert (table.refills, table.added, table.removed) == (2, 1, 0)
        for alpha in (0.5, 0.9, 0.999, 1.0):
            want = reference_coreset_effective_diameter(near, alpha, total + 2)
            assert coreset_effective_diameter(table, alpha, total + 2) == want

    def test_cdist_rows_equal_the_matching_pdist_entries(self):
        rng = np.random.default_rng(13)
        for scale in (1.0, 1e-160, 1e-300, 1e155, 1e200):
            for dim in (1, 2, 4, 7):
                x = rng.normal(size=(60, dim)) * scale
                x[7] = x[3]  # one zero distance
                condensed = pdist(x)
                starts = np.concatenate(([0], np.cumsum(np.arange(59, 0, -1))))
                for i in range(59):
                    row = cdist(x[i : i + 1], x[i + 1 :])[0]
                    want = condensed[starts[i] : starts[i + 1]]
                    assert np.array_equal(row.view(np.int64), want.view(np.int64))
                    # and the other way round: the block from the later rows
                    back = cdist(x[i + 1 :], x[i : i + 1])[:, 0]
                    assert np.array_equal(back.view(np.int64), want.view(np.int64))

    def test_the_read_kernel_has_the_bits_of_pdist_and_cdist(self):
        # per pair: difference, square, a left-to-right sum over the
        # coordinates and a square root; numpy's own row sum differs from
        # d = 8 up, and squares past the float range give inf unwarned
        rng = np.random.default_rng(29)
        for scale in (1.0, 1e-5, 1e-160, 1e-300, 1e155, 1e200):
            for dim in (*range(1, 10), 16, 33, 64):
                x = rng.normal(size=(40, dim)) * scale
                x[7] = x[3]  # one zero distance
                i, j = np.triu_indices(40, 1)
                with np.errstate(over="raise", invalid="raise"):
                    got = effdiam._euclidean(x, i, j, np.empty(i.size))
                assert np.array_equal(got.view(np.int64), pdist(x).view(np.int64))
                want = cdist(x, x)
                got = effdiam._euclidean(x, *np.indices((40, 40)).reshape(2, -1), np.empty(1600))
                assert np.array_equal(got.view(np.int64), want.ravel().view(np.int64))

    def test_a_shrinking_coreset_gives_back_its_rows(self):
        # each step drops under a third of the entries, so no step refills
        # for turnover; the capacity refills once it exceeds about twice
        # the coreset, so the table stays within four times its pairs
        T = _large_coreset(np.random.default_rng(4), "ball", 1000)
        table = PairMassTable().update(T)
        caps = []
        for n in (760, 580, 440, 330):
            U = WeightedCoreset(T.points[:n], 1.0, 2000)
            table.update(U)
            cap = len(table.weights)
            assert n <= cap <= 2 * n + 8
            assert table.ids.size == cap * (cap - 1) // 2
            caps.append((cap, table.refills))
            for alpha in (0.9 / 1.5**2, 0.9):
                want = reference_coreset_effective_diameter(U, alpha, 2000)
                assert coreset_effective_diameter(table, alpha, 2000) == want
        assert [f for _, f in caps] == [1, 1, 2, 2]
        assert caps[0][0] == caps[1][0] > caps[2][0] == caps[3][0]

    def test_entries_taking_the_top_rows_add_their_pairs_in_place(self):
        # a refill puts its entries in the top rows, in order for equal
        # weights; replacing the last ten frees the top ten rows, which the
        # ten new entries take, adding their pairs with no refill
        rng = np.random.default_rng(17)
        T = WeightedCoreset(
            tuple((Point(i + 1, tuple(rng.normal(size=3))), 1) for i in range(200)), 1.0, 400
        )
        table = PairMassTable().update(T)
        cap = len(table.weights)
        new = [(Point(300 + i, tuple(rng.normal(size=3))), 1) for i in range(10)]
        U = WeightedCoreset((*T.points[:190], *new), 1.0, 400)
        table.update(U)
        assert (table.refills, table.added, table.removed) == (1, 10, 10)
        assert table.keys[cap - 10 :].tolist() == [p.arrival for p, _ in new]
        assert np.array_equal(
            np.sort(_live_dists(table)).view(np.int64),
            np.sort(pdist(np.array([p.coords for p, _ in U.points]))).view(np.int64),
        )
        for alpha in (0.2, 0.9 / 1.5**2, 0.9, 1.0):
            want = reference_coreset_effective_diameter(U, alpha, 400)
            assert coreset_effective_diameter(table, alpha, 400) == want

    def test_a_forced_refill_takes_the_one_add_path(self, monkeypatch):
        added = []
        real = effdiam.PairMassTable._add
        monkeypatch.setattr(
            effdiam.PairMassTable, "_add",
            lambda table, pts, w, x: added.append(len(pts)) or real(table, pts, w, x),
        )
        rng = np.random.default_rng(9)
        T = _large_coreset(rng, "ball", 120)
        table = PairMassTable().update(T)  # a fresh table: one refill of every entry
        assert (added, table.refills) == ([120], 1)
        # replace half the entries: more than a third changes, so a refill
        half = [(Point(200 + i, tuple(rng.normal(size=4))), 2) for i in range(60)]
        U = WeightedCoreset((*T.points[60:], *half), 1.0, 300)
        table.update(U)
        assert (added, table.refills) == ([120, 120], 2)
        assert (table.added, table.removed) == (120, 120)
        # a tenth changes: removed and added in place
        V = WeightedCoreset((*U.points[12:], *T.points[:12]), 1.0, 300)
        table.update(V)
        assert (added, table.refills) == ([120, 120, 12], 2)
        assert (table.added, table.removed) == (12, 12)
        for alpha in (0.3, 0.9, 1.0):
            want = reference_coreset_effective_diameter(V, alpha, 500)
            assert coreset_effective_diameter(table, alpha, 500) == want

    @pytest.mark.parametrize(
        "style", ["repeats", "lattice", "subnormal_squares", "huge", "scale_jump"]
    )
    def test_estimates_match_the_reference_after_every_query(self, style):
        # the window's coreset holds repeated points (zero distances), lattice
        # ties, distances whose squares are subnormal or near overflow, or
        # jumps a hundredfold in scale, which moves the selected guess
        rng = np.random.default_rng(31)
        coords = rng.random((240, 2))
        if style == "repeats":
            coords = coords[rng.integers(0, 12, 240)]
        elif style == "lattice":
            coords = rng.integers(0, 5, size=(240, 2)).astype(float)
        elif style == "subnormal_squares":
            coords *= 1e-160
        elif style == "huge":
            coords *= 1e150
        else:
            coords[120:] *= 100.0
        pts = stream_points(coords)
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.05)
        if style == "scale_jump":
            state = FineCoresetState(cfg, 60)
        else:
            state = FineCoresetState(cfg, 60, "fixed", *stream_extremes(pts))
        exponents = set()
        for p in pts:
            state.process_point(p)
            if p.arrival % 4:
                continue
            got = state.estimate()
            coreset, overflowed = state.fine_coreset()
            assert got == _reference_estimate(state, coreset, overflowed)
            exponents.add(state.stats()["exponent"])
        if style == "scale_jump":
            assert len(exponents - {None}) > 1

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

    @pytest.mark.parametrize("fine_cap", [2.5, True, 4096.0])
    def test_a_fine_cap_that_is_not_an_integer_is_refused(self, fine_cap):
        # 2.5 would run as a cap of 2
        with pytest.raises(ValueError, match="fine_cap must be an integer"):
            EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.1, fine_cap=fine_cap)
        assert EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.1, fine_cap=np.int64(3)).fine_cap == 3

    @pytest.mark.parametrize("eps, lam, beta", [
        (math.nan, 0.5, 0.5), (math.inf, 0.5, 0.5), (0.5, math.inf, 0.5),
        (0.5, math.nan, 0.5), (0.5, 0.5, 1e-17),
    ])
    def test_non_finite_settings_are_rejected(self, eps, lam, beta):
        with pytest.raises(ValueError):
            EffDiameterConfig(alpha=0.9, eps=eps, eta=0.1, lam=lam, beta=beta)


class TestFineState:
    def test_identical_points_share_one_fine_attraction(self):
        cfg = EffDiameterConfig(alpha=0.9, eps=0.9, eta=0.1, lam=0.5, beta=0.5)
        state = FineCoresetState(cfg, window_len=50, mode="fixed", d_min=0.1, d_max=10.0)
        state.process_point(Point(1, (2.0, 2.0)))
        state.process_point(Point(2, (2.0, 2.0)))
        for st in state.fine.states.values():
            assert [a.arrival for a in st.attractions] == [1]
            rep, hist = st.reps[0]
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
        assert state.stats()["fine"]["evictions"] > 0
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
            assert state.stats()["fine"]["evictions"] == 0
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
        pairs = PairMassTable().update(coreset)
        lo_est, _ = coreset_effective_diameter(pairs, shrunk, wsize)
        exact_pairs = PairMassTable().update(exact_coreset)
        mid_exact, _ = coreset_effective_diameter(exact_pairs, cfg.alpha, wsize)
        hi_est, _ = coreset_effective_diameter(pairs, cfg.alpha, wsize)
        assert lo_est <= mid_exact <= hi_est


def _held(ladder):
    """Each guess's attraction, representative and orphan arrivals."""
    return {e: ([a.arrival for a in st.attractions], [r.arrival for r, _ in st.reps],
                list(st.orphans))
            for st in ladder._runs for e in range(st.lo, st.hi + 1)}


@pytest.mark.parametrize("mode", ["fixed", "oblivious"])
def test_the_validation_ladder_keeps_no_weights_yet_picks_as_at_cfg_lam(mode):
    # built at lam = window_len, the validation ladder keeps at most two
    # entries a histogram, yet holds the points, selects the guess and gives
    # the estimates of a twin whose validation ladder is built at cfg.lam
    pts = TestRestart._stream(6)[:300]
    state, twin = TestRestart._state(mode, pts), TestRestart._state(mode, pts)
    val = state.validation
    assert val.params == replace(state.fine.params, lam=100.0)
    twin.validation = GuessLadder(state.fine.params, mode, val.d_min, val.d_max)
    for p in pts:
        state.process_point(p)
        twin.process_point(p)
        if p.arrival % 10 == 0:
            assert _held(val) == _held(twin.validation)
            if val.bootstrapped:
                assert val.selected_exponent() == twin.validation.selected_exponent()
            assert state.estimate() == twin.estimate()
    val.check_invariants()
    assert max(len(h) for st in val._runs for _, h in [*st.reps, *st.orphans.values()]) == 2
    assert twin.validation.histogram_entries() > 2 * val.histogram_entries()


class TestRestart:
    @staticmethod
    def _stream(seed):
        return stream_points(generate_ball_stream(400, dim=3, outlier_rate=1 / 100,
                                                  outlier_norm=10.0, seed=seed))

    @staticmethod
    def _state(mode, pts):
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.05, fine_cap=256)
        if mode == "fixed":
            return FineCoresetState(cfg, 100, "fixed", *stream_extremes(pts))
        return FineCoresetState(cfg, 100)

    @pytest.mark.parametrize("mode", ["fixed", "oblivious"])
    def test_a_restart_mid_stream_gives_every_later_estimate(self, mode):
        pts = self._stream(4)
        state = self._state(mode, pts)
        for p in pts[:230]:
            state.process_point(p)
            if p.arrival % 10 == 0:
                state.estimate()  # the uninterrupted state's table is warm
        snap = json.loads(json.dumps(state.to_snapshot()))
        restored = FineCoresetState.from_snapshot(snap)
        assert restored.to_snapshot() == state.to_snapshot()
        assert restored._pairs.refills == 0  # an empty table
        for p in pts[230:]:
            state.process_point(p)
            restored.process_point(p)
            if p.arrival % 10 == 0:
                assert restored.estimate() == state.estimate()
        assert restored.to_snapshot() == state.to_snapshot()
        assert state._pairs.refills < restored._pairs.refills + 17

    def _snapshot(self, mode="fixed"):
        pts = self._stream(5)
        state = self._state(mode, pts)
        for p in pts[:150]:
            state.process_point(p)
        return state, json.loads(json.dumps(state.to_snapshot()))

    @staticmethod
    def _splice(snap, mode):
        """Put in snap the ladders of two estimators of its cfg (window 40,
        120 points each) fed different streams: the validation ladder of a
        seed-1 stream and the fine ladder of a seed-2 one scaled by 1000."""
        cfg = EffDiameterConfig(**snap["config"])
        one = TestRestart._stream(1)[:120]
        two = stream_points(1000 * np.array([p.coords for p in TestRestart._stream(2)[:120]]))
        bounds = stream_extremes(one) if mode == "fixed" else ()
        states = [FineCoresetState(cfg, 40, mode, *bounds) for _ in range(2)]
        for state, pts in zip(states, (one, two)):
            for p in pts:
                state.process_point(p)
        snap["validation"] = states[0].validation.to_snapshot()
        snap["fine"] = states[1].fine.to_snapshot()
        for state in states:  # each estimator alone restores
            FineCoresetState.from_snapshot(json.loads(json.dumps(state.to_snapshot())))

    @staticmethod
    def _validation_at_cfg_lam(snap):
        """Put in snap the validation ladder of a snapshot written when that
        ladder kept histograms at cfg.lam: one fed _snapshot's points."""
        val = snap["validation"]
        params = StreamParams(**{**val["params"], "lam": snap["config"]["lam"]})
        lad = GuessLadder(params, val["mode"], val["d_min"], val["d_max"])
        for p in TestRestart._stream(5)[:150]:
            lad.process_point(p)
        snap["validation"] = lad.to_snapshot()

    CORRUPTIONS = [
        (lambda s: s.update(format="streamkc-ladder"), "not an effective-diameter"),
        (lambda s: s.update(version=2), "unsupported snapshot version"),
        (lambda s: s.pop("fine"), "corrupt effective-diameter snapshot"),
        (lambda s: s["config"].update(delta=1), "corrupt effective-diameter snapshot"),
        (lambda s: s["config"].update(alpha=1.5), "alpha"),
        (lambda s: s["config"].update(alpha=2.0), "corrupt effective-diameter snapshot"),
        (lambda s: s["config"].update(fine_cap=255), "fine ladder's cap"),
        (lambda s: s["config"].update(eta=0.1), "fine ladder's attr_factor"),
        (lambda s: s["config"].update(lam=0.25), "ladder's params"),
        (lambda s: s["fine"]["states"].pop(), "corrupt ladder snapshot"),
        (lambda s: s["fine"]["states"][0].update(exponent=10**6), "corrupt ladder snapshot"),
        (lambda s: s["fine"]["params"].update(k=0), "corrupt ladder snapshot"),
        (lambda s: s["validation"]["params"].update(beta=5e-6), "corrupt ladder snapshot"),
        (lambda s: [s[side]["params"].update(window_len=MAX_WINDOW_LEN + 1)
                    for side in ("validation", "fine")],
         "corrupt effective-diameter snapshot"),
        (lambda s: s.update(validation=None), "not a ladder snapshot"),
        (lambda s: s.update(fine=[]), "not a ladder snapshot"),
        (lambda s: s.update(fine=s["validation"]), "fine ladder's params"),
        (lambda s: TestRestart._validation_at_cfg_lam(s), "validation ladder's params"),
        (lambda s: TestRestart._splice(s, "fixed"), "ladders fed different streams"),
        (lambda s: TestRestart._splice(s, "oblivious"), "ladders fed different streams"),
    ]

    @pytest.mark.parametrize(
        "corrupt, match",
        CORRUPTIONS,
        ids=["format", "version", "no_fine", "unknown_config", "bad_config",
             "config_refused", "cap", "attr_factor", "lam", "broken_ladder",
             "overflowing_fine_exponent", "params_refused", "grid_refused",
             "window_refused", "validation_none", "fine_list", "validation_twice",
             "validation_at_cfg_lam", "spliced_fixed", "spliced_oblivious"],
    )
    def test_a_corrupt_or_mismatched_snapshot_raises(self, corrupt, match):
        _, snap = self._snapshot()
        corrupt(snap)
        with pytest.raises(ValueError, match=match):
            FineCoresetState.from_snapshot(snap)

    @pytest.mark.slow
    def test_refusals_survive_optimized_mode(self):
        # python -O strips assert statements; each snapshot above is refused
        # there as it is here
        _, base = self._snapshot()
        snaps = []
        for corrupt, _ in self.CORRUPTIONS:
            snap = json.loads(json.dumps(base))
            corrupt(snap)
            snaps.append(json.loads(json.dumps(snap)))
        said = refusals(FineCoresetState, snaps)
        assert all(re.search(match, s) for (_, match), s in zip(self.CORRUPTIONS, said))
        assert refusals(FineCoresetState, snaps, optimized=True) == said

    def test_ladders_on_different_clocks_or_bounds_are_rejected(self):
        state, snap = self._snapshot()
        state.process_point(Point(151, (0.1, 0.2, 0.3)))
        snap["fine"] = json.loads(json.dumps(state.fine.to_snapshot()))
        with pytest.raises(ValueError, match="clocks 150 and 151 differ"):
            FineCoresetState.from_snapshot(snap)
        # a fine ladder, sound on its own, over other fixed bounds
        _, snap = self._snapshot()
        cfg = EffDiameterConfig(**snap["config"])
        other = FineCoresetState(cfg, 100, "fixed", 0.001, 1e3)
        for p in self._stream(5)[:150]:
            other.process_point(p)
        snap["fine"] = json.loads(json.dumps(other.fine.to_snapshot()))
        with pytest.raises(ValueError, match="fine ladder's d_min"):
            FineCoresetState.from_snapshot(snap)

    @pytest.mark.parametrize("n", [2, 30], ids=["warm_up", "bootstrapped"])
    def test_oblivious_ladders_must_have_seen_one_stream(self, n):
        # two streams of n points that differ at one arrival: the last in the
        # warm-up; the first after the bootstrap, where both ladders hold the
        # same newest point but not the same distance estimates
        odd = n if n == 2 else 1
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.05)
        states = [FineCoresetState(cfg, 100) for _ in range(2)]
        for state, shift in zip(states, (0.0, 50.0)):
            for i in range(1, n + 1):
                state.process_point(Point(i, (i + (shift if i == odd else 0.0),)))
        assert states[0].validation.bootstrapped == (n > 2)
        snap = json.loads(json.dumps(states[0].to_snapshot()))
        assert FineCoresetState.from_snapshot(snap).to_snapshot() == snap
        snap["fine"] = json.loads(json.dumps(states[1].fine.to_snapshot()))
        with pytest.raises(ValueError, match="ladders fed different streams"):
            FineCoresetState.from_snapshot(snap)

    def test_a_window_beyond_the_exact_masses_is_rejected(self):
        _, snap = self._snapshot("oblivious")
        for side in ("validation", "fine"):
            snap[side]["params"]["window_len"] = MAX_WINDOW_LEN + 1
        with pytest.raises(ValueError, match="window_len must be at most"):
            FineCoresetState.from_snapshot(snap)


class TestStats:
    def test_stats_report_the_ladders_and_the_last_query(self):
        pts = stream_points(generate_ball_stream(300, dim=2, seed=8))
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.05)
        state = FineCoresetState(cfg, 100, "fixed", *stream_extremes(pts))
        stats = state.stats()
        assert (stats["coreset_size"], stats["exponent"], stats["refills"]) == (0, None, 0)
        before = None
        for p in pts:
            state.process_point(p)
            if p.arrival % 10:
                continue
            state.estimate()
            coreset, _ = state.fine_coreset()
            stats = state.stats()
            assert stats["validation"] == state.validation.stats()
            assert stats["fine"] == state.fine.stats()
            assert stats["coreset_size"] == len(coreset)
            assert stats["exponent"] == state.validation.selected_exponent()
            now = set(coreset.points)
            if before is not None and stats["refills"] == refills:
                assert stats["rows_added"] == len(now - before)
                assert stats["rows_removed"] == len(before - now)
            before, refills = now, stats["refills"]
        assert 1 <= refills < 15
        flat = [v for v in stats.values() if not isinstance(v, dict)]
        flat += [v for side in ("validation", "fine") for v in stats[side].values()]
        assert all(type(v) is int for v in flat)

    def test_pair_bytes_are_the_pair_tables_arrays(self):
        pts = stream_points(generate_ball_stream(300, dim=3, seed=4))
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.05)
        state = FineCoresetState(cfg, 100, "fixed", *stream_extremes(pts))
        sizes = set()
        for p in pts:
            state.process_point(p)
            if p.arrival % 50 == 0:
                state.estimate()
                table, stats = state._pairs, state.stats()
                held = (table.ids, table.keys, table.weights, table._coords,
                        table._firsts, table._starts, table.masses, table.cum)
                assert type(stats["pair_bytes"]) is int
                assert stats["pair_bytes"] == sum(a.nbytes for a in held)
                sizes.add(stats["pair_bytes"])
        assert len(sizes) > 1

    def test_the_warm_up_coreset_has_no_exponent(self):
        cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.05)
        state = FineCoresetState(cfg, 100)
        for i in range(2):
            state.process_point(Point(i + 1, (float(i),)))
        state.estimate()
        stats = state.stats()
        assert not state.validation.bootstrapped
        assert (stats["coreset_size"], stats["exponent"]) == (2, None)
        assert (stats["rows_added"], stats["rows_removed"], stats["refills"]) == (2, 0, 1)


def _table_of_one_point():
    return PairMassTable().update(WeightedCoreset(((Point(1, (0.0,)), 1),), 0.0, 1))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: exact_effective_diameter(wv(), 0.5), ValueError,
                 "window must be non-empty", id="exact-empty"),
    pytest.param(lambda: exact_effective_diameter(wv(0.0), 0.0), ValueError,
                 "alpha must be in (0, 1]", id="exact-alpha"),
    pytest.param(lambda: PairMassTable().update(WeightedCoreset((), 0.0, 0)), ValueError,
                 "empty coreset", id="table-empty-coreset"),
    pytest.param(lambda: coreset_effective_diameter(_table_of_one_point(), 0.0, 1), ValueError,
                 "alpha must be in (0, 1]", id="coreset-alpha"),
    pytest.param(lambda: eff_sequential(wv(0.0), 0.5), ValueError,
                 "window must hold at least two points", id="sequential-one-point"),
    pytest.param(lambda: eff_sequential(wv(0.0, 1.0), 1.5), ValueError,
                 "alpha must be in (0, 1]", id="sequential-alpha"),
    pytest.param(lambda: eff_sequential(wv(0.0, 1.0), 0.5, bucket_step=0.0), ValueError,
                 "bucket_step must be finite and positive", id="sequential-bucket_step"),
    pytest.param(lambda: FineCoresetState(EffDiameterConfig(0.9, 0.5, 0.1), 10).estimate(),
                 RuntimeError, "no points processed yet", id="estimate-no-points"),
])
def test_each_refusal_of_an_argument_or_call_is_raised(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
