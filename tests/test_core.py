import functools
import math
import re

import numpy as np
import pytest

from streamkc import core
from streamkc.core import Point, StreamParams, WindowView, dist, radius_excluding
from streamkc.coreset import GuessLadder
from streamkc.experiment import generate_ball_stream
from oracles import looped, manhattan, reference_radius_excluding


def test_dist_pythagorean():
    assert dist(Point(1, (0.0, 0.0)), Point(2, (3.0, 4.0))) == 5.0


def test_dist_identity():
    p = Point(1, (1.5, -2.0, 7.0))
    assert dist(p, p) == 0.0


def test_dist_one_dimensional():
    assert dist(Point(1, (1.0,)), Point(2, (4.0,))) == 3.0


def test_dist_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        dist(Point(1, (0.0,)), Point(2, (0.0, 0.0)))


def test_dist_symmetry_and_triangle_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b, c = (
            Point(i + 1, tuple(map(float, rng.normal(size=3)))) for i in range(3)
        )
        assert dist(a, b) == dist(b, a)
        assert dist(a, c) <= dist(a, b) + dist(b, c)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(1, (float("nan"), 0.0))
    with pytest.raises(ValueError):
        Point(1, (float("inf"),))


def test_point_accepts_finite_coordinates_whose_sum_overflows():
    assert sum((1e308, 1e308)) == math.inf
    assert Point(1, (1e308, 1e308)).coords == (1e308, 1e308)


@pytest.mark.parametrize("coords, first", [
    ((1.0, math.nan), "nan"), ((math.inf, 2.0), "inf"), ((math.inf, -math.inf), "inf"),
], ids=["nan", "inf", "inf_and_minus_inf"])
def test_point_names_its_first_non_finite_coordinate(coords, first):
    with pytest.raises(ValueError) as refused:
        Point(7, coords)
    assert str(refused.value) == f"non-finite coordinate {first} at arrival 7"


def test_radius_excluding_drops_largest():
    w = WindowView.from_coords([[0], [1], [2], [100]])
    assert radius_excluding([w.points[0]], w, 1) == 2.0


def test_radius_excluding_all_centers():
    w = WindowView.from_coords([[0], [3], [9]])
    for z in range(3):
        assert radius_excluding(list(w.points), w, z) == 0.0


def test_radius_excluding_single_distance():
    w = WindowView.from_coords([[0], [5]])
    assert radius_excluding([w.points[0]], w, 0) == 5.0


def test_radius_excluding_empty_centers():
    w = WindowView.from_coords([[0], [5]])
    with pytest.raises(ValueError):
        radius_excluding([], w, 0)


def test_radius_excluding_needs_enough_points():
    w = WindowView.from_coords([[0], [5]])
    with pytest.raises(ValueError):
        radius_excluding([w.points[0]], w, 2)


def test_radius_excluding_monotone():
    rng = np.random.default_rng(11)
    w = WindowView.from_coords(rng.random((12, 2)) * 4)
    c1 = [w.points[0]]
    c2 = [w.points[0], w.points[5]]
    prev = math.inf
    for z in range(6):
        r = radius_excluding(c1, w, z)
        assert r <= prev  # non-increasing in z
        prev = r
        assert radius_excluding(c2, w, z) <= r  # non-increasing under superset


@pytest.mark.parametrize("metric", [dist, manhattan, looped(dist)],
                         ids=["euclidean", "manhattan", "looped"])
def test_radius_excluding_matches_the_scalar_reference(metric, monkeypatch):
    # block-form reads, a few window rows at a time, against scalar calls:
    # equal up to rounding on random windows, exactly on integer lattices
    monkeypatch.setattr(core, "_BLOCK", 7)
    rng = np.random.default_rng(17)
    for trial in range(24):
        n = int(rng.integers(1, 60))
        lattice = trial % 2 == 0
        if lattice:
            coords = rng.integers(-5, 6, size=(n, 2)).astype(float)
        else:
            coords = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3)
        w = WindowView.from_coords(coords)
        picks = rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False)
        centers = [w.points[i] for i in picks]
        for z in {0, n // 3, n - 1}:
            got = radius_excluding(centers, w, z, metric)
            want = reference_radius_excluding(centers, w, z, metric)
            assert type(got) is float
            if lattice:
                assert got == want, (trial, z)
            else:
                assert math.isclose(got, want, rel_tol=1e-12), (trial, z)


def test_stream_params_validation():
    StreamParams(window_len=10, k=2, z=3)
    with pytest.raises(ValueError):
        StreamParams(window_len=10, k=0, z=0)
    with pytest.raises(ValueError):
        StreamParams(window_len=10, k=10, z=0)
    with pytest.raises(ValueError):
        StreamParams(window_len=5, k=3, z=2)  # k + z + 1 > N
    with pytest.raises(ValueError):
        StreamParams(window_len=10, k=2, z=2, lam=-0.1)
    with pytest.raises(ValueError):
        StreamParams(window_len=10, k=2, z=2, beta=0.0)
    with pytest.raises(ValueError):
        StreamParams(window_len=10, k=2, z=2, beta=1.5)


@pytest.mark.parametrize("counts", [
    dict(window_len=100.5), dict(k=2.5), dict(z=1.5), dict(k=True), dict(z="1"),
])
def test_stream_params_refuse_counts_that_are_not_integers(counts):
    # a fractional k would pass every range check and fail at a query
    with pytest.raises(ValueError, match="must be an integer"):
        StreamParams(**{**dict(window_len=100, k=2, z=1), **counts})


def test_stream_params_accept_numpy_integer_counts():
    params = StreamParams(np.int64(100), np.int32(2), np.int64(1))
    assert (params.window_len, params.k, params.z) == (100, 2, 1)


@pytest.mark.parametrize("lam, beta", [
    (math.inf, 0.5), (math.nan, 0.5), (0.5, math.nan), (0.5, 1e-17),
])
def test_stream_params_reject_settings_a_stream_would_trip_on(lam, beta):
    # an infinite lam never finishes a synthetic histogram, a nan one fails
    # its first trim, and a beta that vanishes beside 1 divides by log(1)
    with pytest.raises(ValueError):
        StreamParams(window_len=10, k=2, z=2, lam=lam, beta=beta)


def test_window_from_coords_assigns_arrivals():
    w = WindowView.from_coords([[0.0, 1.0], [2.0, 3.0]])
    assert [p.arrival for p in w.points] == [1, 2]
    assert w.t == 2
    assert len(w) == 2


def test_dist_block_form_agrees_with_the_scalar_call():
    rng = np.random.default_rng(5)
    xs, ys = rng.normal(size=(7, 3)), rng.normal(size=(4, 3))
    block = dist.pairwise(xs, ys)
    assert block.shape == (7, 4)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            want = dist(Point(1, tuple(x)), Point(1, tuple(y)))
            assert math.isclose(block[i, j], want, rel_tol=1e-12)
    # a wrapped metric keeps its block form
    assert functools.wraps(dist)(lambda p, q: dist(p, q)).pairwise is dist.pairwise


def test_empty_and_one_point_sets_hold_no_pair():
    # no matrix is built for an empty set; its reader is never read
    assert core._extremes(core._distances([], dist), 0) == (0.0, 0.0)
    d = core._distances([Point(1, (2.0, 3.0))], dist)
    assert d(core._ALL, core._ALL).tolist() == [[0.0]]
    assert core._extremes(d, 1) == (0.0, 0.0)
    # a fixed ladder's runs start with no attraction points
    lad = GuessLadder(StreamParams(5, 1, 1), "fixed", 1.0, 4.0)
    lad.check_invariants()
    lad.process_point(Point(1, (0.0,)))
    lad.check_invariants()


def _pair_extremes(points, metric) -> tuple[float, float]:
    """(smallest positive, largest) distance over the pairs i < j, each read
    alone in the metric's block form; 0.0 stands in for a missing value."""
    xs = np.array([p.coords for p in points], dtype=float)
    ds = [float(metric.pairwise(xs[[i]], xs[[j]])[0, 0])
          for i in range(len(xs)) for j in range(i + 1, len(xs))]
    return min((x for x in ds if x > 0), default=0.0), max(ds, default=0.0)


def _extremes_cases():
    rng = np.random.default_rng(23)
    far = np.vstack([generate_ball_stream(30, dim=4, seed=3),
                     generate_ball_stream(4, dim=4, outlier_rate=1.0, outlier_norm=200.0,
                                          seed=4)])
    return [
        ("one-point", [[2.0, 3.0]], dist),
        ("two-equal", [[2.0, 3.0]] * 2, dist),
        ("all-equal", [[-1.5, 0.25, 7.0]] * 20, dist),
        ("duplicates-beside-a-pair", [[1.0, 2.0]] * 9 + [[4.0, 6.0]], dist),
        ("far-norm-200", far, dist),
        ("random", rng.normal(size=(40, 3)), dist),
        ("manhattan", rng.integers(-4, 5, size=(40, 2)).astype(float), manhattan),
    ]


@pytest.mark.parametrize("name, coords, metric", _extremes_cases(),
                         ids=[case[0] for case in _extremes_cases()])
@pytest.mark.parametrize("block", [7, core._BLOCK])
@pytest.mark.parametrize("reader", [core._distances, core._block_distances])
def test_extremes_match_a_loop_over_distinct_pairs(name, coords, metric, block, reader,
                                                   monkeypatch):
    # a block of 7 rows straddles the diagonal of most blocks: a point and
    # itself form no pair, and their exact 0.0 there must be neither value
    monkeypatch.setattr(core, "_BLOCK", block)
    points = WindowView.from_coords(coords).points
    got = core._extremes(reader(points, metric), len(points))
    assert got == _pair_extremes(points, metric)


@pytest.mark.parametrize("metric", [dist, manhattan, looped(dist)],
                         ids=["euclidean", "manhattan", "looped"])
def test_a_block_form_gives_each_point_distance_zero_to_itself(metric):
    # core._extremes reads the diagonal of its blocks as no pair (dist's contract)
    xs = np.vstack([generate_ball_stream(20, dim=4, seed=3),
                    generate_ball_stream(4, dim=4, outlier_rate=1.0, outlier_norm=200.0,
                                         seed=4)])
    assert metric.pairwise(xs, xs).diagonal().tolist() == [0.0] * len(xs)


def test_a_matrix_reader_reads_rows_of_a_read_only_matrix():
    pts = [Point(i + 1, (float(i), 2.0 * i)) for i in range(6)]
    d = core._distances(pts, dist)
    block = d(slice(1, 4), slice(2, 6))
    assert block.shape == (3, 4) and not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 1.0
    # index arrays on either side keep the outer product of rows and columns
    assert d([4, 0], [1, 5]).tolist() == [[dist(pts[4], pts[1]), dist(pts[4], pts[5])],
                                          [dist(pts[0], pts[1]), dist(pts[0], pts[5])]]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Point(0, (1.0,)), "arrival must be >= 1, got 0", id="arrival-0"),
    pytest.param(lambda: StreamParams(0, 1), "window_len must be positive", id="window_len-0"),
    pytest.param(lambda: StreamParams(5, 1, -1), "z must satisfy 0 <= z < window_len",
                 id="z-negative"),
    pytest.param(lambda: radius_excluding([Point(1, (0.0,))],
                                          WindowView.from_coords([[0.0], [1.0]]), -1),
                 "z must be >= 0", id="radius_excluding-z-negative"),
    *(pytest.param(lambda z=z: radius_excluding([Point(1, (0.0,))],
                                                WindowView.from_coords([[0.0], [1.0]]), z),
                   f"z must be an integer, got {z!r}", id=f"radius_excluding-z-{z!r}")
      for z in (1.5, True)),
])
def test_each_refusal_of_an_argument_is_raised(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
