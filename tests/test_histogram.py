import math

import numpy as np
import pytest

from streamkc.core import InvariantError
from streamkc.histogram import (
    bump_and_trim,
    check_invariants,
    new_histogram,
    synthetic_full_window,
    weight_estimate,
)
from oracles import ExactHistogram, expire_entry, max_entries


def test_new_histogram():
    assert new_histogram(7) == [(7, 1)]
    assert new_histogram(1) == [(1, 1)]
    assert weight_estimate(new_histogram(3)) == 1


def test_bump_and_trim_drops_interior_entry():
    assert bump_and_trim([(1, 10), (2, 9), (3, 8)], 4, 0.5) == [(1, 11), (3, 9), (4, 1)]


def test_bump_and_trim_two_entries_untouched():
    assert bump_and_trim([(1, 1)], 2, 0.5) == [(1, 2), (2, 1)]


def test_bump_and_trim_longer_list():
    # one interior entry falls to the deletion rule: after the bump, the kept
    # first count 6 is not above 1.5x the count following (3,5)
    got = bump_and_trim([(1, 5), (3, 4), (5, 3), (7, 2), (9, 1)], 11, 0.5)
    assert got == [(1, 6), (5, 4), (7, 3), (9, 2), (11, 1)]
    check_invariants(got, window_len=100, lam=0.5)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_bump_and_trim_is_pure(lam):
    # guesses share histogram lists, so a bump must leave its input as it was
    deleted = False
    for hist in ([(1, 1)], [(1, 10), (2, 9), (3, 8)], [(1, 5), (3, 4), (5, 3), (7, 2), (9, 1)]):
        before = list(hist)
        got = bump_and_trim(hist, 11, lam)
        assert hist == before
        assert got is not hist
        deleted |= len(got) <= len(hist)
    assert deleted == (lam > 0)


def test_max_entries_for_a_lam_that_rounds_away():
    # 1 + 1e-17 == 1.0, so the trim never deletes, as with lam == 0
    assert max_entries(50, 1e-17) == max_entries(50, 0.0) == 50
    hist = new_histogram(1)
    for t in range(2, 51):
        hist = bump_and_trim(hist, t, 1e-17)
    assert len(hist) == 50
    check_invariants(hist, 50, 1e-17)


@pytest.mark.parametrize(
    "hist, lam, message",
    [
        pytest.param([], 0.5, "histogram is empty", id="empty"),
        pytest.param([(1, 0)], 0.5, "count 0 outside [1, 100]", id="count_zero"),
        pytest.param([(1, 101)], 0.5, "count 101 outside [1, 100]", id="count_past_window"),
        pytest.param([(2, 2), (1, 1)], 0.5, "timestamps not strictly increasing",
                     id="stamps_backwards"),
        pytest.param([(1, 10), (2, 1)], 0.5, "adjacent gap at 0: 10 vs 1", id="adjacent_gap"),
        # 3 <= 3 * 2 and 2 <= 3 * 1 hold, but 3 > 3 * 1 does not
        pytest.param([(1, 3), (2, 2), (3, 1)], 2.0, "two-apart overlap at 0", id="overlap"),
        pytest.param([(1, 2)], 0.5, "last entry count must be 1", id="last_count"),
    ],
)
def test_each_refusal_is_reached_at_its_own_check(hist, lam, message):
    # there is no length check: no histogram that passes these is longer than
    # max_entries (the next test)
    with pytest.raises(InvariantError) as refused:
        check_invariants(hist, 100, lam)
    assert str(refused.value) == message


def _longest_counts(n: int, lam: float) -> list[int]:
    """The counts, last entry first, of the longest histogram the checks allow
    with counts up to n: each count the smallest above the one before it and
    above (1 + lam) times the one two back, by the checks' own doubles."""
    counts = [1]
    while True:
        c = counts[-1] + 1
        if len(counts) >= 2:
            c = max(c, math.floor((1.0 + lam) * counts[-2]) + 1)
        if c > n:
            return counts
        counts.append(c)


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 1.0, 3.0])
def test_the_longest_histogram_the_other_checks_allow_fits_max_entries(lam):
    # each count the smallest the checks allow, so no valid histogram with
    # counts up to n is longer; the spot checks past 400 are O(log n) long,
    # but n long at lam == 0, so they are for lam > 0 only
    sizes = list(range(1, 400)) + ([10**3, 10**5, 10**8] if lam > 0 else [])
    for n in sizes:
        counts = _longest_counts(n, lam)
        check_invariants([(t, c) for t, c in enumerate(reversed(counts), 1)], n, lam)
        assert len(counts) <= max_entries(n, lam)


def test_bump_rejects_non_monotone_timestamp():
    with pytest.raises(ValueError):
        bump_and_trim([(5, 1)], 5, 0.5)


def test_expire_entry():
    assert expire_entry([(2, 3), (5, 1)], 12, 10) == [(5, 1)]
    assert expire_entry([(3, 3), (5, 1)], 12, 10) == [(3, 3), (5, 1)]
    assert expire_entry([(2, 1)], 12, 10) == []


def test_weight_estimate_is_first_count():
    assert weight_estimate([(1, 11), (3, 9), (4, 1)]) == 11
    assert weight_estimate([(7, 1)]) == 1
    with pytest.raises(ValueError):
        weight_estimate([])


def test_synthetic_full_window_recurrence():
    got = synthetic_full_window(100, 10, 0.5)
    assert got == [(90, 10), (93, 7), (95, 5), (96, 4), (97, 3), (98, 2), (99, 1)]


def test_synthetic_full_window_trivial():
    assert synthetic_full_window(100, 1, 0.5) == [(99, 1)]
    assert synthetic_full_window(10, 2, 1.0) == [(8, 2), (9, 1)]


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("window_len", [17, 200, 4096])
def test_synthetic_full_window_invariants(lam, window_len):
    hist = synthetic_full_window(window_len + 50, window_len, lam)
    check_invariants(hist, window_len, lam)


def _simulate(rng, window_len, lam, steps, check_every=1):
    """Random bump/expire interleaving checked against the exact shadow."""
    t = int(rng.integers(1, 50))
    hist = new_histogram(t)
    shadow = ExactHistogram(t)
    for step in range(steps):
        t += int(rng.integers(1, 4))  # idle gaps between assignments
        for tt in range(t - 3, t + 1):
            hist = expire_entry(hist, tt, window_len)
            shadow.expire(tt, window_len)
        if not hist:
            # last entries expire together: the shadow must be empty too
            assert not shadow.entries
            return
        hist = bump_and_trim(hist, t, lam)
        shadow.bump(t)
        if step % check_every == 0:
            w = shadow.weight()
            est = weight_estimate(hist)
            assert w / (1.0 + lam) <= est <= w
            check_invariants(hist, window_len, lam)


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
def test_random_interleavings_match_shadow(lam):
    rng = np.random.default_rng(hash(lam) % 2**32)
    for trial in range(60):
        window_len = int(rng.integers(5, 500))
        _simulate(rng, window_len, lam, steps=int(rng.integers(10, 120)))


def test_lam_zero_is_exact():
    rng = np.random.default_rng(5)
    window_len = 40
    t = 1
    hist = new_histogram(t)
    shadow = ExactHistogram(t)
    for _ in range(200):
        t += int(rng.integers(1, 3))
        for tt in range(t - 2, t + 1):
            hist = expire_entry(hist, tt, window_len)
            shadow.expire(tt, window_len)
        hist = bump_and_trim(hist, t, 0.0)
        shadow.bump(t)
        assert hist == shadow.entries


def test_max_entries_bound_is_respected():
    # grow a histogram with an assignment every step for a full window
    for lam in (0.1, 0.5, 1.0):
        window_len = 1000
        hist = new_histogram(1)
        for t in range(2, window_len + 1):
            hist = bump_and_trim(hist, t, lam)
        assert len(hist) <= max_entries(window_len, lam)
        check_invariants(hist, window_len, lam)


def test_a_synthetic_window_of_no_points_is_refused():
    with pytest.raises(ValueError, match="size must be >= 1"):
        synthetic_full_window(10, 0, 0.5)
