"""Acceptance suite: every guarantee the streaming structures promise,
checked against independent oracles at its stated tolerance.

Each criterion is one test; the terminal summary (see conftest) prints one
line per criterion.
"""

import math
import os
import statistics

import numpy as np
import pytest

from streamkc.core import Point, StreamParams, WindowView, dist, radius_excluding
from streamkc.coreset import GuessLadder
from streamkc.effdiam import (
    EffDiameterConfig,
    FineCoresetState,
    eff_sequential,
    exact_effective_diameter,
)
from streamkc.experiment import generate_ball_stream
from streamkc.histogram import (
    bump_and_trim,
    check_invariants,
    new_histogram,
    synthetic_full_window,
    weight_estimate,
)
from streamkc.solver import brute_force_optimum, charikar, compute_solution, gonzalez, samp_charikar
from oracles import ExactHistogram, LadderShadow, expire_entry, active_window, coverage_radius, make_stream, runs_by_guess, stream_extremes


def stream_points(coords):
    return [Point(i + 1, tuple(float(c) for c in row)) for i, row in enumerate(coords)]


def test_c1_histogram_oracle_equivalence():
    """>=1000 random bump/expire interleavings: the trimmed estimate stays
    within [w/(1+lam), w] of the untrimmed count and every histogram
    invariant holds at every step."""
    rng = np.random.default_rng(101)
    trials = 0
    for lam in (0.1, 0.5, 1.0):
        for _ in range(340):
            window_len = int(rng.integers(5, 10_001))
            steps = int(rng.integers(10, 90))
            t = int(rng.integers(1, 100))
            hist = new_histogram(t)
            shadow = ExactHistogram(t)
            for _ in range(steps):
                gap = int(rng.integers(1, 4))
                for tt in range(t + 1, t + gap + 1):
                    hist = expire_entry(hist, tt, window_len)
                    shadow.expire(tt, window_len)
                t += gap
                if not hist:
                    assert not shadow.entries
                    break
                hist = bump_and_trim(hist, t, lam)
                shadow.bump(t)
                w = shadow.weight()
                est = weight_estimate(hist)
                assert w / (1.0 + lam) <= est <= w
                check_invariants(hist, window_len, lam)
            trials += 1
    assert trials >= 1000


@pytest.mark.slow
def test_c2_proxy_distance_shadow():
    """>=100 random streams: whenever a guess's attraction set is within
    k+z, every active point sits within 4*guess of its shadow proxy, and all
    three sets stay within k+z+1."""
    rng = np.random.default_rng(202)
    for trial in range(100):
        dim = int(rng.integers(1, 4))
        window_len = int(rng.integers(10, 201))
        n = window_len + int(rng.integers(5, 80))
        k = int(rng.integers(1, 5))
        z = int(rng.integers(0, 5))
        while k + z > 8:
            z -= 1
        if k + z + 1 > window_len:
            window_len = k + z + 1
        stream = make_stream(rng, n, dim)
        d_min, d_max = stream_extremes(stream)
        params = StreamParams(window_len, k, z, 0.5, 0.5)
        shadow = LadderShadow.standard(params, d_min, d_max)
        checkpoints = set(
            int(v) for v in rng.integers(window_len, n + 1, size=6)
        ) | {n}
        for p in stream:
            shadow.feed(p)
            if p.arrival not in checkpoints:
                continue
            lad = shadow.ladder
            window = active_window(stream, p.arrival, window_len)
            for e, st in runs_by_guess(lad).items():
                assert len(st.attractions) <= k + z + 1
                assert len(st.reps) <= k + z + 1
                assert len(st.orphans) <= k + z + 1
                if len(st.attractions) <= k + z:
                    bound = 4.0 * lad.guess_value(e) + 1e-9
                    for q in window.points:
                        assert dist(q, shadow.proxy(e, q)) <= bound


def _oracle_instances(rng, count, betas, max_k=4, max_z=4):
    """Random (stream, params) pairs small enough for the exhaustive oracle."""
    out = []
    for _ in range(count):
        k = int(rng.integers(1, max_k + 1))
        z = int(rng.integers(0, max_z + 1))
        n_min = k + z + 2
        n = int(rng.integers(n_min, 26 if k == 4 else 41))
        beta = float(rng.choice(betas))
        lam = float(rng.choice([0.1, 0.5, 1.0]))
        dim = int(rng.integers(1, 4))
        stream = make_stream(rng, n, dim)
        out.append((stream, k, z, lam, beta))
    return out


def test_c3_coreset_quality():
    """>=100 oracle-checkable windows: every window point lies within
    4(1+beta) times the optimal outlier radius of the extracted coreset."""
    rng = np.random.default_rng(303)
    for stream, k, z, lam, beta in _oracle_instances(rng, 100, betas=(0.5, 1.0)):
        n = len(stream)
        d_min, d_max = stream_extremes(stream)
        lad = GuessLadder(StreamParams(n, k, z, lam, beta), "fixed", d_min, d_max)
        for p in stream:
            lad.process_point(p)
        window = WindowView(points=tuple(stream), t=n)
        _, r_star = brute_force_optimum(window, k, z)
        coreset = lad.extract_coreset()
        assert len(coreset) <= 2 * (k + z + 1)
        assert coverage_radius(window, coreset.points) <= 4.0 * (1.0 + beta) * r_star + 1e-9


def _check_bicriteria(stream, window, k, z, lam, beta, mode):
    n = len(stream)
    if mode == "fixed":
        d_min, d_max = stream_extremes(stream)
        lad = GuessLadder(StreamParams(window_len(window), k, z, lam, beta),
                          "fixed", d_min, d_max)
    else:
        lad = GuessLadder(StreamParams(window_len(window), k, z, lam, beta), "oblivious")
    for p in stream:
        lad.process_point(p)
    out = compute_solution(lad)
    assert out.uncovered_weight <= z
    assert len(out.centers) <= k
    _, r_star = brute_force_optimum(window, k, z)
    bound = (23.0 + 55.0 * beta) * r_star + 1e-9
    beyond = sum(
        1 for p in window.points if min(dist(p, c) for c in out.centers) > bound
    )
    return beyond, out


def window_len(window):
    return len(window.points)


def test_c4_bicriteria_solution():
    """>=100 oracle-checkable instances: the returned centers leave at most
    (1+lam) z window points beyond (23+55 beta) times the optimal radius,
    and with lam = 1/(2z) at most z points."""
    rng = np.random.default_rng(404)
    for stream, k, z, lam, beta in _oracle_instances(rng, 100, betas=(0.5, 1.0)):
        window = WindowView(points=tuple(stream), t=len(stream))
        beyond, _ = _check_bicriteria(stream, window, k, z, lam, beta, "fixed")
        assert beyond <= (1.0 + lam) * z
        if z >= 1:
            beyond, _ = _check_bicriteria(
                stream, window, k, z, 1.0 / (2.0 * z), beta, "fixed"
            )
            assert beyond <= z


def test_c5_baseline_sanity():
    """charikar within 3(1+step) of optimal, farthest-first within 2 of the
    no-outlier optimal, and full-sample samp_charikar equals charikar."""
    rng = np.random.default_rng(505)
    for trial in range(35):
        k = int(rng.integers(1, 4))
        z = int(rng.integers(0, 4))
        n = int(rng.integers(k + z + 2, 36))
        step = float(rng.choice([0.3, 0.5, 1.0]))
        stream = make_stream(rng, n, 2)
        window = WindowView(points=tuple(stream), t=n)
        out = charikar(window, k, z, step=step)
        _, r_star = brute_force_optimum(window, k, z)
        assert out.uncovered_weight <= z
        assert radius_excluding(out.centers, window, z) <= 3.0 * (1.0 + step) * r_star + 1e-9

        centers = gonzalez(window, k)
        _, r_plain = brute_force_optimum(window, k, 0)
        assert radius_excluding(centers, window, 0) <= 2.0 * r_plain + 1e-9

        assert samp_charikar(window, k, z, step, sample_size=n, seed=trial) == charikar(
            window, k, z, step=step
        )


def test_c6_obliviousness():
    """Oblivious-mode solutions meet the criterion-4 bounds with no distance
    bounds supplied; the synthetic full-window histogram construction matches
    direct recurrence iteration."""
    rng = np.random.default_rng(606)
    for stream, k, z, lam, beta in _oracle_instances(rng, 40, betas=(0.5, 1.0)):
        n = len(stream)
        window_n = n if rng.random() < 0.5 else max(k + z + 2, int(n * 0.7))
        window = active_window(stream, n, window_n)
        lad = GuessLadder(StreamParams(window_n, k, z, lam, beta), "oblivious")
        for p in stream:
            lad.process_point(p)
        out = compute_solution(lad)
        assert out.uncovered_weight <= z
        _, r_star = brute_force_optimum(window, k, z)
        bound = (23.0 + 55.0 * beta) * r_star + 1e-9
        beyond = sum(
            1 for p in window.points if min(dist(p, c) for c in out.centers) > bound
        )
        assert beyond <= (1.0 + lam) * z

    # synthetic trimmed histogram vs an inline rerun of the recurrence
    for window_len_, lam in ((10, 0.5), (1000, 0.1)):
        t = window_len_ + 57
        got = synthetic_full_window(t, window_len_, lam)
        entries = []
        c = window_len_
        while True:
            entries.append((t - c, c))
            if c == 1:
                break
            c = min(c - 1, math.ceil(c / (1.0 + lam)))
        assert got == entries
        check_invariants(got, window_len_, lam)

    # a far arrival must spawn a high guess carrying exactly that histogram
    for window_len_, lam in ((10, 0.5), (1000, 0.1)):
        n_pre = window_len_ + 20
        lad = GuessLadder(StreamParams(window_len_, 1, 1, lam, 0.5), "oblivious")
        coords = generate_ball_stream(n_pre, dim=2, seed=7)
        t = 0
        for row in coords:
            t += 1
            lad.process_point(Point(t, tuple(map(float, row))))
        old_hi = max(lad.exponents())
        t += 1
        lad.process_point(Point(t, (1e6, 1e6)))
        new_high = [e for e in lad.exponents() if e > old_hi]
        assert new_high
        expected = [
            e for e in synthetic_full_window(t, window_len_, lam)
            if e[0] != t - window_len_
        ]
        for e in new_high:
            st = lad._run_of(e)
            assert st.orphans and next(iter(st.orphans.values()))[1] == expected


@pytest.mark.slow
def test_c7_effective_diameter_sandwich():
    """>=100 synthetic ball windows with sparse far outliers: the lower and
    upper estimates bracket the exact effective diameter in every
    non-saturated trial, the bucketed baseline tracks the oracle within its
    bucket factor, and the R=10 point estimate lands near the reference
    value 1.175 the generator is tuned to.

    Most trials run with conservative fixed distance bounds; a handful run
    fully obliviously, where recent
    grid churn can legitimately saturate the fine layer (the flag is the
    contract, so those trials are excluded, never asserted blindly).
    """
    alpha, eps, lam, beta = 0.9, 0.9, 0.5, 0.5
    rng = np.random.default_rng(707)
    reported_r10 = []
    checked = fixed_total = fixed_saturated = 0
    for trial in range(104):
        R = 10.0 if trial % 2 == 0 else 100.0
        oblivious = trial % 7 == 3
        if trial < 96:
            n = int(rng.integers(300, 650))
        else:
            n = int(rng.integers(1200, 2001))
        coords = generate_ball_stream(
            n, dim=4, outlier_rate=1 / 1000, outlier_norm=R, seed=7000 + trial
        )
        pts = stream_points(coords)
        cfg = EffDiameterConfig(
            alpha=alpha, eps=eps, eta=1.0 / (2.0 * R), lam=lam, beta=beta,
            fine_cap=4096,
        )
        if oblivious:
            state = FineCoresetState(cfg, window_len=n)
        else:
            state = FineCoresetState(
                cfg, window_len=n, mode="fixed", d_min=0.01, d_max=1e4
            )
            fixed_total += 1
        for p in pts:
            state.process_point(p)
        window = WindowView(points=tuple(pts), t=n)
        exact = exact_effective_diameter(window, alpha)
        diameter = exact_effective_diameter(window, 1.0)
        if exact < cfg.eta * diameter:
            continue  # the promised lower bound fails for this window
        est = state.estimate()
        if est.saturated:
            fixed_saturated += not oblivious
            continue
        checked += 1
        assert est.lower <= exact <= est.upper
        if R == 10.0 and not oblivious:
            reported_r10.append(est.upper * (1.0 - eps))  # the raw point estimate
        if trial % 10 == 0:
            seq = eff_sequential(window, alpha, 0.01)
            assert seq <= exact * 1.0000001
            assert exact <= seq * 1.01 * 1.0000001
    assert fixed_saturated == 0, "fixed-bound trials must never saturate here"
    assert checked >= 85, f"too many excluded trials (checked {checked})"
    assert len(reported_r10) >= 40
    med = statistics.median(reported_r10)
    assert abs(med - 1.175) <= 0.1175, f"R=10 estimate {med:.4f} not within 10% of 1.175"


@pytest.mark.slow
def test_c8_memory_sublinearity():
    """Sliding-mode working memory grows far slower than the window: each
    tenfold window increase costs less than a factor four of memory."""
    gauges = []
    for N in (1_000, 10_000, 100_000):
        coords = generate_ball_stream(N + 3000, dim=2, seed=42)
        params = StreamParams(N, 2, 2, 0.5, 0.5)
        lad = GuessLadder(params, "oblivious")
        t = 0
        samples = []
        for row in coords:
            t += 1
            lad.process_point(Point(t, (float(row[0]), float(row[1]))))
            if t > N and t % 100 == 0:
                samples.append(lad.memory_floats(2))
        gauges.append(statistics.median(samples))
    r1 = gauges[1] / gauges[0]
    r2 = gauges[2] / gauges[1]
    assert r1 < 4.0 and r2 < 4.0, f"memory ratios {r1:.2f}, {r2:.2f} (gauges {gauges})"


HIGGS_PATH = os.environ.get("HIGGS_CSV", os.path.join("data", "HIGGS.csv"))


@pytest.mark.skipif(not os.path.exists(HIGGS_PATH), reason="Higgs dataset not present")
def test_c9_higgs_radius_ratio():
    """Optional: on the Higgs dataset the sliding radius stays within
    [0.8, 1.5] of the whole-window baseline."""
    N, k, z = 10_000, 10, 10
    lam = beta = 0.5
    pts = []
    with open(HIGGS_PATH) as fh:
        for i, line in enumerate(fh):
            if i >= N + 5000:
                break
            fields = line.strip().split(",")
            pts.append(Point(i + 1, tuple(float(x) for x in fields[22:29])))
    lad = GuessLadder(StreamParams(N, k, z, lam, beta), "oblivious")
    for p in pts:
        lad.process_point(p)
    window = WindowView(points=tuple(pts[-N:]), t=len(pts))
    sliding = compute_solution(lad)
    baseline = charikar(window, k, z, step=beta)
    ratio = radius_excluding(sliding.centers, window, z) / radius_excluding(
        baseline.centers, window, z
    )
    assert 0.8 <= ratio <= 1.5, f"radius ratio {ratio:.3f}"
