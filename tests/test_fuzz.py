"""Differential fuzzing of the engines at the edges of their input domain.

Seeded streams mix points at a drifting scale with duplicates, pairs whose
block-form distance is exactly a ladder radius, jumps to the edges of the
oblivious domain (``coreset.MAX_DISTANCE`` from the first point, and
coordinate differences that read as duplicates), points beyond it and
points of another dimension.  Each engine is fed beside a twin whose
ladders step every guess on their own (``oracles.unshared``), and is
restarted from its JSON snapshot at a few random steps.  After every step:

* a rejected point raises ValueError in both and leaves ``to_snapshot()``
  as it was;
* the engine's snapshot equals the twin's;
* every ladder's ``check_invariants`` holds;
* a restart keeps the runs the writer held.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from streamkc import coreset
from streamkc.core import Point, StreamParams
from streamkc.coreset import MAX_DISTANCE, GuessLadder
from streamkc.effdiam import EffDiameterConfig, FineCoresetState
from streamkc.solver import compute_solution

from oracles import unshared


def edge_rows(rng: np.random.Generator, n: int, dim: int, beta: float) -> list[tuple]:
    """n coordinate rows.  The first is the origin; the rest sit around a
    centre that drifts and jumps in scale, mixed with duplicates, tie pairs
    at 2 (1 + beta)^e apart for e in 0..6 (dyadic coordinates, so the block
    form reads the distance exactly), points beyond the domain and points
    of dimension dim + 1.  The last third also holds points 0.9 MAX_DISTANCE
    from the origin and clusters of points closer than the block form
    resolves, which stretch an oblivious grid to about a thousand guesses."""
    rows: list[tuple] = [(0.0,) * dim]
    scale, centre = 1.0, np.zeros(dim)
    while len(rows) < n:
        kind = rng.random()
        if kind < 0.08:  # a scale jump
            scale = float(np.clip(scale * 10.0 ** rng.uniform(-4, 4), 1e-6, 1e6))
            centre = rng.normal(size=dim) * scale * 10.0
            continue
        if kind < 0.5:
            new = [centre + rng.normal(size=dim) * scale]
        elif kind < 0.62:  # a duplicate
            new = [rows[int(rng.integers(len(rows)))]]
        elif kind < 0.74:  # a tie pair along the first axis
            base = np.round(rng.normal(size=dim) * 2.0**10) / 2.0**8
            tie = base.copy()
            tie[0] += 2.0 * (1.0 + beta) ** int(rng.integers(0, 7))
            new = [base, tie]
        elif kind < 0.86 and 3 * len(rows) < 2 * n:
            continue
        elif kind < 0.8:  # at the far edge of the domain
            u = rng.normal(size=dim)
            new = [u / np.linalg.norm(u) * 0.9 * MAX_DISTANCE]
        elif kind < 0.86:  # closer than the resolution, or just above it
            new = [np.full(dim, 1e-162 * i) for i in range(1, 4)]
        elif kind < 0.94:  # beyond the domain
            u = rng.normal(size=dim)
            new = [u / np.linalg.norm(u) * 2.1 * MAX_DISTANCE, np.full(dim, 1e300)]
        else:  # another dimension
            new = [np.ones(dim + 1)]
        rows += [tuple(map(float, row)) for row in new]
    return rows[:n]


def _ladders(engine) -> list[GuessLadder]:
    return [engine.validation, engine.fine] if isinstance(engine, FineCoresetState) else [engine]


def _restored(engine):
    snap = json.loads(json.dumps(engine.to_snapshot()))
    return type(engine).from_snapshot(snap)


def _fuzz(rng, engine, twin, rows) -> tuple[object, int]:
    """Feed rows to the engine and its twin with the checks of the module
    docstring; returns the engine (restarts replace it) and how many rows
    were rejected."""
    restarts = set(rng.choice(np.arange(1, len(rows)), size=3, replace=False).tolist())
    rejected = 0
    before = engine.to_snapshot()
    for i, row in enumerate(rows):
        if i in restarts:
            runs = [lad.stats()["runs"] for lad in _ladders(engine)]
            engine = _restored(engine)
            assert [lad.stats()["runs"] for lad in _ladders(engine)] == runs
            assert engine.to_snapshot() == before
        p = Point(engine.t + 1, row)
        try:
            engine.process_point(p)
        except ValueError:
            rejected += 1
            assert engine.to_snapshot() == before
            with pytest.raises(ValueError):
                twin.process_point(p)
        else:
            twin.process_point(p)
        for lad in _ladders(engine):
            lad.check_invariants()
        before = engine.to_snapshot()
        assert before == twin.to_snapshot()
    return engine, rejected


@pytest.mark.parametrize("grid_cap", [None, 60], ids=["grid", "short_grid"])
@pytest.mark.parametrize("seed", range(2))
def test_oblivious_ladder(seed, grid_cap, monkeypatch):
    if grid_cap is not None:  # a grid rule that binds: some arrivals break it
        monkeypatch.setattr(coreset, "MAX_GRID_LEN", grid_cap)
    rng = np.random.default_rng(5000 + seed)
    beta = (0.5, 1.0)[seed]
    params = StreamParams(int(rng.integers(12, 30)), 2, 1, (0.0, 0.5)[seed], beta)
    rows = edge_rows(rng, 90, 2, beta)
    engine, rejected = _fuzz(rng, GuessLadder(params), unshared(GuessLadder(params)), rows)
    assert engine.bootstrapped and rejected > 0
    assert compute_solution(engine).uncovered_weight <= params.z


@pytest.mark.parametrize("seed", range(2))
def test_fixed_ladder(seed):
    rng = np.random.default_rng(5100 + seed)
    beta = (0.5, 1.0)[seed]
    params = StreamParams(int(rng.integers(12, 30)), 2, 2, 0.5, beta)
    rows = edge_rows(rng, 90, 3, beta)
    lad = GuessLadder(params, "fixed", 0.01, 100.0)
    twin = unshared(GuessLadder(params, "fixed", 0.01, 100.0))
    _, rejected = _fuzz(rng, lad, twin, rows)
    assert rejected > 0  # only other dimensions: a fixed ladder has no domain


@pytest.mark.parametrize("mode", ["oblivious", "fixed"])
def test_fine_coreset_state(mode):
    rng = np.random.default_rng(5200)
    cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.5, lam=0.5, beta=1.0, fine_cap=16)
    bounds = (0.01, 100.0) if mode == "fixed" else ()
    engine, twin = (FineCoresetState(cfg, 24, mode, *bounds) for _ in range(2))
    unshared(twin.validation)
    unshared(twin.fine)
    engine, rejected = _fuzz(rng, engine, twin, edge_rows(rng, 70, 2, cfg.beta))
    assert rejected > 0
    if mode == "oblivious":  # the fixed grid does not reach the domain's edge
        engine.estimate()
