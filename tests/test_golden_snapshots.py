"""Snapshots of four engines after small seeded streams, checked against
``tests/data/golden_snapshots.json`` byte for byte: an oblivious sliding
ladder, a fixed ladder, and a fixed and an oblivious ``FineCoresetState``,
each with a fine cap that evicts.  Each stream splits and merges runs of
guesses, so the file pins what the ladder writes per guess (attraction
points, the insertion order of ``reps`` and ``orphans``, evictions) however
it shares state between them.  The oblivious ``FineCoresetState`` also pins
the fine ladder's replay retargets (``attr_factor < 2``) and the
``oblivious`` block of both its ladders.

A change that alters these snapshots on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_snapshots.py

and says in CHANGES.md why they changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from streamkc.core import StreamParams
from streamkc.coreset import GuessLadder
from streamkc.effdiam import EffDiameterConfig, FineCoresetState

from oracles import adversarial_stream, stream_extremes

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_snapshots.json"


def _feed(engine, ladders, stream) -> tuple[int, int]:
    """Feed the stream; how many steps split a run and how many merged two
    in one of the ladders, with its grid unchanged."""
    splits = merges = 0
    for p in stream:
        before = [lad.stats() for lad in ladders]
        engine.process_point(p)
        for lad, b in zip(ladders, before):
            a = lad.stats()
            if a["grid_len"] == b["grid_len"]:
                splits += a["runs"] > b["runs"]
                merges += a["runs"] < b["runs"]
    return splits, merges


def golden_engines() -> dict[str, tuple[object, int, int]]:
    """name -> (engine, splits, merges) after its stream."""
    out = {}
    stream = adversarial_stream(np.random.default_rng(4001), 160, 2)
    lad = GuessLadder(StreamParams(30, 2, 1, 0.5, 0.5), "oblivious")
    out["sliding"] = (lad, *_feed(lad, [lad], stream))

    stream = adversarial_stream(np.random.default_rng(4002), 140, 3)
    lad = GuessLadder(StreamParams(25, 2, 2, 0.5, 0.5), "fixed", *stream_extremes(stream))
    out["fixed"] = (lad, *_feed(lad, [lad], stream))

    stream = adversarial_stream(np.random.default_rng(4003), 140, 2)
    cfg = EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.5, lam=0.5, fine_cap=6)
    state = FineCoresetState(cfg, 40, "fixed", *stream_extremes(stream))
    out["fine"] = (state, *_feed(state, [state.validation, state.fine], stream))

    stream = adversarial_stream(np.random.default_rng(4004), 140, 2)
    state = FineCoresetState(cfg, 40, "oblivious")
    out["fine_oblivious"] = (state, *_feed(state, [state.validation, state.fine], stream))
    return out


def golden_snapshots() -> dict[str, str]:
    return {name: json.dumps(e.to_snapshot()) for name, (e, _, _) in golden_engines().items()}


def test_snapshots_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    engines = golden_engines()
    assert sorted(engines) == sorted(golden)
    for name, (engine, splits, merges) in engines.items():
        assert splits > 0 and merges > 0, name
        assert json.dumps(engine.to_snapshot()) == golden[name], name
    for name in ("sliding", "fixed"):  # evictions pin the full run's own prune
        assert engines[name][0].stats()["evictions"] > 0, name
    for name in ("fine", "fine_oblivious"):
        assert engines[name][0].stats()["fine"]["evictions"] > 0, name


def _runs(engine) -> list[int]:
    """How many runs each ladder of the engine holds."""
    stats = engine.stats()
    return [stats[k]["runs"] for k in ("validation", "fine")] if "fine" in stats else [stats["runs"]]


def test_golden_snapshots_restore_to_themselves():
    # a restored ladder holds the runs its writer held, not one per guess
    golden = json.loads(GOLDEN.read_text())
    engines = golden_engines()
    for name, text in golden.items():
        cls = FineCoresetState if name.startswith("fine") else GuessLadder
        restored = cls.from_snapshot(json.loads(text))
        assert json.dumps(restored.to_snapshot()) == text, name
        assert _runs(restored) == _runs(engines[name][0]), name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_snapshots(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
