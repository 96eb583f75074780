"""Metrics rows of all six algorithms on one small seeded stream, checked
against ``tests/data/golden_rows.json``: every column except the timing ones
must match byte for byte.

A change that alters these rows on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_rows.py

and says in CHANGES.md why the rows changed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from streamkc.effdiam import EffDiameterConfig, FineCoresetState
from streamkc.experiment import (
    ALGORITHMS,
    TIMING_COLUMNS,
    ExperimentConfig,
    generate_ball_stream,
    ingest,
    read_metrics,
    run_experiment,
    write_points,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_rows.json"
N = 60


def _config(algorithm: str, data: Path, out: Path) -> ExperimentConfig:
    return ExperimentConfig(
        str(data),
        str(out),
        algorithm,
        window_len=N,
        k=3,
        z=2,
        query_every=20,
        inject_prob=0.05 if algorithm == "sliding" else 0.0,
        seed=5,
        sample_size=30,
    )


def _stream(workdir: Path) -> Path:
    data = workdir / "points.csv"
    write_points(generate_ball_stream(240, dim=3, outlier_rate=0.02, seed=11), data)
    return data


def golden_rows(workdir: Path) -> dict[str, list[dict]]:
    """Non-timing columns of every algorithm's metrics rows."""
    data = _stream(workdir)
    rows = {}
    for alg in ALGORITHMS:
        out = workdir / f"{alg}.csv"
        run_experiment(_config(alg, data, out))
        rows[alg] = [
            {c: v for c, v in row.items() if c not in TIMING_COLUMNS}
            for row in read_metrics(out)
        ]
    return rows


def test_rows_match_the_golden_file(tmp_path):
    assert golden_rows(tmp_path) == json.loads(GOLDEN.read_text())


def test_eff_sliding_runs_the_fine_ladders_block_scan(tmp_path):
    # the golden eff-sliding row must cover a fine ladder whose guesses hold
    # many attraction points, so that its attraction search compares long
    # rows of store distances; the stream takes a fine guess past 48 of them
    cfg = _config("eff-sliding", _stream(tmp_path), tmp_path / "unused.csv")
    state = FineCoresetState(
        EffDiameterConfig(cfg.alpha, cfg.eps, cfg.eta, cfg.lam, cfg.beta, cfg.fine_cap),
        cfg.window_len,
    )
    most = 0
    for p in ingest(cfg.input_path):
        state.process_point(p)
        most = max([most] + [len(st.attractions) for st in state.fine._runs])
    assert most > 48


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = golden_rows(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
