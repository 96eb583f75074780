"""Smoke test of the benchmark: every workload at a tiny length.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every named metric is emitted, that no query fails, that traced
self times sum to no more than the traced wall time, that metric names and
units fit the schema of ``BENCHMARK.json``, that the benchmark's
outputs equal the rows ``streamkc run`` writes for the same configuration
and seed, and that the command refuses to run without the sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
import worker  # noqa: E402
from streamkc.experiment import read_metrics, run_experiment  # noqa: E402

CYCLES = 3  # query cycles in the tiny segment


def _dataset(wl, tmp_path, seed=7):
    path = tmp_path / f"{wl.name}.csv"
    return path, workloads.write_dataset(wl, seed, wl.points(CYCLES), path)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_checks_and_traces(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    path, diameter = _dataset(wl, tmp_path)
    plain = worker.stream(wl, path, diameter, 0.0, cycles=CYCLES)
    traced = worker.stream(wl, path, diameter, 0.0, trace=True, cycles=CYCLES)
    for res in (plain, traced):
        assert res["failed"] == 0 and res["metrics"]["failed_share"] == 0
        assert res["attempted"] == CYCLES
    assert traced["digest"] == plain["digest"]
    added_by_run_py = {"setup_s"}
    for metric, _ in workloads.END_TO_END:
        assert metric in plain["metrics"] or metric in added_by_run_py, metric
    layers = traced["layers"]
    for metric, _ in workloads.PER_LAYER:
        assert metric in layers or metric.endswith("_overhead"), metric
    assert 0 < layers["trace.self_ms"] <= layers["trace.wall_ms"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_outputs_match_streamkc_run(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    path, diameter = _dataset(wl, tmp_path)
    res = worker.stream(wl, path, diameter, 0.0, cycles=CYCLES, check_every=1)
    out = tmp_path / "metrics.csv"
    run_experiment(wl.experiment_config(path, out, diameter))
    rows = read_metrics(out)[:CYCLES]
    assert len(rows) == len(res["records"]) == CYCLES
    for row, rec in zip(rows, res["records"]):
        if wl.algorithm == "eff-sliding":
            t, lower, upper, saturated, mem = rec[:5]
            got = (row["eff_lower"], row["eff_upper"], row["saturated"])
            assert got == (lower, upper, str(saturated))
        else:
            t, _, _, uncovered, radius, mem = rec[:6]
            assert (row["radius"], row["uncovered"]) == (radius, str(uncovered))
        assert (row["timestep"], row["memory_floats"]) == (str(t), str(mem))


def _command(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "charikar-n500",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    proc = _command(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {n: u for n, u in names} == {
        n: m["unit"] for n, m in result["metrics"].items()
    }
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    assert [(m["name"], m["unit"]) for m in listed] == list(names)


def test_metric_names_fit_the_benchmark_schema():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_][A-Za-z0-9_.-]{0,63}", name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _command(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
