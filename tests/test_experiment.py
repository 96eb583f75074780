import argparse
import dataclasses
import inspect
import math
import time

import numpy as np
import pytest

from streamkc import cli, core, experiment, solver
from streamkc.cli import build_parser, main
from streamkc.coreset import GuessLadder
from streamkc.experiment import (
    ExperimentConfig,
    estimate_diameter,
    generate_ball_stream,
    ingest,
    inject_outliers,
    injection_prob,
    read_metrics,
    run_experiment,
    write_points,
    TIMING_COLUMNS,
)


class TestIngest:
    def test_two_points(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0\n3.0,4.0\n")
        pts = list(ingest(f))
        assert [p.coords for p in pts] == [(1.0, 2.0), (3.0, 4.0)]
        assert [p.arrival for p in pts] == [1, 2]

    def test_whitespace_separated(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 2\n3\t4\n")
        assert [p.coords for p in ingest(f)] == [(1.0, 2.0), (3.0, 4.0)]

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        assert list(ingest(f)) == []

    def test_header_skipped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y\n1.0,2.0\n")
        assert [p.coords for p in ingest(f)] == [(1.0, 2.0)]

    def test_nan_rejected_with_line_number(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0\nnan,3.0\n")
        with pytest.raises(ValueError, match=":2"):
            list(ingest(f))

    def test_ragged_row_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match=":2"):
            list(ingest(f))

    def test_non_numeric_mid_file_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0\noops,3.0\n")
        with pytest.raises(ValueError, match=":2"):
            list(ingest(f))


class TestInjectOutliers:
    def _stream(self, n=50, dim=3, seed=1):
        rng = np.random.default_rng(seed)
        from streamkc.core import Point

        return [
            Point(i + 1, tuple(map(float, rng.random(dim)))) for i in range(n)
        ]

    def test_prob_zero_identity(self):
        pts = self._stream()
        out = list(inject_outliers(pts, 0.0, 100.0, seed=3, diameter=1.0))
        assert out == pts

    def test_prob_one_doubles(self):
        pts = self._stream(n=20)
        out = list(inject_outliers(pts, 1.0, 100.0, seed=3, diameter=1.0))
        assert len(out) == 40
        assert [p.arrival for p in out] == list(range(1, 41))

    def test_injected_norms(self):
        pts = self._stream(n=30)
        diameter = 2.5
        out = list(inject_outliers(pts, 1.0, 100.0, seed=5, diameter=diameter))
        injected = out[1::2]
        for q in injected:
            assert math.hypot(*q.coords) == pytest.approx(100.0 * diameter)

    def test_expected_rate_helper(self):
        assert injection_prob(10, 10_000) == pytest.approx(0.0005)
        assert injection_prob(10**9, 10) == 1.0


def test_estimate_diameter_symmetric_set():
    pts_coords = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    from streamkc.core import Point

    pts = [Point(i + 1, c) for i, c in enumerate(pts_coords)]
    assert estimate_diameter(pts) == pytest.approx(2.0)


class TestRunExperiment:
    def _dataset(self, tmp_path, n=60, dim=2, seed=0):
        coords = generate_ball_stream(n, dim=dim, seed=seed)
        path = tmp_path / "data.csv"
        write_points(coords, path)
        return path

    def _cfg(self, tmp_path, **kw):
        data = kw.pop("input_path", None) or self._dataset(tmp_path)
        out = tmp_path / kw.pop("output_name", "metrics.csv")
        base = dict(
            input_path=str(data),
            output_path=str(out),
            algorithm="sliding",
            window_len=20,
            k=2,
            z=2,
            query_every=10,
            seed=3,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_query_schedule(self, tmp_path):
        # stream of 60, window 20, every 10: queries at 30, 40, 50, 60
        cfg = self._cfg(tmp_path)
        rows = read_metrics(run_experiment(cfg))
        assert [int(r["timestep"]) for r in rows] == [30, 40, 50, 60]

    def test_gon_memory_is_window_times_dim(self, tmp_path):
        cfg = self._cfg(tmp_path, algorithm="gon")
        rows = read_metrics(run_experiment(cfg))
        assert all(int(r["memory_floats"]) == 20 * 2 for r in rows)

    def test_determinism_modulo_timing(self, tmp_path):
        cfg_a = self._cfg(tmp_path, output_name="a.csv", algorithm="samp-charikar",
                          sample_size=5)
        cfg_b = self._cfg(tmp_path, output_name="b.csv", algorithm="samp-charikar",
                          sample_size=5)
        rows_a = read_metrics(run_experiment(cfg_a))
        rows_b = read_metrics(run_experiment(cfg_b))
        strip = lambda rows: [
            {k: v for k, v in r.items() if k not in TIMING_COLUMNS} for r in rows
        ]
        assert strip(rows_a) == strip(rows_b)

    def test_sliding_rows_have_radius_and_memory(self, tmp_path):
        cfg = self._cfg(tmp_path)
        rows = read_metrics(run_experiment(cfg))
        for r in rows:
            assert float(r["radius"]) >= 0.0
            assert int(r["uncovered"]) <= cfg.z
            assert int(r["memory_floats"]) > 0

    def test_query_ns_times_the_query_and_the_run_scores_after_it(self, tmp_path, monkeypatch):
        # a scorer that sleeps 50 ms first: were it called inside the timed
        # query, in experiment or in solver, query_ns would exceed 50 ms
        scored = []

        def slow_radius_excluding(*args, **kwargs):
            time.sleep(0.05)
            scored.append(core.radius_excluding(*args, **kwargs))
            return scored[-1]

        monkeypatch.setattr(experiment, "radius_excluding", slow_radius_excluding)
        monkeypatch.setattr(solver, "radius_excluding", slow_radius_excluding)
        for algorithm in ("sliding", "charikar", "gon"):
            scored.clear()
            cfg = self._cfg(tmp_path, algorithm=algorithm, output_name=f"{algorithm}.csv")
            rows = read_metrics(run_experiment(cfg))
            assert len(rows) == 4
            assert all(int(r["query_ns"]) < 50_000_000 for r in rows), algorithm
            # one score per row, the one the row carries
            assert [float(r["radius"]) for r in rows] == scored

    def test_eff_sliding_and_sequential_agree_roughly(self, tmp_path):
        data = self._dataset(tmp_path, n=80, dim=2, seed=5)
        rows_sl = read_metrics(
            run_experiment(
                self._cfg(tmp_path, input_path=data, output_name="sl.csv",
                          algorithm="eff-sliding", alpha=0.9, eps=0.9, eta=0.3,
                          window_len=30, query_every=25)
            )
        )
        rows_sq = read_metrics(
            run_experiment(
                self._cfg(tmp_path, input_path=data, output_name="sq.csv",
                          algorithm="eff-sequential", alpha=0.9,
                          window_len=30, query_every=25)
            )
        )
        assert len(rows_sl) == len(rows_sq) > 0
        for a, b in zip(rows_sl, rows_sq):
            if a["saturated"] == "1":
                continue
            lo, hi = float(a["eff_lower"]), float(a["eff_upper"])
            val = float(b["eff_lower"])
            assert lo <= val * 1.01 and val <= hi * 1.01

    def test_config_errors_reported_before_streaming(self, tmp_path):
        with pytest.raises(ValueError):
            self._cfg(tmp_path, algorithm="wat").validate()
        with pytest.raises(ValueError):
            self._cfg(tmp_path, mode="fixed").validate()  # missing d bounds
        cfg = self._cfg(tmp_path, window_len=4, k=5, z=0)
        with pytest.raises(ValueError):
            cfg.validate()

    @pytest.mark.parametrize("bad, match", [
        (dict(mode="fixed", d_min=1.0, d_max=math.inf), "d_max < inf"),
        (dict(lam=math.inf), "lam"),
        (dict(algorithm="charikar", step=0.0), "step"),
        (dict(algorithm="samp-charikar", step=-1.0), "step"),
        (dict(algorithm="samp-charikar", sample_size=0), "sample_size"),
        # a count that is not an integer would fail only at the first query,
        # or run as its floor
        (dict(algorithm="samp-charikar", sample_size=2.5), "sample_size must be an integer"),
        (dict(query_every=10.5), "query_every must be an integer"),
        (dict(query_every=True), "query_every must be an integer"),
        (dict(algorithm="eff-sequential", window_len=20.5), "window_len must be an integer"),
        (dict(algorithm="charikar", k=2.5), "k must be an integer"),
        (dict(algorithm="gon", z=1.5), "z must be an integer"),
        (dict(algorithm="eff-sliding", eps=0.5, fine_cap=2.5), "fine_cap must be an integer"),
        (dict(algorithm="eff-sequential", bucket_step=0.0), "bucket_step"),
        # a query needs eps < 1: the run would fail at its first query
        (dict(algorithm="eff-sliding", eps=1.0), "eps < 1"),
        # the run would fail at its first injected outlier
        (dict(inject_prob=0.5, outlier_scale=math.inf), "must be finite"),
        (dict(inject_prob=0.5, outlier_scale=math.nan), "must be finite"),
        (dict(inject_prob=0.5, dataset_diameter=math.nan), "must be finite"),
        (dict(inject_prob=0.5, dataset_diameter=-math.inf), "must be finite"),
        (dict(inject_prob=0.5, outlier_scale=1e200, dataset_diameter=1e200), "must be finite"),
    ])
    def test_settings_a_run_would_trip_on_are_rejected_up_front(self, tmp_path, bad, match):
        with pytest.raises(ValueError, match=match):
            self._cfg(tmp_path, **bad).validate()

    def test_a_fractional_k_is_refused_before_streaming(self, tmp_path, monkeypatch):
        read = []
        monkeypatch.setattr(experiment, "ingest", lambda path: read.append(path) or iter(()))
        with pytest.raises(ValueError, match="k must be an integer"):
            run_experiment(self._cfg(tmp_path, algorithm="charikar", k=2.5))
        assert read == []

    @pytest.mark.parametrize("algorithm", ["sliding", "eff-sliding"])
    def test_fixed_mode_accepts_equal_distance_bounds(self, tmp_path, algorithm):
        # the ladder's own rule is 0 < d_min <= d_max; two alternating
        # locations make 1.0 both the smallest and the largest distance
        data = tmp_path / "two.csv"
        write_points([[float(i % 2), 0.0] for i in range(60)], data)
        cfg = self._cfg(tmp_path, input_path=data, algorithm=algorithm, mode="fixed",
                        d_min=1.0, d_max=1.0)
        cfg.validate()
        rows = read_metrics(run_experiment(cfg))
        assert [int(r["timestep"]) for r in rows] == [30, 40, 50, 60]
        with pytest.raises(ValueError, match="0 < d_min <= d_max"):
            self._cfg(tmp_path, mode="fixed", d_min=0.6, d_max=0.5).validate()

    def test_an_outlier_norm_past_the_estimated_diameter_is_rejected_before_streaming(
        self, tmp_path, monkeypatch
    ):
        # points of norm up to 1e10 estimate the diameter near 2e10, and 1e300
        # times that overflows: every injected outlier would be infinite
        data = tmp_path / "far.csv"
        write_points(generate_ball_stream(200, 2, 0.1, 1e10, seed=1), data)
        cfg = self._cfg(tmp_path, input_path=data, window_len=50, inject_prob=0.5,
                        outlier_scale=1e300)
        cfg.validate()  # the diameter is unknown before the scan
        fed = []
        monkeypatch.setattr(GuessLadder, "process_point", lambda self, p: fed.append(p))
        with pytest.raises(ValueError, match="estimated dataset diameter") as err:
            run_experiment(cfg)
        assert "non-finite coordinate" not in str(err.value)
        assert fed == []

    def test_a_ladder_setting_is_refused_before_the_diameter_scan(self, tmp_path, monkeypatch):
        # no oblivious grid fits beta 5e-6 (MAX_GRID_LEN): the engine refuses
        # it before the outlier injection scans the file for its diameter
        scans = []
        monkeypatch.setattr(experiment, "estimate_diameter", lambda pts: scans.append(1) or 1.0)
        cfg = self._cfg(tmp_path, beta=5e-6, inject_prob=0.5)
        cfg.validate()
        with pytest.raises(ValueError, match="oblivious grid would hold"):
            run_experiment(cfg)
        assert scans == []

    def test_injection_in_pipeline(self, tmp_path):
        cfg = self._cfg(tmp_path, inject_prob=1.0, outlier_scale=10.0)
        rows = read_metrics(run_experiment(cfg))
        # stream doubled: queries now reach timestep 120
        assert [int(r["timestep"]) for r in rows][-1] == 120


class TestCli:
    def test_synth_and_run(self, tmp_path, capsys):
        data = tmp_path / "ball.csv"
        metrics = tmp_path / "m.csv"
        assert main([
            "synth", "--output", str(data), "--n", "50", "--dim", "2",
            "--seed", "1",
        ]) == 0
        assert main([
            "run", "--input", str(data), "--output", str(metrics),
            "--algorithm", "sliding", "--window", "20", "--k", "2", "--z", "1",
            "--query-every", "10",
        ]) == 0
        rows = read_metrics(metrics)
        assert rows and all(r["radius"] for r in rows)

    def test_an_infinite_distance_bound_exits_nonzero(self, tmp_path, capsys):
        rc = main([
            "run", "--input", str(tmp_path / "missing.csv"), "--output",
            str(tmp_path / "m.csv"), "--algorithm", "sliding", "--window", "20",
            "--mode", "fixed", "--d-min", "1", "--d-max", "inf",
        ])
        assert rc == 1
        assert "d_max < inf" in capsys.readouterr().err

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        rc = main([
            "run", "--input", str(tmp_path / "missing.csv"), "--output",
            str(tmp_path / "m.csv"), "--algorithm", "sliding", "--window", "20",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_an_omitted_run_flag_takes_the_config_default(self, monkeypatch):
        given = dict(input_path="in.csv", output_path="m.csv", algorithm="sliding",
                     window_len=20)
        built, ran = [], []
        monkeypatch.setattr(cli, "ExperimentConfig",
                            lambda **kw: built.append(kw) or ExperimentConfig(**kw))
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: ran.append(cfg) or "m.csv")
        assert main(["run", "--input", "in.csv", "--output", "m.csv",
                     "--algorithm", "sliding", "--window", "20"]) == 0
        assert built == [given]
        assert ran == [ExperimentConfig(**given)]

    def test_an_omitted_synth_flag_takes_the_generator_default(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "generate_ball_stream",
                            lambda *a, **kw: calls.append((a, kw)) or np.zeros((5, 4)))
        assert main(["synth", "--output", str(tmp_path / "b.csv"), "--n", "5"]) == 0
        assert calls == [((), {"n": 5})]

    def test_every_flag_names_a_field_of_its_callee(self):
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
        dests = {name: {a.dest for a in p._actions if a.dest != "help"}
                 for name, p in subs.items()}
        assert dests["run"] == {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert dests["synth"] - {"output"} == set(
            inspect.signature(generate_ball_stream).parameters)

    def test_raw_timings_hold_one_line_per_query(self, tmp_path):
        data, metrics, raw = (tmp_path / name for name in ("d.csv", "m.csv", "raw.txt"))
        write_points(generate_ball_stream(60, dim=2, seed=1), data)
        assert main([
            "run", "--input", str(data), "--output", str(metrics),
            "--algorithm", "sliding", "--window", "20", "--k", "2", "--z", "1",
            "--query-every", "10", "--raw-timings", str(raw),
        ]) == 0
        lines = raw.read_text().splitlines()
        assert len(lines) == len(read_metrics(metrics)) == 4  # at 30, 40, 50 and 60
        samples = [[int(v) for v in line.split(",")] for line in lines]
        assert [len(s) for s in samples] == [20 + 10, 10, 10, 10]
        assert all(v >= 0 for s in samples for v in s)
