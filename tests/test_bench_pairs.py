"""tools/bench_pairs.py: the same-benchmark guard, the verdicts, the
report-line metrics kept for information, the seed ranges, the workload
list and the source line counts."""

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def checkout(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


BENCH = {"BENCHMARK.json": "{}", "perfbench/run.py": "print(1)\n",
         "perfbench/data/recipe.txt": "a\n"}


class TestGuard:
    def test_equal_benchmarks_pass(self, tmp_path):
        base = checkout(tmp_path / "base", BENCH)
        change = checkout(tmp_path / "change", {**BENCH, "src/lib.py": "x = 2\n"})
        checkout(tmp_path / "base", {"src/lib.py": "x = 1\n"})  # code may differ
        assert bench_pairs.benchmark_difference(base, change) is None

    def test_generated_files_are_ignored(self, tmp_path):
        base = checkout(tmp_path / "base", BENCH)
        change = checkout(tmp_path / "change", {
            **BENCH, "perfbench/_work/data.csv": "1\n",
            "perfbench/__pycache__/run.cpython-311.pyc": "x",
        })
        assert bench_pairs.benchmark_difference(base, change) is None

    @pytest.mark.parametrize(
        "edit, name",
        [
            ({"perfbench/run.py": "print(2)\n"}, "perfbench/run.py"),
            ({"perfbench/data/recipe.txt": "b\n"}, "perfbench/data/recipe.txt"),
            ({"perfbench/extra.py": ""}, "perfbench/extra.py"),
            ({"BENCHMARK.json": "{ }"}, "BENCHMARK.json"),
        ],
    )
    def test_a_differing_or_extra_file_is_named(self, tmp_path, edit, name):
        base = checkout(tmp_path / "base", BENCH)
        change = checkout(tmp_path / "change", {**BENCH, **edit})
        assert bench_pairs.benchmark_difference(base, change) == name
        assert bench_pairs.benchmark_difference(change, base) == name

    def test_a_missing_benchmark_file_is_named(self, tmp_path):
        base = checkout(tmp_path / "base", {k: v for k, v in BENCH.items() if k != "BENCHMARK.json"})
        change = checkout(tmp_path / "change", BENCH)
        assert bench_pairs.benchmark_difference(base, change) == "BENCHMARK.json"

    def test_main_refuses_to_run_and_names_the_file(self, tmp_path, monkeypatch, capsys):
        # a base checkout whose benchmark differs from this checkout's
        base = checkout(tmp_path / "base", BENCH)
        monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran"))
        out = tmp_path / "BENCH.json"
        status = bench_pairs.main(["--base", str(base), "--seeds", "1", "--out", str(out)])
        assert status != 0
        assert not out.exists()
        name = bench_pairs.benchmark_difference(base, bench_pairs.ROOT)
        assert name is not None and name in capsys.readouterr().err


class TestBaseCommit:
    @staticmethod
    def git(cwd: Path, *args: str) -> str:
        out = subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                             cwd=cwd, capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_a_clone_names_its_commit_and_a_plain_directory_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        repo = checkout(tmp_path / "repo", {**BENCH, "src/sub/x.py": "x = 1\n"})
        self.git(repo, "init", "-q")
        self.git(repo, "add", "-A")
        self.git(repo, "commit", "-q", "-m", "base")
        head = self.git(repo, "rev-parse", "HEAD")
        clone = tmp_path / "clone"
        self.git(tmp_path, "clone", "-q", str(repo), str(clone))
        assert bench_pairs.commit_of(repo) == bench_pairs.commit_of(clone) == head
        assert bench_pairs.commit_of(repo / "src" / "sub") is None  # inside another tree
        assert bench_pairs.commit_of(checkout(tmp_path / "plain", BENCH)) is None
        assert bench_pairs.commit_of(tmp_path / "missing") is None

    def test_main_refuses_a_base_without_a_commit_before_any_run(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        base = checkout(tmp_path / "base", BENCH)
        monkeypatch.setattr(bench_pairs, "benchmark_difference", lambda a, b: None)
        monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran"))
        out = tmp_path / "BENCH.json"
        assert bench_pairs.main(["--base", str(base), "--seeds", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "names no commit" in capsys.readouterr().err


class TestVerdicts:
    def test_pairs_won_counts_strict_wins_in_the_better_direction(self):
        base, change = [10, 10, 10, 10], [11, 10, 9, 12]
        assert bench_pairs.pairs_won(base, change, "higher") == 2
        assert bench_pairs.pairs_won(base, change, "lower") == 1

    def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_quartiles(self):
        base = [100.0 + i for i in range(10)]  # quartile distance 4.5
        assert bench_pairs.verdict(base, [b + 10 for b in base], "higher", 0.25) == "gain"
        assert bench_pairs.verdict(base, [b - 10 for b in base], "lower", 0.25) == "gain"
        # 8 of 10 pairs won: not a gain
        eight = [b + 10 for b in base[:8]] + base[8:]
        assert bench_pairs.verdict(base, eight, "higher", 0.25) == "unchanged"
        # every pair won, by less than the quartile distance
        assert bench_pairs.verdict(base, [b + 1 for b in base], "higher", 0.25) == "unchanged"

    def test_regression_is_a_median_worse_than_the_bound(self):
        base = [100.0 + i for i in range(10)]
        assert bench_pairs.verdict(base, [b - 30 for b in base], "higher", 0.25) == "regression"
        assert bench_pairs.verdict(base, [b + 30 for b in base], "lower", 0.25) == "regression"
        assert bench_pairs.verdict(base, [b - 20 for b in base], "higher", 0.25) == "unchanged"

    def test_wide_runs_that_do_not_separate_are_unresolved(self):
        base = [100.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
        change = [b + 5 for b in base[1:]] + [base[0] - 5]
        assert bench_pairs.verdict(base, change, "higher", 0.1) == "unresolved"
        # wide runs that separate completely are not unresolved
        apart = [b + 100 for b in base]
        assert bench_pairs.verdict(base, apart, "higher", 0.1) == "gain"


class TestSeedList:
    @pytest.mark.parametrize("text, seeds", [("3-12", list(range(3, 13))), ("5", [5]), ("0-0", [0])])
    def test_ranges_and_single_seeds(self, text, seeds):
        assert bench_pairs.seed_list(text) == seeds

    def test_a_malformed_range_raises(self):
        with pytest.raises(ValueError):
            bench_pairs.seed_list("a-b")


class TestReported:
    @staticmethod
    def fake_run(values):
        """run_once stand-in: every gated metric 1.0, the report line's
        metrics taken in turn from values (a dict of lists)."""
        calls = iter(range(10**6))

        def run_once(checkout, workload, seed, seconds):
            i = next(calls)
            reported = {k: v[i] for k, v in values.items()}
            return {
                "correct": True,
                "digest": "d",
                "metrics": {"setup_s": 1.0, "throughput_pts_s": 1.0,
                            "memory_floats_max": 1.0, "peak_rss_mb": 1.0},
                "reported": {k: reported.get(k) for k in bench_pairs.REPORTED},
            }

        return run_once

    def test_each_side_keeps_median_and_quartiles_without_a_verdict(
        self, tmp_path, monkeypatch, capsys
    ):
        # seeds 1-4 alternate the order: base, change, change, base, ...
        values = {
            "update_p50_us": [10.0, 20.0, 21.0, 11.0, 12.0, 22.0, 23.0, 13.0],
            "query_p50_ms": [1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0],
            "failed_share": [0.0] * 8,
            # reported by one side's runs only
            "update_p99_us": [50.0, None, None, 51.0, 52.0, None, None, 53.0],
        }
        monkeypatch.setattr(bench_pairs, "benchmark_difference", lambda a, b: None)
        monkeypatch.setattr(bench_pairs, "commit_of", lambda checkout: "base")
        monkeypatch.setattr(bench_pairs, "run_once", self.fake_run(values))
        out = tmp_path / "BENCH.json"
        argv = ["--base", str(tmp_path), "--seeds", "1-4", "--workloads", "sliding-k40-n2k",
                "--out", str(out)]
        assert bench_pairs.main(argv) == 0
        reported = json.loads(out.read_text())["workloads"]["sliding-k40-n2k"]["reported"]
        assert set(reported) == {"update_p50_us", "update_p99_us", "query_p50_ms",
                                 "failed_share"}
        p50 = reported["update_p50_us"]
        assert p50["base"]["values"] == [10.0, 11.0, 12.0, 13.0]
        assert p50["change"]["values"] == [20.0, 21.0, 22.0, 23.0]
        assert (p50["base"]["q1"], p50["base"]["median"], p50["base"]["q3"]) == (
            10.75, 11.5, 12.25)
        assert p50["change"]["median"] == 21.5
        assert set(reported["update_p99_us"]) == {"base"}
        assert reported["failed_share"]["change"]["median"] == 0.0
        assert not any("verdict" in side for m in reported.values() for side in m.values())
        # the summary line shows both sides' medians, failed_share aside
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("sliding-k40-n2k: setup_s unchanged")
        assert ("; update_p50_us 11.5 -> 21.5; update_p99_us 51.5 -> n/a; "
                "query_p50_ms 1 -> 2; digests equal, all correct") in line
        assert "failed_share" not in line

    def test_the_summary_line_leaves_out_a_metric_no_side_reports(self):
        m = {"base": {"median": 1.0}, "change": {"median": 1.0}, "verdict": "unchanged",
             "change_better_pairs": 0}
        workload = {"metrics": {"setup_s": m}, "pairs": 1, "digests_equal": True,
                    "all_correct": True, "reported": {}}
        assert bench_pairs.summary_line("w", workload) == (
            "w: setup_s unchanged (1 -> 1, +0.0%, 0/1); digests equal, all correct")

    def test_a_metric_no_run_reports_is_left_out(self):
        runs = {"base": [{"reported": {"query_p50_ms": None}}],
                "change": [{"reported": {"query_p50_ms": None}}]}
        assert bench_pairs.reported_spreads(runs) == {}


class TestSrcLines:
    def test_counts_the_library_modules_as_wc_does(self, tmp_path):
        root = checkout(tmp_path, {
            "src/streamkc/a.py": "x = 1\ny = 2\n",
            "src/streamkc/b.py": "z = 3",  # no final newline: wc -l reads 0
            "src/streamkc/sub/c.py": "w = 4\n",  # not a module of the package
            "src/streamkc/notes.txt": "n\n",
            "tools/d.py": "v = 5\n",
        })
        assert bench_pairs.src_lines(root) == 2

    def test_main_records_both_sides_and_prints_them(self, tmp_path, monkeypatch, capsys):
        base = checkout(tmp_path / "base", {"src/streamkc/a.py": "x = 1\n" * 5})
        monkeypatch.setattr(bench_pairs, "benchmark_difference", lambda a, b: None)
        monkeypatch.setattr(bench_pairs, "commit_of", lambda checkout: "base")
        monkeypatch.setattr(bench_pairs, "run_once", TestReported.fake_run({}))
        out = tmp_path / "BENCH.json"
        argv = ["--base", str(base), "--seeds", "1", "--workloads", "charikar-n500",
                "--out", str(out)]
        assert bench_pairs.main(argv) == 0
        want = bench_pairs.src_lines(bench_pairs.ROOT)
        assert json.loads(out.read_text())["src_lines"] == {"base": 5, "change": want}
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last == f"src_lines: 5 -> {want} ({want - 5:+d})"


class TestWorkloads:
    BENCHMARK = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())

    def test_a_list_of_known_names_is_read_in_order(self):
        assert bench_pairs.workload_list("sliding-k40-n2k,charikar-n500") == [
            "sliding-k40-n2k", "charikar-n500"]
        assert bench_pairs.known_workloads() >= {
            w["name"] for w in self.BENCHMARK["workloads"]} | {"sliding-k40-n2k"}

    @pytest.mark.parametrize("text", ["w", "charikar-n500,nope", "", ","])
    def test_an_unknown_or_empty_name_is_refused(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="unknown workload"):
            bench_pairs.workload_list(text)

    def test_main_refuses_an_unknown_workload_before_any_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran"))
        out = tmp_path / "BENCH.json"
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(["--base", str(tmp_path), "--workloads", "w", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @staticmethod
    def slower_change(checkout, workload, seed, seconds):
        """run_once stand-in: the change runs at 70% of the base's throughput."""
        change = checkout == bench_pairs.ROOT
        return {
            "correct": True,
            "digest": "d",
            "metrics": {"setup_s": 1.0, "throughput_pts_s": (70.0 if change else 100.0) + seed,
                        "memory_floats_max": 1.0, "peak_rss_mb": 1.0},
            "reported": dict.fromkeys(bench_pairs.REPORTED),
        }

    @pytest.mark.parametrize("flag", [None, "sliding-k40-n2k,charikar-n500"])
    def test_every_workload_run_gets_the_same_verdicts_and_bounds(
        self, tmp_path, monkeypatch, flag
    ):
        # by default the workloads of BENCHMARK.json; an extra one named by
        # the flag is judged exactly as a gated one
        monkeypatch.setattr(bench_pairs, "benchmark_difference", lambda a, b: None)
        monkeypatch.setattr(bench_pairs, "commit_of", lambda checkout: "base")
        monkeypatch.setattr(bench_pairs, "run_once", self.slower_change)
        out = tmp_path / "BENCH.json"
        argv = ["--base", str(tmp_path), "--seeds", "1-4", "--out", str(out)]
        assert bench_pairs.main(argv + (["--workloads", flag] if flag else [])) == 0
        got = json.loads(out.read_text())["workloads"]
        want = flag.split(",") if flag else [w["name"] for w in self.BENCHMARK["workloads"]]
        assert list(got) == want
        for workload in got.values():
            metrics = workload["metrics"]
            assert list(metrics) == [m["name"] for m in self.BENCHMARK["end_to_end"]]
            assert metrics["throughput_pts_s"]["verdict"] == "regression"
            assert metrics["throughput_pts_s"]["base"]["values"] == [101.0, 102.0, 103.0, 104.0]
            assert metrics["setup_s"]["verdict"] == "unchanged"
            assert workload["pairs"] == 4
