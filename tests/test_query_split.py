"""tools/query_split.py: a short split of both default workloads, at a
shorter window, reports every column, extraction on the ladder only, the
window's extremes on charikar only, and puts every timed name back."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from streamkc import coreset, solver

TOOL = Path(__file__).resolve().parents[1] / "tools" / "query_split.py"
spec = importlib.util.spec_from_file_location("query_split", TOOL)
query_split = importlib.util.module_from_spec(spec)
spec.loader.exec_module(query_split)


def test_a_short_split_of_both_workloads(capsys):
    owners = {"solver": solver, "GuessLadder": coreset.GuessLadder}
    before = {(owner, name): vars(owners[owner])[name] for _, owner, name in query_split.PARTS}
    # two runs: each order of the plain and the timed pass
    assert query_split.main(["--queries", "4", "--runs", "2", "--window", "200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    got = json.loads(lines[-1])
    assert list(got) == list(query_split.DEFAULT_WORKLOADS)
    parts = [part for part, _, _ in query_split.PARTS]
    for name, cols in got.items():
        assert list(cols) == list(query_split.COLUMNS)
        assert cols["total"] > 0 and all(cols[part] >= 0 for part in parts)
        assert all(cols[part] > 0 for part in ("distances", "farthest", "greedy"))
        assert cols["runs"] >= 1
        # a median of two runs is their mean, so the parts and other sum to timed
        assert math.isclose(sum(cols[part] for part in parts) + cols["other"], cols["timed"])
    # a bootstrapped ladder bounds its grid by its estimates; charikar has no ladder
    assert got["sliding-k10-n10k"]["coreset"] > 0 and got["sliding-k10-n10k"]["extremes"] == 0
    assert got["charikar-n500"]["coreset"] == 0 and got["charikar-n500"]["extremes"] > 0
    assert {key: vars(owners[key[0]])[key[1]] for key in before} == before


@pytest.mark.parametrize("args", [["--workloads", "no-such-workload"],
                                  ["--workloads", "eff-fixed-n1k"], ["--queries", "0"],
                                  ["--runs", "0"]])
def test_a_bad_argument_is_refused(args, capsys):
    with pytest.raises(SystemExit) as refused:
        query_split.main(args)
    assert refused.value.code == 2
