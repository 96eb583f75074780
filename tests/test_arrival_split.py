"""tools/arrival_split.py: a short split of both default recipes, at a
shorter window, reports every column, fixed mode no oblivious upkeep, the
sliding engine no prune, and puts every timed method back."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from streamkc import coreset

TOOL = Path(__file__).resolve().parents[1] / "tools" / "arrival_split.py"
spec = importlib.util.spec_from_file_location("arrival_split", TOOL)
arrival_split = importlib.util.module_from_spec(spec)
spec.loader.exec_module(arrival_split)


def test_a_short_split_of_both_recipes(capsys):
    methods = {(owner, name): getattr(coreset, owner).__dict__[name]
               for _, owner, name in arrival_split.PARTS}
    # two runs: each order of the plain and the timed pass
    assert arrival_split.main(["--arrivals", "40", "--runs", "2", "--window", "200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    got = json.loads(lines[-1])
    assert list(got) == list(arrival_split.DEFAULT_WORKLOADS)
    parts = [part for part, _, _ in arrival_split.PARTS]
    for name, cols in got.items():
        assert list(cols) == list(arrival_split.COLUMNS)
        assert cols["total"] > 0 and all(cols[part] >= 0 for part in parts)
        assert all(cols[part] > 0 for part in ("row", "probe", "steps", "merge"))
        # a median of two runs is their mean, so the parts and other sum to timed
        assert math.isclose(sum(cols[part] for part in parts) + cols["other"], cols["timed"])
    assert got["sliding-k10-n10k"]["estimates"] > 0 and got["sliding-k10-n10k"]["upkeep"] > 0
    assert got["eff-fixed-n1k"]["estimates"] == got["eff-fixed-n1k"]["upkeep"] == 0
    # only an effective-diameter engine prunes its fine ladder
    assert got["eff-fixed-n1k"]["prune"] > 0 and got["sliding-k10-n10k"]["prune"] == 0
    assert {key: getattr(coreset, key[0]).__dict__[key[1]] for key in methods} == methods


@pytest.mark.parametrize("args", [["--workloads", "no-such-workload"], ["--arrivals", "0"],
                                  ["--runs", "0"]])
def test_a_bad_argument_is_refused(args, capsys):
    with pytest.raises(SystemExit) as refused:
        arrival_split.main(args)
    assert refused.value.code == 2
