"""The benchmark's tracer wraps streamkc names by attribute, so a renamed
function or method must fail here, not only in a traced benchmark run."""

from pathlib import Path

from streamkc import core, coreset, effdiam, experiment, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_install_wraps_every_traced_name_and_uninstall_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    owners = [core, coreset, effdiam, experiment, solver,
              coreset.GuessLadder, coreset.GuessState, effdiam.FineCoresetState]
    before = [dict(vars(o)) for o in owners]
    tr = tracer.Tracer()
    try:
        tr.install()
        patched = list(tr._undo)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{attr} was not wrapped"
    finally:
        tr.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{attr} was not restored"
    assert [dict(vars(o)) for o in owners] == before
