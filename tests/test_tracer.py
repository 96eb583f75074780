"""The benchmark's tracer wraps streamkc names by attribute, so a renamed
function or method must fail here, not only in a traced benchmark run."""

from pathlib import Path

from streamkc import core, coreset, effdiam, experiment, solver
from oracles import weighted

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


def test_both_levels_are_traced_and_an_upper_shortfall_is_counted(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    # 10 window points, alpha 0.9, lam 0.5: the levels need ordered-pair
    # masses of 40 and 90, and two points of weight 4 reach 64
    cfg = effdiam.EffDiameterConfig(alpha=0.9, eps=0.5, eta=0.5, lam=0.5)
    state = effdiam.FineCoresetState(cfg, window_len=10, mode="fixed", d_min=0.05, d_max=30.0)
    for i in range(10):
        state.process_point(core.Point(i + 1, (float(i % 2),)))
    light = weighted([(core.Point(1, (0.0,)), 4), (core.Point(2, (1.0,)), 4)])
    monkeypatch.setattr(state, "fine_coreset", lambda: (light, False))
    tr = tracer.Tracer(alpha=cfg.alpha)
    try:
        tr.install()
        tr.paused = False
        est = state.estimate()
    finally:
        tr.uninstall()
    assert (est.short_lower, est.short_upper) == (False, True)
    assert tr.span_totals()[("", "effdiam.coreset_effective_diameter")][0] == 2
    counts = tr.role_counts()
    assert counts[("", "effdiam.saturation.mass_up")] == 1
    assert ("", "effdiam.saturation.mass_low") not in counts
