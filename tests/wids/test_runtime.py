"""The ambient WIDS watch: radio-layer feed, zero perturbation."""

from repro.core.scenario import build_corp_scenario
from repro.obs.runtime import instruments
from repro.wids.runtime import WidsWatch, wids_watch


def test_active_wids_none_by_default():
    assert instruments().wids is None


def test_wids_watch_installs_and_restores():
    with wids_watch() as outer:
        assert instruments().wids is outer
        with wids_watch() as inner:
            assert instruments().wids is inner
        assert instruments().wids is outer  # nesting restores the previous
    assert instruments().wids is None


def test_wids_watch_restores_on_exception():
    try:
        with wids_watch():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert instruments().wids is None


def test_watch_hears_the_rogue_world():
    with wids_watch() as watch:
        scenario = build_corp_scenario(seed=11, with_rogue=True)
        scenario.add_victim()
        scenario.sim.run_for(5.0)
    assert watch.frames_seen() > 0
    assert len(watch.feeds()) == 1  # one medium in this world
    alerts = watch.alerts()
    detectors = {a.detector for a in alerts}
    # the cloned-BSSID twin on channel 6 is unhideable
    assert {"fingerprint", "multichannel"} <= detectors
    # alerts are sorted by threshold-crossing time
    times = [a.t for a in alerts]
    assert times == sorted(times)


def test_watch_silent_on_benign_world():
    with wids_watch() as watch:
        scenario = build_corp_scenario(seed=11, with_rogue=False)
        scenario.add_victim()
        scenario.sim.run_for(5.0)
    assert watch.frames_seen() > 0
    assert watch.alerts() == []


def test_watch_capacity_bounds_each_feed():
    with wids_watch(capacity=16) as watch:
        scenario = build_corp_scenario(seed=11, with_rogue=True)
        scenario.sim.run_for(5.0)
    (_label, capture, engine) = watch.feeds()[0]
    assert len(capture) <= 16
    # the engine still saw every frame live, not just the retained tail
    assert engine.frames_seen == watch.frames_seen()
    assert engine.frames_seen > 16


def test_watch_separates_media():
    watch = WidsWatch()

    class FakeMedium:
        pass

    m1, m2 = FakeMedium(), FakeMedium()
    label1, _, _ = watch._feed_for(m1)
    label2, _, _ = watch._feed_for(m2)
    assert label1 == "medium-0" and label2 == "medium-1"
    assert watch._feed_for(m1)[0] == "medium-0"  # stable per medium
    assert len(watch.feeds()) == 2
