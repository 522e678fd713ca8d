"""Property tests of the harvester envelope over random duty envelopes.

`run_envelope` jumps whole crossing-free periods in closed form and
walks the rest; on every preset its energy ledger must close, and on
the capacitor presets it must log the same events as stepping each
segment of every period with the public `step`.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from wifipower import harvester as hv
from wifipower.units import PowerDbm

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

channels = st.lists(
    st.tuples(st.floats(-16.0, -4.0), st.floats(0.05, 1.0)), min_size=1, max_size=3
)


def _stepped(cfg: hv.HarvesterConfig, segments, duration_s: float) -> hv.HarvesterState:
    """The envelope driven by `step`, one call per segment, cut at the end."""
    state = hv.new_state(cfg)
    left = duration_s
    while left > 1e-12:
        for dt, p in segments:
            tau = min(dt, left)
            if tau <= 0:
                break
            hv.step(state, p, tau, cfg)
            left -= tau
    return state


@SETTINGS
@given(preset=st.sampled_from(sorted(hv.PRESETS)), chans=channels,
       durations=st.lists(st.floats(0.003, 30.0), min_size=1, max_size=3))
def test_event_counts_equal_a_scan_of_the_events(preset, chans, durations):
    # counted at every append: `log`, the fire train and the battery's
    # run of fires; later runs resume mid-period from the state
    cfg = hv.PRESETS[preset]()
    segments = hv.duty_envelope([(PowerDbm(dbm), duty) for dbm, duty in chans])
    state = None
    for duration_s in durations:
        state = hv.run_envelope(cfg, segments, duration_s, state)
        assert state.counts == Counter(e for _, e, _ in state.events)
    stepped = _stepped(cfg, segments, durations[0])
    assert stepped.counts == Counter(e for _, e, _ in stepped.events)


@SETTINGS
@given(preset=st.sampled_from(sorted(hv.PRESETS)), chans=channels,
       duration_s=st.floats(5.0, 60.0))
def test_envelope_ledger_closes_and_matches_stepping(preset, chans, duration_s):
    cfg = hv.PRESETS[preset]()
    segments = hv.duty_envelope([(PowerDbm(dbm), duty) for dbm, duty in chans])
    state = hv.run_envelope(cfg, segments, duration_s)

    residue = (state.harvested_j - state.stored_j - state.consumed_j
               - state.leaked_j - state.curtailed_j)
    assert abs(residue) <= 1e-9 * state.harvested_j

    if isinstance(cfg.storage, hv.CapacitorStore):
        ref = _stepped(cfg, segments, duration_s)
        assert [e for _, e, _ in state.events] == [e for _, e, _ in ref.events]
        for (t, _, _), (t_ref, _, _) in zip(state.events, ref.events):
            assert abs(t - t_ref) <= 1e-9
