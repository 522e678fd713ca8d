"""Property tests of `mac._StationRt.pull_arrivals` against the
per-arrival admission loop it replaced.

The reference below admits one arrival (a burst of `per_step` frames)
per pass, the gate deciding frame by frame, and drops a shut-gate
flow's arrivals through `up_to` at once. The engine admits a whole run
of a flow's arrivals per pass, so the two must agree on every counter
after any sequence of pulls and head takes, ties between flows included.
"""

from operator import attrgetter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wifipower import mac

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def reference_gate_admits(queue_depth, gate_threshold):
    return gate_threshold is None or queue_depth < gate_threshold


def reference_drop_through(fl, up_to):
    spec = fl.spec
    last = int((up_to - spec.start_us) // spec.interval_us)
    while spec.start_us + (last + 1) * spec.interval_us <= up_to:
        last += 1
    while spec.start_us + last * spec.interval_us > up_to:
        last -= 1
    fl.stats.dropped_gate += (last + 1 - fl.emitted) * spec.frames_per_burst
    fl.emitted = last + 1


def reference_pull_arrivals(self, up_to):
    flows = self.flows
    queued = self.queued
    while True:
        best = flows[0]
        t_next = best.next_arrival
        for fl in flows:
            if fl.next_arrival < t_next:
                best = fl
                t_next = fl.next_arrival
        if t_next > up_to:
            self.queued = queued
            self.next_t = t_next
            return
        gate = best.spec.gate_threshold
        per_step = best.spec.frames_per_burst
        if reference_gate_admits(queued, gate):
            n = 1
            while n < per_step and reference_gate_admits(queued + n, gate):
                n += 1
            best.queued += n
            best.stats.admitted += n
            best.stats.dropped_gate += per_step - n
            queued += n
            best.emitted += 1
        else:
            reference_drop_through(best, up_to)
        best.next_arrival = best.spec.start_us + best.emitted * best.spec.interval_us


def take_head(station):
    """Take the next frame round-robin across flows, as the engine does."""
    flows = station.flows
    for k in range(len(flows)):
        fl = flows[(station.rr + k) % len(flows)]
        if fl.queued or fl.backlogged:
            station.rr = (station.rr + k + 1) % len(flows)
            if fl.queued:
                fl.queued -= 1
                station.queued -= 1
            return


@st.composite
def flow_specs(draw, grid, min_interval, station="s"):
    """Gated and ungated flows, bursts included, timed on a shared grid
    so that arrivals of different flows tie."""
    n = draw(st.integers(1, 4))
    flows = []
    for i in range(n):
        backlogged = draw(st.integers(0, 9)) == 0
        flows.append(mac.FlowSpec(
            name=f"{station}.f{i}",
            kind=draw(st.sampled_from(["client_data", "power_broadcast"])),
            interval_us=None if backlogged else grid * draw(st.integers(min_interval, 12)),
            start_us=grid * draw(st.integers(0, 20)),
            frames_per_burst=draw(st.sampled_from([1, 1, 2, 3, 7])),
            gate_threshold=draw(st.sampled_from([None, None, 1, 2, 5, 8])),
        ))
    return tuple(flows)


GRIDS = st.sampled_from([0.1, 0.5, 1.0, 2.5, 7.3])

COUNTERS = attrgetter("queued", "stats.admitted", "stats.dropped_gate", "emitted", "next_arrival")


def _state(station):
    flows = [COUNTERS(fl) for fl in station.flows]
    return station.queued, station.next_t, flows


@SETTINGS
@given(data=st.data(), grid=GRIDS)
def test_pull_arrivals_agrees_with_the_per_arrival_loop(data, grid):
    flows = data.draw(flow_specs(grid, min_interval=1))
    spec = mac.StationSpec("s", 1, flows=flows, is_ap=data.draw(st.booleans()))
    params = mac.MacParams()
    runs = mac._StationRt(spec, 0, params, mac.ChannelTrace(1, 1.0))
    ref = mac._StationRt(spec, 0, params, mac.ChannelTrace(1, 1.0))
    t = 0.0
    for _ in range(data.draw(st.integers(1, 25))):
        # land on grid points (ties with arrivals) or between them
        t += grid * data.draw(st.integers(0, 15)) + data.draw(st.sampled_from([0.0, 0.3]))
        runs.pull_arrivals(t)
        reference_pull_arrivals(ref, t)
        assert _state(runs) == _state(ref)
        for _ in range(data.draw(st.integers(0, 3))):
            for station in (runs, ref):
                take_head(station)
        assert _state(runs) == _state(ref)
    for fl in runs.flows:
        assert fl.stats.admitted + fl.stats.dropped_gate == fl.emitted * fl.spec.frames_per_burst


@settings(SETTINGS, max_examples=40)
@given(data=st.data(), grid=GRIDS)
def test_engine_traces_agree_with_the_per_arrival_loop(data, grid, monkeypatch):
    stations = [
        mac.StationSpec(sid, 6, flows=data.draw(flow_specs(grid * 10, 2, sid)), is_ap=sid == "s0")
        for sid in ("s0", "s1", "s2")[:data.draw(st.integers(1, 3))]
    ]
    runs = mac.run_mac(stations, duration_us=20_000.0, seed=4)
    calls = []

    def counted_reference(self, up_to):
        calls.append(up_to)
        reference_pull_arrivals(self, up_to)

    with monkeypatch.context() as m:
        m.setattr(mac._StationRt, "pull_arrivals", counted_reference)
        # run_mac keeps its last result: clear it so the reference loop runs
        mac._simulate.cache_clear()
        ref = mac.run_mac(stations, duration_us=20_000.0, seed=4)
    # s0's beacons arrive from 0 on, and every arrival is counted
    # through pull_arrivals, so the reference must have run
    assert calls
    assert mac.export_trace(runs.values()) == mac.export_trace(ref.values())
    assert ({ch: tr.flow_stats for ch, tr in runs.items()}
            == {ch: tr.flow_stats for ch, tr in ref.items()})


def test_a_flow_listed_first_goes_first_at_a_tie_on_the_pull_instant():
    # at t = 4 both flows arrive: "j", listed first, meets depth 2 below its
    # threshold 3 and is admitted before "b" raises the depth to 4
    flows = (
        mac.FlowSpec("j", "power_broadcast", interval_us=4.0, start_us=4.0, gate_threshold=3),
        mac.FlowSpec("b", "client_data", interval_us=2.0),
    )
    station = mac._StationRt(mac.StationSpec("s", 1, flows=flows), 0, mac.MacParams(),
                             mac.ChannelTrace(1, 1.0))
    station.pull_arrivals(4.0)
    j, b = (fl.stats for fl in station.flows)
    assert (j.admitted, j.dropped_gate, b.admitted, station.queued) == (1, 0, 3, 4)


@pytest.mark.parametrize("frames, depth, threshold", [(1, 0, 5), (9, 3, 5), (4, 7, 5), (6, 2, None)])
def test_a_run_admits_what_frame_by_frame_admission_admits(frames, depth, threshold):
    one_by_one = 0
    for _ in range(frames):
        one_by_one += reference_gate_admits(depth + one_by_one, threshold)
    assert mac.gate_admits(depth, threshold, frames) == one_by_one
