"""Property test of `mac.run_mac` against the per-frame engine it replaced.

The reference below is the per-frame loop kept verbatim: every round
rescans every station (`reference_ready_at`), takes a head by
round-robin (`reference_take_head`), and sends a continued broadcast
one frame per pass. The engine takes a broadcast run in one loop and
chooses heads inline, so the two must write the same trace and the same
flow counters on every channel mix: a lone broadcaster, gated power
flows paced both faster and slower than their airtime, beacons, CBR
stations that start mid-run, and windows that end mid-run.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from wifipower import mac

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def reference_take_head(self, t):
    flows = self.flows
    n = len(flows)
    i = self.rr
    for _ in range(n):
        fl = flows[i]
        i += 1
        if i == n:
            i = 0
        if fl.queued or fl.backlogged:
            self.rr = i
            if fl.queued:
                fl.queued -= 1
                self.queued -= 1
            self.head = fl
            self.ready_since = t
            self.retries = 0
            return


def reference_ready_at(stations, t):
    ready = []
    t_arr = math.inf
    for st in stations:
        if st.head is None:
            if st.next_t <= t:
                st.pull_arrivals(t)
            if not (st.queued or st.backlogged):
                if st.next_t < t_arr:
                    t_arr = st.next_t
                continue
            reference_take_head(st, t)
        ready.append(st)
    return ready, t_arr


def reference_run_channel(channel, specs, duration_us, params, seed):
    trace = mac.ChannelTrace(channel=channel, duration_us=duration_us)
    stations = [mac._StationRt(s, seed, params, trace) for s in specs]
    append_start = trace.starts.append
    append_code = trace.codes.append
    difs = params.difs_us
    slot = params.slot_us
    t = 0.0
    last_broadcaster = None

    while t < duration_us:
        ready, t_arr = reference_ready_at(stations, t)
        if not ready:
            t = t_arr
            last_broadcaster = None
            if t >= duration_us:
                break
            continue

        if len(ready) == 1 and ready[0] is last_broadcaster and ready[0].head.broadcast:
            winners = ready
            t_start = t
        else:
            while True:
                t_win = math.inf
                for st in ready:
                    if st.backoff_slots is None:
                        st.backoff_slots = st.draw_backoff()
                    origin = t if t >= st.ready_since else st.ready_since
                    e = st.expiry = origin + difs + st.backoff_slots * slot
                    if e < t_win:
                        t_win = e
                if t_arr < t_win and t_arr < duration_us:
                    ready, t_arr = reference_ready_at(stations, t_arr)
                    continue
                break
            if t_win >= duration_us:
                break
            winners = []
            for st in ready:
                if st.expiry == t_win:
                    winners.append(st)
                else:
                    origin = t if t >= st.ready_since else st.ready_since
                    consumed = int((t_win - origin - difs) / slot)
                    if consumed > 0:
                        left = st.backoff_slots - consumed
                        st.backoff_slots = left if left > 0 else 0
            t_start = t_win

        collision = len(winners) > 1
        busy_end = t_start
        for st in winners:
            fl = st.head
            busy = fl.busy[collision]
            append_start(t_start)
            append_code(fl.codes[collision])
            if t_start + busy > busy_end:
                busy_end = t_start + busy
            st.backoff_slots = None
            if not collision:
                fl.stats.delivered += 1
                st.head = None
                st.cw = params.cw_min
            elif fl.broadcast:
                fl.stats.lost += 1
                st.head = None
            else:
                st.retries += 1
                if st.retries > params.retry_limit:
                    fl.stats.lost += 1
                    st.head = None
                    st.cw = params.cw_min
                else:
                    st.cw = min(2 * st.cw + 1, params.cw_max)

        t = busy_end
        last_broadcaster = st if not collision and fl.broadcast else None

    last_instant = math.nextafter(duration_us, -math.inf)
    for st in stations:
        if st.next_t <= last_instant:
            st.pull_arrivals(last_instant)
    return trace


def reference_run_mac(stations, duration_us, seed):
    params = mac.MacParams()
    return {
        ch: reference_run_channel(ch, [s for s in stations if s.channel == ch],
                                  duration_us, params, seed)
        for ch in mac.VALID_CHANNELS
        if any(s.channel == ch for s in stations)
    }


@st.composite
def power_flow(draw, name):
    """A power-broadcast source: backlogged, or paced at a fraction of
    its own busy time (below 1 its queue fills, above 1 it empties
    between frames), gated or not."""
    size = draw(st.sampled_from([100, 600, 1500]))
    rate = draw(st.sampled_from([6.0, 24.0, 54.0]))
    if draw(st.integers(0, 3)) == 0:
        return mac.FlowSpec(name, "power_broadcast", size_bytes=size, rate_mbps=rate)
    busy_us = mac.MacParams().phy_overhead_us + mac.payload_airtime_us(size, rate)
    return mac.FlowSpec(
        name, "power_broadcast", size_bytes=size, rate_mbps=rate,
        interval_us=busy_us * draw(st.sampled_from([0.3, 0.9, 1.0, 1.1, 2.5, 40.0])),
        start_us=draw(st.sampled_from([0.0, 137.0, 4000.0])),
        frames_per_burst=draw(st.sampled_from([1, 1, 3])),
        gate_threshold=draw(st.sampled_from([None, 1, 2, 5])),
    )


@st.composite
def data_flow(draw, name):
    """A CBR unicast source, often starting in the middle of the window."""
    kind = draw(st.sampled_from(["client_data", "neighbor_data"]))
    target_mbps = draw(st.sampled_from([0.5, 2.0, 8.0, 30.0]))
    size = draw(st.sampled_from([200, 1500]))
    return mac.FlowSpec(
        name, kind, size_bytes=size, interval_us=size * 8.0 / target_mbps,
        start_us=draw(st.sampled_from([0.0, 2500.0, 9000.5])),
    )


@st.composite
def channel_mixes(draw):
    """One to four stations on a channel; the first one always carries
    power broadcasts, and is alone on the channel in some mixes."""
    stations = []
    for i in range(draw(st.integers(1, 4))):
        sid = f"s{i}"
        flows = [draw(power_flow(f"{sid}.p"))] if i == 0 or draw(st.booleans()) else []
        for j in range(draw(st.integers(0 if flows else 1, 2))):
            flows.append(draw(data_flow(f"{sid}.d{j}")))
        if draw(st.integers(0, 4)) == 0:
            flows.reverse()  # a data flow listed first wins a tie at the gate
        stations.append(mac.StationSpec(sid, 6, flows=tuple(flows), is_ap=draw(st.booleans())))
    return stations


def assert_agrees(stations, duration_us, seed):
    mac._simulate.cache_clear()
    runs = mac.run_mac(stations, duration_us=duration_us, seed=seed)
    ref = reference_run_mac(stations, duration_us, seed)
    assert mac.export_trace(runs.values()) == mac.export_trace(ref.values())
    assert ({ch: tr.flow_stats for ch, tr in runs.items()}
            == {ch: tr.flow_stats for ch, tr in ref.items()})


@SETTINGS
@given(stations=channel_mixes(),
       duration_us=st.sampled_from([3_000.0, 12_345.6, 20_000.0]),
       seed=st.integers(0, 3))
def test_engine_agrees_with_the_per_frame_loop(stations, duration_us, seed):
    assert_agrees(stations, duration_us, seed)


def _lone_power(*extra_flows):
    # 1500 bytes at 24 Mbps hold the channel 524 us, so frame ends are exact
    power = mac.FlowSpec("r.p", "power_broadcast", size_bytes=1500, rate_mbps=24.0)
    return [mac.StationSpec("r", 6, flows=(power, *extra_flows))]


def _run_starts():
    return mac.run_mac(_lone_power(), duration_us=10_000.0, seed=2)[6].starts


@pytest.mark.parametrize("case", [
    "window_ends_at_a_frame_end", "station_arrives_at_a_frame_end",
    "flow_arrives_at_a_frame_end", "gate_meets_bursts_mid_run",
])
def test_engine_agrees_with_the_per_frame_loop_at_run_edges(case):
    duration_us = 10_000.0
    if case == "window_ends_at_a_frame_end":
        stations = _lone_power()
        duration_us = _run_starts()[12]
    elif case == "station_arrives_at_a_frame_end":
        late = mac.FlowSpec("n.d", "neighbor_data", interval_us=3000.0, start_us=_run_starts()[5])
        stations = _lone_power() + [mac.StationSpec("n", 6, flows=(late,))]
    elif case == "flow_arrives_at_a_frame_end":
        stations = _lone_power(mac.FlowSpec(
            "r.c", "client_data", interval_us=3000.0, start_us=_run_starts()[5]))
    else:
        # bursts of 7 meet a gate of 5, so the depth each burst sees
        # decides what it admits
        stations = [mac.StationSpec("r", 6, flows=(mac.FlowSpec(
            "r.p", "power_broadcast", interval_us=615.5, start_us=137.0,
            frames_per_burst=7, gate_threshold=5),))]
        duration_us = 12_345.6
    assert_agrees(stations, duration_us, seed=2)
