import dataclasses
import math
import random

import numpy as np
import pytest

from wifipower import mac, router
from wifipower.errors import ConfigError, TraceFormatError

from trace_helpers import trace_of


def make_random_trace(rng: random.Random, duration_us: int = 50_000) -> mac.ChannelTrace:
    """Non-overlapping frames with exact integer microsecond airtimes."""
    records = []
    t = float(rng.randrange(0, 200))
    while True:
        rate = rng.choice((1.0, 2.0))
        size = rng.randrange(50, 1500)
        airtime = size * 8.0 / rate  # integral by construction
        if t + airtime > duration_us:
            break
        records.append(
            mac.FrameRecord(
                t_start_us=t,
                channel=6,
                station_id="s",
                kind="power_broadcast",
                size_bytes=size,
                rate_mbps=rate,
                outcome=rng.choice(("delivered", "collided")),
                payload_airtime_us=airtime,
                busy_time_us=airtime,
                flow="s:power",
            )
        )
        t += airtime + rng.randrange(1, 400)
    return trace_of(6, float(duration_us), records)


def brute_force_busy_fraction(trace: mac.ChannelTrace) -> float:
    """Per-microsecond busy counting over the whole trace window."""
    n = int(trace.duration_us)
    busy = np.zeros(n, dtype=np.uint8)
    for r in trace.records:
        a = int(r.t_start_us)
        b = int(r.t_start_us + r.payload_airtime_us)
        busy[a:b] = 1
    return float(busy.sum()) / n


def test_payload_airtime_values():
    assert mac.payload_airtime_us(1500, 54.0) == pytest.approx(12000.0 / 54.0, rel=1e-15)
    assert mac.payload_airtime_us(1500, 1.0) == pytest.approx(12000.0)
    with pytest.raises(ConfigError):
        mac.payload_airtime_us(0, 54.0)
    with pytest.raises(ConfigError):
        mac.payload_airtime_us(1500, 13.0)


def test_occupancy_single_frame():
    tr = trace_of(6, 1_000_000.0, [
        mac.FrameRecord(100.0, 6, "r", "power_broadcast", 1500, 54.0,
                        "delivered", 12000.0 / 54.0, 12000.0 / 54.0 + 24.0, "f")
    ])
    assert mac.occupancy(tr, (0.0, 1_000_000.0)) == pytest.approx(0.000222, abs=1e-6)


def test_occupancy_empty_trace_and_window_validation():
    tr = mac.ChannelTrace(6, 1_000_000.0)
    assert mac.occupancy(tr, (0.0, 1_000_000.0)) == 0.0
    with pytest.raises(ConfigError):
        mac.occupancy(tr, (10.0, 10.0))


def test_occupancy_counts_frames_starting_in_window():
    rec = mac.FrameRecord(499_999.0, 6, "r", "power_broadcast", 1500, 54.0,
                          "delivered", 12000.0 / 54.0, 246.0, "f")
    tr = trace_of(6, 1_000_000.0, [rec])
    assert mac.occupancy(tr, (0.0, 500_000.0)) > 0
    assert mac.occupancy(tr, (500_000.0, 1_000_000.0)) == 0.0


def test_occupancy_matches_brute_force_oracle():
    rng = random.Random(7)
    for _ in range(200):
        tr = make_random_trace(rng)
        occ = mac.occupancy(tr, (0.0, tr.duration_us))
        assert abs(occ - brute_force_busy_fraction(tr)) < 1e-9


def test_airtime_fairness_ratio():
    # equal frame counts: airtime scales inversely with bit rate
    fast = mac.payload_airtime_us(1500, 54.0)
    slow = mac.payload_airtime_us(1500, 16.0)
    assert fast / slow == pytest.approx(16.0 / 54.0, rel=1e-12)


# -- engine behavior ---------------------------------------------------------

def powifi_flow(interval_us: float = 100.0) -> mac.FlowSpec:
    """The router's power source under PoWiFi: 1500 bytes at 54 Mbps,
    gated at a queue depth of 5."""
    return router.power_flow("PoWiFi", "r", interval_us, 1500, 5)


def run_single_backlogged(rate_mbps: float, seed: int = 1, dur: float = 5e6):
    flow = mac.FlowSpec(name="f", kind="neighbor_data", rate_mbps=rate_mbps)
    st = mac.StationSpec("a", 6, flows=(flow,))
    return mac.run_mac([st], duration_us=dur, seed=seed)[6]


def test_single_backlogged_low_rate_occupancy():
    # at 1 Mbps the 12 ms payload dwarfs contention overhead
    tr = run_single_backlogged(1.0)
    occ = mac.occupancy(tr, (0.0, tr.duration_us))
    assert occ > 0.97


def test_single_backlogged_cycle_accounting():
    # per-cycle accounting oracle: airtime / (airtime + difs + E[backoff]
    # + phy overhead + sifs + ack) for a unicast flow
    p = mac.MacParams()
    tr = run_single_backlogged(54.0)
    occ = mac.occupancy(tr, (0.0, tr.duration_us))
    airtime = 12000.0 / 54.0
    cycle = airtime + p.difs_us + 7.5 * p.slot_us + p.phy_overhead_us + p.sifs_us + p.ack_airtime_us
    assert occ == pytest.approx(airtime / cycle, rel=0.02)


def test_two_identical_backlogged_stations_fair():
    f1 = mac.FlowSpec(name="f1", kind="neighbor_data", rate_mbps=54.0)
    f2 = mac.FlowSpec(name="f2", kind="neighbor_data", rate_mbps=54.0)
    stations = [
        mac.StationSpec("a", 6, flows=(f1,)),
        mac.StationSpec("b", 6, flows=(f2,)),
    ]
    traces = mac.run_mac(stations, duration_us=10e6, seed=5)
    tr = traces[6]
    d1 = sum(1 for r in tr.records if r.flow == "f1" and r.outcome == "delivered")
    d2 = sum(1 for r in tr.records if r.flow == "f2" and r.outcome == "delivered")
    assert 0.9 < d1 / d2 < 1.1


def test_n_station_fairness():
    n = 4
    stations = [
        mac.StationSpec(
            f"s{i}", 6,
            flows=(mac.FlowSpec(name=f"f{i}", kind="neighbor_data", rate_mbps=54.0),),
        )
        for i in range(n)
    ]
    tr = mac.run_mac(stations, duration_us=10e6, seed=8)[6]
    counts = [
        sum(1 for r in tr.records if r.flow == f"f{i}" and r.outcome == "delivered")
        for i in range(n)
    ]
    mean = sum(counts) / n
    for c in counts:
        assert abs(c - mean) / mean < 0.10


def test_no_overlap_except_collisions():
    st1 = mac.StationSpec("r", 6, flows=(powifi_flow(),), is_ap=True)
    f2 = mac.FlowSpec(name="n", kind="neighbor_data", rate_mbps=24.0)
    st2 = mac.StationSpec("n", 6, flows=(f2,))
    tr = mac.run_mac([st1, st2], duration_us=5e6, seed=3)[6]
    events = sorted(tr.records, key=lambda r: r.t_start_us)
    for a, b in zip(events, events[1:]):
        overlapping = b.t_start_us < a.t_start_us + a.busy_time_us - 1e-9
        if overlapping:
            assert a.outcome == "collided" and b.outcome == "collided"
            assert a.t_start_us == b.t_start_us
    assert any(r.outcome == "collided" for r in events)


def test_collided_broadcasts_are_lost_not_retried():
    st1 = mac.StationSpec("r", 6, flows=(powifi_flow(),), is_ap=True)
    f2 = mac.FlowSpec(name="n", kind="neighbor_data", rate_mbps=54.0)
    st2 = mac.StationSpec("n", 6, flows=(f2,))
    tr = mac.run_mac([st1, st2], duration_us=5e6, seed=3)[6]
    stats = tr.flow_stats["r.power"]
    collided_power = sum(
        1 for r in tr.records if r.flow == "r.power" and r.outcome == "collided"
    )
    assert collided_power > 0
    assert stats.lost == collided_power



# The back-to-back rule, 1500 B at 54 Mbps: a station whose last frame
# was a delivered broadcast, whose next frame is a broadcast and which
# faces no other contender sends at once; every other frame waits at
# least DIFS after the medium goes idle.
B2B = mac.MacParams()
B2B_BROADCAST_US = B2B.phy_overhead_us + 12000.0 / 54.0
B2B_UNICAST_US = B2B_BROADCAST_US + B2B.sifs_us + B2B.ack_airtime_us


def b2b_trace(flows_by_station, window_us: float) -> mac.ChannelTrace:
    stations = [mac.StationSpec(sid, 6, flows=flows) for sid, flows in flows_by_station]
    return mac.run_mac(stations, duration_us=window_us, seed=1)[6]


def broadcast(name: str, **kw) -> mac.FlowSpec:
    return mac.FlowSpec(name=name, kind="power_broadcast", **kw)


def test_lone_backlogged_broadcaster_sends_back_to_back():
    starts = list(b2b_trace([("a", (broadcast("a.p"),))], 20_000.0).starts)
    assert len(starts) == 81
    assert starts[0] >= B2B.difs_us
    for prev, t in zip(starts, starts[1:]):
        assert t == prev + B2B_BROADCAST_US


def test_paced_broadcaster_contends_after_an_idle_gap():
    # its queue empties after each frame, so each frame waits DIFS anew
    starts = list(b2b_trace([("a", (broadcast("a.p", interval_us=1000.0),))], 20_000.0).starts)
    assert len(starts) == 20
    for k, t in enumerate(starts):
        assert t >= k * 1000.0 + B2B.difs_us


def test_two_backlogged_broadcasters_never_send_back_to_back():
    tr = b2b_trace([("a", (broadcast("a.p"),)), ("b", (broadcast("b.p"),))], 50_000.0)
    starts = sorted(set(tr.starts))
    assert len(starts) == 162
    assert sum(1 for r in tr.records if r.outcome == "collided") == 18
    for prev, t in zip(starts, starts[1:]):
        assert t >= prev + B2B_BROADCAST_US + B2B.difs_us


def test_broadcast_after_a_delivered_unicast_contends():
    unicast = mac.FlowSpec(name="a.u", kind="client_data", interval_us=2000.0)
    records = list(b2b_trace([("a", (unicast, broadcast("a.p")))], 20_000.0).records)
    pairs = list(zip(records, records[1:]))
    assert any(a.kind == "client_data" and b.kind == "power_broadcast" for a, b in pairs)
    assert any(a.kind == b.kind == "power_broadcast" for a, b in pairs)
    for a, b in pairs:
        assert a.outcome == "delivered"
        if a.kind == b.kind == "power_broadcast":
            assert b.t_start_us == a.t_start_us + B2B_BROADCAST_US
        else:
            busy = B2B_UNICAST_US if a.kind == "client_data" else B2B_BROADCAST_US
            assert b.t_start_us >= a.t_start_us + busy + B2B.difs_us

def test_determinism_and_seed_sensitivity():
    tr_a = run_single_backlogged(54.0, seed=11)
    # run_mac keeps its last result: clear it so the second run simulates too
    mac._simulate.cache_clear()
    tr_b = run_single_backlogged(54.0, seed=11)
    assert [r.t_start_us for r in tr_a.records] == [r.t_start_us for r in tr_b.records]
    tr_c = run_single_backlogged(54.0, seed=12)
    assert [r.t_start_us for r in tr_a.records] != [r.t_start_us for r in tr_c.records]


MEMO_FLOW = mac.FlowSpec(name="r.power", kind="power_broadcast", interval_us=100.0,
                         gate_threshold=5)
MEMO_INPUT = dict(
    stations=(mac.StationSpec("r", 6, flows=(MEMO_FLOW,), is_ap=True),
              mac.StationSpec("n", 6, flows=(mac.FlowSpec(name="n", kind="neighbor_data"),))),
    duration_us=50_000.0, params=mac.MacParams(), seed=3,
)


def trace_state(traces):
    return {ch: (list(tr.starts), list(tr.codes), list(tr.rows), dict(tr._code_of),
                 tr.duration_us, {k: dataclasses.replace(v) for k, v in tr.flow_stats.items()})
            for ch, tr in traces.items()}


def test_run_mac_keeps_its_last_result():
    first = mac.run_mac(**MEMO_INPUT)
    # an equal input built anew is the same key
    again = mac.run_mac(**{**MEMO_INPUT, "stations": list(MEMO_INPUT["stations"])})
    assert mac._simulate.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert trace_state(again) == trace_state(first)
    assert again[6] is not first[6]


def test_run_mac_returns_traces_the_caller_owns():
    first = mac.run_mac(**MEMO_INPUT)
    want = trace_state(first)
    tr = first[6]
    tr.starts[0] = -1.0
    tr.codes[0] += 1
    tr.code(mac.FrameRow(6, "x", "beacon", 300, 1.0, "delivered", 2400.0, 2424.0, "x"))
    tr.flow_stats["r.power"].delivered += 1000
    del tr.flow_stats["n"]
    tr.duration_us = 1.0
    again = mac.run_mac(**MEMO_INPUT)
    assert mac._simulate.cache_info().hits == 1
    assert trace_state(again) == want


@pytest.mark.parametrize("change", [
    dict(seed=4),
    dict(duration_us=50_001.0),
    dict(params=mac.MacParams(retry_limit=6)),
    dict(stations=(dataclasses.replace(
        MEMO_INPUT["stations"][0],
        flows=(dataclasses.replace(MEMO_FLOW, gate_threshold=6),)),
        MEMO_INPUT["stations"][1])),
], ids=["seed", "window", "mac_params", "flow_field"])
def test_run_mac_misses_when_any_input_changes(change):
    mac.run_mac(**MEMO_INPUT)
    changed = mac.run_mac(**{**MEMO_INPUT, **change})
    assert mac._simulate.cache_info()[:2] == (0, 2)
    mac._simulate.cache_clear()
    assert trace_state(changed) == trace_state(mac.run_mac(**{**MEMO_INPUT, **change}))


@pytest.mark.parametrize("bad", [
    dict(duration_us=0.0),
    dict(stations=MEMO_INPUT["stations"] * 2),
    dict(stations=(mac.StationSpec("r", 6, flows=(
        dataclasses.replace(MEMO_FLOW, interval_us=1e-300),)),)),
], ids=["window", "repeated_id", "too_many_arrivals"])
def test_run_mac_checks_a_bad_input_on_every_call(bad):
    mac.run_mac(**MEMO_INPUT)
    for _ in range(2):
        with pytest.raises(ConfigError):
            mac.run_mac(**{**MEMO_INPUT, **bad})
    assert mac._simulate.cache_info()[:2] == (0, 1)


def test_station_substreams_independent_of_other_channels():
    # adding stations on other channels must not perturb this channel
    f = mac.FlowSpec(name="f", kind="neighbor_data", rate_mbps=54.0)
    base = [mac.StationSpec("a", 6, flows=(f,))]
    extra = base + [
        mac.StationSpec("z", 1, flows=(mac.FlowSpec(
            name="z", kind="neighbor_data", rate_mbps=54.0),))
    ]
    tr1 = mac.run_mac(base, duration_us=2e6, seed=4)[6]
    tr2 = mac.run_mac(extra, duration_us=2e6, seed=4)[6]
    assert [r.t_start_us for r in tr1.records] == [r.t_start_us for r in tr2.records]


def test_mac_params_invariants():
    # DIFS is SIFS plus two slots, whatever the slot
    assert mac.MacParams().difs_us == 28.0
    assert mac.MacParams(slot_us=20.0).difs_us == 50.0  # the 802.11b slot
    with pytest.raises(ConfigError):
        mac.MacParams(cw_min=14)


def test_invalid_station_config_rejected():
    with pytest.raises(ConfigError):
        mac.StationSpec("a", 2)  # not a usable channel
    with pytest.raises(ConfigError):
        mac.StationSpec("", 6)
    f = mac.FlowSpec(name="f", kind="neighbor_data", rate_mbps=54.0)
    with pytest.raises(ConfigError):
        mac.run_mac([mac.StationSpec("a", 6, flows=(f,))] * 2, duration_us=1e6)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("interval_us", [100.0, 70.0, 33.3])
def test_every_arrival_in_the_window_is_admitted_or_dropped(seed, interval_us):
    # the arrivals after the engine's last event count too
    window = 300_000.0
    neighbor = mac.FlowSpec(name="n", kind="neighbor_data")
    stations = [
        mac.StationSpec("r", 6, flows=(powifi_flow(interval_us),), is_ap=True),
        mac.StationSpec("n", 6, flows=(neighbor,)),
    ]
    stats = mac.run_mac(stations, duration_us=window, seed=seed)[6].flow_stats["r.power"]
    assert stats.dropped_gate > 0
    assert stats.admitted + stats.dropped_gate == math.ceil(window / interval_us)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("power_us, cbr_us", [(100.0, 250.0), (33.3, 333.3)])
def test_arrival_identity_holds_for_flows_losing_contention(seed, power_us, cbr_us):
    # A router with a frame in service pulls its arrivals only once it is
    # idle again; the gate must still see every arrival in the window.
    window = 300_000.0
    cbr = mac.FlowSpec(name="c", kind="client_data", interval_us=cbr_us)
    neighbor = mac.FlowSpec(name="n", kind="neighbor_data")
    stations = [
        mac.StationSpec("r", 6, flows=(powifi_flow(power_us), cbr), is_ap=True),
        mac.StationSpec("n", 6, flows=(neighbor,)),
        mac.StationSpec("m", 6, flows=(neighbor,)),
    ]
    tr = mac.run_mac(stations, duration_us=window, seed=seed)[6]
    power, client = tr.flow_stats["r.power"], tr.flow_stats["c"]
    assert power.dropped_gate > 0
    assert client.delivered < client.admitted  # the router's queue backs up
    assert power.admitted + power.dropped_gate == math.ceil(window / power_us)
    assert client.dropped_gate == 0
    assert client.admitted == math.ceil(window / cbr_us)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_backoff_draw_is_the_randrange_stream(seed):
    st = mac._StationRt(mac.StationSpec("s", 6), seed, mac.MacParams(), mac.ChannelTrace(6, 1.0))
    ref = random.Random(mac.station_seed(seed, "s"))
    order = random.Random(seed)
    cws = [(1 << k) - 1 for k in range(4, 11)]  # 15, 31, ..., 1023
    for _ in range(2000):
        st.cw = order.choice(cws)
        assert st.draw_backoff() == ref.randrange(st.cw + 1)


def test_gate_threshold_semantics():
    assert mac.gate_admits(4, 5) == 1
    # at-or-above the threshold drops
    assert mac.gate_admits(5, 5) == 0
    assert mac.gate_admits(0, 5) == 1


def test_gate_disabled_admits_everything():
    assert mac.gate_admits(10_000, None) == 1


def test_gate_monotone_in_depth():
    admits = [mac.gate_admits(d, 5) for d in range(12)]
    # once dropping starts it never resumes at higher depth
    assert admits == sorted(admits, reverse=True)


def test_oversized_data_flow_rejected_at_the_spec():
    with pytest.raises(ConfigError, match="1500 bytes"):
        mac.FlowSpec(name="f", kind="client_data", size_bytes=1501)
    mac.FlowSpec(name="p", kind="power_broadcast", size_bytes=2000)


def test_beacons_present_for_ap():
    st = mac.StationSpec("ap", 6, flows=(), is_ap=True)
    tr = mac.run_mac([st], duration_us=1e6, seed=2)[6]
    beacons = [r for r in tr.records if r.kind == "beacon"]
    # one beacon every 102.4 ms
    assert len(beacons) == 10
    assert beacons[0].size_bytes == 300
    assert beacons[0].rate_mbps == 1.0


# -- trace export / import ---------------------------------------------------

def test_trace_round_trip():
    tr = run_single_backlogged(54.0, dur=1e6)
    text = mac.export_trace([tr])
    parsed = mac.parse_trace(text, duration_us=tr.duration_us)
    back = parsed[6]
    assert len(back.records) == len(tr.records)
    for a, b in zip(tr.records, back.records):
        assert b.t_start_us == a.t_start_us
        assert b.size_bytes == a.size_bytes
        assert b.rate_mbps == a.rate_mbps
        assert b.outcome == a.outcome
    w = (0.0, tr.duration_us)
    assert mac.occupancy(back, w) == pytest.approx(mac.occupancy(tr, w), rel=1e-12)


def formatted_one_by_one(traces) -> str:
    lines = [f"{r.t_start_us!r},{r.channel},{r.station_id},{r.kind},"
             f"{r.size_bytes},{r.rate_mbps:g},{r.outcome}"
             for tr in sorted(traces, key=lambda x: x.channel) for r in tr.records]
    return "\n".join(lines) + ("\n" if lines else "")


def contended_traces(seed: int) -> dict:
    def ap(sid, ch, *flows):
        return mac.StationSpec(sid, ch, flows=flows, is_ap=True)

    stations = [
        ap("r1", 1, mac.FlowSpec(name="r1.power", kind="power_broadcast",
                                 interval_us=100.0, gate_threshold=5),
           mac.cbr_flow_for_target("c1", "client_data", 6.0, rate_mbps=24.0)),
        ap("n1", 1, mac.FlowSpec(name="n1", kind="neighbor_data",
                                 size_bytes=900, rate_mbps=5.5)),
        ap("n2", 11, mac.FlowSpec(name="n2", kind="neighbor_data",
                                  frames_per_burst=4, interval_us=20_000.0, rate_mbps=11.0)),
        ap("n3", 11, mac.cbr_flow_for_target("n3", "neighbor_data", 3.0, rate_mbps=1.0)),
    ]
    return mac.run_mac(stations, duration_us=300_000.0, seed=seed)


@pytest.mark.parametrize("seed", [1, 2])
def test_export_trace_equals_line_by_line_format(seed):
    traces = contended_traces(seed)
    assert any(r.outcome == "collided" for tr in traces.values() for r in tr.records)
    text = mac.export_trace(traces.values())
    assert text == formatted_one_by_one(traces.values())
    # channel order does not depend on the order traces are given in
    assert mac.export_trace(reversed(list(traces.values()))) == text
    parsed = mac.parse_trace(text)
    assert mac.export_trace(parsed.values()) == formatted_one_by_one(parsed.values())
    rng = random.Random(seed)
    rand = make_random_trace(rng)
    assert mac.export_trace([rand]) == formatted_one_by_one([rand])
    assert mac.export_trace([]) == ""
    assert mac.export_trace([mac.ChannelTrace(6, 1.0)]) == ""


def test_engine_builds_no_frame_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the engine built a FrameRecord")

    want = {ch: (list(tr.starts), [tr.rows[c] for c in tr.codes])
            for ch, tr in contended_traces(1).items()}
    monkeypatch.setattr(mac, "FrameRecord", refuse)
    # run_mac keeps its last result: clear it so the engine runs again
    mac._simulate.cache_clear()
    traces = contended_traces(1)
    assert {ch: (list(tr.starts), [tr.rows[c] for c in tr.codes])
            for ch, tr in traces.items()} == want
    assert sum(len(tr.starts) for tr in traces.values()) > 100


def test_records_view_rebuilds_each_record():
    recs = [
        mac.FrameRecord(0.5, 6, "a", "beacon", 300, 1.0, "delivered", 2400.0, 2424.0, "a.beacon"),
        mac.FrameRecord(3000.0, 6, "b", "client_data", 1500, 54.0, "collided", 1.5, 2.5),
        mac.FrameRecord(3100.0, 6, "a", "beacon", 300, 1.0, "delivered", 2400.0, 2424.0, "a.beacon"),
    ]
    tr = trace_of(6, 5000.0, recs)
    assert len(tr.records) == 3
    assert list(tr.records) == recs
    assert len(tr.rows) == 2 and list(tr.codes) == [0, 1, 0]


def test_parse_trace_sorts_each_channel_stably():
    text = ("30.5,6,b,beacon,300,1,delivered\n"
            "1.25,6,a,beacon,300,1,collided\n"
            "30.5,6,a,beacon,300,1,delivered\n"
            "7.0,1,c,beacon,300,1,delivered\n")
    parsed = mac.parse_trace(text)
    assert [(r.t_start_us, r.station_id) for r in parsed[6].records] == [
        (1.25, "a"), (30.5, "b"), (30.5, "a")]
    assert [r.channel for r in parsed[1].records] == [1]
    assert parsed[1].duration_us == parsed[6].duration_us == 30.5 + 2400.0


def test_parse_trace_errors_carry_line_numbers():
    with pytest.raises(TraceFormatError, match="line 2"):
        mac.parse_trace("0.0,6,s,beacon,300,1,delivered\nnot,a,line\n")
    with pytest.raises(TraceFormatError, match="unknown rate token"):
        mac.parse_trace("0.0,6,s,beacon,300,13,delivered\n")
    with pytest.raises(TraceFormatError, match="unknown frame kind"):
        mac.parse_trace("0.0,6,s,mystery,300,1,delivered\n")
    with pytest.raises(TraceFormatError, match="line 2: start time '-3000.0'"):
        mac.parse_trace("0.0,6,s,beacon,300,1,delivered\n-3000.0,6,s,beacon,300,1,delivered\n")


def test_parse_trace_concatenated_channels_cumulative():
    lines = [
        "0.0,1,r,power_broadcast,1500,54,delivered",
        "0.0,6,r,power_broadcast,1500,54,delivered",
        "0.0,11,r,power_broadcast,1500,54,delivered",
    ]
    traces = mac.parse_trace("\n".join(lines), duration_us=1_000_000.0)
    w = (0.0, 1_000_000.0)
    assert sorted(traces) == [1, 6, 11]
    assert [mac.occupancy(tr, w) for tr in traces.values()] == [1500 * 8.0 / 54.0 / 1e6] * 3


def _bianchi_mbps(n: int, params: mac.MacParams, size_bytes: int, rate_mbps: float) -> float:
    """Saturation throughput of n stations under Bianchi's DCF model with
    a finite retry limit (G. Bianchi, IEEE JSAC 18(3), 2000): stage i
    draws from W_i = min((cw_min + 1) 2^i, cw_max + 1) slots, a frame
    gets retry_limit + 1 attempts, and the collision probability p and
    attempt probability tau solve p = 1 - (1 - tau)^(n - 1)."""
    windows = [min((params.cw_min + 1) * 2**i, params.cw_max + 1)
               for i in range(params.retry_limit + 1)]
    payload = size_bytes * 8.0 / rate_mbps
    t_collided = params.phy_overhead_us + payload + params.difs_us
    t_success = t_collided + params.sifs_us + params.ack_airtime_us
    lo, hi = 0.0, 1.0
    for _ in range(100):  # bisect p: the right side falls as p grows
        p = (lo + hi) / 2
        tau = (sum(p**i for i in range(len(windows)))
               / sum(p**i * (w + 1) / 2 for i, w in enumerate(windows)))
        lo, hi = (p, hi) if 1 - (1 - tau) ** (n - 1) > p else (lo, p)
    p_busy = 1 - (1 - tau) ** n
    p_success = n * tau * (1 - tau) ** (n - 1)
    slot_us = ((1 - p_busy) * params.slot_us + p_success * t_success
               + (p_busy - p_success) * t_collided)
    return p_success * size_bytes * 8.0 / slot_us


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 50])
def test_saturated_throughput_matches_bianchi(n):
    # n backlogged stations, no access point: CW doubling, the retry
    # limit and slot freezing against an outside model, within 3%
    params = mac.MacParams()
    window_us = 5e6
    want = _bianchi_mbps(n, params, 1500, 54.0)
    specs = [mac.StationSpec(f"s{k}", 1, (mac.FlowSpec(f"s{k}", "client_data"),))
             for k in range(n)]
    for seed in (1, 2, 3):
        tr = mac.run_mac(specs, window_us, params, seed)[1]
        bits = mac.channel_sums(tr, (), window_us, window_us).bits
        got = sum(series[0] for series in bits.values()) / window_us
        assert got == pytest.approx(want, rel=0.03)
