import pytest

from wifipower import mac, router
from wifipower.errors import ConfigError

from trace_helpers import trace_of


def scheme_flow(name, delay_us=100.0, size_bytes=1500, queue_threshold=5, rate=None):
    return router.power_flow(name, "r", delay_us, size_bytes, queue_threshold, rate)


def test_policy_validation():
    with pytest.raises(ConfigError):
        scheme_flow("PoWiFi", delay_us=0.0)
    with pytest.raises(ConfigError):
        scheme_flow("PoWiFi", queue_threshold=0)


def test_power_flow_parameters():
    pol = scheme_flow("PoWiFi")
    assert pol.name == "r.power"
    assert pol.kind == "power_broadcast"
    assert pol.rate_mbps == 54.0
    assert pol.gate_threshold == 5
    assert pol.interval_us == 100.0
    assert pol.size_bytes == 1500
    assert pol.frames_per_burst == 1

    assert scheme_flow("Baseline") is None

    blind = scheme_flow("BlindUDP")
    assert blind.rate_mbps == 1.0
    assert blind.gate_threshold is None

    nq = scheme_flow("NoQueue")
    assert nq.rate_mbps == 54.0
    assert nq.gate_threshold is None

    slow = scheme_flow("PoWiFiSlow")
    assert slow.interval_us == 500.0
    assert slow.gate_threshold == 5

    eq = scheme_flow("EqualShare", rate=24.0)
    assert eq.rate_mbps == 24.0
    assert eq.gate_threshold is None

    # the operator's settings pass through; PoWiFiSlow keeps its own delay
    pol = scheme_flow("PoWiFi", delay_us=250.0, size_bytes=600, queue_threshold=3)
    assert (pol.interval_us, pol.size_bytes, pol.gate_threshold) == (250.0, 600, 3)
    assert scheme_flow("PoWiFiSlow", delay_us=250.0).interval_us == 500.0


def test_equal_share_without_rate_is_an_error():
    with pytest.raises(ConfigError):
        scheme_flow("EqualShare")


def test_throughput_series_single_frame():
    rec = mac.FrameRecord(1000.0, 1, "r", "client_data", 1500, 54.0,
                          "delivered", 12000.0 / 54.0, 300.0, "iperf")
    tr = trace_of(1, 500_000.0, [rec])
    series = router.throughput_series(tr, "iperf", bin_ms=500.0)
    assert len(series) == 1
    assert series[0] == pytest.approx(0.024)


def test_throughput_series_tail_bin_reads_its_length_in_the_window():
    # 750 ms in 500 ms bins: a second bin of 250 ms holds the tail
    rec = mac.FrameRecord(600_000.0, 1, "r", "client_data", 1500, 54.0,
                          "delivered", 12000.0 / 54.0, 300.0, "iperf")
    tr = trace_of(1, 750_000.0, [rec])
    assert router.throughput_series(tr, "iperf", bin_ms=500.0) == [0.0, 12000.0 / 250_000.0]


def test_throughput_series_empty():
    tr = mac.ChannelTrace(1, 1_000_000.0)
    assert router.throughput_series(tr, "iperf") == [0.0, 0.0]


def test_throughput_series_excludes_collided_and_other_flows():
    recs = [
        mac.FrameRecord(0.0, 1, "r", "client_data", 1500, 54.0,
                        "collided", 222.2, 246.2, "iperf"),
        mac.FrameRecord(500.0, 1, "r", "client_data", 1500, 54.0,
                        "delivered", 222.2, 300.0, "other"),
    ]
    tr = trace_of(1, 500_000.0, recs)
    assert router.throughput_series(tr, "iperf") == [0.0]


def test_gate_admission_monotone_under_client_load():
    # heavier client load leaves fewer admission slots for power packets
    admitted = []
    for target in (5.0, 15.0, 30.0, 54.0):
        client = mac.cbr_flow_for_target("c", "client_data", target)
        st = mac.StationSpec("r", 1, flows=(client, scheme_flow("PoWiFi")), is_ap=True)
        tr = mac.run_mac([st], duration_us=5e6, seed=2)[1]
        admitted.append(tr.flow_stats["r.power"].admitted)
    assert admitted == sorted(admitted, reverse=True)


def test_burst_completion_times():
    flow = mac.FlowSpec(name="web", kind="client_data",
                        rate_mbps=54.0, frames_per_burst=20,
                        interval_us=500_000.0)
    st = mac.StationSpec("r", 1, flows=(flow,), is_ap=True)
    tr = mac.run_mac([st], duration_us=5e6, seed=6)[1]
    comps = router.burst_completion_times_ms(tr, flow, 7)
    assert len(comps) == 10
    # a 20-frame burst at 54 Mbps takes on the order of 8 ms alone
    assert all(5.0 < c < 15.0 for c in comps)


def test_burst_completion_times_count_from_the_burst_start():
    # a station alone on the channel (no AP beacons) sends each burst the
    # same way whenever the bursts start, so the times must not move
    comps = {}
    for start_us in (0.0, 50_000.0):
        flow = mac.FlowSpec(name="web", kind="client_data", rate_mbps=54.0,
                            frames_per_burst=20, interval_us=500_000.0, start_us=start_us)
        tr = mac.run_mac([mac.StationSpec("r", 1, flows=(flow,))], duration_us=2e6, seed=6)[1]
        comps[start_us] = router.burst_completion_times_ms(tr, flow, 7)
    assert len(comps[0.0]) == 4
    assert all(5.0 < c < 15.0 for c in comps[50_000.0])
    assert comps[50_000.0] == pytest.approx(comps[0.0], abs=1e-9)


def test_a_burst_that_lost_a_frame_is_skipped():
    # two-frame bursts every 1000 us with one retry: the first frame takes
    # two collisions and is lost, so burst 0 is frames 0-1 and never
    # completes; burst 1 is frames 2-3, done at 1300 us; burst 2 is cut off
    flow = mac.FlowSpec(name="web", kind="client_data", frames_per_burst=2,
                        interval_us=1000.0)

    def frame(t, outcome, flow="web"):
        return mac.FrameRecord(t, 1, "r", "client_data", 1500, 54.0, outcome, 222.2,
                               100.0, flow)

    tr = trace_of(1, 3000.0, [
        frame(100.0, "collided"), frame(300.0, "collided"), frame(400.0, "delivered", "other"),
        frame(500.0, "delivered"), frame(1000.0, "delivered"), frame(1200.0, "delivered"),
        frame(2000.0, "delivered"), frame(2200.0, "collided"),
    ])
    assert router.burst_completion_times_ms(tr, flow, 1) == [pytest.approx(0.3)]
    # with two retries the first frame's third try is delivered at 500 us,
    # so bursts 0 and 1 end at 1100 and 2100 us
    assert router.burst_completion_times_ms(tr, flow, 2) == [pytest.approx(1.1)] * 2


def test_engine_gates_through_the_same_rule(monkeypatch):
    # the engine gates only through mac.gate_admits: with the rule
    # replaced by one that always admits, the engine drops nothing
    neighbor = mac.FlowSpec(name="n", kind="neighbor_data")
    stations = [
        mac.StationSpec("r", 6, flows=(scheme_flow("PoWiFi"),), is_ap=True),
        mac.StationSpec("n", 6, flows=(neighbor,)),
    ]
    gated = mac.run_mac(stations, duration_us=200_000.0, seed=3)[6]
    assert gated.flow_stats["r.power"].dropped_gate > 0
    monkeypatch.setattr(mac, "gate_admits", lambda depth, threshold, frames=1: frames)
    # run_mac keeps its last result: clear it so the second run simulates too
    mac._simulate.cache_clear()
    open_gate = mac.run_mac(stations, duration_us=200_000.0, seed=3)[6]
    assert open_gate.flow_stats["r.power"].dropped_gate == 0
