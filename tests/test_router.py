import pytest

from wifipower import mac, router
from wifipower.errors import ConfigError


def test_power_gate_threshold_semantics():
    pol = router.PowerPolicy()
    assert router.power_gate(4, pol) is True
    # at-or-above the threshold drops
    assert router.power_gate(5, pol) is False
    assert router.power_gate(0, pol) is True


def test_power_gate_disabled_admits_everything():
    pol = router.PowerPolicy(gate_enabled=False)
    assert router.power_gate(10_000, pol) is True


def test_power_gate_monotone_in_depth():
    pol = router.PowerPolicy()
    admits = [router.power_gate(d, pol) for d in range(12)]
    # once dropping starts it never resumes at higher depth
    assert admits == sorted(admits, reverse=True)


def test_next_power_packet_time():
    pol = router.PowerPolicy()
    assert router.next_power_packet_time(0.0, pol) == 100.0
    slow = router.PowerPolicy(inter_packet_delay_us=500.0)
    assert router.next_power_packet_time(1000.0, slow) == 1500.0


def test_policy_validation():
    with pytest.raises(ConfigError):
        router.PowerPolicy(inter_packet_delay_us=0.0)
    with pytest.raises(ConfigError):
        router.PowerPolicy(queue_threshold=0)


def test_configure_scheme_parameters():
    pw = router.configure_scheme(router.Scheme("PoWiFi"))
    assert set(pw) == {1, 6, 11}
    pol = pw[1]
    assert pol.rate_mbps == 54.0
    assert pol.gate_enabled
    assert pol.inter_packet_delay_us == 100.0
    assert pol.packet_size_bytes == 1500
    assert pol.queue_threshold == 5

    base = router.configure_scheme(router.Scheme("Baseline"))
    assert all(v is None for v in base.values())

    blind = router.configure_scheme(router.Scheme("BlindUDP"))[6]
    assert blind.rate_mbps == 1.0
    assert not blind.gate_enabled

    nq = router.configure_scheme(router.Scheme("NoQueue"))[6]
    assert nq.rate_mbps == 54.0
    assert not nq.gate_enabled

    slow = router.configure_scheme(router.Scheme("PoWiFiSlow"))[6]
    assert slow.inter_packet_delay_us == 500.0
    assert slow.gate_enabled

    eq = router.configure_scheme(router.Scheme("EqualShare", equal_share_rate_mbps=24.0))[6]
    assert eq.rate_mbps == 24.0
    assert not eq.gate_enabled


def test_equal_share_without_rate_is_an_error():
    with pytest.raises(ConfigError):
        router.configure_scheme(router.Scheme("EqualShare"))


def test_throughput_series_single_frame():
    rec = mac.FrameRecord(1000.0, 1, "r", "client_data", 1500, 54.0,
                          "delivered", 12000.0 / 54.0, 300.0, "iperf")
    tr = mac.ChannelTrace(1, 500_000.0, [rec])
    series = router.throughput_series(tr, "iperf", bin_ms=500.0)
    assert len(series) == 1
    assert series[0] == pytest.approx(0.024)


def test_throughput_series_empty():
    tr = mac.ChannelTrace(1, 1_000_000.0, [])
    assert router.throughput_series(tr, "iperf") == [0.0, 0.0]


def test_throughput_series_excludes_collided_and_other_flows():
    recs = [
        mac.FrameRecord(0.0, 1, "r", "client_data", 1500, 54.0,
                        "collided", 222.2, 246.2, "iperf"),
        mac.FrameRecord(500.0, 1, "r", "client_data", 1500, 54.0,
                        "delivered", 222.2, 300.0, "other"),
    ]
    tr = mac.ChannelTrace(1, 500_000.0, recs)
    assert router.throughput_series(tr, "iperf") == [0.0]


def test_gate_admission_monotone_under_client_load():
    # heavier client load leaves fewer admission slots for power packets
    admitted = []
    for target in (5.0, 15.0, 30.0, 54.0):
        client = mac.cbr_flow_for_target("c", "client_data", target)
        pol = router.configure_scheme(router.Scheme("PoWiFi"))[1]
        st = mac.StationSpec("r", 1, flows=(client, router.power_flow_spec("r", pol)),
                             is_ap=True)
        tr = mac.run_mac([st], duration_us=5e6, seed=2)[1]
        admitted.append(tr.flow_stats["r.power"].admitted)
    assert admitted == sorted(admitted, reverse=True)


def test_burst_completion_times():
    flow = mac.FlowSpec(name="web", kind="client_data", pacing="burst",
                        rate_mbps=54.0, frames_per_burst=20,
                        period_us=500_000.0)
    st = mac.StationSpec("r", 1, flows=(flow,), is_ap=True)
    tr = mac.run_mac([st], duration_us=5e6, seed=6)[1]
    comps = router.burst_completion_times_ms(tr, "web", 500_000.0, 20)
    assert len(comps) == 10
    # a 20-frame burst at 54 Mbps takes on the order of 8 ms alone
    assert all(5.0 < c < 15.0 for c in comps)


def test_engine_gates_through_the_same_rule(monkeypatch):
    # the engine and router.power_gate share mac.gate_admits: with the
    # rule replaced by one that always admits, the engine drops nothing
    pol = router.PowerPolicy()
    neighbor = mac.FlowSpec(name="n", kind="neighbor_data", pacing="backlogged")
    stations = [
        mac.StationSpec("r", 6, flows=(router.power_flow_spec("r", pol),), is_ap=True),
        mac.StationSpec("n", 6, flows=(neighbor,)),
    ]
    gated = mac.run_mac(stations, duration_us=200_000.0, seed=3)[6]
    assert gated.flow_stats["r.power"].dropped_gate > 0
    monkeypatch.setattr(mac, "gate_admits", lambda depth, threshold: True)
    assert router.power_gate(10_000, pol) is True
    open_gate = mac.run_mac(stations, duration_us=200_000.0, seed=3)[6]
    assert open_gate.flow_stats["r.power"].dropped_gate == 0
