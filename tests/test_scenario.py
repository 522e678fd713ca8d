import math
import os

import pytest

from wifipower import mac, rf, scenario
from wifipower.errors import ConfigError

MINIMAL = """
duration_s = 5
seed = 3

[router]
scheme = PoWiFi

[station client1]
role = client
channel = 1
traffic = udp_cbr
target_mbps = 10

[harvester h1]
kind = temp_battery_free
distance_ft = 10
"""


def test_parse_minimal_config_applies_defaults():
    sc = scenario.parse_scenario(MINIMAL)
    assert sc.duration_s == 5
    assert sc.seed == 3
    assert sc.router.channels == (1, 6, 11)
    assert sc.router.tx_total_dbm == 30.0
    assert sc.router.queue_threshold == 5
    assert sc.harvesters[0].distance_m == pytest.approx(3.048)
    assert sc.occupancy_bin_ms == 500.0


def test_parse_rejects_unknown_key_with_line():
    bad = "duration_s = 5\nseed = 1\nbogus_key = 2\n"
    with pytest.raises(ConfigError, match="line 3.*bogus_key"):
        scenario.parse_scenario(bad)


def test_parse_rejects_unknown_section_key():
    bad = "duration_s = 5\nseed = 1\n[router]\nwarp_factor = 9\n"
    with pytest.raises(ConfigError, match="warp_factor"):
        scenario.parse_scenario(bad)


def test_parse_rejects_bad_value_types():
    bad = "duration_s = soon\nseed = 1\n"
    with pytest.raises(ConfigError, match="line 1"):
        scenario.parse_scenario(bad)


def test_parse_rejects_negative_distance():
    bad = MINIMAL + "\n[harvester h2]\nkind = temp_battery_free\ndistance_ft = -1\n"
    with pytest.raises(ConfigError, match="distance"):
        scenario.parse_scenario(bad)


def test_parse_requires_seed():
    with pytest.raises(ConfigError, match="seed"):
        scenario.parse_scenario("duration_s = 5\n")


def test_parse_rejects_unknown_wall():
    bad = MINIMAL + "\n[harvester h2]\nkind = temp_battery_free\nwall = cardboard\n"
    with pytest.raises(ConfigError, match="cardboard"):
        scenario.parse_scenario(bad)


def test_bundled_configs_all_parse():
    names = [
        "powifi_default.cfg", "temp_sensor_range.cfg", "baseline_boot.cfg",
        "scheme_comparison.cfg", "neighbor_fairness.cfg", "delay_sweep.cfg",
        "camera_throughwall.cfg", "burst_workload.cfg",
    ] + [f"home_{i}.cfg" for i in range(1, 7)]
    for name in names:
        sc = scenario.load_scenario(scenario.bundled_config(name))
        sc.validate()


def test_run_reports_are_deterministic(tmp_path):
    sc1 = scenario.parse_scenario(MINIMAL)
    sc2 = scenario.parse_scenario(MINIMAL)
    rep1 = scenario.run(sc1)
    rep2 = scenario.run(sc2)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    rep1.write_outputs(str(d1))
    rep2.write_outputs(str(d2))
    for name in ("occupancy.csv", "throughput.csv", "harvester.csv",
                 "summary.txt", "trace.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_run_seed_changes_trace(tmp_path):
    sc1 = scenario.parse_scenario(MINIMAL)
    sc2 = scenario.parse_scenario(MINIMAL)
    sc2.seed = 4
    t1 = scenario.run(sc1).trace_text()
    t2 = scenario.run(sc2).trace_text()
    assert t1 != t2


def test_report_occupancy_matches_trace_analysis(tmp_path):
    sc = scenario.parse_scenario(MINIMAL)
    rep = scenario.run(sc)
    out = tmp_path / "out"
    rep.write_outputs(str(out))
    window = (0.0, sc.effective_mac_window_s() * 1e6)
    res = scenario.analyze_trace(
        str(out / "trace.txt"), window_us=window, stations=rep.router_station_ids
    )
    for ch, occ in rep.occupancy_mean.items():
        assert res["per_channel"][ch] == occ
    assert res["cumulative"] == pytest.approx(rep.cumulative_mean, rel=1e-12)


def test_report_occupancy_within_unit_interval():
    sc = scenario.parse_scenario(MINIMAL)
    rep = scenario.run(sc)
    for ch, bins in rep.occupancy_bins.items():
        for v in bins:
            assert 0.0 <= v <= 1.0
    assert 0.0 <= rep.cumulative_mean <= 3.0


def test_analyze_trace_synthetic_file(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("0.0,6,r,power_broadcast,1500,54,delivered\n")
    res = scenario.analyze_trace(str(p), window_us=(0.0, 1_000_000.0))
    assert res["per_channel"][6] == pytest.approx(0.000222, abs=1e-6)


@pytest.mark.parametrize("config", ["home_2.cfg", "scheme_comparison.cfg"])
def test_streamed_analysis_equals_parsed_occupancy(config, tmp_path):
    # analyze_trace reads line by line; it must give the same floats as
    # parsing the whole trace and measuring it
    sc = scenario.load_scenario(scenario.bundled_config(config))
    sc.mac_window_s = 0.3
    rep = scenario.run(sc)
    rep.write_outputs(str(tmp_path))
    path = str(tmp_path / "trace.txt")
    with open(path, encoding="utf-8") as fh:
        parsed = mac.parse_trace(fh.read())
    for window in (None, (0.0, 300_000.0), (50_000.0, 120_000.0)):
        for stations in (None, rep.router_station_ids):
            keep = None if stations is None else set(stations)
            want = {}
            for ch, tr in parsed.items():
                if keep is not None:
                    tr = mac.ChannelTrace(ch, tr.duration_us,
                                          [r for r in tr.records if r.station_id in keep])
                want[ch] = mac.occupancy(tr, window or (0.0, tr.duration_us))
            res = scenario.analyze_trace(path, window_us=window, stations=stations)
            assert res["per_channel"] == want
            assert res["cumulative"] == sum(want[ch] for ch in sorted(want))


def test_analyze_trace_empty_window_rejected(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("0.0,6,r,power_broadcast,1500,54,delivered\n")
    with pytest.raises(ConfigError, match="empty occupancy window"):
        scenario.analyze_trace(str(p), window_us=(5.0, 5.0))
    p.write_text("# no records\n")
    assert scenario.analyze_trace(str(p)) == {"per_channel": {}, "cumulative": 0.0}


def test_analyze_trace_bad_line(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("0.0,6,r,power_broadcast,1500,54,delivered\ngarbage\n")
    with pytest.raises(Exception, match="line 2"):
        scenario.analyze_trace(str(p))


def test_sweep_distance_update_rate_non_increasing():
    sc = scenario.load_scenario(scenario.bundled_config("temp_sensor_range.cfg"))
    sc.duration_s = 120.0
    sc.mac_window_s = 5.0
    spec = scenario.SweepSpec("distance", (6.0, 10.0, 14.0, 18.0, 24.0, 30.0))
    rows = scenario.sweep(sc, spec)
    rates = [row["update_hz.temp1_mean"] for row in rows]
    for a, b in zip(rates, rates[1:]):
        assert b <= a + 1e-9
    # dead beyond the low-20s feet range
    assert rates[-1] == 0.0
    assert rates[0] > 0.0


def test_sweep_wall_ordering():
    sc = scenario.load_scenario(scenario.bundled_config("camera_throughwall.cfg"))
    sc.duration_s = 43200.0
    sc.mac_window_s = 5.0
    spec = scenario.SweepSpec(
        "wall_material",
        ("double_pane_glass", "wooden_door", "hollow_wall", "double_sheetrock"),
    )
    rows = scenario.sweep(sc, spec)
    intervals = [row["interval_s.cam1_mean"] for row in rows]
    assert intervals == sorted(intervals)
    assert all(math.isfinite(v) for v in intervals)


def test_sweep_rejects_unknown_variable():
    with pytest.raises(ConfigError):
        scenario.SweepSpec("antenna_color", (1,))


def test_equal_share_rate_inferred_from_neighbor():
    cfg = """
duration_s = 5
seed = 2

[router]
scheme = EqualShare
channels = 1

[station n1]
role = neighbor_ap
channel = 1
rate_mbps = 24
traffic = backlogged
"""
    sc = scenario.parse_scenario(cfg)
    assert sc.equal_share_scheme().equal_share_rate_mbps == 24.0


def test_equal_share_without_neighbor_rejected():
    cfg = "duration_s = 5\nseed = 2\n\n[router]\nscheme = EqualShare\n"
    with pytest.raises(ConfigError, match="EqualShare"):
        scenario.parse_scenario(cfg)
