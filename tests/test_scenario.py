import math
import os
import random

import pytest

from wifipower import mac, rf, router, scenario
from wifipower.errors import ConfigError, TraceFormatError

from trace_helpers import trace_of

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
    with pytest.raises(ConfigError, match="line 20: key 'wall': 'cardboard'"):
        scenario.parse_scenario(bad)


def test_section_keys_are_the_fields_of_each_conf():
    assert {name: set(keys) for name, keys in scenario._SECTION_KEYS.items()} == {
        None: {"duration_s", "seed", "mac_window_s", "occupancy_bin_ms",
               "throughput_bin_ms"},
        "router": {"scheme", "channels", "tx_total_dbm", "antenna_gain_dbi",
                   "n_antennas", "correlated", "beamforming_efficiency",
                   "equal_share_rate_mbps", "power_delay_us", "power_size_bytes",
                   "queue_threshold"},
        "station": {"role", "channel", "rate_mbps", "traffic", "target_mbps",
                    "burst_bytes", "burst_on_ms", "burst_off_ms", "start_ms"},
        "harvester": {"kind", "distance_m", "distance_ft", "wall", "g_rx_dbi",
                      "channels"},
        "mac": {"slot_us", "sifs_us", "cw_min", "cw_max",
                "phy_overhead_us", "ack_airtime_us", "retry_limit"},
    }


def test_a_field_without_a_reader_has_no_key():
    with pytest.raises(TypeError, match="HarvesterConf.wall: no reader"):
        scenario._keys(scenario.HarvesterConf)


@pytest.mark.parametrize("section, below, message", [
    ("[station c2]\nrole = client\nstart_ms = -10", 0, "station 'c2': start_ms must be >= 0"),
    ("[station c2]\nrole = relay", 0, "station 'c2': unknown role 'relay'"),
    ("[harvester h2]\nkind = toaster", 0, "harvester 'h2': unknown kind 'toaster'"),
    ("[harvester h2]\ndistance_ft = 3\ndistance_m = 1", 0,
     "harvester 'h2': give distance_ft or distance_m, not both"),
    # DIFS is not a key: it is always SIFS plus two slots
    ("[mac]\ndifs_us = 28", 1, "unknown key 'difs_us' in [mac]"),
    ("[mac]\nphy_overhead_us = -500", 0, "phy_overhead_us must be finite and >= 0"),
    ("[mac]\nslot_us = 0\nsifs_us = 28", 0, "slot_us must be > 0"),
    ("[mac x]", 0, "section [mac] takes no id"),
], ids=["start_ms", "role", "kind", "two_distances", "mac", "mac_negative_phy",
        "mac_zero_slot", "mac_id"])
def test_section_errors_carry_the_header_line(section, below, message):
    # a section's errors carry its header line, and an unknown key the
    # line `below` it that holds the key
    header = MINIMAL.count("\n") + 2
    with pytest.raises(ConfigError) as exc:
        scenario.parse_scenario(MINIMAL + "\n" + section + "\n")
    assert str(exc.value).startswith(f"line {header + below}: {message}")


def test_a_mac_section_may_set_only_the_slot():
    # the 802.11b slot; DIFS follows it
    sc = scenario.parse_scenario(MINIMAL + "\n[mac]\nslot_us = 20\n")
    assert sc.mac_params.difs_us == 50.0


def test_unknown_scheme_carries_the_router_line():
    with pytest.raises(ConfigError, match="line 5: unknown scheme 'Fast'"):
        scenario.parse_scenario(MINIMAL.replace("scheme = PoWiFi", "scheme = Fast"))


@pytest.mark.parametrize("line", [
    "occupancy_bin_ms = 1e-300", "throughput_bin_ms = 1e-300",
    "occupancy_bin_ms = 0.00499",
])
def test_more_than_a_million_bins_rejected(line):
    # MINIMAL's window is 5 s, so a bin of 5 us or less makes 10**6 bins
    name = line.split()[0]
    with pytest.raises(ConfigError, match=f"{name} makes over 1000000 bins"):
        scenario.parse_scenario(MINIMAL.replace("seed = 3\n", "seed = 3\n" + line + "\n"))


def test_a_million_bins_accepted():
    sc = scenario.parse_scenario(
        MINIMAL.replace("seed = 3\n", "seed = 3\noccupancy_bin_ms = 0.005\n")
    )
    assert sc.effective_mac_window_s() * 1000.0 / sc.occupancy_bin_ms == 10**6


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
    # run_mac and run keep their last results: clear both so the second
    # run simulates and sums its channels too
    mac._simulate.cache_clear()
    scenario._kept_stage.cache_clear()
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
    t1 = "".join(scenario.run(sc1).trace_chunks())
    t2 = "".join(scenario.run(sc2).trace_chunks())
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


BUNDLED_CONFIGS = sorted(
    name for name in os.listdir(os.path.dirname(scenario.bundled_config("home_1.cfg")))
    if name.endswith(".cfg")
)


@pytest.mark.parametrize("config", BUNDLED_CONFIGS)
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
                    tr = trace_of(ch, tr.duration_us,
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


LINE = "{},6,r,power_broadcast,1500,54,delivered\n"


@pytest.mark.parametrize("start", ["abc", "", " ", "1.0.0"])
def test_analyze_trace_bad_start_on_a_known_tail(start, tmp_path):
    # the tail was validated on line 1; line 3 must still fail on its start
    p = tmp_path / "t.txt"
    p.write_text(LINE.format("0.0") + LINE.format("10.0") + LINE.format(start))
    with pytest.raises(TraceFormatError, match="line 3"):
        scenario.analyze_trace(str(p))


def test_analyze_trace_skips_comments_and_blanks_with_a_known_tail(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text(LINE.format("0.0") + LINE.format("500.0"))
    noisy = tmp_path / "noisy.txt"
    noisy.write_text(
        LINE.format("0.0")
        + LINE.format("#100.0")
        + LINE.format("  # 200.0")
        + "\n"
        + "   \n"
        + LINE.format("500.0")
    )
    for window in (None, (0.0, 1000.0)):
        assert (scenario.analyze_trace(str(noisy), window_us=window)
                == scenario.analyze_trace(str(plain), window_us=window))


def test_analyze_trace_validates_each_new_tail_once(tmp_path, monkeypatch):
    # a line with trailing spaces has a tail of its own: it goes through the
    # validator instead of reusing the tail it equals once stripped
    seen = []
    validate = mac.parse_trace_line

    def spy(raw, lineno):
        seen.append(lineno)
        return validate(raw, lineno)

    monkeypatch.setattr(mac, "parse_trace_line", spy)
    p = tmp_path / "t.txt"
    p.write_text(
        LINE.format("0.0")
        + LINE.format("100.0")[:-1] + "   \n"
        + LINE.format("200.0")
        + LINE.format("300.0")[:-1] + "   \n"
        + LINE.format("400.0")[:-1]
    )
    res = scenario.analyze_trace(str(p), window_us=(0.0, 1000.0))
    assert seen == [1, 2, 5]
    assert res["per_channel"][6] == 5 * (1500 * 8.0 / 54.0) / 1000.0


def test_analyze_trace_station_filter_per_tail(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(
        "0.0,1,ours,power_broadcast,1500,54,delivered\n"
        "300.0,1,theirs,power_broadcast,1500,54,delivered\n"
        "600.0,1,ours,power_broadcast,1500,54,delivered\n"
        "900.0,1,theirs,power_broadcast,1500,54,delivered\n"
    )
    res = scenario.analyze_trace(str(p), window_us=(0.0, 1000.0), stations=["ours"])
    assert res["per_channel"][1] == (1500 * 8.0 / 54.0 + 1500 * 8.0 / 54.0) / 1000.0
    # the latest frame end counts every station, filtered or not
    res = scenario.analyze_trace(str(p), stations=["ours"])
    assert res["per_channel"][1] == 2 * (1500 * 8.0 / 54.0) / (900.0 + 1500 * 8.0 / 54.0)


def _binned_reference(trace, bin_ms):
    # bins until the window is covered, the last one cut at the window end
    bin_us, end = bin_ms * 1000.0, trace.duration_us
    n = 1
    while n * bin_us < end:
        n += 1
    return ([i * bin_ms for i in range(n)],
            [mac.occupancy(trace, (i * bin_us, min((i + 1) * bin_us, end))) for i in range(n)])


def _edge_records(bin_us, n_edges):
    out = []
    for i in range(n_edges):
        edge = i * bin_us
        for t in (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)):
            out.append(t)
    return out + [-1.0, math.nan, math.inf]


# Bin widths of 0.1 us and 333.3 us are not exact in binary, so on some
# edges int(t // bin_us) names the bin below the one the window test picks.
@pytest.mark.parametrize("bin_ms", [0.0001, 0.3333, 0.1, 333.3, 100.0])
def test_occupancy_bins_equal_per_bin_occupancy(bin_ms):
    bin_us = bin_ms * 1000.0
    n_whole = 40
    # the window ends two fifths of a bin past the last whole bin
    duration_us = (n_whole + 0.4) * bin_us
    starts = _edge_records(bin_us, n_whole + 2)
    if bin_ms in (0.0001, 0.3333):
        assert any(i * bin_us <= t and int(t // bin_us) != i
                   for i in range(n_whole) for t in starts
                   if i * bin_us <= t < (i + 1) * bin_us)
    rng = random.Random(7)
    rng.shuffle(starts)
    records = [
        mac.FrameRecord(t, 6, "r", "power_broadcast", 1500, 54.0, "delivered",
                        1.0 + 0.37 * k, 0.0)
        for k, t in enumerate(starts)
    ]
    trace = trace_of(6, duration_us, records)
    assert scenario.occupancy_bins(trace, bin_ms)[:2] == _binned_reference(trace, bin_ms)
    # in start-time order, as the engine records them
    records.sort(key=lambda r: (math.isnan(r.t_start_us), r.t_start_us))
    trace = trace_of(6, duration_us, records)
    assert scenario.occupancy_bins(trace, bin_ms)[:2] == _binned_reference(trace, bin_ms)


def test_throughput_and_occupancy_bins_place_a_frame_alike():
    # at 0.3333 ms, int(1666.5 // 333.3) is 4 but 5 * 333.3 == 1666.5
    rec = mac.FrameRecord(1666.5, 6, "r", "client_data", 1500, 54.0,
                          "delivered", 12000.0 / 54.0, 300.0, "f")
    trace = trace_of(6, 3000.0, [rec])
    tput = router.throughput_series(trace, "f", 0.3333)
    _, occ = scenario.occupancy_bins(trace, 0.3333)[:2]
    assert [i for i, v in enumerate(tput) if v] == [5]
    assert [i for i, v in enumerate(occ) if v] == [5]


def test_occupancy_bins_window_shorter_than_a_bin():
    # one bin, cut at the window end: the frames past it are in no bin
    records = [mac.FrameRecord(t, 1, "r", "beacon", 300, 1.0, "delivered", 2400.0, 0.0)
               for t in (0.0, 900.0, 1500.0, 2000.0)]
    trace = trace_of(1, 1000.0, records)
    assert scenario.occupancy_bins(trace, 2.0)[:2] == _binned_reference(trace, 2.0)
    assert scenario.occupancy_bins(trace, 2.0)[1] == [2 * 2400.0 / 1000.0]


def test_occupancy_bins_of_bundled_runs_equal_per_bin_occupancy():
    sc = scenario.load_scenario(scenario.bundled_config("home_3.cfg"))
    sc.mac_window_s = 0.5
    sc.occupancy_bin_ms = 33.3
    rep = scenario.run(sc)
    keep = set(rep.router_station_ids)
    for ch, tr in rep.traces.items():
        view = trace_of(ch, tr.duration_us,
                        [r for r in tr.records if r.station_id in keep])
        assert scenario.occupancy_bins(view, 33.3)[:2] == _binned_reference(view, 33.3)
        assert rep.occupancy_bins[ch] == _binned_reference(view, 33.3)[1]


@pytest.mark.parametrize("config", BUNDLED_CONFIGS)
def test_trace_rebuilt_from_records_gives_the_same_reports(config):
    # at the golden settings (own seed, 0.2 s MAC window), a trace rebuilt
    # record by record from the engine's gets other codes but every
    # metric and the export must come out the same
    sc = scenario.load_scenario(scenario.bundled_config(config))
    sc.mac_window_s = 0.2
    specs, router_ids = scenario.build_stations(sc)
    window_us = sc.effective_mac_window_s() * 1e6
    traces = mac.run_mac(specs, duration_us=window_us, params=sc.mac_params, seed=sc.seed)
    rebuilt = {ch: trace_of(ch, tr.duration_us, tr.records)
               for ch, tr in traces.items()}
    assert mac.export_trace(rebuilt.values()) == mac.export_trace(traces.values())
    phy = sc.mac_params.phy_overhead_us
    for ch, tr in traces.items():
        again = rebuilt[ch]
        for stations in (None, router_ids):
            a = scenario.occupancy_bins(tr, sc.occupancy_bin_ms, stations)
            b = scenario.occupancy_bins(again, sc.occupancy_bin_ms, stations)
            assert a == b
        assert mac.occupancy(tr, (0.0, window_us)) == mac.occupancy(again, (0.0, window_us))
        assert (scenario.harvest_duty(tr, router_ids, phy)
                == scenario.harvest_duty(again, router_ids, phy))
        for st in sc.stations:
            if st.traffic == "none" or st.channel != ch:
                continue
            assert (router.throughput_series(tr, st.station_id, sc.throughput_bin_ms)
                    == router.throughput_series(again, st.station_id, sc.throughput_bin_ms))
            period_us = (st.burst_on_ms + st.burst_off_ms) * 1000.0 or 10_000.0  # any flow will do
            spec = mac.FlowSpec(st.station_id, "client_data", interval_us=period_us,
                                frames_per_burst=3)
            retry_limit = sc.mac_params.retry_limit
            assert (router.burst_completion_times_ms(tr, spec, retry_limit)
                    == router.burst_completion_times_ms(again, spec, retry_limit))


CLIENT_START = """
duration_s = 0.5
seed = 5

[router]
channels = 1

[station c1]
role = client
channel = 1
traffic = {traffic}
target_mbps = 12
burst_bytes = 30000
burst_on_ms = 100
burst_off_ms = 100
start_ms = {start}
"""


def test_udp_cbr_arrivals_begin_at_start_ms():
    # a 1500 B frame every 1 ms, from start_ms until the 500 ms window ends
    for start, arrivals in ((0, 500), (50, 450)):
        sc = scenario.parse_scenario(CLIENT_START.format(traffic="udp_cbr", start=start))
        specs, _ = scenario.build_stations(sc)
        tr = mac.run_mac(specs, duration_us=0.5e6, params=sc.mac_params, seed=sc.seed)[1]
        assert min(t for t, c in zip(tr.starts, tr.codes) if tr.rows[c].flow == "c1") >= start * 1e3
        stats = tr.flow_stats["c1"]
        assert stats.admitted + stats.dropped_gate == arrivals


def test_burst_completion_is_measured_from_the_burst_start():
    sc = scenario.parse_scenario(CLIENT_START.format(traffic="burst", start=50))
    comps = scenario.run(sc).burst_completions_ms["c1"]
    # 20 frames at 54 Mbps take about 8 ms, not the 50 ms start on top
    assert len(comps) == 3 and all(5.0 < c < 20.0 for c in comps)  # at 50, 250, 450 ms


def test_bursts_that_lost_frames_do_not_complete():
    # with no retries, a backlogged neighbour makes every burst lose a
    # frame; counting only deliveries would pair frames of two bursts
    # and report completions of about 500 and 1000 ms
    sc = scenario.parse_scenario("""
duration_s = 5
seed = 4

[router]
scheme = Baseline
channels = 1

[mac]
retry_limit = 0

[station web1]
role = client
channel = 1
traffic = burst
burst_bytes = 30000
burst_on_ms = 250
burst_off_ms = 250

[station n1]
role = neighbor_ap
channel = 1
traffic = backlogged
""")
    rep = scenario.run(sc)
    stats = rep.traces[1].flow_stats["web1"]
    assert (stats.delivered, stats.lost) == (164, 36)
    assert rep.burst_completions_ms["web1"] == []


def test_router_occupancy_mean_equals_occupancy_of_router_frames():
    sc = scenario.load_scenario(scenario.bundled_config("home_3.cfg"))
    sc.mac_window_s = 0.5
    rep = scenario.run(sc)
    keep = set(rep.router_station_ids)
    for ch, tr in rep.traces.items():
        view = trace_of(ch, tr.duration_us,
                        [r for r in tr.records if r.station_id in keep])
        assert rep.occupancy_mean[ch] == mac.occupancy(view, (0.0, tr.duration_us))


def test_harvest_duty_computed_once_per_channel(monkeypatch):
    with open(scenario.bundled_config("powifi_default.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    text += "\n[harvester second]\nkind = temp_battery_free\ndistance_ft = 12\n"
    sc = scenario.parse_scenario(text)
    sc.mac_window_s = 0.2
    # every occupancy and throughput of a run comes from one
    # `mac.channel_sums` pass per channel, not from the per-series views,
    # and each duty from one `harvest_duty` per channel the harvesters read
    calls, duty_calls = [], []
    real, real_duty = mac.channel_sums, scenario.harvest_duty
    monkeypatch.setattr(mac, "channel_sums",
                        lambda tr, *a: calls.append(tr.channel) or real(tr, *a))
    monkeypatch.setattr(scenario, "harvest_duty",
                        lambda tr, *a: duty_calls.append(tr.channel) or real_duty(tr, *a))
    for mod, name in ((scenario, "occupancy_bins"), (router, "throughput_series")):
        monkeypatch.setattr(mod, name, None)
    rep = scenario.run(sc)
    assert len(sc.harvesters) == 2 and rep.throughput
    assert sorted(calls) == sorted(set(calls)) == sorted(rep.traces)
    assert {ch for h in sc.harvesters for ch in h.channels} == set(rep.traces)
    assert sorted(duty_calls) == sorted(set(duty_calls)) == sorted(rep.traces)
    one = scenario.parse_scenario(text.rsplit("[harvester second]", 1)[0])
    one.mac_window_s = 0.2
    first = sc.harvesters[0].harvester_id
    assert rep.harvester_summary[first] == scenario.run(one).harvester_summary[first]


def test_run_without_a_harvester_sums_no_on_air_time(monkeypatch):
    sc = scenario.load_scenario(scenario.bundled_config("delay_sweep.cfg"))
    sc.mac_window_s = 0.2
    calls = []
    real = mac.on_air_us
    monkeypatch.setattr(mac, "on_air_us", lambda *a: calls.append(a) or real(*a))
    rep = scenario.run(sc)
    assert not sc.harvesters and rep.traces
    assert calls == []


def test_duration_past_2_52_envelope_periods_rejected():
    # past it the envelope's period starts stop being distinct, and a fire
    # train logs events until memory runs out
    period = scenario.ENVELOPE_PERIOD_S
    inside = 0.99 * 2**52 * period
    assert scenario.parse_scenario(f"duration_s = {inside!r}\nseed = 1\n").duration_s == inside
    for duration in (1.01 * 2**52 * period, 1e300):
        with pytest.raises(ConfigError, match=r"duration_s makes over 2\*\*52 periods"):
            scenario.parse_scenario(f"duration_s = {duration!r}\nseed = 1\n")


def test_write_outputs_streams_the_trace_text(tmp_path):
    sc = scenario.load_scenario(scenario.bundled_config("home_2.cfg"))
    sc.mac_window_s = 0.2
    rep = scenario.run(sc)
    chunks = list(rep.trace_chunks())
    assert len(chunks) == len(rep.traces)
    assert "".join(chunks) == mac.export_trace(rep.traces.values())
    rep.write_outputs(str(tmp_path))
    assert (tmp_path / "trace.txt").read_text(encoding="utf-8") == "".join(chunks)


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


@pytest.mark.parametrize("variable, values, simulations", [
    ("distance", (4.0, 12.0, 24.0), 3),  # once per seed
    ("inter_packet_delay", (100.0, 400.0), 6),  # once per run
    ("wall_material", ("none", "wooden_door", "double_sheetrock"), 3),  # once per seed
])
def test_sweep_simulates_each_distinct_mac_input_once(monkeypatch, variable, values, simulations):
    sc = scenario.load_scenario(scenario.bundled_config("temp_sensor_range.cfg"))
    sc.duration_s = 10.0
    sc.mac_window_s = 0.02
    calls = []
    real = mac.channel_sums
    monkeypatch.setattr(mac, "channel_sums", lambda tr, *a: calls.append(tr.channel) or real(tr, *a))
    scenario.sweep(sc, scenario.SweepSpec(variable, values), seeds=(1, 2, 3))
    assert mac._simulate.cache_info().misses == simulations
    # and the channel stage is summed once per channel of each simulated input
    assert scenario._kept_stage.cache_info().misses == simulations
    assert sorted(calls) == sorted(sc.router.channels * simulations)


#: A run with every kind of stage field: CBR and burst flows, power
#: broadcasts on three channels and a harvester.
STAGE_CFG = MINIMAL + """
[station web1]
role = client
channel = 6
traffic = burst
burst_bytes = 30000
burst_on_ms = 100
burst_off_ms = 100
"""


def stage_reports(tmp_path, name: str, **changes) -> tuple[scenario.ReportSet, dict]:
    sc = scenario.parse_scenario(STAGE_CFG)
    sc.mac_window_s = 0.5
    for key, value in changes.items():
        setattr(sc, key, value)
    rep = scenario.run(sc)
    rep.write_outputs(str(tmp_path / name))
    return rep, {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}


def test_a_kept_stage_writes_the_reports_of_a_cold_run(tmp_path):
    _, first = stage_reports(tmp_path, "first")
    rep, hit = stage_reports(tmp_path, "hit")
    assert scenario._kept_stage.cache_info()[:2] == (1, 1)
    assert rep.burst_completions_ms["web1"] and rep.throughput["client1"]
    mac._simulate.cache_clear()
    scenario._kept_stage.cache_clear()
    _, cold = stage_reports(tmp_path, "cold")
    assert len(cold) == 5 and hit == cold == first


@pytest.mark.parametrize("change", [
    dict(occupancy_bin_ms=100.0),
    dict(throughput_bin_ms=100.0),
    dict(router=scenario.RouterConf(channels=(6, 1))),
], ids=["occupancy_bin", "throughput_bin", "router_channels"])
def test_kept_stage_misses_when_a_bin_width_or_router_channel_changes(tmp_path, change):
    stage_reports(tmp_path, "first")
    _, changed = stage_reports(tmp_path, "changed", **change)
    assert scenario._kept_stage.cache_info()[:2] == (0, 2)
    mac._simulate.cache_clear()
    scenario._kept_stage.cache_clear()
    assert changed == stage_reports(tmp_path, "cold", **change)[1]


def test_kept_stage_misses_when_only_a_station_traffic_changes():
    # one 1500-byte frame every 2 ms is the same flow as 6 Mbps CBR
    burst, cbr = (scenario.parse_scenario(
        f"duration_s = 1\nseed = 3\n[router]\nchannels = 1\n[station c]\n{traffic}\n")
        for traffic in ("traffic = burst\nburst_bytes = 1500\nburst_on_ms = 1\nburst_off_ms = 1",
                        "traffic = udp_cbr\ntarget_mbps = 6"))
    assert scenario.build_stations(burst) == scenario.build_stations(cbr)
    assert scenario.run(burst).burst_completions_ms["c"]
    assert scenario.run(cbr).burst_completions_ms == {}
    assert scenario._kept_stage.cache_info()[:2] == (0, 2)


def test_a_kept_stage_is_not_changed_through_a_report_set(tmp_path):
    rep, want = stage_reports(tmp_path, "first")
    for bins in rep.occupancy_bins.values():
        bins[0] = 2.0
    rep.throughput["client1"][0] = -1.0
    rep.throughput["web1"].clear()
    rep.burst_completions_ms["web1"].append(1e9)
    rep.burst_completions_ms["web1"][0] = -5.0
    for st in rep.power_stats.values():
        st.admitted += 1000
    rep.occupancy_mean.clear()
    rep.throughput_mean["client1"] = 0.0
    _, again = stage_reports(tmp_path, "again")
    assert scenario._kept_stage.cache_info().hits == 1
    assert again == want


def test_sweep_rejects_unknown_variable():
    with pytest.raises(ConfigError):
        scenario.SweepSpec("antenna_color", (1,))


@pytest.mark.parametrize("variable, value, message", [
    ("distance", math.nan, "sweep value nan for distance: not a finite number"),
    ("distance", math.inf, "sweep value inf for distance: not a finite number"),
    ("wall_material", "steel",
     "sweep value 'steel' for wall_material: 'steel' is not a valid WallMaterial"),
    ("inter_packet_delay", math.inf,
     "sweep value inf for inter_packet_delay: not a finite number"),
    ("distance", None, "sweep value None for distance: float() argument must be"),
], ids=["distance_nan", "distance_inf", "wall_steel", "delay_inf", "distance_none"])
def test_a_swept_value_takes_its_config_key_rule(variable, value, message):
    # a value given in Python is read as the config key it stands for, as
    # one given on the command line is
    sc = scenario.load_scenario(scenario.bundled_config("temp_sensor_range.cfg"))
    with pytest.raises(ConfigError) as exc:
        scenario.apply_sweep_value(sc, variable, value)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("feet", [12, 12.0, 7.3])
def test_a_swept_distance_is_the_config_distance(feet):
    swept = scenario.apply_sweep_value(scenario.parse_scenario(MINIMAL), "distance", feet)
    config = scenario.parse_scenario(MINIMAL.replace("distance_ft = 10", f"distance_ft = {feet}"))
    assert swept.harvesters[0].distance_m == config.harvesters[0].distance_m


@pytest.mark.parametrize("distance_m", [math.nan, math.inf])
def test_a_non_finite_harvester_distance_is_rejected(distance_m):
    conf = scenario.HarvesterConf("h1", distance_m=distance_m)
    with pytest.raises(ConfigError, match="harvester 'h1': distance must be >= 0.01 m"):
        conf.validate()


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
    assert sc.share_rate_mbps() == 24.0


def test_equal_share_without_neighbor_rejected():
    cfg = "duration_s = 5\nseed = 2\n\n[router]\nscheme = EqualShare\n"
    with pytest.raises(ConfigError, match="EqualShare"):
        scenario.parse_scenario(cfg)
