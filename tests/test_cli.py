import argparse
import os
import signal
import sys
import weakref

import pytest

from wifipower import cli, mac, router, scenario
from wifipower.errors import ConfigError


def write_cfg(tmp_path, text):
    p = tmp_path / "sc.cfg"
    p.write_text(text)
    return str(p)


BASIC = """
duration_s = 3
seed = 5

[router]
scheme = PoWiFi
channels = 6
"""


def test_run_writes_reports_and_exits_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASIC)
    out = tmp_path / "out"
    rc = cli.main(["run", cfg, "--out-dir", str(out)])
    assert rc == 0
    for name in ("occupancy.csv", "throughput.csv", "harvester.csv",
                 "summary.txt", "trace.txt"):
        assert (out / name).is_file()
    captured = capsys.readouterr()
    assert "occupancy_ch6=" in captured.out


def test_run_seed_and_duration_overrides(tmp_path):
    cfg = write_cfg(tmp_path, BASIC)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert cli.main(["run", cfg, "--out-dir", str(out1), "--seed", "9",
                     "--duration", "2"]) == 0
    # run_mac and run keep their last results: clear both so the second
    # run simulates and sums its channels too
    mac._simulate.cache_clear()
    scenario._kept_stage.cache_clear()
    assert cli.main(["run", cfg, "--out-dir", str(out2), "--seed", "9",
                     "--duration", "2"]) == 0
    assert (out1 / "trace.txt").read_bytes() == (out2 / "trace.txt").read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "duration_s = 3\nseed = 5\nnope = 1\n")
    rc = cli.main(["run", cfg, "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section", [
    "[station n,1]\nrole = neighbor_ap\nchannel = 6",
    "[station a b]\nrole = neighbor_ap\nchannel = 6",
    "[harvester h/1]\nkind = temp_battery_free\ndistance_ft = 10",
    "[harvester h;1]\nkind = temp_battery_free\ndistance_ft = 10",
])
def test_unsafe_id_exits_2_with_its_line(tmp_path, capsys, section):
    cfg = write_cfg(tmp_path, BASIC + "\n" + section + "\n")
    rc = cli.main(["run", cfg, "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    line = BASIC.count("\n") + 2
    assert f"line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["[]", "[ ]"])
def test_empty_section_header_exits_2_with_its_line(tmp_path, capsys, header):
    cfg = write_cfg(tmp_path, BASIC + header + "\n")
    rc = cli.main(["run", cfg, "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    line = BASIC.count("\n") + 1
    assert f"config error: line {line}: unknown section []" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("n_antennas = 0", "n_ant must be >= 1, got 0"),
    ("beamforming_efficiency = 0", "beamforming_efficiency must be in (0, 1], got 0.0"),
    ("beamforming_efficiency = 2", "beamforming_efficiency must be in (0, 1], got 2.0"),
], ids=["no_antennas", "efficiency_zero", "efficiency_two"])
def test_bad_transmit_plan_exits_2(tmp_path, capsys, line, message):
    cfg = write_cfg(tmp_path, BASIC + line + "\n")
    rc = cli.main(["run", cfg, "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    # line 5 is the [router] header
    assert f"config error: line 5: router transmit plan: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("line, message", [
    ("channels =", "router needs at least one channel"),
    ("channels = 6,3", "router channel 3 invalid"),
    ("power_delay_us = 0", "inter-packet delay must be > 0 us"),
    ("power_size_bytes = 0", "packet size must be 1-1500 bytes"),
    # a power frame is no longer than a data frame
    ("power_size_bytes = 1501", "packet size must be 1-1500 bytes"),
    ("power_size_bytes = 1000000000", "packet size must be 1-1500 bytes"),
    ("queue_threshold = 0", "queue threshold must be >= 1 frame"),
], ids=["no_channels", "bad_channel", "delay_zero", "size_zero", "size_over_a_frame",
        "size_huge", "threshold_zero"])
def test_router_errors_carry_the_header_line(tmp_path, capsys, line, message):
    cfg = write_cfg(tmp_path, BASIC.replace("channels = 6", line))
    assert cli.main(["run", cfg, "--out-dir", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"config error: line 5: {message}\n"


def test_an_equal_share_rate_outside_the_rate_set_carries_the_header_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    BASIC.replace("PoWiFi", "EqualShare") + "equal_share_rate_mbps = 25\n")
    assert cli.main(["run", cfg, "--out-dir", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        "config error: line 5: rate 25.0 Mbps not in the allowed rate set\n")


def test_a_harvester_closer_than_the_range_floor_exits_2(tmp_path, capsys):
    # at 1e-300 m the link budget overflowed into a runtime error
    cfg = write_cfg(tmp_path, BASIC + "[harvester h1]\ndistance_m = 1e-300\n")
    assert cli.main(["run", cfg, "--out-dir", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        "config error: line 8: harvester 'h1': distance must be >= 0.01 m\n")
    assert not (tmp_path / "x").exists()


def test_a_sweep_closer_than_the_range_floor_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["sweep", scenario.bundled_config("temp_sensor_range.cfg"), "--var", "distance",
                   "--values", "1e-300", "--duration", "1", "--out-dir", str(out)])
    assert rc == 2
    assert "distance must be >= 0.01 m" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "MemoryError"),
    (ZeroDivisionError("float division by zero"), "float division by zero"),
])
def test_a_runtime_error_names_itself(tmp_path, capsys, monkeypatch, exc, message):
    def fail(sc):
        raise exc

    monkeypatch.setattr(scenario, "run", fail)
    assert cli.main(["run", write_cfg(tmp_path, BASIC), "--out-dir", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err == f"runtime error: {message}\n"


def test_a_runtime_error_is_written_after_the_failed_run_is_freed(tmp_path, monkeypatch):
    class Held:
        pass

    held = []

    def fail(sc):
        frame_local = Held()
        held.append(weakref.ref(frame_local))
        try:
            raise MemoryError
        except MemoryError:
            raise MemoryError from None  # its context holds this frame too

    written = []

    class Stderr:
        def write(self, text):
            written.append((text, held[0]() is None))

    monkeypatch.setattr(scenario, "run", fail)
    monkeypatch.setattr(sys, "stderr", Stderr())
    assert cli.main(["run", write_cfg(tmp_path, BASIC), "--out-dir", str(tmp_path / "x")]) == 3
    assert written == [("runtime error: MemoryError\n", True)]


def test_missing_file_exit_code(tmp_path, capsys):
    rc = cli.main(["run", str(tmp_path / "missing.cfg")])
    assert rc == 2


@pytest.mark.parametrize("out_dir", ["", "a_file", "a_file/sub"])
def test_unwritable_out_dir_exit_2(tmp_path, capsys, out_dir):
    cfg = write_cfg(tmp_path, BASIC)
    (tmp_path / "a_file").write_text("")
    out = str(tmp_path / out_dir) if out_dir else out_dir
    assert cli.main(["run", cfg, "--out-dir", out, "--duration", "0.1"]) == 2
    assert capsys.readouterr().err.startswith("output error: ")


def test_fcc_subcommand(capsys):
    rc = cli.main(["fcc", "--n-ant", "3", "--gain-dbi", "6", "--total-dbm", "30"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "compliant=yes" in out
    rc = cli.main(["fcc", "--n-ant", "3", "--gain-dbi", "6", "--total-dbm", "30",
                   "--correlated"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "compliant=no" in out
    assert "margin_db=-4.7712" in out


@pytest.mark.parametrize("arg, message", [
    ("--n-ant=0", "router transmit plan: n_ant must be >= 1, got 0"),
    ("--gain-dbi=nan", "--gain-dbi: not a finite number: 'nan'"),
    ("--total-dbm=inf", "--total-dbm: not a finite number: 'inf'"),
    ("--total-dbm=-inf", "--total-dbm: not a finite number: '-inf'"),
    ("--efficiency=2", "router transmit plan: beamforming_efficiency must be in (0, 1], got 2.0"),
], ids=["no_antennas", "gain_nan", "total_inf", "total_minus_inf", "efficiency_two"])
def test_fcc_bad_plan_exits_2(capsys, arg, message):
    # each option is read by its [router] key's reader, and the plan is
    # checked as the config path checks it
    assert cli.main(["fcc", arg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command, label", [
    ("run", "config error: cannot read scenario file"),
    ("analyze", "trace error: cannot read trace file"),
])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, command, label):
    path = tmp_path / "in.txt"
    path.write_bytes(b"\xff\xfe0.0,1,r,beacon,300,1,delivered\n")
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(label)
    assert "can't decode byte 0xff in position 0" in err


def test_analyze_subcommand(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text(
        "0.0,1,r,power_broadcast,1500,54,delivered\n"
        "0.0,6,r,power_broadcast,1500,54,delivered\n"
    )
    rc = cli.main(["analyze", str(trace), "--window", "0,1000000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "occupancy_ch1=0.000222" in out
    assert "occupancy_cumulative=0.000444" in out


def test_analyze_station_filter(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text(
        "0.0,1,ours,power_broadcast,1500,54,delivered\n"
        "300.0,1,theirs,neighbor_data,1500,54,delivered\n"
    )
    rc = cli.main(["analyze", str(trace), "--window", "0,1000000",
                   "--stations", "ours"])
    assert rc == 0
    assert "occupancy_ch1=0.000222" in capsys.readouterr().out


def test_analyze_malformed_trace_exit(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("bad line\n")
    rc = cli.main(["analyze", str(trace)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("trace error: line 1: expected 7 fields")


@pytest.mark.parametrize("name", ["missing.txt", "a_directory"])
def test_analyze_unreadable_trace_exit_2(tmp_path, capsys, name):
    (tmp_path / "a_directory").mkdir()
    path = str(tmp_path / name)
    assert cli.main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace error: cannot read trace file")
    assert path in err


@pytest.mark.parametrize("text, line", [
    ("inf,1,r,beacon,300,1,delivered\n0.0,1,r,beacon,300,1,delivered\n", 1),
    # the second line's tail is already known, so its start takes the fast path
    ("0.0,1,r,beacon,300,1,delivered\nnan,1,r,beacon,300,1,delivered\n", 2),
    ("-3000.0,1,r,beacon,300,1,delivered\n0.0,1,r,beacon,300,1,delivered\n", 1),
    ("0.0,1,r,beacon,300,1,delivered\n-3000.0,1,r,beacon,300,1,delivered\n", 2),
], ids=["inf_first", "nan_after_a_valid_line", "negative_first",
        "negative_after_a_valid_line"])
def test_analyze_non_finite_start_exit_2(tmp_path, capsys, text, line):
    trace = tmp_path / "t.txt"
    trace.write_text(text)
    assert cli.main(["analyze", str(trace)]) == 2
    assert capsys.readouterr().err.startswith(f"trace error: line {line}: start time")


def test_sweep_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASIC)
    out = tmp_path / "out"
    rc = cli.main([
        "sweep", cfg, "--var", "inter_packet_delay", "--values", "100,400",
        "--out-dir", str(out), "--duration", "3",
    ])
    assert rc == 0
    text = (out / "sweep_inter_packet_delay.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("value,")
    assert len(lines) == 3


@pytest.mark.parametrize("var, values, message", [
    ("distance", "4,nan", "sweep value 'nan' for distance: not a finite number"),
    ("wall_material", "steel", "sweep value 'steel' for wall_material: 'steel' is not a valid"),
    ("inter_packet_delay", "inf", "sweep value 'inf' for inter_packet_delay: not a finite"),
], ids=["distance_nan", "wall_steel", "delay_inf"])
def test_sweep_values_take_their_config_key_rule(tmp_path, capsys, var, values, message):
    # each value is read as the config key it stands for, where a nan
    # distance, an unknown wall or an infinite delay is a config error
    out = tmp_path / "out"
    cfg = scenario.bundled_config("temp_sensor_range.cfg")
    rc = cli.main(["sweep", cfg, "--var", var, "--values", values, "--duration", "1",
                   "--out-dir", str(out)])
    assert rc == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_sweep_needs_at_least_one_seed(tmp_path, capsys, seeds):
    out = tmp_path / "out"
    rc = cli.main(["sweep", write_cfg(tmp_path, BASIC), "--var", "inter_packet_delay",
                   "--values", "100", "--seeds", seeds, "--duration", "1",
                   "--out-dir", str(out)])
    assert rc == 2
    assert f"config error: --seeds must be >= 1, got {seeds}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("occupancy_bin_ms = 0", "occupancy_bin_ms must be finite and > 0"),
    ("throughput_bin_ms = -5", "throughput_bin_ms must be finite and > 0"),
    ("mac_window_s = nan", "line 4: key 'mac_window_s': not a finite number"),
    ("occupancy_bin_ms = nan", "line 4: key 'occupancy_bin_ms': not a finite number"),
    ("duration_s = inf", "line 4: key 'duration_s': not a finite number"),
], ids=["occupancy_bin_zero", "throughput_bin_negative", "mac_window_nan",
        "occupancy_bin_nan", "duration_inf"])
def test_bad_bins_and_windows_exit_2(tmp_path, capsys, line, message):
    cfg = write_cfg(tmp_path, BASIC.replace("seed = 5\n", "seed = 5\n" + line + "\n"))
    rc = cli.main(["run", cfg, "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_non_finite_duration_override_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASIC)
    rc = cli.main(["run", cfg, "--out-dir", str(tmp_path / "x"), "--duration", "nan"])
    assert rc == 2
    assert "duration_s must be finite and > 0" in capsys.readouterr().err


def test_duration_override_past_2_52_envelope_periods_exit_2(tmp_path, capsys):
    # a config without a harvester, which would run its MAC window and exit 0
    out = tmp_path / "x"
    rc = cli.main(["run", scenario.bundled_config("delay_sweep.cfg"), "--duration", "1e300",
                   "--out-dir", str(out)])
    assert rc == 2
    assert "config error: duration_s makes over 2**52 periods" in capsys.readouterr().err
    assert not out.exists()


def test_duration_override_past_a_million_bins_rejected(tmp_path):
    # 0.01 ms bins: 3e5 over the 3 s window, 6e6 over the 60 s window
    # that a 1000 s duration gives
    cfg = write_cfg(tmp_path, BASIC.replace("seed = 5\n", "seed = 5\noccupancy_bin_ms = 0.01\n"))
    args = argparse.Namespace(cfg=cfg, seed=None, duration=None)
    assert cli._load(args).occupancy_bin_ms == 0.01
    args.duration = 1000.0
    with pytest.raises(ConfigError, match="occupancy_bin_ms makes over 1000000 bins"):
        cli._load(args)


@pytest.mark.parametrize("window", ["nan,1000", "0,inf", "abc,1", "0", "0,1,2", "5,1", "5,5"])
def test_analyze_bad_window_exit_2(tmp_path, capsys, window):
    trace = tmp_path / "t.txt"
    trace.write_text("0.0,6,r,power_broadcast,1500,54,delivered\n")
    rc = cli.main(["analyze", str(trace), "--window", window])
    assert rc == 2
    assert "--window expects" in capsys.readouterr().err


SCHEME_CFG = """
duration_s = 1
seed = 5
mac_window_s = 0.05

[router]
scheme = {scheme}
channels = 6
{line}
"""


@pytest.mark.parametrize("line, code", [
    ("power_delay_us = 0", 2),
    ("power_delay_us = -1", 2),
    ("power_size_bytes = 0", 2),
    ("power_size_bytes = 1501", 2),
    ("queue_threshold = 0", 2),
    ("", 0),
], ids=["delay_zero", "delay_negative", "size_zero", "size_over_a_frame", "threshold_zero",
        "defaults"])
@pytest.mark.parametrize("scheme", router.SCHEME_NAMES)
def test_power_settings_are_checked_under_every_scheme(tmp_path, capsys, scheme, line, code):
    # Baseline sends no power packets and the ungated schemes use no
    # threshold, yet a bad power setting is a config error under each
    if scheme == "EqualShare":  # no neighbor here to take the rate from
        line += "\nequal_share_rate_mbps = 24"
    cfg = write_cfg(tmp_path, SCHEME_CFG.format(scheme=scheme, line=line))
    rc = cli.main(["run", cfg, "--out-dir", str(tmp_path / "x")])
    assert rc == code
    assert (tmp_path / "x").exists() == (code == 0)
    if code:
        assert "config error" in capsys.readouterr().err


ARRIVALS_CFG = """
duration_s = 0.02
seed = 1

[router]
scheme = BlindUDP
power_delay_us = {delay!r}
"""

WINDOW_US = 0.02 * 1e6  # as `scenario.run` scales the 0.02 s window


def _run_within(seconds, argv):
    """`cli.main(argv)`, stopped after `seconds` by an alarm that the CLI
    reports as a runtime error (exit 3)."""
    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        return cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("delay", [1e-300, 0.99 * WINDOW_US / 2**52],
                         ids=["1e-300", "just_past_the_bound"])
def test_more_than_2_52_arrivals_in_the_window_exit_2(tmp_path, capsys, delay):
    cfg = write_cfg(tmp_path, ARRIVALS_CFG.format(delay=delay))
    assert _run_within(20, ["run", cfg, "--out-dir", str(tmp_path / "x")]) == 2
    assert "over 2**52 arrivals in the MAC window" in capsys.readouterr().err


@pytest.mark.parametrize("delay", [1e-6, 1.01 * WINDOW_US / 2**52],
                         ids=["1e-6", "just_inside_the_bound"])
def test_ungated_arrivals_are_counted_in_closed_form(tmp_path, delay):
    # BlindUDP admits every arrival k * delay < window, however many
    cfg = write_cfg(tmp_path, ARRIVALS_CFG.format(delay=delay))
    out = tmp_path / "out"
    assert _run_within(20, ["run", cfg, "--out-dir", str(out)]) == 0
    arrivals = int(WINDOW_US / delay)
    while arrivals * delay < WINDOW_US:
        arrivals += 1
    while (arrivals - 1) * delay >= WINDOW_US:
        arrivals -= 1
    summary = (out / "summary.txt").read_text()
    for ch in (1, 6, 11):
        assert f"power_admitted_ch{ch}={arrivals}\n" in summary
        assert f"power_dropped_ch{ch}=0\n" in summary


START_CFG = """
duration_s = 0.1
seed = 5

[router]
channels = 1

[station c1]
role = client
channel = 1
traffic = {traffic}
target_mbps = 12
start_ms = {start}
"""


@pytest.mark.parametrize("traffic, start, message", [
    ("udp_cbr", -10, "start_ms must be >= 0"),
    ("backlogged", 5, "start_ms applies to udp_cbr and burst traffic"),
    ("none", 5, "start_ms applies to udp_cbr and burst traffic"),
])
def test_start_ms_without_a_meaning_exits_2(tmp_path, capsys, traffic, start, message):
    cfg = write_cfg(tmp_path, START_CFG.format(traffic=traffic, start=start))
    assert cli.main(["run", cfg, "--out-dir", str(tmp_path / "x")]) == 2
    assert f"config error: line 8: station 'c1': {message}\n" in capsys.readouterr().err


def test_window_shorter_than_a_bin_reads_its_own_length(tmp_path):
    # a 50 ms window with 500 ms bins is one bin, 50 ms long: its bin
    # reads the window's occupancy and the 24 Mbps client's throughput
    out = tmp_path / "out"
    cfg = scenario.bundled_config("powifi_default.cfg")
    assert cli.main(["run", cfg, "--duration", "0.05", "--out-dir", str(out)]) == 0
    summary = dict(line.split("=", 1)
                   for line in (out / "summary.txt").read_text().splitlines())
    rows = (out / "occupancy.csv").read_text().splitlines()[1:]
    assert len(rows) == 1
    t_ms, ch1, ch6, ch11, cumulative = rows[0].split(",")
    assert (t_ms, ch1, ch6, ch11, cumulative) == (
        "0.0", summary["occupancy_ch1"], summary["occupancy_ch6"],
        summary["occupancy_ch11"], summary["occupancy_cumulative"],
    )
    flows = [line.split(",") for line in (out / "throughput.csv").read_text().splitlines()[1:]]
    assert [(t, flow) for t, flow, _ in flows] == [("0.0", "client1")]
    assert float(flows[0][2]) == pytest.approx(22.8, abs=0.5)
    assert float(summary["throughput_mbps.client1"]) == float(flows[0][2])


@pytest.mark.parametrize("text, line, message", [
    ("duration_s = 3\nseed = 1\nseed = 2\n", 3, "key 'seed' set twice"),
    (BASIC + "channels = 1\n", 8, "key 'channels' set twice in [router]"),
    (BASIC + "equal_share_rate_mbps = 24\n", 5,
     "equal_share_rate_mbps applies to scheme EqualShare only"),
    ("duration_s = 3\nseed = 1\n[router]\nequal_share_rate_mbps = 24\n", 3,
     "equal_share_rate_mbps applies to scheme EqualShare only"),
    (BASIC + "[harvester h1]\nchannels =\n", 8, "harvester 'h1': needs at least one channel"),
    (BASIC + "[station c1]\nchannel = 6\n[station c1]\nchannel = 6\n", 10,
     "station id 'c1' is already used at line 8"),
    (BASIC + "[station router_ch6]\nrole = neighbor_ap\nchannel = 6\n", 8,
     "station id 'router_ch6' is taken by the router"),
    (BASIC + "[harvester h1]\n[harvester h1]\n", 9, "harvester id 'h1' is already used at line 8"),
    (BASIC + "[mac]\n[mac]\n", 9, "duplicate section [mac]"),
], ids=["top_key_twice", "router_key_twice", "rate_under_powifi", "rate_without_scheme",
        "harvester_without_channels", "station_id_twice", "station_id_of_the_router",
        "harvester_id_twice", "mac_twice"])
def test_config_findings_exit_2_with_their_line(tmp_path, capsys, text, line, message):
    rc = cli.main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert f"config error: line {line}: {message}" in capsys.readouterr().err
