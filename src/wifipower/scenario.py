"""Scenario description, deterministic execution, and report generation.

A scenario is a human-editable key-value config describing one
experiment: the router's transmit plan and power scheme, client and
neighbor stations with their traffic, and harvesters placed at some
link geometry. Running it produces a ReportSet whose CSV outputs are
byte-identical for identical (config, seed) pairs.

Timeline model: the MAC engine simulates `mac_window_s` of channel
activity exactly; harvesters are then driven for the full
`duration_s` over a periodic incident-power envelope whose per-channel
duty factors and receive powers come from that MAC window. The
envelope abstraction is what makes day-long harvester timelines cheap
while keeping every MAC metric frame-accurate.
"""

from __future__ import annotations

import functools
import io
import math
import os
import re
from dataclasses import dataclass, field, fields, replace
from typing import Iterator, Optional, Sequence

from . import fcc, harvester as hv, mac, rf, router
from .errors import ConfigError, TraceFormatError
from .units import METERS_PER_FOOT, GainDbi, PowerDbm, sum_in_order

#: Most report bins a bin key may ask for over the MAC window.
MAX_BINS = 10**6
ENVELOPE_PERIOD_S = hv.ENVELOPE_PERIOD_S

#: Sweep variable -> the config section and key whose values it takes,
#: the confs of a scenario it sets, and what a scenario needs to have one.
_SWEEPS = {
    "distance": ("harvester", "distance_ft", lambda sc: sc.harvesters[:1], "a harvester"),
    "inter_packet_delay": ("router", "power_delay_us", lambda sc: [sc.router], ""),
    "udp_target_rate": (
        "station", "target_mbps",
        lambda sc: [s for s in sc.stations if s.traffic == "udp_cbr" and s.role == "client"][:1],
        "a udp_cbr client"),
    "neighbor_rate": (
        "station", "rate_mbps",
        lambda sc: [s for s in sc.stations if s.role == "neighbor_ap"],
        "a neighbor_ap station"),
    "wall_material": ("harvester", "wall", lambda sc: sc.harvesters[:1], "a harvester"),
    # a factor on udp_cbr neighbours' rate
    "neighbor_load": (
        "station", "target_mbps",
        lambda sc: [s for s in sc.stations if s.role == "neighbor_ap" and s.traffic == "udp_cbr"],
        "udp_cbr neighbors"),
}
SWEEP_VARIABLES = tuple(_SWEEPS)


# ---------------------------------------------------------------------------
# Scenario model


@dataclass
class RouterConf:
    scheme: str = "PoWiFi"
    equal_share_rate_mbps: Optional[float] = None  # EqualShare only; else the neighbor's
    channels: tuple[int, ...] = (1, 6, 11)
    tx_total_dbm: float = 30.0
    antenna_gain_dbi: float = 6.0
    n_antennas: int = 3
    correlated: bool = False
    beamforming_efficiency: float = 1.0
    power_delay_us: float = 100.0
    power_size_bytes: int = 1500
    queue_threshold: int = 5

    def tx_plan(self) -> fcc.TxPlan:
        """The router's transmit plan; a bad number is a ConfigError."""
        try:
            return fcc.TxPlan(
                n_ant=self.n_antennas,
                g_ant=GainDbi(self.antenna_gain_dbi),
                total_conducted=PowerDbm(self.tx_total_dbm),
                correlated=self.correlated,
                beamforming_efficiency=self.beamforming_efficiency,
            )
        except ValueError as exc:
            raise ConfigError(f"router transmit plan: {exc}") from None

    def station_ids(self) -> tuple[str, ...]:
        """The router's MAC station id on each of its channels."""
        return tuple(f"router_ch{ch}" for ch in self.channels)

    def validate(self) -> None:
        if self.scheme not in router.SCHEMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r} (choose from {router.SCHEME_NAMES})"
            )
        if self.equal_share_rate_mbps is not None and self.scheme != "EqualShare":
            raise ConfigError("equal_share_rate_mbps applies to scheme EqualShare only")
        self.tx_plan()  # a bad plan raises ConfigError
        if not self.channels:
            raise ConfigError("router needs at least one channel")
        for ch in self.channels:
            if ch not in mac.VALID_CHANNELS:
                raise ConfigError(f"router channel {ch} invalid")
        # checked under every scheme, Baseline and the ungated ones included
        if self.power_delay_us <= 0:
            raise ConfigError("inter-packet delay must be > 0 us")
        if self.power_size_bytes < 1:
            raise ConfigError("packet size must be >= 1 byte")
        if self.queue_threshold < 1:
            raise ConfigError("queue threshold must be >= 1 frame")
        if self.equal_share_rate_mbps is not None:  # a rate of the rate set
            mac.payload_airtime_us(self.power_size_bytes, self.equal_share_rate_mbps)


@dataclass
class StationConf:
    station_id: str
    role: str = "client"  # client | neighbor_ap
    channel: int = 1
    rate_mbps: float = 54.0
    traffic: str = "none"  # udp_cbr | backlogged | burst | none
    target_mbps: float = 0.0
    burst_bytes: int = 0
    burst_on_ms: float = 0.0
    burst_off_ms: float = 0.0
    start_ms: float = 0.0

    def validate(self) -> None:
        if self.role not in ("client", "neighbor_ap"):
            raise ConfigError(f"station {self.station_id!r}: unknown role {self.role!r}")
        if self.channel not in mac.VALID_CHANNELS:
            raise ConfigError(
                f"station {self.station_id!r}: channel must be one of "
                f"{mac.VALID_CHANNELS}"
            )
        if self.traffic not in ("udp_cbr", "backlogged", "burst", "none"):
            raise ConfigError(
                f"station {self.station_id!r}: unknown traffic {self.traffic!r}"
            )
        if self.traffic == "udp_cbr" and self.target_mbps <= 0:
            raise ConfigError(
                f"station {self.station_id!r}: udp_cbr needs target_mbps > 0"
            )
        if self.traffic == "burst" and (
            self.burst_bytes <= 0 or self.burst_on_ms <= 0 or self.burst_off_ms < 0
        ):
            raise ConfigError(
                f"station {self.station_id!r}: burst needs burst_bytes, "
                f"burst_on_ms and burst_off_ms"
            )
        if self.start_ms < 0:
            raise ConfigError(f"station {self.station_id!r}: start_ms must be >= 0")
        if self.start_ms and self.traffic not in ("udp_cbr", "burst"):
            raise ConfigError(
                f"station {self.station_id!r}: start_ms applies to udp_cbr and burst traffic"
            )
        mac.payload_airtime_us(1500, self.rate_mbps)


@dataclass
class HarvesterConf:
    harvester_id: str
    kind: str = "temp_battery_free"
    distance_m: float = 3.048
    wall: rf.WallMaterial = rf.WallMaterial.NONE
    g_rx_dbi: float = 2.0
    channels: tuple[int, ...] = (1, 6, 11)

    def validate(self) -> None:
        if self.kind not in hv.PRESETS:
            raise ConfigError(
                f"harvester {self.harvester_id!r}: unknown kind {self.kind!r} "
                f"(choose from {sorted(hv.PRESETS)})"
            )
        # the range search's floor; much closer the link budget overflows
        if not rf.MIN_RANGE_M <= self.distance_m < math.inf:
            raise ConfigError(
                f"harvester {self.harvester_id!r}: distance must be >= {rf.MIN_RANGE_M} m"
            )
        if not self.channels:
            raise ConfigError(f"harvester {self.harvester_id!r}: needs at least one channel")
        for ch in self.channels:
            if ch not in mac.VALID_CHANNELS:
                raise ConfigError(
                    f"harvester {self.harvester_id!r}: channel {ch} invalid"
                )

    def config(self) -> hv.HarvesterConfig:
        return hv.PRESETS[self.kind]()


@dataclass
class Scenario:
    duration_s: float
    seed: int
    router: RouterConf = field(default_factory=RouterConf)
    stations: list[StationConf] = field(default_factory=list)
    harvesters: list[HarvesterConf] = field(default_factory=list)
    mac_params: mac.MacParams = field(default_factory=mac.MacParams)
    mac_window_s: float = 60.0
    occupancy_bin_ms: float = 500.0
    throughput_bin_ms: float = 500.0

    def validate(self) -> None:
        if self.seed is None:
            raise ConfigError("seed is mandatory")
        for name in ("duration_s", "mac_window_s", "occupancy_bin_ms", "throughput_bin_ms"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        # past ~2**52 envelope periods, consecutive period starts stop being distinct
        if self.duration_s / ENVELOPE_PERIOD_S >= 2**52:
            raise ConfigError(f"duration_s makes over 2**52 periods of {ENVELOPE_PERIOD_S} s")
        window_ms = self.effective_mac_window_s() * 1000.0
        for name in ("occupancy_bin_ms", "throughput_bin_ms"):
            if window_ms / getattr(self, name) > MAX_BINS:
                raise ConfigError(
                    f"{name} makes over {MAX_BINS} bins in the "
                    f"{window_ms / 1000.0} s MAC window"
                )
        self.router.validate()
        ids = [*self.router.station_ids(), *(s.station_id for s in self.stations)]
        if len(set(ids)) != len(ids):
            raise ConfigError("station ids must be unique")
        hids = [h.harvester_id for h in self.harvesters]
        if len(set(hids)) != len(hids):
            raise ConfigError("harvester ids must be unique")
        for s in self.stations:
            s.validate()
            if s.role == "client" and s.channel not in self.router.channels:
                raise ConfigError(
                    f"station {s.station_id!r}: client channel {s.channel} is "
                    f"not served by the router"
                )
        for h in self.harvesters:
            h.validate()
        if self.router.scheme == "EqualShare" and self.share_rate_mbps() is None:
            raise ConfigError("EqualShare needs a neighbor station or explicit rate")

    def effective_mac_window_s(self) -> float:
        return min(self.mac_window_s, self.duration_s)

    def share_rate_mbps(self) -> Optional[float]:
        """EqualShare's rate: the router's, else the fastest neighbor's."""
        if self.router.equal_share_rate_mbps is not None:
            return self.router.equal_share_rate_mbps
        return max((s.rate_mbps for s in self.stations if s.role == "neighbor_ap"), default=None)


# ---------------------------------------------------------------------------
# Config file parsing

#: Station and harvester ids are written into CSV and trace fields, so
#: they may not hold separators, spaces or comment marks.
_SAFE_ID = re.compile(r"[A-Za-z0-9_.-]+")


def _read_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _read_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _read_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(x.strip()) for x in raw.split(",") if x.strip())


#: The reader of a config value, by the annotation of its field.
_READERS = {
    "float": _read_float,
    "int": int,
    "str": str,
    "bool": _read_bool,
    "tuple[int, ...]": _read_ints,
    "Optional[float]": _read_float,
}


def _keys(cls, skip: tuple[str, ...] = (), **extra) -> dict:
    """Key -> reader for a section read into `cls`: each field but those
    in `skip`, with `extra` keys read their own way."""
    keys = dict(extra)
    for f in fields(cls):
        if f.name in skip or f.name in extra:
            continue
        if f.type not in _READERS:
            raise TypeError(f"{cls.__name__}.{f.name}: no reader for {f.type!r}")
        keys[f.name] = _READERS[f.type]
    return keys


#: Section name (None for the top level) -> its keys and their readers.
_SECTION_KEYS = {
    None: _keys(Scenario, skip=("router", "stations", "harvesters", "mac_params")),
    "router": _keys(RouterConf),
    "mac": _keys(mac.MacParams),
    "station": _keys(StationConf, skip=("station_id",)),
    # `distance_ft` is `distance_m` given in feet
    "harvester": _keys(
        HarvesterConf, skip=("harvester_id",), distance_ft=_read_float, wall=rf.WallMaterial
    ),
}


def _conf_field(key: str, value) -> tuple[str, object]:
    """The conf field a section key sets, and its value: `distance_ft`
    sets `distance_m`, and every other key its own field."""
    return ("distance_m", value * METERS_PER_FOOT) if key == "distance_ft" else (key, value)


def _build_section(name: str, sid: Optional[str], keys: dict):
    """The conf object of one section, validated as far as it alone can be."""
    if name == "mac":
        return mac.MacParams(**keys)
    if name == "router":
        conf = RouterConf(**keys)
    elif name == "station":
        conf = StationConf(sid, **keys)
    else:
        if "distance_ft" in keys and "distance_m" in keys:
            raise ConfigError(f"harvester {sid!r}: give distance_ft or distance_m, not both")
        conf = HarvesterConf(sid, **dict(_conf_field(k, v) for k, v in keys.items()))
    conf.validate()
    return conf


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario config.

    Errors carry the line number and the offending key or section.
    """
    top: dict = {}
    keys, section = top, None
    # (name, id) -> (header line, keys) of each section, in file order
    sections: dict[tuple[str, Optional[str]], tuple[int, dict]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            section, *ids = header.split(None, 1) or [""]
            sid = ids[0] if ids else None
            if section not in _SECTION_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{header}]")
            if section in ("station", "harvester"):
                if sid is None:
                    raise ConfigError(f"line {lineno}: {section} section needs an id")
                if not _SAFE_ID.fullmatch(sid):
                    raise ConfigError(
                        f"line {lineno}: {section} id {sid!r} may hold only "
                        f"letters, digits, '_', '.' and '-'"
                    )
            elif sid is not None:
                raise ConfigError(f"line {lineno}: section [{section}] takes no id")
            if (section, sid) in sections:
                raise ConfigError(
                    f"line {lineno}: duplicate section [{section}]" if sid is None else
                    f"line {lineno}: {section} id {sid!r} is already used at line "
                    f"{sections[section, sid][0]}"
                )
            keys = {}
            sections[section, sid] = (lineno, keys)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw_val = line.partition("=")
        key = key.strip()
        readers = _SECTION_KEYS[section]
        where = f" in [{section}]" if section else ""
        if key not in readers:
            raise ConfigError(f"line {lineno}: unknown key {key!r}{where}")
        try:
            value = readers[key](raw_val.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from exc
        if key in keys:
            raise ConfigError(f"line {lineno}: key {key!r} set twice{where}")
        keys[key] = value

    for key in ("duration_s", "seed"):
        if key not in top:
            raise ConfigError(f"missing mandatory key {key!r}")
    confs: dict = {"stations": [], "harvesters": []}
    for (name, sid), (lineno, data) in sections.items():
        try:
            conf = _build_section(name, sid, data)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        if sid is None:
            confs["mac_params" if name == "mac" else name] = conf
        else:
            confs[name + "s"].append(conf)
    sc = Scenario(**top, **confs)
    router_ids = sc.router.station_ids()
    for (name, sid), (lineno, _) in sections.items():
        if name == "station" and sid in router_ids:
            raise ConfigError(f"line {lineno}: station id {sid!r} is taken by the router")
    sc.validate()
    return sc


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path!r}: {exc}") from exc
    return parse_scenario(text)


def bundled_config(name: str) -> str:
    """Filesystem path of a config shipped with the package."""
    from importlib import resources

    path = resources.files(__package__) / "configs" / name
    if not path.is_file():
        available = sorted(
            p.name for p in (resources.files(__package__) / "configs").iterdir()
        )
        raise ConfigError(f"no bundled config {name!r}; available: {available}")
    return str(path)


# ---------------------------------------------------------------------------
# Execution


@dataclass
class ReportSet:
    scenario: Scenario
    occupancy_bins: dict[int, list[float]]  # channel -> per-bin occupancy
    occupancy_mean: dict[int, float]
    cumulative_mean: float
    throughput: dict[str, list[float]]  # flow -> per-bin Mbps
    throughput_mean: dict[str, float]
    burst_completions_ms: dict[str, list[float]]
    power_stats: dict[int, mac.FlowStats]
    harvester_events: dict[str, list[tuple[float, str, float]]]
    harvester_summary: dict[str, dict[str, float]]
    traces: dict[int, mac.ChannelTrace]
    router_station_ids: tuple[str, ...]

    # -- outputs ------------------------------------------------------------

    def occupancy_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t_ms,ch1,ch6,ch11,cumulative\n")
        bin_ms = self.scenario.occupancy_bin_ms
        cumulative = (sum_in_order(col) for col in zip(*self.occupancy_bins.values()))
        for i, cum in enumerate(cumulative):
            cells = [f"{i * bin_ms:.1f}"]
            for ch in (1, 6, 11):
                v = self.occupancy_bins.get(ch)
                cells.append(f"{v[i]:.6f}" if v is not None else "0.000000")
            cells.append(f"{cum:.6f}")
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()

    def throughput_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t_ms,flow,mbps\n")
        bin_ms = self.scenario.throughput_bin_ms
        for flow in sorted(self.throughput):
            for i, v in enumerate(self.throughput[flow]):
                buf.write(f"{i * bin_ms:.1f},{flow},{v:.6f}\n")
        return buf.getvalue()

    def harvester_csv(self) -> str:
        """One line per harvester event. A harvester logs few distinct
        (v_store, event) pairs, so each line tail is formatted once."""
        parts = ["t_s,id,v_store,event\n"]
        for hid in sorted(self.harvester_events):
            tails: dict[tuple[float, str], str] = {}
            for t, event, v in self.harvester_events[hid]:
                tail = tails.get((v, event))
                if tail is None:
                    tail = tails[v, event] = f",{hid},{v:.6f},{event}\n"
                parts.append(f"{t:.9f}{tail}")
        return "".join(parts)

    def summary_text(self) -> str:
        lines = []
        for ch in sorted(self.occupancy_mean):
            lines.append(f"occupancy_ch{ch}={self.occupancy_mean[ch]:.6f}")
        lines.append(f"occupancy_cumulative={self.cumulative_mean:.6f}")
        for flow in sorted(self.throughput_mean):
            lines.append(f"throughput_mbps.{flow}={self.throughput_mean[flow]:.6f}")
        for flow in sorted(self.burst_completions_ms):
            comps = self.burst_completions_ms[flow]
            if comps:
                mean = sum_in_order(comps) / len(comps)
                lines.append(f"burst_completion_ms.{flow}={mean:.6f}")
        for ch in sorted(self.power_stats):
            st = self.power_stats[ch]
            lines.append(f"power_admitted_ch{ch}={st.admitted}")
            lines.append(f"power_dropped_ch{ch}={st.dropped_gate}")
        for hid in sorted(self.harvester_summary):
            for k, v in sorted(self.harvester_summary[hid].items()):
                lines.append(f"harvester.{hid}.{k}={v:.6f}")
        return "\n".join(lines) + "\n"

    def trace_chunks(self) -> Iterator[str]:
        """The trace export one channel at a time, in channel order."""
        for ch in sorted(self.traces):
            yield mac.export_trace([self.traces[ch]])

    def write_outputs(self, out_dir: str) -> None:
        """Write the five reports; trace.txt is written chunk by chunk,
        so the whole trace is never one string."""
        os.makedirs(out_dir, exist_ok=True)
        for name, chunks in (
            ("occupancy.csv", [self.occupancy_csv()]),
            ("throughput.csv", [self.throughput_csv()]),
            ("harvester.csv", [self.harvester_csv()]),
            ("summary.txt", [self.summary_text()]),
            ("trace.txt", self.trace_chunks()),
        ):
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                fh.writelines(chunks)


def build_stations(sc: Scenario) -> tuple[list[mac.StationSpec], tuple[str, ...]]:
    """MAC station specs for a scenario: router APs, then neighbors."""
    rc = sc.router
    share_rate = sc.share_rate_mbps()
    specs: list[mac.StationSpec] = []
    router_ids = rc.station_ids()
    client_flows: dict[int, list[mac.FlowSpec]] = {}
    for st in sc.stations:
        if st.role != "client" or st.traffic == "none":
            continue
        client_flows.setdefault(st.channel, []).append(_traffic_flow(st, via_router=True))
    for ch, sid in zip(rc.channels, router_ids):
        flows: list[mac.FlowSpec] = list(client_flows.get(ch, ()))
        power = router.power_flow(
            rc.scheme, sid, rc.power_delay_us, rc.power_size_bytes, rc.queue_threshold,
            share_rate,
        )
        if power is not None:
            flows.append(power)
        specs.append(
            mac.StationSpec(station_id=sid, channel=ch, flows=tuple(flows), is_ap=True)
        )
    for st in sc.stations:
        if st.role != "neighbor_ap":
            continue
        flows = () if st.traffic == "none" else (_traffic_flow(st, via_router=False),)
        specs.append(
            mac.StationSpec(
                station_id=st.station_id,
                channel=st.channel,
                flows=tuple(flows),
                is_ap=True,
            )
        )
    return specs, router_ids


def _traffic_flow(st: StationConf, via_router: bool) -> mac.FlowSpec:
    kind = "client_data" if via_router else "neighbor_data"
    name = st.station_id
    if st.traffic == "udp_cbr":
        return mac.cbr_flow_for_target(
            name, kind, st.target_mbps, rate_mbps=st.rate_mbps, start_us=st.start_ms * 1000.0
        )
    if st.traffic == "backlogged":
        return mac.FlowSpec(name=name, kind=kind, rate_mbps=st.rate_mbps)
    if st.traffic == "burst":
        # the burst's bytes all queue at the start of its on-window
        return mac.FlowSpec(
            name=name, kind=kind, rate_mbps=st.rate_mbps,
            frames_per_burst=max(1, math.ceil(st.burst_bytes / 1500)),
            interval_us=(st.burst_on_ms + st.burst_off_ms) * 1000.0,
            start_us=st.start_ms * 1000.0,
        )
    raise ConfigError(f"station {st.station_id!r} has no traffic")


def occupancy_bins(
    trace: mac.ChannelTrace,
    bin_ms: float,
    stations: Optional[Sequence[str]] = None,
) -> tuple[list[float], list[float], float]:
    """Bin start times (ms), `mac.occupancy` of each bin, and the
    payload airtime (us) of the whole window, from `mac.channel_sums`.

    `stations`, when given, keeps only the frames those stations sent.
    """
    bin_us = bin_ms * 1000.0
    if stations is None:
        stations = [row.station_id for row in trace.rows]
    sums = mac.channel_sums(trace, stations, bin_us, bin_us)
    vals = mac.bin_means(sums.occupancy_us, bin_us, trace.duration_us)
    return [i * bin_ms for i in range(len(vals))], vals, sums.payload_us


def harvest_duty(
    trace: mac.ChannelTrace, router_ids: tuple[str, ...], phy_overhead_us: float
) -> float:
    """Fraction of the window with router RF on the air, capped at 1: the
    duty `run` drives the harvesters with (`mac.on_air_us`)."""
    return min(1.0, mac.on_air_us(trace, router_ids, phy_overhead_us) / trace.duration_us)


def _channel_stage(sc: Scenario, specs: list[mac.StationSpec], router_ids: tuple[str, ...],
                   traces: dict[int, mac.ChannelTrace], window_us: float) -> dict:
    """The report fields that depend only on the MAC input, the two bin
    widths and the router ids: one `mac.channel_sums` per channel, the
    bins and means it gives, and the burst completions."""
    occ_bin_us = sc.occupancy_bin_ms * 1000.0
    tput_bin_us = sc.throughput_bin_ms * 1000.0
    sums = {ch: mac.channel_sums(tr, router_ids, occ_bin_us, tput_bin_us)
            for ch, tr in traces.items()}

    occ_bins: dict[int, list[float]] = {}
    occ_mean: dict[int, float] = {}
    for ch in sc.router.channels:
        if ch in sums:
            occ_bins[ch] = mac.bin_means(sums[ch].occupancy_us, occ_bin_us, window_us)
            occ_mean[ch] = sums[ch].payload_us / mac.window_length((0.0, window_us))

    flows = {f.name: f for s in specs for f in s.flows}
    throughput: dict[str, list[float]] = {}
    tput_mean: dict[str, float] = {}
    bursts: dict[str, list[float]] = {}
    for st in sc.stations:
        if st.traffic == "none" or st.channel not in sums:
            continue
        bits = sums[st.channel].bits[st.station_id]
        throughput[st.station_id] = mac.bin_means(bits, tput_bin_us, window_us)
        tput_mean[st.station_id] = sum_in_order(bits) / window_us  # bits per us == Mbps
        if st.traffic == "burst":
            bursts[st.station_id] = router.burst_completion_times_ms(
                traces[st.channel], flows[st.station_id], sc.mac_params.retry_limit)
    return dict(occupancy_bins=occ_bins, occupancy_mean=occ_mean,
                cumulative_mean=sum_in_order(occ_mean.values()), throughput=throughput,
                throughput_mean=tput_mean, burst_completions_ms=bursts)


@functools.lru_cache(maxsize=1, typed=True)
def _kept_stage(*key) -> dict:
    """The channel stage kept for the last distinct key; `run` fills the
    empty dict that a new key gets."""
    return {}


def _fresh(value):
    """A copy of a kept stage value that shares no dict or list with it."""
    if isinstance(value, dict):
        return {k: _fresh(v) for k, v in value.items()}
    return value[:] if isinstance(value, list) else value


def run(sc: Scenario) -> ReportSet:
    """Execute a scenario deterministically and aggregate every metric.
    A run whose channel stage is kept recomputes only its harvesters."""
    sc.validate()
    specs, router_ids = build_stations(sc)
    window_us = sc.effective_mac_window_s() * 1e6
    traces = mac.run_mac(specs, duration_us=window_us, params=sc.mac_params, seed=sc.seed)
    # keyed on the MAC input, the bin widths, the router ids and each station's
    # traffic, since a burst and a CBR station can build equal flows
    stage = _kept_stage(tuple(specs), window_us, sc.mac_params, sc.seed, sc.occupancy_bin_ms,
                        sc.throughput_bin_ms, router_ids,
                        tuple((s.station_id, s.channel, s.traffic) for s in sc.stations))
    if not stage:
        stage.update(reports=_channel_stage(sc, specs, router_ids, traces, window_us), duties={})

    power_stats = {s.channel: traces[s.channel].flow_stats[f.name]
                   for s in specs for f in s.flows if f.kind == "power_broadcast"}

    harv_events: dict[str, list[tuple[float, str, float]]] = {}
    harv_summary: dict[str, dict[str, float]] = {}
    eirp = fcc.plan_eirp(sc.router.tx_plan())
    duties = stage["duties"]  # each summed on first need
    for ch in {ch for h in sc.harvesters for ch in h.channels if ch in traces} - duties.keys():
        duties[ch] = harvest_duty(traces[ch], router_ids, sc.mac_params.phy_overhead_us)
    for h in sc.harvesters:
        cfg = h.config()
        # a channel the router does not serve is silent
        segments = hv.link_envelope(
            eirp, GainDbi(h.g_rx_dbi), h.distance_m, h.wall,
            [(ch, duties.get(ch, 0.0)) for ch in h.channels],
        )
        state = hv.run_envelope(cfg, segments, sc.duration_s)
        harv_events[h.harvester_id] = state.events
        fires = [t for t, e, _ in state.events if e == "sensor_fire"]
        gaps = [b - a for a, b in zip(fires, fires[1:])]
        harv_summary[h.harvester_id] = {
            "boots": float(state.counts["boot"]),
            "fires": float(state.counts["sensor_fire"]),
            "brown_outs": float(state.counts["brown_out"]),
            "update_rate_hz": state.counts["sensor_fire"] / sc.duration_s,
            "mean_interval_s": (sum_in_order(gaps) / len(gaps)) if gaps else math.inf,
            "v_final": state.v_store(cfg),
            "harvested_j": state.harvested_j,
        }

    return ReportSet(
        scenario=sc,
        **_fresh(stage["reports"]),  # the caller's own, to change freely
        power_stats=power_stats,
        harvester_events=harv_events,
        harvester_summary=harv_summary,
        traces=traces,
        router_station_ids=router_ids,
    )


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: tuple

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"unknown sweep variable {self.variable!r} "
                f"(choose from {SWEEP_VARIABLES})"
            )
        if not self.values:
            raise ConfigError("sweep needs at least one value")


def _read_sweep_value(variable: str, value):
    """`value` read as the config key `variable` stands for reads it, so it
    meets that key's rule; `run` validates the scenario it goes into."""
    section, key, _, _ = _SWEEPS[variable]
    try:
        return _SECTION_KEYS[section][key](value)
    except (TypeError, ValueError) as exc:  # TypeError: a value such as None
        raise ConfigError(f"sweep value {value!r} for {variable}: {exc}") from None


def read_sweep_values(variable: str, raw: str) -> tuple:
    """Comma-separated sweep values, each read by `_read_sweep_value`. A
    wall keeps the name the sweep CSV prints."""
    values = []
    for tok in filter(None, map(str.strip, raw.split(","))):
        value = _read_sweep_value(variable, tok)
        values.append(tok if isinstance(value, rf.WallMaterial) else value)
    return tuple(values)


def apply_sweep_value(sc: Scenario, variable: str, value) -> Scenario:
    """A copy of the scenario with one swept variable set as its config key
    sets it (`_read_sweep_value`). Every conf holds only immutable values,
    so copying each one makes it independent."""
    out = replace(sc, router=replace(sc.router), stations=[replace(s) for s in sc.stations],
                  harvesters=[replace(h) for h in sc.harvesters])
    _, key, targets, needs = _SWEEPS[variable]
    confs = targets(out)
    if not confs:
        raise ConfigError(f"{variable} sweep needs {needs}")
    value = _read_sweep_value(variable, value)
    for conf in confs:
        if variable == "neighbor_load":
            conf.target_mbps *= value
        else:
            setattr(conf, *_conf_field(key, value))
    return out


def sweep(
    sc: Scenario, spec: SweepSpec, seeds: Optional[Sequence[int]] = None
) -> list[dict]:
    """One run per (value, seed); aggregated mean/min/max per value.

    Runs go seed by seed, every value for one seed before the next, so
    the runs of a seed share their MAC input wherever the variable
    leaves it unchanged and `mac.run_mac` simulates it once. Rows are
    ordered by value position, and each value's metrics by seed.
    """
    seeds = list(seeds) if seeds else [sc.seed]
    per_value: list[dict[str, list[float]]] = [{} for _ in spec.values]
    for seed in seeds:
        for value, metrics in zip(spec.values, per_value):
            variant = apply_sweep_value(sc, spec.variable, value)
            variant.seed = seed
            for k, v in _sweep_metrics(run(variant)).items():
                metrics.setdefault(k, []).append(v)
    rows = []
    for value, metrics in zip(spec.values, per_value):
        row: dict = {"value": value}
        for k, vals in sorted(metrics.items()):
            row[f"{k}_mean"] = sum_in_order(vals) / len(vals)
            row[f"{k}_min"] = min(vals)
            row[f"{k}_max"] = max(vals)
        rows.append(row)
    return rows


def _sweep_metrics(rep: ReportSet) -> dict[str, float]:
    out: dict[str, float] = {"occupancy_cumulative": rep.cumulative_mean}
    for ch, v in rep.occupancy_mean.items():
        out[f"occupancy_ch{ch}"] = v
    for flow, v in rep.throughput_mean.items():
        out[f"tput.{flow}"] = v
    for flow, comps in rep.burst_completions_ms.items():
        if comps:
            out[f"burst_ms.{flow}"] = sum_in_order(comps) / len(comps)
    for hid, summ in rep.harvester_summary.items():
        out[f"update_hz.{hid}"] = summ["update_rate_hz"]
        if math.isfinite(summ["mean_interval_s"]):
            out[f"interval_s.{hid}"] = summ["mean_interval_s"]
        out[f"boots.{hid}"] = summ["boots"]
    return out


def sweep_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    cols = ["value"] + sorted({k for row in rows for k in row if k != "value"})
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    for row in rows:
        cells = []
        for c in cols:
            v = row.get(c, "")
            if isinstance(v, float):
                cells.append(f"{v:.6f}")
            else:
                cells.append(str(v))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Trace analysis (import side of the capture pipeline)


def analyze_trace(
    path: str,
    window_us: Optional[tuple[float, float]] = None,
    stations: Optional[Sequence[str]] = None,
) -> dict:
    """Per-channel and cumulative occupancy of an exported trace file.

    `stations`, when given, restricts the analysis to frames sent by
    those stations (the usual way to measure one router's own share of
    the medium from a monitor capture). Without a window, every channel
    is measured from 0 to the latest frame end in the file, as
    `mac.parse_trace` sets a trace's duration.

    The file is read line by line and payload airtime summed per
    channel in line order; on a trace in start-time order per channel,
    as `mac.export_trace` writes it, this gives `mac.occupancy` of the
    parsed trace float for float.

    Everything after a line's first comma (its tail) is validated by
    `mac.parse_trace_line` the first time it is seen; later lines with
    the same tail only convert their start time. A line whose start does
    not convert, or falls outside `mac.parse_trace_line`'s rule
    0 <= t < inf, goes back through it, which skips the line as a
    comment or raises with its line number.
    """
    keep = None if stations is None else set(stations)
    inf = math.inf
    t0, t1 = window_us if window_us is not None else (0.0, math.inf)
    totals: dict[int, float] = {}
    # tail -> (channel, payload airtime, passes the station filter)
    tails: dict[str, tuple[int, float, bool]] = {}
    max_t = 0.0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                start, _, tail = raw.partition(",")
                known = tails.get(tail)
                if known is not None:
                    try:
                        t_start = float(start)
                    except ValueError:
                        t_start = math.nan
                    if not 0.0 <= t_start < inf:
                        known = None
                if known is None:
                    fields = mac.parse_trace_line(raw, lineno)
                    if fields is None:
                        continue
                    t_start, ch, station, _kind, size, rate, _outcome = fields
                    known = tails[tail] = (
                        ch, size * 8.0 / rate, keep is None or station in keep
                    )
                    totals.setdefault(ch, 0.0)
                ch, payload, counted = known
                if t_start + payload > max_t:
                    max_t = t_start + payload
                if counted and t0 <= t_start < t1:
                    totals[ch] += payload
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"cannot read trace file {path!r}: {exc}") from exc
    result: dict = {"per_channel": {}, "cumulative": 0.0}
    if totals:
        length = mac.window_length(window_us if window_us is not None else (0.0, max_t))
        for ch in sorted(totals):
            result["per_channel"][ch] = totals[ch] / length
            result["cumulative"] += totals[ch] / length
    return result
