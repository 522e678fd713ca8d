"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed list of scenario points. The seed changes the
details of each point (MAC random streams, channel labels, traffic
targets, small jitter on swept values) but never how many points there
are or what kind of work each does, so host time stays comparable from
seed to seed and every run attempts the same checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

HOME_WINDOW_S = 2.0
HOME_BIN_MS = 100.0
PACING_WINDOW_S = 2.0
HARVEST_WINDOW_S = 0.1

#: Per-channel neighbour mix (backlogged, cbr) of each home deployment
#: and its client's traffic. Every channel holds 1-4 neighbour APs.
HOME_TEMPLATES = (
    (((1, 0), (1, 1), (1, 2)), "udp_cbr"),
    (((0, 1), (2, 1), (2, 2)), "burst"),
    (((1, 3), (0, 2), (1, 0)), "udp_cbr"),
    (((2, 0), (1, 2), (0, 1)), "burst"),
)
#: The first home is generated from a key that does not depend on the
#: seed. The exact arrival identity is checked on it alone: it fails
#: there on every run (mac._run_channel never pulls the arrivals between
#: its last event and the window end), and on seeded homes it would fail
#: on some seeds only, so the failed share would move with the seed.
FIXED_HOME_KEY = "home-contended/fixed"

PLATEAU_DELAYS_US = (25.0, 50.0, 100.0, 150.0, 200.0)
TAIL_DELAYS_US = (300.0, 400.0, 600.0, 800.0)
FAIRNESS_RATES = (6.0, 16.0, 24.0, 36.0, 54.0)
FAIRNESS_SCHEMES = ("PoWiFi", "EqualShare", "BlindUDP")

#: Battery-free series: kind, duration_s and base distances in feet.
#: The seed jitters the distances by at most 1%.
SEEDED_RANGE_SERIES = (
    ("temp_battery_free", 150.0, (4.0, 8.0, 12.0, 16.0, 20.0, 24.0)),
    ("camera_battery_free", 86400.0, (3.0, 6.0, 9.0, 12.0, 15.0, 18.0)),
)
#: Battery-assisted series run on inputs that do not depend on the seed:
#: their ledger check fails on every in-range point (the surplus held in
#: HarvesterState._fire_surplus_j is carried by no ledger term), so the
#: failed share must not move with the seed.
FIXED_RANGE_SERIES = (
    ("temp_battery", 300.0, (6.0, 12.0, 18.0, 24.0, 30.0)),
    ("camera_battery", 3600.0, (4.0, 10.0, 16.0, 20.6, 26.0)),
)
FIXED_RANGE_SEED = 1009
WALLS = ("none", "double_pane_glass", "wooden_door", "hollow_wall", "double_sheetrock")
WALL_CAMERA_FT = 5.0
WALL_CAMERA_DURATION_S = 86400.0


@dataclass
class HomeDeployment:
    """One generated home: config text plus what the checks must know."""

    name: str
    text: str
    window_us: float
    fixed: bool = False  # inputs independent of the seed
    # flow name -> (channel, station, kind, pacing, interval_us)
    flows: dict = field(default_factory=dict)


@dataclass
class SweepPoint:
    name: str
    text: str
    variable: str
    value: object
    duration_s: float


@dataclass
class RangePoint:
    series: str
    kind: str
    text: str
    variable: str  # distance | wall_material
    value: object
    distance_ft: float
    wall: str
    duration_s: float
    window_us: float


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def home_contended(seed: int) -> list[HomeDeployment]:
    seeded = _rng("home-contended", seed)
    out = []
    for i, (mix, client_traffic) in enumerate(HOME_TEMPLATES):
        rng = random.Random(FIXED_HOME_KEY) if i == 0 else seeded
        channels = [1, 6, 11]
        rng.shuffle(channels)
        client_ch = rng.choice((1, 6, 11))
        window_us = HOME_WINDOW_S * 1e6
        lines = [
            "duration_s = 60",
            f"seed = {rng.randrange(1, 1 << 30)}",
            f"mac_window_s = {HOME_WINDOW_S}",
            f"occupancy_bin_ms = {HOME_BIN_MS}",
            f"throughput_bin_ms = {HOME_BIN_MS}",
            "",
            "[router]",
            "scheme = PoWiFi",
            "",
            "[station user]",
            "role = client",
            f"channel = {client_ch}",
            "rate_mbps = 54",
        ]
        dep = HomeDeployment(name=f"home{i}", text="", window_us=window_us, fixed=i == 0)
        if client_traffic == "udp_cbr":
            target = round(rng.uniform(4.0, 16.0), 1)
            lines += ["traffic = udp_cbr", f"target_mbps = {target}"]
            dep.flows["user"] = (client_ch, f"router_ch{client_ch}", "client_data",
                                 "cbr", 1500 * 8.0 / target)
        else:
            on_ms = rng.choice((100, 150, 200, 250))
            lines += [
                "traffic = burst",
                f"burst_bytes = {1500 * rng.randrange(12, 28)}",
                f"burst_on_ms = {on_ms}",
                f"burst_off_ms = {rng.choice((150, 200, 250, 300))}",
            ]
            dep.flows["user"] = (client_ch, f"router_ch{client_ch}", "client_data",
                                 "burst", None)
        for ch in (1, 6, 11):
            sid = f"router_ch{ch}"
            dep.flows[f"{sid}.power"] = (ch, sid, "power_broadcast", "paced", 100.0)
            dep.flows[f"{sid}.beacon"] = (ch, sid, "beacon", "beacon", None)
        for ch, (n_backlogged, n_cbr) in zip(channels, mix):
            for j in range(n_backlogged + n_cbr):
                nid = f"n{ch}_{j}"
                lines += ["", f"[station {nid}]", "role = neighbor_ap",
                          f"channel = {ch}"]
                if j < n_backlogged:
                    lines += ["rate_mbps = 54", "traffic = backlogged"]
                    dep.flows[nid] = (ch, nid, "neighbor_data", "backlogged", None)
                else:
                    target = round(rng.uniform(1.0, 6.0), 1)
                    lines += [f"rate_mbps = {rng.choice((24, 36, 48, 54))}",
                              "traffic = udp_cbr", f"target_mbps = {target}"]
                    dep.flows[nid] = (ch, nid, "neighbor_data", "cbr",
                                      1500 * 8.0 / target)
                dep.flows[f"{nid}.beacon"] = (ch, nid, "beacon", "beacon", None)
        lines += ["", "[harvester temp1]", "kind = temp_battery_free",
                  f"distance_ft = {round(rng.uniform(8.0, 14.0), 2)}"]
        dep.text = "\n".join(lines) + "\n"
        out.append(dep)
    return out


def pacing_sweep(seed: int) -> tuple[list[SweepPoint], list[SweepPoint], int]:
    """Delay points on one quiet channel, then fairness points.

    Returns (delay points, fairness points, the quiet channel).
    """
    rng = _rng("pacing-sweep", seed)
    quiet_ch = rng.choice((1, 6, 11))
    delay_text = (
        f"duration_s = {PACING_WINDOW_S}\nseed = {rng.randrange(1, 1 << 30)}\n"
        f"mac_window_s = {PACING_WINDOW_S}\n\n[router]\nscheme = PoWiFi\n"
        f"channels = {quiet_ch}\n"
    )
    delays = [round(d * rng.uniform(0.97, 1.0), 1) for d in PLATEAU_DELAYS_US]
    delays += [round(d * rng.uniform(1.0, 1.03), 1) for d in TAIL_DELAYS_US]
    delay_points = [
        SweepPoint(f"delay{d:g}", delay_text, "inter_packet_delay", d, PACING_WINDOW_S)
        for d in delays
    ]
    fair_ch = rng.choice((1, 6, 11))
    fair_seed = rng.randrange(1, 1 << 30)
    fair_points = []
    for scheme in FAIRNESS_SCHEMES:
        text = (
            f"duration_s = {PACING_WINDOW_S}\nseed = {fair_seed}\n"
            f"mac_window_s = {PACING_WINDOW_S}\n\n[router]\nscheme = {scheme}\n"
            f"channels = {fair_ch}\n\n[station neigh1]\nrole = neighbor_ap\n"
            f"channel = {fair_ch}\nrate_mbps = 54\ntraffic = backlogged\n"
        )
        for rate in FAIRNESS_RATES:
            fair_points.append(SweepPoint(
                f"{scheme}@{rate:g}", text, "neighbor_rate", rate, PACING_WINDOW_S
            ))
    return delay_points, fair_points, quiet_ch


def _range_text(kind: str, duration_s: float, seed: int, distance_ft: float) -> str:
    return (
        f"duration_s = {duration_s}\nseed = {seed}\nmac_window_s = {HARVEST_WINDOW_S}\n"
        f"\n[router]\nscheme = PoWiFi\n\n[harvester h1]\nkind = {kind}\n"
        f"distance_ft = {distance_ft}\n"
    )


def harvester_range(seed: int) -> list[RangePoint]:
    rng = _rng("harvester-range", seed)
    window_us = HARVEST_WINDOW_S * 1e6
    points = []
    series = [(k, dur, ds, rng.randrange(1, 1 << 30), True)
              for k, dur, ds in SEEDED_RANGE_SERIES]
    series += [(k, dur, ds, FIXED_RANGE_SEED, False) for k, dur, ds in FIXED_RANGE_SERIES]
    for kind, dur, distances, mac_seed, jitter in series:
        text = _range_text(kind, dur, mac_seed, distances[0])
        for d in distances:
            d_ft = round(d * rng.uniform(0.99, 1.01), 3) if jitter else d
            points.append(RangePoint(kind, kind, text, "distance", d_ft, d_ft, "none",
                                     dur, window_us))
    wall_ft = round(WALL_CAMERA_FT * rng.uniform(0.99, 1.01), 3)
    text = _range_text("camera_battery_free", WALL_CAMERA_DURATION_S,
                       rng.randrange(1, 1 << 30), wall_ft)
    for wall in WALLS:
        points.append(RangePoint("camera_walls", "camera_battery_free", text,
                                 "wall_material", wall, wall_ft, wall,
                                 WALL_CAMERA_DURATION_S, window_us))
    return points
